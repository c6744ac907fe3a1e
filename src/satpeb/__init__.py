"""Position error bounds for single-LEO, multi-LEO, and GNSS+LEO positioning."""

__version__ = "0.1.0"

from .config import LinkBudget, ScenarioConfig, make_config
from .fisher import (MeasurementKind, MeasurementSet, PebResult, fim, jacobian,
                     peb, rtt_range_sigma, select_satellites, tdoa_covariance,
                     toa_range_sigma)
from .geometry import (AnchorSet, Geodetic, OrbitSpec, SatelliteState, SatRole,
                       ecef_to_enu, elevation_angle, enu_to_ecef,
                       geodetic_to_ecef, hex_constellation,
                       make_virtual_anchors, propagate_circular_orbit)
from .scenarios import (PebSampleSet, RunBundle, SummaryStats, drop_ues, run,
                        summarize)

__all__ = [
    "__version__",
    "AnchorSet", "Geodetic", "LinkBudget", "MeasurementKind", "MeasurementSet",
    "OrbitSpec", "PebResult", "PebSampleSet", "RunBundle", "SatRole",
    "SatelliteState", "ScenarioConfig", "SummaryStats",
    "drop_ues", "ecef_to_enu", "elevation_angle", "enu_to_ecef", "fim",
    "geodetic_to_ecef", "hex_constellation", "jacobian", "make_config",
    "make_virtual_anchors", "peb", "propagate_circular_orbit",
    "rtt_range_sigma", "run", "select_satellites", "summarize",
    "tdoa_covariance", "toa_range_sigma",
]
