"""Position error bounds for single-LEO, multi-LEO, and GNSS+LEO positioning."""

__version__ = "0.1.0"

from .config import LinkBudget, ScenarioConfig, make_config
from .fisher import rtt_range_sigma, toa_range_sigma
from .geometry import (Geodetic, OrbitSpec, geodetic_to_ecef, hex_constellation,
                       make_virtual_anchors, propagate_circular_orbit)
from .scenarios import RunBundle, SummaryStats, drop_ues, run, summarize

__all__ = [
    "__version__",
    "Geodetic", "LinkBudget", "OrbitSpec", "RunBundle", "ScenarioConfig",
    "SummaryStats", "drop_ues", "geodetic_to_ecef",
    "hex_constellation", "make_config", "make_virtual_anchors",
    "propagate_circular_orbit", "rtt_range_sigma", "run", "summarize",
    "toa_range_sigma",
]
