"""Scenario configuration: defaults, validation, and serialization.

Link-budget defaults follow the S-band LEO parameter set of the 3GPP NTN
evaluation framework (TR 38.821 set-1 style numbers); the GNSS link is modeled
directly by a received C/N0. The two processing-gain constants are frozen by
``scripts/calibrate.py`` (see README) and absorb the reference-signal
integration assumptions that public link budgets leave open.

The fields of `ScenarioConfig` and `LinkBudget` are the config file's keys, in
the units their names carry, so the field list is the whole schema: the parser
checks each value against its field's annotation and the manifest snapshot is
`dataclasses.asdict`.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field, fields, replace

from .errors import ConfigError

VARIANTS = ("single-leo", "multi-leo", "gnss-leo", "gnss-only")
SCENARIO_CLASSES = ("dense-urban", "urban", "suburban-rural")
ANTENNA_MODELS = ("bessel-aperture", "gaussian-approx")

# Frozen by the calibration script against the published mean-PEB sweeps.
# The downlink term governs PRS-based TOA/TDOA accuracy, the uplink term
# SRS-based TOA accuracy inside RTT, the GNSS term the GNSS pseudoranges.
CALIBRATED_LEO_DL_PROCESSING_GAIN_DB = -10.0
CALIBRATED_LEO_UL_PROCESSING_GAIN_DB = 0.0
CALIBRATED_GNSS_PROCESSING_GAIN_DB = 58.0

# Run-size caps that keep the largest accepted run under about 2 GB of peak
# RSS. A run's memory grows by about 130 B per realized link, a UE-to-anchor
# link of one RTT window (single-leo: 1.8M links at 20,000 drops peak at
# 306 MB, 4.5M at 50,000 at 658 MB), and by about 2.8 kB per multi-leo drop
# (20,000 drops peak at 93 MB), whatever the link count.
MAX_VIRTUAL_ANCHORS = 100_000
MAX_UE_DROPS = 250_000
MAX_REALIZED_LINKS = 10_000_000


@dataclass(frozen=True)
class LinkBudget:
    """Configurable link-budget constants; see the calibration notes in the
    README for provenance of the defaults."""

    carrier_hz: float = 2.0e9
    bandwidth_hz: float = 10.0e6
    eirp_density_dbw_mhz: float = 34.0       # serving-LEO downlink
    ue_g_over_t_db_k: float = -31.6
    ue_eirp_dbw: float = -7.0                # 23 dBm, 0 dBi UE antenna
    sat_g_over_t_db_k: float = 1.1
    extra_losses_db: float = 0.0
    neighbor_penalty_db: float = 6.0
    leo_dl_processing_gain_db: float = CALIBRATED_LEO_DL_PROCESSING_GAIN_DB
    leo_ul_processing_gain_db: float = CALIBRATED_LEO_UL_PROCESSING_GAIN_DB
    beamwidth_deg: float = 4.4127
    antenna_model: str = "bessel-aperture"
    gnss_bandwidth_hz: float = 15.345e6
    gnss_cn0_dbhz: float = 44.0
    gnss_processing_gain_db: float = CALIBRATED_GNSS_PROCESSING_GAIN_DB

    @property
    def dl_eirp_dbw(self) -> float:
        """Total downlink EIRP from the per-MHz density and the bandwidth."""
        return self.eirp_density_dbw_mhz + 10.0 * math.log10(self.bandwidth_hz / 1e6)


@dataclass(frozen=True)
class ScenarioConfig:
    """Full experiment description for one run. Each field's annotation is
    one of the kinds `_parse_value` checks."""

    variant: str
    leo_altitude_m: float = 600e3
    measurement_times_s: tuple[float, ...] = ()
    n_virtual_anchors: int = 10
    n_active_satellites: int | None = None   # multi-leo; None = both 3 and 4
    rtt_augmentation: bool | None = None     # multi-leo; None = both off and on
    rtt_measurement_time_s: float = 10.0
    n_ue_drops: int = 1000
    seed: int = 0
    scenario_class: str = "suburban-rural"
    los_only: bool = False
    gnss_elevation_mask_deg: float = 30.0
    center_lat_deg: float = 0.0
    center_lon_deg: float = 0.0
    lon_gap_deg: float = 13.0
    lat_gap_deg: float = 6.9
    link: LinkBudget = field(default_factory=LinkBudget)


_VARIANT_DEFAULTS = {
    "single-leo": {"measurement_times_s": (2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0)},
    "multi-leo": {"leo_altitude_m": 780e3},
    "gnss-leo": {"measurement_times_s": (2.0, 5.0, 7.0, 10.0)},
    "gnss-only": {},
}


def make_config(variant: str, **overrides) -> ScenarioConfig:
    """Config with variant-specific defaults applied, then validated."""
    if variant not in VARIANTS:
        raise ConfigError("variant", f"unknown variant {variant!r}; expected one of {VARIANTS}")
    params = dict(_VARIANT_DEFAULTS[variant])
    params.update(overrides)
    config = ScenarioConfig(variant=variant, **params)
    validate_config(config)
    return config


def validate_config(config: ScenarioConfig) -> None:
    """Raise ConfigError naming the offending field on any contract violation."""
    # Past the Moon's orbit; the cap keeps the link path loss bounded (below).
    if not 0 < config.leo_altitude_m <= 1e9:
        raise ConfigError("leo_altitude_m", "must lie in (0, 1e9] m")
    if not 1 <= config.n_ue_drops <= MAX_UE_DROPS:
        raise ConfigError("n_ue_drops", f"must lie in [1, {MAX_UE_DROPS:,}]")
    check_seed(config.seed)
    if not 2 <= config.n_virtual_anchors <= MAX_VIRTUAL_ANCHORS:
        raise ConfigError("n_virtual_anchors", f"must lie in [2, {MAX_VIRTUAL_ANCHORS:,}]")
    if config.scenario_class not in SCENARIO_CLASSES:
        raise ConfigError("scenario_class",
                          f"unknown class {config.scenario_class!r}; expected one of {SCENARIO_CLASSES}")
    if any(t <= 0 for t in config.measurement_times_s):
        raise ConfigError("measurement_times_s", "times must be positive")
    if config.variant in ("single-leo", "gnss-leo") and not config.measurement_times_s:
        raise ConfigError("measurement_times_s",
                          f"must be non-empty for variant {config.variant!r}")
    if config.variant in ("multi-leo", "gnss-only") and config.measurement_times_s:
        raise ConfigError("measurement_times_s",
                          f"must be empty for variant {config.variant!r}, which has no "
                          "measurement-time sweep")
    links = (config.n_ue_drops * max(1, len(config.measurement_times_s))
             * config.n_virtual_anchors)
    if links > MAX_REALIZED_LINKS:
        raise ConfigError("n_ue_drops",
                          f"n_ue_drops x RTT windows x n_virtual_anchors is {links:,} "
                          f"realized links; at most {MAX_REALIZED_LINKS:,} fit in memory")
    if config.variant == "multi-leo":
        if config.n_active_satellites is not None and config.n_active_satellites not in (3, 4):
            raise ConfigError("n_active_satellites", "must be 3 or 4")
        if config.rtt_measurement_time_s <= 0:
            raise ConfigError("rtt_measurement_time_s", "must be positive")
        # In the radians the grid is built from: a subnormal gap rounds to 0.
        if math.radians(config.lon_gap_deg) <= 0:
            raise ConfigError("lon_gap_deg", "must be positive")
        if math.radians(config.lat_gap_deg) <= 0:
            raise ConfigError("lat_gap_deg", "must be positive")
    if not 0 <= config.gnss_elevation_mask_deg < 90:
        raise ConfigError("gnss_elevation_mask_deg", "must lie in [0, 90) degrees")
    if not -90 <= config.center_lat_deg <= 90:
        raise ConfigError("center_lat_deg", "must lie in [-90, 90] degrees")
    # The grid's side rows sit lat_gap_deg north and south of the center; this
    # sums the radians the grid is built from.
    if config.variant == "multi-leo" and (abs(math.radians(config.center_lat_deg))
                                          + math.radians(config.lat_gap_deg) > math.pi / 2):
        raise ConfigError(
            "lat_gap_deg" if math.radians(config.lat_gap_deg) > math.pi / 2 else "center_lat_deg",
            f"the grid's side rows at {config.center_lat_deg:g} +- {config.lat_gap_deg:g} "
            "(center_lat_deg +- lat_gap_deg) must lie in [-90, 90] degrees")
    link = config.link
    # Every dB-valued budget term within +-300 dB (a power ratio of 1e30, past
    # any physical budget) and every frequency within [1e-3, 1e15] Hz hold a
    # link's SNR within about +-2,100 dB, path loss up to the altitude cap
    # included, and its range variance within about 1e+-230 m^2: both stay
    # finite, positive and invertible in float64, which spans 1e+-308.
    for f in fields(LinkBudget):
        value = getattr(link, f.name)
        if f.name.endswith("_hz") and not 1e-3 <= value <= 1e15:
            raise ConfigError(f"link.{f.name}", "must lie in [1e-3, 1e15] Hz")
        if "_db" in f.name and not -300 <= value <= 300:
            raise ConfigError(f"link.{f.name}", "must lie in [-300, 300] dB")
    # A band signal cannot be wider than its carrier frequency.
    if link.bandwidth_hz > link.carrier_hz:
        raise ConfigError("link.bandwidth_hz", "must be at most link.carrier_hz")
    if link.neighbor_penalty_db < 0:
        raise ConfigError("link.neighbor_penalty_db", "must be non-negative")
    if not 0 < link.beamwidth_deg < 180:
        raise ConfigError("link.beamwidth_deg", "must lie in (0, 180)")
    if link.antenna_model not in ANTENNA_MODELS:
        raise ConfigError("link.antenna_model",
                          f"unknown model {link.antenna_model!r}; expected one of {ANTENNA_MODELS}")


def check_seed(seed: int) -> int:
    """`seed` itself; raises ConfigError unless 0 <= seed < 2**64."""
    if not 0 <= seed < 2**64:
        raise ConfigError("seed", "must fit in 64 bits")
    return seed


def with_seed(config: ScenarioConfig, seed: int) -> ScenarioConfig:
    return replace(config, seed=check_seed(seed))


def config_to_dict(config: ScenarioConfig) -> dict:
    """JSON-ready snapshot: the config file's keys and units, so feeding it
    back to `config_from_dict` rebuilds an equal config."""
    return asdict(config)


def config_from_dict(raw: dict, default_variant: str | None = None) -> ScenarioConfig:
    """Build and validate a config from parsed JSON; unknown keys rejected."""
    if not isinstance(raw, dict):
        raise ConfigError("<root>", "config must be a JSON object")
    # make_config checks the variant against the known ones.
    overrides = _parse_fields(ScenarioConfig, {k: v for k, v in raw.items() if k != "variant"})
    variant = raw.get("variant", default_variant)
    if variant is None:
        raise ConfigError("variant", "missing required key")
    return make_config(variant, **overrides)


# Field annotation -> the type its JSON value must have and that type's name.
_PLAIN_KINDS = {"int": (int, "an integer"), "bool": (bool, "a boolean"), "str": (str, "a string")}


def _parse_fields(cls, raw: dict, prefix: str = "") -> dict:
    """The entries of `raw` as values of the dataclass `cls`'s fields, keyed
    by field name; field paths in errors start with `prefix`."""
    kinds = {f.name: f.type for f in fields(cls)}
    unknown = set(raw) - set(kinds)
    if unknown:
        raise ConfigError(prefix + sorted(unknown)[0], "unknown configuration key")
    return {key: _parse_value(prefix + key, kinds[key], value) for key, value in raw.items()}


def _parse_value(path: str, kind: str, value):
    """`value` checked against the field annotation `kind` and stored as the
    config holds it: numbers as floats, lists as tuples, `link` as a
    LinkBudget."""
    optional = kind.endswith(" | None")
    kind = kind.removesuffix(" | None")
    if optional and value is None:
        return None
    if kind == "float":
        return _require_number(path, value)
    if kind == "tuple[float, ...]":
        if not isinstance(value, list):
            raise ConfigError(path, "must be a list of numbers")
        return tuple(_require_number(path, v) for v in value)
    if kind == "LinkBudget":
        if not isinstance(value, dict):
            raise ConfigError(path, "must be an object")
        return LinkBudget(**_parse_fields(LinkBudget, value, path + "."))
    expected, name = _PLAIN_KINDS[kind]
    if not isinstance(value, expected) or (expected is int and isinstance(value, bool)):
        raise ConfigError(path, f"must be {name}" + (" or null" if optional else ""))
    return value


def _require_number(key: str, value) -> float:
    """`value` as a finite float; JSON's NaN and Infinity literals and
    integers beyond the float range are rejected."""
    if not isinstance(value, (int, float)) or isinstance(value, bool):
        raise ConfigError(key, "must be a number")
    try:
        number = float(value)
    except OverflowError:
        number = math.inf
    if not math.isfinite(number):
        raise ConfigError(key, "must be a finite number")
    return number
