"""Large-scale radio model for satellite links.

Covers the satellite antenna pattern, free-space path loss, the
elevation-dependent LOS-probability / shadow-fading / clutter-loss tables of
the 3GPP NTN channel model (TR 38.811, S-band entries), and the link budget
that turns a link geometry into a post-integration SNR. The budget reads the
config's validated `LinkBudget` itself; the caller passes only the terms of
one direction (EIRP, G/T, processing gain). Every kernel takes and returns
arrays, one element per link.

Tables ship as CSV assets under ``satpeb/tables`` (columns: elevation_deg,
value; one file per scenario class and quantity). They are loaded once,
validated, and cached; checksums are pinned in the test suite and re-checked
by the CLI manifest.
"""

from __future__ import annotations

import csv
import hashlib
import math
from functools import lru_cache
from importlib import resources

import numpy as np

from .config import ANTENNA_MODELS, SCENARIO_CLASSES, LinkBudget
from .constants import BOLTZMANN, SPEED_OF_LIGHT


# Argument where the circular-aperture pattern 4*(J1(x)/x)^2 crosses -3 dB
# (10**-0.3, slightly above one half), to the last bit.
_HALF_POWER_ARG = 1.6137411963697341


# The Airy lobe 2*J1(x)/x. Up to x = 3, which covers every link inside a beam
# (x <= _HALF_POWER_ARG there), it is the ascending series of J1 (Abramowitz
# & Stegun 9.1.10) in y = (x/2)^2, summed by Horner's rule:
#     2*J1(x)/x = sum_k (-1)^k y^k / (k! (k+1)!),
# truncated after 14 terms (the first term left out is below 1e-18 at x = 3).
# Beyond, J1 comes from Miller's backward recurrence
# J_{m-1} = (2m/x) J_m - J_{m+1}, normalised by J0 + 2*(J2 + J4 + ...) = 1
# (A&S 9.12; Numerical Recipes, 2nd ed., section 6.5, whose bessj also
# rescales large iterates). Started at the even order at or below
# x + sqrt(160 x), it stays within 1e-15 of a double-precision J1 up to x = 45.
_SERIES_MAX_ARG = 3.0
_LOBE_SERIES = tuple((-1) ** k / (math.factorial(k) * math.factorial(k + 1))
                     for k in reversed(range(14)))
_RESCALE_ABOVE = 1e150
# Landau's bound |J1(x)| <= 0.7858 x^(-1/3) (J. Approx. Theory 103, 2000)
# holds the lobe below antenna_gain's 1e-8 floor beyond this argument, so
# the gain there is the floor without the recurrence, whose start order
# would grow with x and overflow an integer for the x of a very narrow beam.
_FLOOR_ARG = 1.5e6


def _airy_lobe(x: np.ndarray) -> np.ndarray:
    """2*J1(x)/x for an array of x >= 0 (1 at x = 0)."""
    lobe = np.empty_like(x)
    near = x <= _SERIES_MAX_ARG
    y = (0.5 * x[near]) ** 2
    acc = np.full_like(y, _LOBE_SERIES[0])
    for c in _LOBE_SERIES[1:]:
        acc = acc * y + c
    lobe[near] = acc
    far = x[~near]
    if far.size:
        lobe[~near] = 2.0 * _miller_j1(far) / far
    return lobe


def _miller_j1(x: np.ndarray) -> np.ndarray:
    """J1(x) for an array of x > 0 by normalised backward recurrence; each
    point starts at its own order and is zero above it."""
    start = 2 * ((x + np.sqrt(160.0 * x)).astype(int) // 2)
    j_next = np.zeros_like(x)  # J_{m+1}, then J_m after each step
    j_next2 = np.zeros_like(x)  # J_{m+2}
    total = np.zeros_like(x)  # J0 + 2*(J2 + J4 + ...) so far
    j1 = np.zeros_like(x)
    for m in range(int(start.max()), -1, -1):
        j_m = (2.0 * (m + 1) / x) * j_next - j_next2 + (m == start)
        j_next2, j_next = j_next, j_m
        if m == 1:
            j1 = j_m
        elif m % 2 == 0:
            total = total + (j_m if m == 0 else 2.0 * j_m)
        big = np.abs(j_m) > _RESCALE_ABOVE
        if big.any():
            scale = np.where(big, 1.0 / _RESCALE_ABOVE, 1.0)
            j_next, j_next2 = j_next * scale, j_next2 * scale
            total, j1 = total * scale, j1 * scale
    return j1 / total


def antenna_gain(beamwidth_rad: float, model: str, off_boresight_rad) -> np.ndarray:
    """Gain in dB relative to peak, at the given off-boresight angles, of the
    normalized pattern `model` (one of `config.ANTENNA_MODELS`): 0 dB at
    boresight, -3 dB at half of `beamwidth_rad`."""
    theta = np.asarray(off_boresight_rad, dtype=float)
    if np.any(theta < 0) or np.any(theta > math.pi):
        raise ValueError("off-boresight angle must lie in [0, pi]")
    if model not in ANTENNA_MODELS:
        raise ValueError(f"unknown antenna model {model!r}")
    if model == "gaussian-approx":
        # floored at the Bessel pattern's -160 dB, not -inf for a very narrow beam
        return np.maximum(-12.0 * (theta / beamwidth_rad) ** 2, -160.0)
    # k*a product sized so the pattern crosses -3 dB at beamwidth/2.
    ka = _HALF_POWER_ARG / math.sin(beamwidth_rad / 2.0)
    x = ka * np.sin(theta)
    lobe = np.zeros_like(x)
    inside = x < _FLOOR_ARG
    lobe[inside] = _airy_lobe(x[inside])
    # Clamp pattern nulls to a deep but finite floor.
    return 20.0 * np.log10(np.maximum(np.abs(lobe), 1e-8))


def free_space_path_loss(distance_m, carrier_hz) -> np.ndarray:
    """Free-space path loss in dB: 20*log10(4*pi*d*f/c)."""
    d = np.asarray(distance_m, dtype=float)
    if np.any(d <= 0):
        raise ValueError("distance must be positive")
    return 20.0 * np.log10(4.0 * math.pi * d * carrier_hz / SPEED_OF_LIGHT)


# ---------------------------------------------------------------------------
# Elevation-dependent channel tables

_TABLE_QUANTITIES = ("los_probability", "shadow_sigma_los",
                     "shadow_sigma_nlos", "clutter_loss")


def _file_name(quantity: str, cls: str) -> str:
    """The asset holding `quantity` for scenario class `cls`, e.g.
    `los_probability_dense_urban.csv` for "dense-urban"."""
    return f"{quantity}_{cls.replace('-', '_')}.csv"


@lru_cache(maxsize=1)
def _table_assets() -> dict[str, tuple[bytes, str]]:
    """Raw bytes and sha256 of every shipped table asset, keyed by file name;
    read once per process."""
    assets = {}
    for quantity in _TABLE_QUANTITIES:
        for cls in SCENARIO_CLASSES:
            name = _file_name(quantity, cls)
            raw = resources.files("satpeb").joinpath(f"tables/{name}").read_bytes()
            assets[name] = (raw, hashlib.sha256(raw).hexdigest())
    return assets


def _read_table(name: str) -> tuple[np.ndarray, np.ndarray]:
    rows = list(csv.reader(_table_assets()[name][0].decode().splitlines()))
    if rows[0] != ["elevation_deg", "value"]:
        raise ValueError(f"unexpected header in table {name}")
    elev = np.array([float(r[0]) for r in rows[1:]])
    vals = np.array([float(r[1]) for r in rows[1:]])
    if not np.all(np.diff(elev) > 0):
        raise ValueError(f"table {name} elevations must be increasing")
    return elev, vals


@lru_cache(maxsize=1)
def _tables() -> dict[tuple[str, str], tuple[np.ndarray, np.ndarray]]:
    out = {(quantity, cls): _read_table(_file_name(quantity, cls))
           for quantity in _TABLE_QUANTITIES for cls in SCENARIO_CLASSES}
    # Structural checks on the transcribed values.
    for cls in SCENARIO_CLASSES:
        _, p = out[("los_probability", cls)]
        if np.any(p < 0) or np.any(p > 1) or np.any(np.diff(p) < 0):
            raise ValueError(f"LOS probability table for {cls} is not a "
                             "non-decreasing probability sequence")
        _, s_los = out[("shadow_sigma_los", cls)]
        _, s_nlos = out[("shadow_sigma_nlos", cls)]
        _, cl = out[("clutter_loss", cls)]
        if np.any(s_los < 0) or np.any(s_nlos < 0) or np.any(cl < 0):
            raise ValueError(f"negative sigma/clutter entries for {cls}")
        if np.any(s_los > s_nlos):
            raise ValueError(f"LOS sigma exceeds NLOS sigma for {cls}")
    return out


# sha256 of the shipped table assets; the CLI manifest warns on mismatch.
PINNED_TABLE_CHECKSUMS = {
    "clutter_loss_dense_urban.csv": "e42725cc8256213e78219f03c716a8b3641d948188fb3dfbeaa91fcb8744f5dc",
    "clutter_loss_suburban_rural.csv": "2c448936f707b4419eb80a8bb04b8c3fdced98b995897651c72c1fab26c20f29",
    "clutter_loss_urban.csv": "e42725cc8256213e78219f03c716a8b3641d948188fb3dfbeaa91fcb8744f5dc",
    "los_probability_dense_urban.csv": "eb0c29f1573af847da96bcb420baab38f90bc8874abd6d9b290e493e5d7c119a",
    "los_probability_suburban_rural.csv": "214089a2566979a0ebb6fcf70a21b6210b1392086ab2b64ec1493d4e35cc23f3",
    "los_probability_urban.csv": "54bb8cc00630d2a2d257ddd36463af9e9d267cf3ecaff96c297ef6020e2a5c28",
    "shadow_sigma_los_dense_urban.csv": "c7c4b0972a7f815235d7940493cc4fea563cc6805a5439501bd70c384040c5e7",
    "shadow_sigma_los_suburban_rural.csv": "9df58d71c3ce00e9cc5072ab16a955b53c4c3aa7ed496401ec741c088a0b5904",
    "shadow_sigma_los_urban.csv": "8f41b2e7ef9e256499fb18a65f977b53c573f57e2a1ef0ff15301155fa97e606",
    "shadow_sigma_nlos_dense_urban.csv": "6f2a5746833e60efc056d3d659c7e52d76f7ddc0ca80c2260bf2a8b2bbfe76fd",
    "shadow_sigma_nlos_suburban_rural.csv": "7edc366524823c77297f0e38165d6d9b235649dee576d0eadbc69a1a406ddab4",
    "shadow_sigma_nlos_urban.csv": "fadd1b48f19d0887ebb082a539384bb7a3a595c155ba080ac9bf6e6375e0b5a4",
}


def table_checksums() -> dict[str, str]:
    """sha256 of every shipped table asset, keyed by file name: the bytes the
    channel tables are parsed from."""
    return {name: digest for name, (_, digest) in _table_assets().items()}


def _interp_table(quantity: str, cls: str, elevation_rad) -> np.ndarray:
    el = np.asarray(elevation_rad, dtype=float)
    if np.any(el <= 0) or np.any(el > math.pi / 2):
        raise ValueError("elevation must lie in (0, pi/2]")
    grid, vals = _tables()[(quantity, cls)]
    # np.interp clamps at the table ends (entries below 10 deg reuse the
    # 10 deg value).
    return np.interp(np.degrees(el), grid, vals)


def los_probability(cls: str, elevation_rad) -> np.ndarray:
    """LOS probability at the given elevation, linearly interpolated between
    the 10-degree-spaced table entries."""
    return _interp_table("los_probability", cls, elevation_rad)


def shadowing_sigma(cls: str, elevation_rad, los) -> tuple[np.ndarray, np.ndarray]:
    """(shadow-fading sigma dB, deterministic clutter loss dB) of links at
    the given elevations and LOS states; clutter loss is zero for LOS links."""
    s_los = _interp_table("shadow_sigma_los", cls, elevation_rad)
    s_nlos = _interp_table("shadow_sigma_nlos", cls, elevation_rad)
    cl = _interp_table("clutter_loss", cls, elevation_rad)
    return np.where(los, s_los, s_nlos), np.where(los, 0.0, cl)


# ---------------------------------------------------------------------------
# Link budget

def noise_floor_db(bandwidth_hz: float) -> float:
    """10*log10(k*B); combined with G/T this forms the noise term in dB."""
    return 10.0 * math.log10(BOLTZMANN * bandwidth_hz)


def link_snr(budget: LinkBudget, eirp_dbw: float, rx_g_over_t_db_k: float,
             processing_gain_db: float, distance_m, gain_db, shadow_db, clutter_db,
             penalty_db) -> np.ndarray:
    """Post-integration SNR in dB of link realizations in one direction,
    aligned with the array inputs. The direction's terms are its EIRP, its
    receiver's G/T and its processing gain; the carrier, bandwidth and extra
    losses come from `budget`. `gain_db` is the satellite pattern gain toward
    the UE (`antenna_gain`), which both directions of a link share, and
    `penalty_db` the neighbour-satellite penalty of each link (0 on a link to
    the serving satellite).

    snr = EIRP + G/T - FSPL - shadow - clutter - extra - neighbor penalty
          + pattern gain + processing gain - 10*log10(k*B)
    """
    fspl = free_space_path_loss(distance_m, budget.carrier_hz)
    return (eirp_dbw + rx_g_over_t_db_k - fspl - shadow_db - clutter_db
            - budget.extra_losses_db - penalty_db
            + gain_db + processing_gain_db - noise_floor_db(budget.bandwidth_hz))


def cn0_to_snr(cn0_dbhz: float, bandwidth_hz: float,
               processing_gain_db: float = 0.0) -> float:
    """Post-integration SNR from a received carrier-to-noise density."""
    return cn0_dbhz - 10.0 * math.log10(bandwidth_hz) + processing_gain_db
