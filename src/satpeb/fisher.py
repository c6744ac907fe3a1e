"""Measurement accuracy models, geometry, Fisher information, and PEB/GDOP,
as array kernels over stacked UE drops and cases.

The unknown is the 2-D horizontal UE position (east/north at fixed altitude).
RTT ranges are free of UE clock bias. TDOA takes downlink TOAs from perfectly
synchronized anchors sharing one unknown UE clock bias, eliminated by a Schur
complement: the equivalent FIM of Shen and Win (IEEE Trans. Inf. Theory, 2010)
and the GNSS pseudorange model, as informative as TDOA against any reference.
The model is written once, on anchor-first arrays: `line_of_sight` is the
geometry pass (its ranges, elevation sines and anchor - UE offsets feed the
link budget), and `information` turns its east/north components into a
block's (a, b, d), centred where a clock bias is shared. A case adds its
blocks' (a, b, d) and `peb_arrays` reads the bound; the estimator's solver
steps on the same two kernels.

Every 2x2 information matrix [[a, b], [b, d]] is read in closed form, with
no LAPACK call, and one rule, `is_degenerate`, decides which have no
bound, for the case bound (a hidden link's NaN range sigma makes its FIM
NaN), the subset scores and the solver's step gate.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from .constants import EARTH_RADIUS_M, SPEED_OF_LIGHT

DEGENERATE_RATIO = 1e-10  # dimensionless: det/t^2 of a FIM, see `is_degenerate`


def toa_range_sigma(snr_db, bandwidth_hz) -> np.ndarray:
    """Delay-estimation lower bound mapped to range. For a flat spectrum of
    bandwidth B the RMS bandwidth is B/sqrt(12), giving
    sigma = c * sqrt(3 / (2 * pi^2 * B^2 * snr))."""
    bandwidth = np.asarray(bandwidth_hz, dtype=float)
    if np.any(bandwidth <= 0):
        raise ValueError("bandwidth must be positive")
    snr_lin = 10.0 ** (np.asarray(snr_db, dtype=float) / 10.0)
    if np.any(snr_lin <= 0) or not np.all(np.isfinite(snr_lin)):
        raise ValueError("linear SNR must be positive and finite")
    return SPEED_OF_LIGHT * np.sqrt(3.0 / (2.0 * math.pi**2 * bandwidth**2 * snr_lin))


def rtt_range_sigma(sigma_dl_m, sigma_ul_m) -> np.ndarray:
    """Range sigma of a two-way measurement: range = c*RTT/2 averages the two
    one-way delays, so sigma^2 = (sigma_dl^2 + sigma_ul^2) / 4."""
    dl = np.asarray(sigma_dl_m, dtype=float)
    ul = np.asarray(sigma_ul_m, dtype=float)
    if np.any(dl < 0) or np.any(ul < 0):
        raise ValueError("sigmas must be non-negative")
    return np.sqrt((dl**2 + ul**2) / 4.0)


def line_of_sight(lat_rad, lon_rad, alt_m, anchors: np.ndarray):
    """UE->anchor ranges, east and north components of the UE->anchor unit
    vectors, elevation sines (on the geocentric up; <= 0 where an anchor sits
    at or below its UE's horizon) and the (dx, dy, dz) anchor - UE offsets
    they come from, elementwise. The ECEF coordinates `anchors[..., i]`
    broadcast against the UE latitudes and longitudes at altitude `alt_m`;
    (N, 1, 3) anchors against (D,) UEs give (N, D) arrays."""
    sl, cl, so, co = np.sin(lat_rad), np.cos(lat_rad), np.sin(lon_rad), np.cos(lon_rad)
    (x, y, z), r = np.moveaxis(anchors, -1, 0), EARTH_RADIUS_M + alt_m
    dx, dy, dz = x - r * cl * co, y - r * cl * so, z - r * sl
    horizontal = co * dx + so * dy
    ranges = np.sqrt(dx * dx + dy * dy + dz * dz)
    return (ranges, (co * dy - so * dx) / ranges, (cl * dz - sl * horizontal) / ranges,
            (cl * horizontal + sl * dz) / ranges, (dx, dy, dz))


def information(east, north, variances, clock_bias: bool = False, residual=None):
    """(a, b, d) of the information [[a, b], [b, d]] = J^T R^-1 J of
    independent ranges with Jacobian rows J = -(`east`, `north`) and range
    `variances`; with a `residual` r, also -J^T R^-1 r, a Gauss-Newton
    step's right-hand side. Every sum adds whole rows over the first
    (anchor) axis, so no column's bits depend on another's. `clock_bias`
    eliminates a bias common to the ranges by centring the rows and r on
    their 1/variance-weighted mean."""
    w = 1.0 / variances
    rows = (east, north) if residual is None else (east, north, residual)
    if clock_bias:
        total = sum(w)
        rows = [v - sum(w * v) / total for v in rows]
    east, north, *residual = rows
    we, wn = w * east, w * north
    abd = sum(we * east), sum(we * north), sum(wn * north)
    if not residual:
        return abd
    return abd + (sum(we * residual[0]), sum(wn * residual[0]))


def is_degenerate(a, b, d):
    """The one degeneracy rule of the bound, the subset scores and the solver's step:
    [[a, b], [b, d]] is degenerate unless det = a*d - b*b > `DEGENERATE_RATIO` * t^2,
    t = a + d. det/t^2, about lmin/lmax, rounds by about eps (1.1e-16), so past 1e-10
    det and the bound are within about 1e-6 of exact. Read off a/t, b/t and d/t, no
    scale moves it; NaN, inf or t <= 0 is degenerate; scalars give a NumPy bool."""
    with np.errstate(all="ignore"):
        t = np.add(a, d)
        return ~((t > 0) & ((a / t) * (d / t) - (b / t) ** 2 > DEGENERATE_RATIO))


def _bound(a, b, d, fill):
    """sqrt(trace(F^-1)) = sqrt((a + d) / (a*d - b*b)) of each [[a, b], [b, d]], with
    `fill` where `is_degenerate` holds, and that mask. Scaled by the even power of two
    that puts a + d in [1/2, 2), no bit or flag moves and no product can overflow."""
    with np.errstate(all="ignore"):  # only degenerate entries can raise
        e = np.frexp(np.add(a, d))[1] & -2
        a, b, d = np.ldexp(a, -e), np.ldexp(b, -e), np.ldexp(d, -e)
        degenerate = is_degenerate(a, b, d)
        ratio = np.where(degenerate, fill, (a + d) / (a * d - b * b))
    return np.ldexp(np.sqrt(ratio), -e // 2), degenerate


def peb_arrays(a, b, d, mean_variance=1.0):
    """(peb_m, gdop, degenerate) of each FIM [[a, b], [b, d]] from `_bound`,
    with NaN bound and GDOP where degenerate. GDOP is the bound over
    sqrt(`mean_variance`), the mean measurement variance."""
    bound, degenerate = _bound(a, b, d, np.nan)
    return bound, bound / np.sqrt(mean_variance), degenerate


def subset_gdop(east: np.ndarray, north: np.ndarray, subsets: np.ndarray) -> np.ndarray:
    """(C, D) GDOP of each of the (C, k) anchor `subsets` of each drop, from
    the (N, D) east and north unit components of `line_of_sight`, with
    every range sigma at 1 m and the clock bias eliminated, as TDOA does;
    inf where degenerate. The sums run relative to an anchor all subsets hold
    (ValueError if none), so they round to eps of a subset's spread, not of
    |u|^2, and a tight rank-one subset scores inf.

    The centred information comes from per-anchor sums: with the (C, N) 0/1
    membership matrix M, a = M @ (e*e) - (M @ e)**2 / k over the east
    components e, and likewise b and d, so GDOP is
    sqrt((a + d) / (a*d - b**2)): the Schur complement of Shen and Win as
    centred sums, with no (k, C, D) stack; README gives its speed and its
    agreement against `information` on such stacks.
    """
    c, k = subsets.shape
    members = np.zeros((c, len(east)))
    members[np.arange(c)[:, None], subsets] = 1.0
    held = np.flatnonzero(np.all(members, axis=0))
    if not held.size:
        raise ValueError("the subsets share no anchor")
    east, north = east - east[held[0]], north - north[held[0]]
    se, sn, ee, en, nn = members @ np.stack([east, north, east * east, east * north,
                                             north * north])
    return _bound(ee - se * se / k, en - se * sn / k, nn - sn * sn / k, np.inf)[0]


def min_gdop_subsets(east: np.ndarray, north: np.ndarray, serving_index: int, k: int,
                     visible: np.ndarray) -> np.ndarray:
    """(D, k) sorted indices of each UE drop's minimum-GDOP k-subset
    containing the serving anchor, by exhaustive enumeration, from the
    (N, D) east and north unit components of `line_of_sight`, scored by
    `subset_gdop`.

    The winner is that of a walk in enumeration order: a subset wins only
    below (1 - 1e-10) times the best so far, so exact ties reached through
    symmetric geometry go to the lexicographically smallest index set, and a
    drop whose candidates are all degenerate gets its first. The (N, D)
    `visible` mask leaves each drop's hidden anchors out of its candidates;
    a drop with no fully visible subset gets the first subset.
    """
    n = len(east)
    if k > n:
        raise ValueError(f"cannot select {k} of {n} visible satellites")
    others = [i for i in range(n) if i != serving_index]
    subsets = np.array([sorted((serving_index,) + c)
                        for c in itertools.combinations(others, k - 1)])
    gdop = subset_gdop(east, north, subsets)
    usable = np.all(visible[subsets], axis=1)
    gdop[~usable] = np.inf
    choice = np.argmax(usable, axis=0)  # the all-degenerate fallback
    best = np.full(east.shape[1:], np.inf)
    for c, g in enumerate(gdop):
        better = g < best * (1.0 - 1e-10)
        np.copyto(best, g, where=better)
        choice[better] = c
    return subsets[choice]
