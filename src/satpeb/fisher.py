"""Measurement accuracy models, Jacobians, Fisher information, and PEB/GDOP,
as array kernels over stacked UE drops and cases.

The unknown is the 2-D horizontal UE position (east/north at fixed altitude).
RTT ranges are free of UE clock bias. TDOA takes downlink TOAs from perfectly
synchronized anchors sharing one unknown UE clock bias, eliminated by a Schur
complement: the equivalent FIM of Shen and Win (IEEE Trans. Inf. Theory, 2010)
and the GNSS pseudorange model, as informative as TDOA against any reference.
`line_of_sight` is the one geometry pass over a set of links: its ranges
and elevation sines feed the link budget, and its negated east/north unit
vectors are a block's Jacobian rows. A case sums independent `fim_diagonal`
blocks, and `peb_arrays` turns the sum into the bound. The estimator's
solver fits the same model, with the same weighted centring of its rows.

Every 2x2 information matrix [[a, b], [b, d]] is read in closed form, with
no LAPACK call. One rule, `smallest_eigenvalue` below
`DEGENERATE_EIGENVALUE`, calls it degenerate for the case bound, the subset
scores and the solver's step gate, and its flags reach every output. The
bound and the scores share one kernel, sqrt((a + d) / (a*d - b*b)), which
also calls a determinant that rounds to zero or below degenerate.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from .constants import SPEED_OF_LIGHT

DEGENERATE_EIGENVALUE = 1e-12  # m^-2; smaller horizontal information is unusable


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


def line_of_sight(ue_ecef: np.ndarray, positions: np.ndarray,
                  basis: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(..., N) UE->anchor ranges, (..., N, 2) east/north components of the
    UE->anchor unit vectors, and (..., N) elevation sines, <= 0 where an
    anchor sits at or below its UE's horizon: the one geometry pass that
    serves both the link budget and the FIM.

    Broadcasts over leading axes: `ue_ecef` (..., 3), anchor `positions`
    (..., N, 3) and `basis` (..., 3, 3), whose rows are the UE's east, north
    and up unit vectors, as `geometry.enu_frames` returns them. The sine is
    taken on the geocentric up before the vectors are normalised.
    """
    ue = np.asarray(ue_ecef, dtype=float)
    units = np.asarray(positions, dtype=float) - ue[..., None, :]
    ranges = np.sqrt(np.sum(units * units, axis=-1))  # np.linalg.norm with one temporary
    up = ue / np.linalg.norm(ue, axis=-1, keepdims=True)
    sin_el = (units @ up[..., :, None])[..., 0] / ranges
    units /= ranges[..., None]
    return ranges, np.concatenate([units @ basis[..., 0, :, None],
                                   units @ basis[..., 1, :, None]], axis=-1), sin_el


def fim_diagonal(J: np.ndarray, variances: np.ndarray,
                 clock_bias: bool = False) -> np.ndarray:
    """Fisher information J^T R^-1 J of independent measurements, from
    (..., M, 2) Jacobians and their (..., M) variances: the rows are scaled by
    the reciprocal variances, with no (..., M, M) covariance and no solve.
    Independent blocks combine by addition. `clock_bias` eliminates a bias
    common to the M measurements by centring the rows on their
    1/variance-weighted mean; that is the information of TDOA against any
    reference."""
    w = 1.0 / variances
    if clock_bias:
        J = J - np.sum(J * w[..., None], -2, keepdims=True) / np.sum(w, -1)[..., None, None]
    f = np.swapaxes(J, -1, -2) @ (J * w[..., None])
    return (f + np.swapaxes(f, -1, -2)) / 2.0


def smallest_eigenvalue(a, b, d):
    """Smaller eigenvalue of each symmetric [[a, b], [b, d]] in closed form,
    within a few ulps of the larger one: the one degeneracy rule of the case
    bound, the subset scores and the solver's step gate."""
    return (a + d) / 2.0 - np.hypot((a - d) / 2.0, b)


def _bound(a, b, d, fill):
    """sqrt(trace(F^-1)) = sqrt((a + d) / (a*d - b*b)) of each [[a, b], [b, d]],
    with `fill` where it is degenerate, and that degenerate mask. Besides the
    `smallest_eigenvalue` rule, a determinant that rounds to zero or below
    is degenerate: with entries near 1e14 the eigenvalue's rounding alone
    passes the gate, and such a matrix has no finite bound."""
    degenerate = smallest_eigenvalue(a, b, d) < DEGENERATE_EIGENVALUE
    with np.errstate(divide="ignore", invalid="ignore"):  # degenerate ones get `fill`
        det = a * d - b * b
        degenerate = degenerate | ~(det > 0)
        return np.where(degenerate, fill, np.sqrt((a + d) / det)), degenerate


def peb_arrays(f: np.ndarray, mean_variance=1.0):
    """Position error bound sqrt(trace(F^-1)) over stacked (..., 2, 2) FIMs:
    (peb_m, gdop, degenerate) arrays from `_bound`, with NaN bound and GDOP
    where `_bound` calls the FIM degenerate. GDOP is the
    bound over sqrt(`mean_variance`), the mean measurement variance, which
    broadcasts against the stack."""
    bound, degenerate = _bound(f[..., 0, 0], f[..., 0, 1], f[..., 1, 1], np.nan)
    return bound, bound / np.sqrt(mean_variance), degenerate


def subset_gdop(units_en: np.ndarray, subsets: np.ndarray) -> np.ndarray:
    """(D, C) GDOP of each of the (C, k) anchor `subsets` of each drop's
    (D, N, 2) unit vectors, with every range sigma at 1 m and the clock bias
    eliminated, as TDOA does; inf where degenerate.

    The centred information comes from per-anchor sums: with the (N, C) 0/1
    membership matrix M, a = (e*e) @ M - (e @ M)**2 / k over the east
    components e, and likewise b and d, so GDOP is
    sqrt((a + d) / (a*d - b**2)): the Schur complement of Shen and Win
    written as centred sums, with no (D, C, k, 2) stack.
    """
    c, k = subsets.shape
    members = np.zeros((units_en.shape[-2], c))
    members[subsets, np.arange(c)[:, None]] = 1.0
    e, u = units_en[..., 0], units_en[..., 1]
    se, su, ee, eu, uu = np.stack([e, u, e * e, e * u, u * u]) @ members
    return _bound(ee - se * se / k, eu - se * su / k, uu - su * su / k, np.inf)[0]


def min_gdop_subsets(units_en: np.ndarray, serving_index: int, k: int,
                     visible: np.ndarray) -> np.ndarray:
    """(D, k) sorted indices of each UE drop's minimum-GDOP k-subset
    containing the serving anchor, by exhaustive enumeration, from the
    (D, N, 2) unit vectors of `line_of_sight`, scored by `subset_gdop`.

    The winner is that of a walk in enumeration order: a subset wins only
    below (1 - 1e-10) times the best so far, so exact ties reached through
    symmetric geometry go to the lexicographically smallest index set, and a
    drop whose candidates are all degenerate gets its first. The (D, N)
    `visible` mask leaves each drop's hidden anchors out of its candidates;
    a drop with no fully visible subset gets the first subset.
    """
    n = units_en.shape[-2]
    if k > n:
        raise ValueError(f"cannot select {k} of {n} visible satellites")
    others = [i for i in range(n) if i != serving_index]
    subsets = np.array([sorted((serving_index,) + c)
                        for c in itertools.combinations(others, k - 1)])
    gdop = subset_gdop(units_en, subsets)
    usable = np.all(visible[:, subsets], axis=-1)
    gdop[~usable] = np.inf
    choice = np.argmax(usable, axis=1)  # the all-degenerate fallback
    best = np.full(len(units_en), np.inf)
    for c, g in enumerate(gdop.T):
        better = g < best * (1.0 - 1e-10)
        np.copyto(best, g, where=better)
        choice[better] = c
    return subsets[choice]
