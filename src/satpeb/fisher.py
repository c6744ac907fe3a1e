"""Measurement accuracy models, Jacobians, Fisher information, and PEB/GDOP,
as array kernels over stacked UE drops and cases.

The unknown is the 2-D horizontal UE position (east/north at fixed altitude).
RTT ranges are free of UE clock bias. TDOA takes downlink TOAs from perfectly
synchronized anchors sharing one unknown UE clock bias, eliminated by a Schur
complement: the equivalent FIM of Shen and Win (IEEE Trans. Inf. Theory, 2010)
and the GNSS pseudorange model, as informative as TDOA against any reference.
A block's Jacobian rows are the negated east/north UE->anchor unit vectors
of `line_of_sight`. A case's information is a sum of independent
`fim_diagonal` blocks, and `peb_arrays` turns it into the bound. The
estimator's solver fits the same model: `line_of_sight`, and the clock bias
eliminated by the same weighted centring of its rows.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from .constants import SPEED_OF_LIGHT
from .errors import VisibilityError

DEGENERATE_EIGENVALUE = 1e-12  # m^-2; smaller horizontal information is unusable


def toa_range_sigma(snr_db, bandwidth_hz) -> float | np.ndarray:
    """Delay-estimation lower bound mapped to range. For a flat spectrum of
    bandwidth B the RMS bandwidth is B/sqrt(12), giving
    sigma = c * sqrt(3 / (2 * pi^2 * B^2 * snr))."""
    bandwidth = np.asarray(bandwidth_hz, dtype=float)
    if np.any(bandwidth <= 0):
        raise ValueError("bandwidth must be positive")
    snr_lin = 10.0 ** (np.asarray(snr_db, dtype=float) / 10.0)
    if np.any(snr_lin <= 0) or not np.all(np.isfinite(snr_lin)):
        raise ValueError("linear SNR must be positive and finite")
    sigma = SPEED_OF_LIGHT * np.sqrt(3.0 / (2.0 * math.pi**2 * bandwidth**2 * snr_lin))
    return float(sigma) if sigma.ndim == 0 else sigma


def rtt_range_sigma(sigma_dl_m, sigma_ul_m) -> float | np.ndarray:
    """Range sigma of a two-way measurement: range = c*RTT/2 averages the two
    one-way delays, so sigma^2 = (sigma_dl^2 + sigma_ul^2) / 4."""
    dl = np.asarray(sigma_dl_m, dtype=float)
    ul = np.asarray(sigma_ul_m, dtype=float)
    if np.any(dl < 0) or np.any(ul < 0):
        raise ValueError("sigmas must be non-negative")
    sigma = np.sqrt((dl**2 + ul**2) / 4.0)
    return float(sigma) if sigma.ndim == 0 else sigma


def tdoa_covariance(sigmas_m, reference_index: int) -> np.ndarray:
    """Covariance of range differences sharing a reference anchor: diagonal
    sigma_i^2 + sigma_ref^2, off-diagonal sigma_ref^2. Broadcasts over the
    leading axes of `sigmas_m` (..., N)."""
    sigmas = np.atleast_1d(np.asarray(sigmas_m, dtype=float))
    n = sigmas.shape[-1]
    if n < 2:
        raise ValueError("TDOA requires at least two anchors")
    if not 0 <= reference_index < n:
        raise ValueError("reference index out of range")
    others = np.delete(sigmas, reference_index, axis=-1)
    ref_var = sigmas[..., reference_index] ** 2
    return ((others**2)[..., None] * np.eye(n - 1)
            + ref_var[..., None, None] * np.ones((n - 1, n - 1)))


def line_of_sight(ue_ecef: np.ndarray, positions: np.ndarray, basis: np.ndarray,
                  check_horizon: bool = True) -> tuple[np.ndarray, np.ndarray]:
    """(..., N) UE->anchor ranges and (..., N, 2) east/north components of
    the UE->anchor unit vectors; raises if any anchor sits at or below its
    UE's horizon, unless `check_horizon` is false.

    Broadcasts over leading axes: `ue_ecef` (..., 3), anchor `positions`
    (..., N, 3) and `basis` (..., 3, 3), whose rows are the UE's east, north
    and up unit vectors, as `geometry.enu_frames` returns them.
    """
    ue = np.asarray(ue_ecef, dtype=float)
    units = np.asarray(positions, dtype=float) - ue[..., None, :]
    ranges = np.sqrt(np.sum(units * units, axis=-1))  # np.linalg.norm with one temporary
    units /= ranges[..., None]
    if check_horizon and np.any(np.sum(units * basis[..., None, 2, :], axis=-1) <= 0):
        raise VisibilityError("anchor at or below the UE horizon")
    return ranges, np.concatenate([units @ basis[..., 0, :, None],
                                   units @ basis[..., 1, :, None]], axis=-1)


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


def peb_arrays(f: np.ndarray, mean_variance=1.0):
    """Position error bound sqrt(trace(F^-1)) over stacked (..., 2, 2) FIMs:
    (peb_m, gdop, degenerate) arrays, with NaN bound and GDOP where the smaller
    eigenvalue is below `DEGENERATE_EIGENVALUE`. GDOP is the bound over
    sqrt(`mean_variance`), the mean measurement variance, which broadcasts
    against the stack."""
    eig = np.linalg.eigvalsh(f)
    degenerate = eig[..., 0] < DEGENERATE_EIGENVALUE
    usable = np.where(degenerate[..., None], 1.0, eig)
    bound = np.where(degenerate, np.nan, np.sqrt(np.sum(1.0 / usable, axis=-1)))
    return bound, bound / np.sqrt(mean_variance), degenerate


def min_gdop_subsets(units_en: np.ndarray, serving_index: int, k: int,
                     visible: np.ndarray | None = None) -> np.ndarray:
    """(D, k) sorted indices of each UE drop's minimum-GDOP k-subset
    containing the serving anchor, by exhaustive enumeration, from the
    (D, N, 2) unit vectors of `line_of_sight`. GDOP takes every range sigma
    at 1 m and eliminates the clock bias, as TDOA does.

    All subsets of all drops are scored at once, then walked in enumeration
    order: a subset wins only below (1 - 1e-10) times the best so far, so
    exact ties reached through symmetric geometry go to the lexicographically
    smallest index set, and a drop whose candidates are all degenerate gets
    its first. A (D, N) `visible` mask leaves each drop's hidden anchors out
    of its candidates; a drop with no fully visible subset gets the first
    subset.
    """
    n = units_en.shape[-2]
    if k > n:
        raise ValueError(f"cannot select {k} of {n} visible satellites")
    others = [i for i in range(n) if i != serving_index]
    combos = list(itertools.combinations(others, k - 1))
    subsets = np.array([sorted((serving_index,) + c) for c in combos])
    _, gdop, degenerate = peb_arrays(fim_diagonal(
        units_en[:, subsets], np.ones(k), clock_bias=True))
    gdop = np.where(degenerate, np.inf, gdop)
    best = np.full(len(units_en), np.inf)
    choice = np.zeros(len(units_en), dtype=int)
    if visible is not None:
        usable = np.all(visible[:, subsets], axis=-1)
        gdop = np.where(usable, gdop, np.inf)
        choice = np.argmax(usable, axis=1)  # the all-degenerate fallback
    for c in range(len(combos)):
        better = gdop[:, c] < best * (1.0 - 1e-10)
        best = np.where(better, gdop[:, c], best)
        choice[better] = c
    return subsets[choice]
