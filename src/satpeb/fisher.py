"""Measurement accuracy models, Jacobians, Fisher information, and PEB/GDOP.

The unknown is the 2-D horizontal UE position (east/north at fixed altitude).
RTT ranges are free of UE clock bias. TDOA takes downlink TOAs from perfectly
synchronized anchors sharing one unknown UE clock bias, eliminated by a Schur
complement: the equivalent FIM of Shen and Win (IEEE Trans. Inf. Theory, 2010)
and the GNSS pseudorange model, as informative as TDOA against any reference.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .constants import SPEED_OF_LIGHT
from .errors import VisibilityError
from .geometry import ecef_to_geodetic, enu_basis

DEGENERATE_EIGENVALUE = 1e-12  # m^-2; smaller horizontal information is unusable


class MeasurementKind(str, Enum):
    RTT = "rtt"
    TDOA = "tdoa"


@dataclass
class MeasurementSet:
    """A batch of RTT ranges or TDOA range differences with full covariance,
    from the (N, 3) ECEF `anchors`.

    For RTT the covariance is N x N; for TDOA it is (N-1) x (N-1) against the
    reference anchor.
    """

    kind: MeasurementKind
    anchors: np.ndarray
    covariance: np.ndarray
    reference_index: int | None = None

    def __post_init__(self):
        n = len(self.anchors)
        expected = n if self.kind is MeasurementKind.RTT else n - 1
        cov = np.asarray(self.covariance, dtype=float)
        if cov.shape == ():
            cov = cov.reshape(1, 1)
        self.covariance = cov
        if cov.shape != (expected, expected):
            raise ValueError(f"covariance must be {expected}x{expected}, got {cov.shape}")
        if not np.allclose(cov, cov.T, rtol=1e-9, atol=0.0):
            raise ValueError("covariance must be symmetric")
        try:
            np.linalg.cholesky(cov)
        except np.linalg.LinAlgError:
            raise ValueError("covariance must be positive definite") from None
        if self.kind is MeasurementKind.TDOA:
            if self.reference_index is None:
                raise ValueError("TDOA set requires a reference index")
            if not 0 <= self.reference_index < n:
                raise ValueError("reference index out of range")
        elif self.reference_index is not None:
            raise ValueError("RTT set takes no reference index")


@dataclass(frozen=True)
class PebResult:
    """Horizontal position error bound for one UE drop."""

    peb_m: float | None
    gdop: float | None
    degenerate: bool


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


def unit_vectors_en(ue_ecef: np.ndarray, positions: np.ndarray,
                    basis: np.ndarray | None = None,
                    check_horizon: bool = True) -> np.ndarray:
    """(..., N, 2) east/north components of the UE->anchor unit vectors;
    raises if any anchor sits at or below its UE's horizon, unless
    `check_horizon` is false.

    Broadcasts over leading axes: `ue_ecef` (..., 3), anchor `positions`
    (..., N, 3) and `basis` (..., 3, 3), whose rows are the UE's east, north
    and up unit vectors. A single UE's basis defaults to its local ENU frame.
    """
    ue = np.asarray(ue_ecef, dtype=float)
    if basis is None:
        basis = enu_basis(ecef_to_geodetic(ue))
    d = np.asarray(positions, dtype=float) - ue[..., None, :]
    dist = np.linalg.norm(d, axis=-1)
    units = d / dist[..., None]
    if check_horizon and np.any(units @ basis[..., 2, :, None] <= 0):
        raise VisibilityError("anchor at or below the UE horizon")
    return np.concatenate([units @ basis[..., 0, :, None],
                           units @ basis[..., 1, :, None]], axis=-1)


def geometry_jacobian(kind: MeasurementKind, units_en: np.ndarray,
                      reference_index: int | None = None) -> np.ndarray:
    """Partials of the observables with respect to east/north UE
    displacement at fixed altitude, from the anchor geometry alone: the
    (..., N, 2) UE->anchor unit vectors of `unit_vectors_en`.

    RTT row i:  d(range_i)/d(e,n) = -(east, north) of the UE->anchor_i unit
    vector. TDOA row i: d(range_i - range_ref)/d(e,n), over the
    non-reference anchors in order. Broadcasts over leading axes.
    """
    if kind is MeasurementKind.RTT:
        return -units_en
    rows = np.delete(np.arange(units_en.shape[-2]), reference_index)
    return (units_en[..., reference_index:reference_index + 1, :]
            - units_en[..., rows, :])


def jacobian(ue_ecef: np.ndarray, mset: MeasurementSet) -> np.ndarray:
    """M x 2 partials of the observables of `mset` with respect to east/north
    UE displacement at fixed altitude (see `geometry_jacobian`)."""
    uv = unit_vectors_en(ue_ecef, mset.anchors)
    return geometry_jacobian(mset.kind, uv, mset.reference_index)


def fim(J: np.ndarray, R: np.ndarray) -> np.ndarray:
    """Fisher information J^T R^-1 J; independent sets combine by addition.
    Broadcasts over stacked (..., M, 2) Jacobians and (..., M, M)
    covariances."""
    J = np.atleast_2d(np.asarray(J, dtype=float))
    R = np.asarray(R, dtype=float)
    if R.shape == ():
        R = R.reshape(1, 1)
    if R.shape[-1] != J.shape[-2]:
        raise ValueError("covariance and Jacobian dimensions disagree")
    try:
        w = np.linalg.solve(R, J)
    except np.linalg.LinAlgError:
        raise ValueError("singular measurement covariance") from None
    f = np.swapaxes(J, -1, -2) @ w
    return (f + np.swapaxes(f, -1, -2)) / 2.0


def fim_diagonal(J: np.ndarray, variances: np.ndarray,
                 clock_bias: bool = False) -> np.ndarray:
    """`fim` for independent measurements: (..., M, 2) Jacobians and their
    (..., M) variances, with no (..., M, M) covariance and no solve. The rows
    are scaled by the reciprocal variances, as the LU solve in `fim` scales
    them for a diagonal covariance, so the two give the same bits. `clock_bias`
    eliminates a bias common to the M measurements by centring the rows on
    their 1/variance-weighted mean; that is `fim` of TDOA against any reference."""
    w = 1.0 / variances
    if clock_bias:
        J = J - np.sum(J * w[..., None], -2, keepdims=True) / np.sum(w, -1)[..., None, None]
    f = np.swapaxes(J, -1, -2) @ (J * w[..., None])
    return (f + np.swapaxes(f, -1, -2)) / 2.0


def peb(f: np.ndarray, mean_variance: float = 1.0,
        degenerate_threshold: float = DEGENERATE_EIGENVALUE) -> PebResult:
    """Position error bound sqrt(trace(F^-1)) with a degeneracy flag.

    `mean_variance` is the mean diagonal of the measurement covariance; GDOP
    is the bound with all measurement sigmas normalized to one, i.e.
    peb / sqrt(mean_variance).
    """
    eig = np.linalg.eigvalsh(np.asarray(f, dtype=float))
    if float(eig[0]) < degenerate_threshold:
        return PebResult(peb_m=None, gdop=None, degenerate=True)
    bound = math.sqrt(float(np.sum(1.0 / eig)))
    return PebResult(
        peb_m=bound,
        gdop=bound / math.sqrt(mean_variance),
        degenerate=False,
    )


def peb_arrays(f: np.ndarray, mean_variance=1.0,
               degenerate_threshold: float = DEGENERATE_EIGENVALUE):
    """Array form of `peb` over stacked (..., 2, 2) FIMs: (peb_m, gdop,
    degenerate) arrays, with NaN bound and GDOP where degenerate.
    `mean_variance` broadcasts against the stack."""
    eig = np.linalg.eigvalsh(f)
    degenerate = eig[..., 0] < degenerate_threshold
    usable = np.where(degenerate[..., None], 1.0, eig)
    bound = np.where(degenerate, np.nan, np.sqrt(np.sum(1.0 / usable, axis=-1)))
    return bound, bound / np.sqrt(mean_variance), degenerate


def unit_sigma_gdop(positions: np.ndarray, serving_index: int, ue_ecef: np.ndarray,
                    kind: MeasurementKind = MeasurementKind.TDOA) -> float:
    """GDOP of the (N, 3) anchor geometry with all per-anchor range sigmas at
    1 m; TDOA takes the serving anchor as reference."""
    ones = np.ones(len(positions))
    if kind is MeasurementKind.TDOA:
        cov = tdoa_covariance(ones, serving_index)
        mset = MeasurementSet(kind, positions, cov, reference_index=serving_index)
    else:
        mset = MeasurementSet(kind, positions, np.diag(ones))
    result = peb(fim(jacobian(ue_ecef, mset), mset.covariance))
    return math.inf if result.degenerate else result.gdop


def best_subset_indices(positions: np.ndarray, serving_index: int, k: int,
                        ue_ecef: np.ndarray,
                        kind: MeasurementKind = MeasurementKind.TDOA) -> tuple[int, ...]:
    """Indices of the minimum-GDOP k-subset of the (N, 3) anchor `positions`
    containing the serving anchor, by exhaustive enumeration. Ties go to the
    lexicographically smallest index set."""
    n = len(positions)
    if k > n:
        raise ValueError(f"cannot select {k} of {n} visible satellites")
    others = [i for i in range(n) if i != serving_index]
    best_subset = None
    best_gdop = math.inf
    for combo in itertools.combinations(others, k - 1):
        indices = tuple(sorted((serving_index,) + combo))
        gdop = unit_sigma_gdop(positions[list(indices)], indices.index(serving_index),
                               ue_ecef, kind)
        # Relative guard keeps the first (lexicographically smallest) subset
        # on exact ties reached through symmetric geometry.
        if gdop < best_gdop * (1.0 - 1e-10):
            best_gdop = gdop
            best_subset = indices
    if best_subset is None:
        # Every subset degenerate; fall back to the first combination.
        best_subset = tuple(sorted((serving_index,) + tuple(others[:k - 1])))
    return best_subset


def min_gdop_subsets(units_en: np.ndarray, serving_index: int, k: int,
                     kind: MeasurementKind = MeasurementKind.TDOA,
                     visible: np.ndarray | None = None) -> np.ndarray:
    """Array form of `best_subset_indices` over UE drops: (D, k) sorted
    indices of each drop's minimum-GDOP k-subset containing the serving
    anchor, from the (D, N, 2) unit vectors of `unit_vectors_en`.

    All subsets of all drops are scored at once; they are then walked in
    enumeration order with the same relative guard, so ties and the
    all-degenerate fallback resolve exactly as in `best_subset_indices`.
    A (D, N) `visible` mask leaves each drop's hidden anchors out of its
    candidates, as `best_subset_indices` on the drop's visible anchors
    would; a drop with no fully visible subset gets the first subset.
    """
    n = units_en.shape[-2]
    if k > n:
        raise ValueError(f"cannot select {k} of {n} visible satellites")
    others = [i for i in range(n) if i != serving_index]
    combos = list(itertools.combinations(others, k - 1))
    subsets = np.array([sorted((serving_index,) + c) for c in combos])
    _, gdop, degenerate = peb_arrays(fim_diagonal(
        units_en[:, subsets], np.ones(k), clock_bias=kind is MeasurementKind.TDOA))
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
