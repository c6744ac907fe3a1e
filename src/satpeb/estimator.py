"""Validation oracle: synthetic measurements and a Gauss-Newton position
solver, used to check that empirical RMSE approaches the computed bound.

The solver fits the horizontal position at fixed altitude to TOA rows with
the bound's model: `line_of_sight`'s ranges and unit vectors, and a clock
bias eliminated as `fim_diagonal(..., clock_bias=True)` eliminates it.
`validate` draws all trials in one call and solves up to `_BLOCK_TRIALS` of
them per pass as stacked rows, each with its own convergence mask, so a row
solves as it would alone. Every row of a pass starts at the same guess, so
the pass's first step linearises once there and broadcasts that geometry
over the rows; later steps linearise row by row. The normal equations stay
LAPACK's solve, matrix by matrix, which keeps each row's bits those of a
lone solve.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateGeometryError
from .fisher import (DEGENERATE_EIGENVALUE, fim_diagonal, line_of_sight, min_gdop_subsets,
                     peb_arrays, tdoa_covariance)
from .geometry import Geodetic, enu_frames, hex_constellation
from .constants import EARTH_RADIUS_M

MAX_ITERATIONS = 50
STEP_TOLERANCE_M = 1e-4
_DIVERGENCE_STEP_M = 5e6
# Trials per `_gauss_newton` pass in `validate`: the default 2000 take one pass,
# and the working set, about 0.45 kB a trial (0.9 MB here), stays bounded.
_BLOCK_TRIALS = 2048
# Largest `validate` run: peak RSS grows about 285 B a trial (322 MB at 1e6
# trials), so this cap keeps a run near 1.4 GB (extrapolated, not run).
MAX_TRIALS = 5_000_000


@dataclass(frozen=True)
class ValidationReport:
    scenario: str
    n_trials: int
    rmse_m: float
    peb_m: float
    ratio: float
    convergence_rate: float
    mean_error_m: float


def _observables(ranges: np.ndarray, ref: int | None) -> np.ndarray:
    """The (..., N) `ranges`, or their differences against range `ref`."""
    if ref is None:
        return ranges
    return np.delete(ranges, ref, axis=-1) - ranges[..., ref, None]


def _psd_sqrt(cov: np.ndarray) -> np.ndarray:
    """Matrix square root tolerating singular (including zero) covariance."""
    try:
        return np.linalg.cholesky(cov)
    except np.linalg.LinAlgError:
        w, v = np.linalg.eigh(cov)
        return v * np.sqrt(np.clip(w, 0.0, None))


def _simulate(truth: Geodetic, anchors: np.ndarray, covariance: np.ndarray,
              rng: np.random.Generator, ref: int | None, n_trials: int) -> np.ndarray:
    """(n_trials, M) noisy observables of the UE at `truth` from the (N, 3)
    ECEF `anchors`, drawn in one call on the stream: row t equals draw t, and
    a zero covariance gives the exact observables."""
    cov = np.atleast_2d(np.asarray(covariance, dtype=float))
    ue_ecef, basis = enu_frames(truth.lat_rad, truth.lon_rad, truth.alt_m)
    geometric = _observables(line_of_sight(ue_ecef, anchors, basis)[0], ref)
    z = rng.standard_normal((n_trials, geometric.size))
    return geometric + (_psd_sqrt(cov) @ z[..., None])[..., 0]


def _smallest_eigenvalue(normal: np.ndarray) -> np.ndarray:
    """Smaller eigenvalue of each symmetric (..., 2, 2) matrix in closed form,
    read from the lower triangle as `np.linalg.eigvalsh` reads it. It agrees
    with eigvalsh to a few ulps of the larger eigenvalue: enough for a gate,
    not for an output."""
    a, b, d = normal[..., 0, 0], normal[..., 1, 0], normal[..., 1, 1]
    return (a + d) / 2.0 - np.hypot((a - d) / 2.0, b)


def _centred(residual: np.ndarray, units: np.ndarray, w: np.ndarray):
    """The (..., N) `residual` and Jacobian rows -`units` (..., N, 2) of TOAs
    sharing a clock bias, centred on their means under the 1/variance weights
    `w` as `fim_diagonal(..., clock_bias=True)` centres; row-wise reductions
    keep a stacked row's bits those of a lone one."""
    total = np.sum(w)
    return (residual - np.einsum("m,...m->...", w, residual)[..., None] / total,
            np.einsum("m,...mk->...k", w, units)[..., None, :] / total - units)


def _step(observed, lat, lon, alt_m, anchors, variances, clock_bias) -> np.ndarray:
    """(T, 2) Gauss-Newton steps of the (T, N) `observed` TOA rows, linearised
    at (T,) `lat`/`lon`, or at one (1,) point shared by every row, whose
    geometry then broadcasts over the rows; temporaries die on return."""
    p, basis = enu_frames(lat, lon, alt_m)
    ranges, units = line_of_sight(p, anchors, basis)
    w = 1.0 / variances
    residual, J = (_centred(observed - ranges, units, w) if clock_bias
                   else (observed - ranges, -units))
    JtW = np.swapaxes(J * w[..., None], -1, -2)
    normal = JtW @ J
    if np.any(_smallest_eigenvalue(normal) < DEGENERATE_EIGENVALUE):
        raise DegenerateGeometryError(
            "normal equations do not constrain the horizontal position")
    # LAPACK's solve, matrix by matrix: a closed-form 2x2 solve rounds
    # differently and moves `rmse_m` by up to 2.4e-13 relative
    return np.linalg.solve(normal, JtW @ residual[..., None])[..., 0]


def _gauss_newton(observed: np.ndarray, anchors: np.ndarray, variances: np.ndarray,
                  clock_bias: bool, guess: Geodetic, max_iterations: int, tolerance_m: float):
    """Weighted Gauss-Newton over the horizontal position at fixed altitude,
    for each row of the (T, N) `observed` TOAs of the (N, 3) `anchors`, all
    rows at once, with `clock_bias` a bias common to a row's TOAs; returns
    (T,) latitude, longitude, iteration-count and converged arrays.

    A row converges when its step norm drops below `tolerance_m`. A row whose
    step diverges restarts once with halved steps; one that still does not
    converge is flagged. A singular normal matrix raises
    DegenerateGeometryError."""
    observed = np.atleast_2d(observed)
    r, rows = EARTH_RADIUS_M + guess.alt_m, np.arange(len(observed))
    lat, lon, iterations = np.empty(len(rows)), np.empty(len(rows)), np.zeros_like(rows)
    converged = np.zeros(len(rows), dtype=bool)
    for step_scale in (1.0, 0.5):  # rows whose step diverged restart at half step
        lat[rows], lon[rows], iterations[rows] = guess.lat_rad, guess.lon_rad, 0
        active, rows = rows, rows[:0]
        shared = True  # every row of a pass starts at `guess`: linearise there once
        while (active := active[iterations[active] < max_iterations]).size:
            iterations[active] += 1
            at = active[:1] if shared else active
            shared = False
            delta = step_scale * _step(observed[active], lat[at], lon[at],
                                       guess.alt_m, anchors, variances, clock_bias)
            step = np.linalg.norm(delta, axis=-1)
            diverged = ~np.all(np.isfinite(delta), axis=-1) | (step > _DIVERGENCE_STEP_M)
            rows = np.concatenate([rows, active[diverged]])
            active, delta, step = active[~diverged], delta[~diverged], step[~diverged]
            lat[active], lon[active] = (
                np.clip(lat[active] + delta[:, 1] / r, -math.pi / 2, math.pi / 2),
                (lon[active] + delta[:, 0] / (r * np.cos(lat[active])) + math.pi)
                % (2.0 * math.pi) - math.pi)
            converged[active] = step < tolerance_m
            active = active[~converged[active]]
    return lat, lon, iterations, converged


def reference_tdoa_case(range_sigma_m: float = 1.0) -> tuple:
    """Well-conditioned 4-LEO TDOA fixture: hexagonal grid at 780 km, UE
    offset from the beam center, per-satellite range sigmas equal. Returns
    (truth, anchors, covariance, reference_index, initial_guess)."""
    center = Geodetic(0.0, 0.0, 0.0)
    grid = hex_constellation(center, math.radians(13.0), math.radians(6.9), 780e3)
    truth = Geodetic(math.radians(0.05), math.radians(0.08), 0.0)
    ue_ecef, basis = enu_frames(truth.lat_rad, truth.lon_rad)
    # The serving satellite (grid index 0) sorts first in the chosen subset.
    anchors = grid[min_gdop_subsets(line_of_sight(ue_ecef, grid, basis)[1][None], 0, 4)[0]]
    cov = tdoa_covariance(np.full(4, range_sigma_m), 0)
    return truth, anchors, cov, 0, center


def validate(n_trials: int = 2000, range_sigma_m: float = 1.0,
             seed: int = 0) -> ValidationReport:
    """Monte Carlo bound-achievability check on the reference TDOA case,
    scenario "multi-leo-tdoa4", with every satellite's range sigma
    `range_sigma_m`. A trial count outside [1, MAX_TRIALS], or a range sigma
    that is not positive and finite or gives no finite bound, raises
    ValueError."""
    if not 1 <= n_trials <= MAX_TRIALS:
        raise ValueError(f"n_trials must lie in [1, {MAX_TRIALS:,}], got {n_trials}")
    if not 0.0 < range_sigma_m < math.inf:
        raise ValueError(f"range_sigma_m must be positive and finite, got {range_sigma_m}")
    truth, anchors, cov, ref, guess = reference_tdoa_case(range_sigma_m)
    truth_ecef, truth_basis = enu_frames(truth.lat_rad, truth.lon_rad, truth.alt_m)
    units = line_of_sight(truth_ecef, anchors, truth_basis)[1]
    variances = np.full(len(anchors), range_sigma_m) ** 2
    bound = float(peb_arrays(fim_diagonal(units, variances, clock_bias=True))[0])
    if not math.isfinite(bound):  # sigma**2 out of float range, or information below the gate
        raise ValueError(f"range_sigma_m={range_sigma_m} gives no finite bound")
    rng = np.random.default_rng(np.random.SeedSequence([seed, 0x76616c]))
    # the drawn differences against `ref` enter as TOAs whose reference TOA is 0
    observed = np.insert(_simulate(truth, anchors, cov, rng, ref, n_trials), ref, 0.0, axis=-1)
    blocks = np.split(observed, range(_BLOCK_TRIALS, n_trials, _BLOCK_TRIALS))
    solved = [_gauss_newton(block, anchors, variances, True, guess, MAX_ITERATIONS,
                            STEP_TOLERANCE_M) for block in blocks]
    lat, lon, _, converged = (np.concatenate(column) for column in zip(*solved))
    estimate_ecef, _ = enu_frames(lat, lon, guess.alt_m)
    errors = (truth_basis @ (estimate_ecef - truth_ecef)[..., None])[:, :2, 0]
    rmse = float(np.sqrt(np.mean(np.sum(errors**2, axis=1))))
    return ValidationReport(
        scenario="multi-leo-tdoa4", n_trials=n_trials, rmse_m=rmse, peb_m=bound,
        ratio=rmse / bound, convergence_rate=float(np.mean(converged)),
        mean_error_m=float(np.linalg.norm(np.mean(errors, axis=0))))
