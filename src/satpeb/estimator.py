"""Validation oracle: a Gauss-Newton position solver on synthetic TOAs, used
to check that empirical RMSE approaches the computed bound.

The solver fits the horizontal position at fixed altitude to TOA rows with
the bound's model and the bound's code: each step takes `line_of_sight` at
the rows' current positions and `information` over their residuals, with
the clock bias centred out as the bound centres it, and `is_degenerate`
gates every normal matrix as it gates the bound. So at the truth, with
noise-free rows, a step's normal matrix is the bound's information bit for
bit.
`validate` draws the rows of all trials in one call, from the ranges its
bound is computed at, and solves up to `_BLOCK_TRIALS` of them per pass as
stacked rows. Every row of a pass starts at the same guess, so the pass's
first step linearises once there. Each step solves its 2x2 normal equations
in closed form with elementwise ops only, so a row's bits are those of a
lone solve.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateGeometryError, VisibilityError
from .fisher import information, is_degenerate, line_of_sight, min_gdop_subsets, peb_arrays
from .geometry import Geodetic, enu_frames, hex_constellation, wrap_longitude
from .constants import EARTH_RADIUS_M

MAX_ITERATIONS = 50
STEP_TOLERANCE_M = 1e-4
_DIVERGENCE_STEP_M = 5e6
# Trials per `_gauss_newton` pass in `validate`: the default 2000 take one pass,
# and the working set, about 0.55 kB a trial (1.1 MB here), stays bounded.
_BLOCK_TRIALS = 2048
# Largest `validate` run: peak RSS grows about 73 B a trial (69 MB at 1e6
# trials; the drawn rows and each trial's errors), so this cap keeps a run
# near 0.4 GB (extrapolated, not run).
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


def _step(observed, lat, lon, alt_m, anchors, variances, clock_bias) -> np.ndarray:
    """(T, 2) east/north Gauss-Newton steps of the (T, N) `observed` TOA rows,
    linearised at (T,) `lat`/`lon`, or at one (1,) point shared by every row.

    The bound's model on (N, T) arrays: `line_of_sight` at the rows'
    positions, and `information` over the residuals, which gives the normal
    matrix [[a, b], [b, d]] and the right-hand side with the clock bias
    centred out where one is shared. Each sum adds whole rows, so that no
    row's bits depend on another's; Cramer's rule solves them."""
    ranges, east, north, sin_el = line_of_sight(lat, lon, alt_m, anchors[:, None])
    if np.any(sin_el <= 0):
        raise VisibilityError("anchor at or below the UE horizon")
    a, b, d, ge, gn = information(east, north, variances[:, None], clock_bias,
                                  observed.T - ranges)
    if np.any(is_degenerate(a, b, d)):
        raise DegenerateGeometryError("normal equations do not constrain the horizontal position")
    det = a * d - b * b
    return np.stack([(b * gn - d * ge) / det, (b * ge - a * gn) / det], axis=-1)


def _gauss_newton(observed: np.ndarray, anchors: np.ndarray, variances: np.ndarray,
                  clock_bias: bool, guess: Geodetic, max_iterations: int, tolerance_m: float):
    """Weighted Gauss-Newton over the horizontal position at fixed altitude,
    for each row of the (T, N) `observed` TOAs of the (N, 3) `anchors`, all
    rows at once, with `clock_bias` a bias common to a row's TOAs; returns
    (T,) latitude, longitude, iteration-count and converged arrays.

    A row converges when its step norm drops below `tolerance_m`. A row whose
    step diverges restarts once with halved steps; one that still does not
    converge is flagged. A pass carries its running rows' TOAs and positions
    only. A singular normal matrix raises DegenerateGeometryError."""
    observed = np.atleast_2d(observed)
    n, r = len(observed), EARTH_RADIUS_M + guess.alt_m
    lat_out, lon_out = np.full(n, guess.lat_rad), np.full(n, guess.lon_rad)
    iterations, converged, restart = np.zeros(n, dtype=int), np.zeros(n, dtype=bool), np.arange(n)
    for step_scale in (1.0, 0.5):  # rows whose step diverged restart at half step
        rows, restart, obs, count = restart, restart[:0], observed[restart], 0
        lat, lon = np.full(len(rows), guess.lat_rad), np.full(len(rows), guess.lon_rad)
        while rows.size and count < max_iterations:
            count += 1
            at = slice(1 if count == 1 else None)  # all rows start at `guess`: linearise once
            delta = step_scale * _step(obs, lat[at], lon[at], guess.alt_m, anchors,
                                       variances, clock_bias)
            step = np.sqrt(delta[:, 0] ** 2 + delta[:, 1] ** 2)
            diverged = ~(step <= _DIVERGENCE_STEP_M)  # a NaN step diverges too
            if diverged.any():  # such a row ends where it stood, unless it restarts
                restart, stopped = np.concatenate([restart, rows[diverged]]), rows[diverged]
                lat_out[stopped], lon_out[stopped], iterations[stopped] = (
                    lat[diverged], lon[diverged], count)
                rows, obs, lat, lon, delta, step = (x[~diverged] for x in
                                                    (rows, obs, lat, lon, delta, step))
            lat, lon = (np.clip(lat + delta[:, 1] / r, -math.pi / 2, math.pi / 2),
                        wrap_longitude(lon + delta[:, 0] / (r * np.cos(lat))))
            done = step < tolerance_m
            if done.any() or count == max_iterations:  # rows still running are rewritten later
                lat_out[rows], lon_out[rows], converged[rows] = lat, lon, done
                iterations[rows] = count
                rows, obs, lat, lon = (x[~done] for x in (rows, obs, lat, lon))
    return lat_out, lon_out, iterations, converged


def reference_tdoa_case() -> tuple:
    """Well-conditioned 4-LEO TDOA fixture: hexagonal grid at 780 km, UE
    offset from the beam center. Returns (truth, anchors, initial_guess);
    the serving satellite, the TDOA reference, is anchors[0]."""
    center = Geodetic(0.0, 0.0, 0.0)
    grid = hex_constellation(center, math.radians(13.0), math.radians(6.9), 780e3)
    truth = Geodetic(math.radians(0.05), math.radians(0.08), 0.0)
    # The serving satellite (grid index 0) sorts first in the chosen subset.
    _, east, north, sin_el = line_of_sight(truth.lat_rad, truth.lon_rad, truth.alt_m,
                                           grid[:, None])
    anchors = grid[min_gdop_subsets(east, north, 0, 4, sin_el > 0)[0]]
    return truth, anchors, center


def validate(n_trials: int = 2000, seed: int = 0) -> ValidationReport:
    """Monte Carlo bound-achievability check on the reference TDOA case,
    scenario "multi-leo-tdoa4", with every satellite's range sigma 1 m. A
    trial count outside [1, MAX_TRIALS] raises ValueError, and an anchor
    whose `line_of_sight` elevation sine is <= 0 VisibilityError."""
    if not 1 <= n_trials <= MAX_TRIALS:
        raise ValueError(f"n_trials must lie in [1, {MAX_TRIALS:,}], got {n_trials}")
    truth, anchors, guess = reference_tdoa_case()
    # The bound's geometry and information at the truth, on (N, 1) arrays as
    # `_step` builds them at one point
    ranges, east, north, sin_el = line_of_sight(np.array([truth.lat_rad]),
                                                np.array([truth.lon_rad]), truth.alt_m,
                                                anchors[:, None])
    if np.any(sin_el <= 0):
        raise VisibilityError("anchor at or below the UE horizon")
    variances, ranges = np.ones(len(anchors)), ranges[:, 0]
    bound = peb_arrays(*information(east, north, variances[:, None], clock_bias=True))[0].item()
    rng = np.random.default_rng(np.random.SeedSequence([seed, 0x76616c]))
    # TOA rows whose reference TOA is 0: the differences against anchor 0,
    # drawn with their covariance diag(v[1:]) + v[0] by its Cholesky factor
    root = np.linalg.cholesky(np.diag(variances[1:]) + variances[0])
    observed = np.zeros((n_trials, len(anchors)))
    observed[:, 1:] = ranges[1:] - ranges[0] + (
        root @ rng.standard_normal((n_trials, len(anchors) - 1))[..., None])[..., 0]
    # east/north errors pass by pass: frames are built for one pass, not all T trials
    truth_ecef, truth_basis = enu_frames(truth.lat_rad, truth.lon_rad, truth.alt_m)
    errors, converged = np.empty((n_trials, 2)), np.empty(n_trials, dtype=bool)
    for start in range(0, n_trials, _BLOCK_TRIALS):
        block = slice(start, start + _BLOCK_TRIALS)
        lat, lon, _, converged[block] = _gauss_newton(
            observed[block], anchors, variances, True, guess, MAX_ITERATIONS, STEP_TOLERANCE_M)
        estimate_ecef = enu_frames(lat, lon, guess.alt_m)[0]
        errors[block] = (truth_basis @ (estimate_ecef - truth_ecef)[..., None])[:, :2, 0]
    rmse = float(np.sqrt(np.mean(np.sum(errors**2, axis=1))))
    return ValidationReport(
        scenario="multi-leo-tdoa4", n_trials=n_trials, rmse_m=rmse, peb_m=bound,
        ratio=rmse / bound, convergence_rate=float(np.mean(converged)),
        mean_error_m=float(np.linalg.norm(np.mean(errors, axis=0))))
