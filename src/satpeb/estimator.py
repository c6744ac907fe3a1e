"""Validation oracle: synthetic measurements and a Gauss-Newton position
solver, used to check that empirical RMSE approaches the computed bound.

The solver estimates the 2-D horizontal position at fixed altitude from the
same range / range-difference models the bound computation uses.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateGeometryError
from .fisher import (DEGENERATE_EIGENVALUE, MeasurementKind, MeasurementSet,
                     best_subset_indices, fim, geometry_jacobian, peb,
                     tdoa_covariance, unit_vectors_en)
from .fisher import jacobian as fisher_jacobian
from .geometry import (AnchorSet, Geodetic, ecef_to_enu, geodetic_to_ecef,
                       hex_constellation)
from .constants import EARTH_RADIUS_M

MAX_ITERATIONS = 50
STEP_TOLERANCE_M = 1e-4
_DIVERGENCE_STEP_M = 5e6


@dataclass(frozen=True)
class SyntheticMeasurements:
    """Noisy observables drawn around the true geometry."""

    kind: MeasurementKind
    anchors: AnchorSet
    observed_m: np.ndarray
    covariance: np.ndarray
    truth: Geodetic
    reference_index: int | None = None


@dataclass(frozen=True)
class SolveResult:
    estimate: Geodetic
    iterations: int
    converged: bool
    residual_norm: float


@dataclass(frozen=True)
class ValidationReport:
    scenario: str
    n_trials: int
    rmse_m: float
    peb_m: float
    ratio: float
    convergence_rate: float
    mean_error_m: float


def predict(kind: MeasurementKind, anchors: AnchorSet,
            reference_index: int | None, position_ecef: np.ndarray) -> np.ndarray:
    """Geometric observables at a candidate position: ranges for RTT, range
    differences against the reference for TDOA."""
    ranges = np.linalg.norm(anchors.positions() - position_ecef, axis=1)
    if kind is MeasurementKind.RTT:
        return ranges
    keep = np.delete(np.arange(len(anchors)), reference_index)
    return ranges[keep] - ranges[reference_index]


def _psd_sqrt(cov: np.ndarray) -> np.ndarray:
    """Matrix square root tolerating singular (including zero) covariance."""
    try:
        return np.linalg.cholesky(cov)
    except np.linalg.LinAlgError:
        w, v = np.linalg.eigh(cov)
        return v * np.sqrt(np.clip(w, 0.0, None))


def simulate_measurements(truth: Geodetic, kind: MeasurementKind,
                          anchors: AnchorSet, covariance: np.ndarray,
                          rng: np.random.Generator,
                          reference_index: int | None = None) -> SyntheticMeasurements:
    """Draw one noisy measurement vector; zero covariance gives exact truth."""
    cov = np.asarray(covariance, dtype=float)
    if cov.shape == ():
        cov = cov.reshape(1, 1)
    geometric = predict(kind, anchors, reference_index, geodetic_to_ecef(truth))
    noise = _psd_sqrt(cov) @ rng.standard_normal(geometric.size)
    return SyntheticMeasurements(
        kind=kind, anchors=anchors, observed_m=geometric + noise,
        covariance=cov, truth=truth, reference_index=reference_index)


def _step_geodetic(g: Geodetic, de: float, dn: float) -> Geodetic:
    """Move by local east/north meters along the constant-altitude sphere."""
    r = EARTH_RADIUS_M + g.alt_m
    lat = g.lat_rad + dn / r
    lon = g.lon_rad + de / (r * math.cos(g.lat_rad))
    lat = min(max(lat, -math.pi / 2), math.pi / 2)
    return Geodetic(lat, lon, g.alt_m)


def _jacobian_rows(meas: SyntheticMeasurements, position_ecef: np.ndarray) -> np.ndarray:
    units = unit_vectors_en(position_ecef, meas.anchors.positions())
    return geometry_jacobian(meas.kind, units, meas.reference_index)


def solve(meas: SyntheticMeasurements, initial_guess: Geodetic,
          max_iterations: int = MAX_ITERATIONS,
          tolerance_m: float = STEP_TOLERANCE_M) -> SolveResult:
    """Weighted Gauss-Newton over the horizontal position at fixed altitude.

    Converges when the step norm drops below `tolerance_m`. On divergence the
    solve restarts once with halved steps; persistent non-convergence is
    returned as a flagged result. A singular normal matrix raises
    DegenerateGeometryError.
    """
    cov = meas.covariance
    try:
        weight = np.linalg.inv(cov)
    except np.linalg.LinAlgError:
        weight = np.eye(len(meas.observed_m))  # noiseless / singular: unweighted

    for step_scale in (1.0, 0.5):
        g = initial_guess
        iterations = 0
        diverged = False
        while iterations < max_iterations:
            iterations += 1
            p = geodetic_to_ecef(g)
            resid = meas.observed_m - predict(meas.kind, meas.anchors,
                                              meas.reference_index, p)
            J = _jacobian_rows(meas, p)
            normal = J.T @ weight @ J
            if np.linalg.eigvalsh(normal)[0] < DEGENERATE_EIGENVALUE:
                raise DegenerateGeometryError(
                    "normal equations do not constrain the horizontal position")
            delta = step_scale * np.linalg.solve(normal, J.T @ weight @ resid)
            if not np.all(np.isfinite(delta)) or np.linalg.norm(delta) > _DIVERGENCE_STEP_M:
                diverged = True
                break
            g = _step_geodetic(g, float(delta[0]), float(delta[1]))
            if np.linalg.norm(delta) < tolerance_m:
                resid = meas.observed_m - predict(meas.kind, meas.anchors,
                                                  meas.reference_index,
                                                  geodetic_to_ecef(g))
                return SolveResult(g, iterations, True,
                                   float(math.sqrt(resid @ weight @ resid)))
        if not diverged:
            break

    resid = meas.observed_m - predict(meas.kind, meas.anchors,
                                      meas.reference_index, geodetic_to_ecef(g))
    return SolveResult(g, iterations, False,
                       float(math.sqrt(resid @ weight @ resid)))


def reference_tdoa_case(range_sigma_m: float = 1.0,
                        altitude_m: float = 780e3) -> tuple:
    """Well-conditioned 4-LEO TDOA fixture: hexagonal grid, UE offset from the
    beam center, per-satellite range sigmas equal. Returns
    (truth, anchors, covariance, reference_index, initial_guess)."""
    center = Geodetic(0.0, 0.0, 0.0)
    grid = hex_constellation(center, math.radians(13.0), math.radians(6.9), altitude_m)
    truth = Geodetic(math.radians(0.05), math.radians(0.08), 0.0)
    indices = best_subset_indices(grid, 4, geodetic_to_ecef(truth))
    anchors = AnchorSet(states=tuple(grid.states[j] for j in indices),
                        serving_index=indices.index(0))
    cov = tdoa_covariance(np.full(4, range_sigma_m), anchors.serving_index)
    return truth, anchors, cov, anchors.serving_index, center


def validate(scenario: str = "multi-leo-tdoa4", n_trials: int = 2000,
             range_sigma_m: float = 1.0, snr_offset_db: float = 0.0,
             seed: int = 0) -> ValidationReport:
    """Monte Carlo bound-achievability check on the reference TDOA case,
    `scenario` "multi-leo-tdoa4", the only one implemented; any other name
    raises ValueError.

    `snr_offset_db` scales the measurement sigma by 10**(-offset/20), so +20
    dB shrinks the noise tenfold.
    """
    if scenario != "multi-leo-tdoa4":
        raise ValueError(f"unknown validation scenario {scenario!r}; "
                         "only 'multi-leo-tdoa4' is implemented")
    sigma = range_sigma_m * 10.0 ** (-snr_offset_db / 20.0)
    truth, anchors, cov, ref, guess = reference_tdoa_case(sigma)
    truth_ecef = geodetic_to_ecef(truth)
    mset = MeasurementSet(MeasurementKind.TDOA, anchors, cov, reference_index=ref)
    bound = peb(fim(fisher_jacobian(truth_ecef, mset), cov))

    rng = np.random.default_rng(np.random.SeedSequence([seed, 0x76616c]))
    errors = []
    converged = 0
    for _ in range(n_trials):
        meas = simulate_measurements(truth, MeasurementKind.TDOA, anchors, cov,
                                     rng, reference_index=ref)
        result = solve(meas, guess)
        if result.converged:
            converged += 1
        enu = ecef_to_enu(geodetic_to_ecef(result.estimate),
                          Geodetic(truth.lat_rad, truth.lon_rad, truth.alt_m))
        errors.append(enu[:2])
    errors = np.array(errors)
    rmse = float(np.sqrt(np.mean(np.sum(errors**2, axis=1))))
    mean_err = float(np.linalg.norm(np.mean(errors, axis=0)))
    return ValidationReport(
        scenario=scenario,
        n_trials=n_trials,
        rmse_m=rmse,
        peb_m=bound.peb_m,
        ratio=rmse / bound.peb_m,
        convergence_rate=converged / n_trials,
        mean_error_m=mean_err,
    )
