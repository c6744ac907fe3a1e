import math

import numpy as np
import pytest

from satpeb.errors import DegenerateGeometryError
from satpeb.estimator import (SyntheticMeasurements, predict,
                              reference_tdoa_case, simulate_measurements,
                              solve, validate)
from satpeb.fisher import MeasurementKind, tdoa_covariance
from satpeb.geometry import (AnchorSet, Geodetic, geodetic_to_ecef,
                             ground_track_orbit, make_virtual_anchors)


@pytest.fixture
def tdoa_case():
    return reference_tdoa_case(range_sigma_m=1.0)


class TestSimulate:
    def test_zero_covariance_is_exact(self, tdoa_case):
        truth, anchors, _, ref, _ = tdoa_case
        rng = np.random.default_rng(0)
        meas = simulate_measurements(truth, MeasurementKind.TDOA, anchors,
                                     np.zeros((3, 3)), rng, reference_index=ref)
        exact = predict(MeasurementKind.TDOA, anchors, ref, geodetic_to_ecef(truth))
        assert np.array_equal(meas.observed_m, exact)

    def test_same_seed_same_draws(self, tdoa_case):
        truth, anchors, cov, ref, _ = tdoa_case
        a = simulate_measurements(truth, MeasurementKind.TDOA, anchors, cov,
                                  np.random.default_rng(42), reference_index=ref)
        b = simulate_measurements(truth, MeasurementKind.TDOA, anchors, cov,
                                  np.random.default_rng(42), reference_index=ref)
        assert np.array_equal(a.observed_m, b.observed_m)

    def test_empirical_covariance_matches(self, tdoa_case):
        truth, anchors, _, ref, _ = tdoa_case
        cov = tdoa_covariance([3.0, 1.0, 2.0, 4.0], ref)
        rng = np.random.default_rng(7)
        n = 100_000
        exact = predict(MeasurementKind.TDOA, anchors, ref, geodetic_to_ecef(truth))
        draws = np.array([
            simulate_measurements(truth, MeasurementKind.TDOA, anchors, cov,
                                  rng, reference_index=ref).observed_m - exact
            for _ in range(n)
        ])
        empirical = np.cov(draws.T)
        for i in range(3):
            for j in range(3):
                se = math.sqrt((cov[i, i] * cov[j, j] + cov[i, j] ** 2) / n)
                assert abs(empirical[i, j] - cov[i, j]) < 3.0 * se


class TestSolve:
    def test_noiseless_recovery_from_5km(self, tdoa_case):
        truth, anchors, _, ref, _ = tdoa_case
        meas = simulate_measurements(truth, MeasurementKind.TDOA, anchors,
                                     np.zeros((3, 3)), np.random.default_rng(0),
                                     reference_index=ref)
        guess = Geodetic(truth.lat_rad + 5e3 / 6371e3, truth.lon_rad, 0.0)
        result = solve(meas, guess)
        assert result.converged
        assert result.iterations <= 50
        err = np.linalg.norm(geodetic_to_ecef(result.estimate) - geodetic_to_ecef(truth))
        assert err < 1e-3

    def test_ground_track_geometry_raises(self):
        orbit = ground_track_orbit(Geodetic(0.0, 0.0, 0.0), 600e3)
        anchors = make_virtual_anchors(orbit, 10.0, 10)
        truth = Geodetic(math.radians(0.05), 0.0, 0.0)
        cov = np.eye(10) * 25.0
        meas = simulate_measurements(truth, MeasurementKind.RTT, anchors, cov,
                                     np.random.default_rng(3))
        with pytest.raises(DegenerateGeometryError):
            solve(meas, truth)

    def test_rtt_solve_matches_truth(self):
        orbit = ground_track_orbit(Geodetic(0.0, 0.0, 0.0), 600e3)
        anchors = make_virtual_anchors(orbit, 10.0, 10)
        truth = Geodetic(math.radians(0.05), math.radians(0.1), 0.0)
        meas = simulate_measurements(truth, MeasurementKind.RTT, anchors,
                                     np.zeros((10, 10)), np.random.default_rng(1))
        # an on-track guess is singular by mirror symmetry; start beside it
        result = solve(meas, Geodetic(0.0, math.radians(0.02), 0.0))
        assert result.converged
        err = np.linalg.norm(geodetic_to_ecef(result.estimate) - geodetic_to_ecef(truth))
        assert err < 1e-3


class TestValidate:
    def test_report_fields(self):
        report = validate(n_trials=50, seed=11)
        assert report.ratio == pytest.approx(report.rmse_m / report.peb_m)
        assert report.ratio > 0
        assert 0.0 <= report.convergence_rate <= 1.0
        assert report.n_trials == 50

    def test_effectively_noiseless_trials_all_converge(self):
        report = validate(n_trials=100, snr_offset_db=80.0, seed=2)
        assert report.convergence_rate == 1.0
        assert report.rmse_m < 1e-3

    def test_ratio_decreases_toward_one_with_snr(self):
        low = validate(n_trials=400, range_sigma_m=2e5, seed=5)
        high = validate(n_trials=400, range_sigma_m=2e5, snr_offset_db=20.0, seed=5)
        assert high.ratio < low.ratio - 0.005
        assert 0.95 <= high.ratio <= 1.10

    def test_unknown_scenario_raises_instead_of_mislabelling(self):
        assert validate(scenario="multi-leo-tdoa4", n_trials=5).scenario == "multi-leo-tdoa4"
        with pytest.raises(ValueError, match="single-leo-rtt"):
            validate(scenario="single-leo-rtt", n_trials=5)

    def test_unbiased_at_high_snr(self):
        report = validate(n_trials=2000, range_sigma_m=1.0, seed=0)
        assert report.mean_error_m < 0.1 * report.rmse_m


def test_solver_invariant_under_frame_rotation(tdoa_case):
    # rotating the whole problem about the Earth axis rotates the estimate
    truth, anchors, cov, ref, guess = tdoa_case
    shift = math.radians(37.0)

    def rotate_state(s):
        rot = np.array([[math.cos(shift), -math.sin(shift), 0.0],
                        [math.sin(shift), math.cos(shift), 0.0],
                        [0.0, 0.0, 1.0]])
        return type(s)(position=rot @ s.position, velocity=rot @ s.velocity,
                       time_s=s.time_s, role=s.role)

    meas = simulate_measurements(truth, MeasurementKind.TDOA, anchors, cov,
                                 np.random.default_rng(17), reference_index=ref)
    base = solve(meas, guess)

    rot_anchors = AnchorSet(states=tuple(rotate_state(s) for s in anchors.states),
                            serving_index=anchors.serving_index)
    rot_truth = Geodetic(truth.lat_rad, truth.lon_rad + shift, truth.alt_m)
    rot_guess = Geodetic(guess.lat_rad, guess.lon_rad + shift, guess.alt_m)
    rot_meas = SyntheticMeasurements(
        kind=MeasurementKind.TDOA, anchors=rot_anchors,
        observed_m=meas.observed_m, covariance=cov, truth=rot_truth,
        reference_index=ref)
    rotated = solve(rot_meas, rot_guess)

    assert rotated.converged == base.converged
    assert rotated.estimate.lat_rad == pytest.approx(base.estimate.lat_rad, abs=1e-10)
    assert (rotated.estimate.lon_rad - shift
            == pytest.approx(base.estimate.lon_rad, abs=1e-10))
