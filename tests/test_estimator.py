import json
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from satpeb import estimator
from satpeb.constants import EARTH_RADIUS_M
from satpeb.errors import DegenerateGeometryError, VisibilityError
from satpeb.estimator import reference_tdoa_case, validate
from satpeb.fisher import (DEGENERATE_EIGENVALUE, fim_diagonal, line_of_sight, peb_arrays,
                           tdoa_covariance)
from satpeb.geometry import (Geodetic, enu_frames, geodetic_to_ecef,
                             ground_track_orbit, make_virtual_anchors)
from tests.test_fisher import _anchors_from_sky, geometry_jacobian


def draw_one(truth, anchors, covariance, rng, reference_index=None):
    """One noisy (1, M) observation row: `estimator._simulate` at one trial."""
    return estimator._simulate(truth, anchors, covariance, rng, reference_index, 1)


def toas(observed, reference_index=None):
    """Drawn rows as `validate` hands them to the solver: ranges as they are,
    differences against `reference_index` as TOAs whose reference TOA is 0."""
    if reference_index is None:
        return observed
    return np.insert(observed, reference_index, 0.0, axis=-1)


def solve_one(observed, anchors, reference_index, variances, guess,
              max_iterations=estimator.MAX_ITERATIONS):
    """`estimator._gauss_newton` on the one drawn row of `observed`, with the
    (N,) `variances` and, for differences against `reference_index`, the
    clock bias: (estimate, iterations, converged)."""
    lat, lon, iterations, converged = (column.item() for column in estimator._gauss_newton(
        toas(observed, reference_index), anchors, variances, reference_index is not None,
        guess, max_iterations, estimator.STEP_TOLERANCE_M))
    return Geodetic(lat, lon, guess.alt_m), iterations, converged


def exact_observables(truth, anchors, reference_index=None):
    """Noiseless ranges from the UE at `truth` to the (N, 3) `anchors`, or
    their differences against `reference_index`, by `np.linalg.norm`."""
    ranges = np.linalg.norm(anchors - geodetic_to_ecef(truth), axis=-1)
    if reference_index is None:
        return ranges
    return np.delete(ranges, reference_index) - ranges[reference_index]


@pytest.fixture
def tdoa_case():
    return reference_tdoa_case(range_sigma_m=1.0)


class TestSimulate:
    def test_zero_covariance_is_exact(self, tdoa_case):
        truth, anchors, _, ref, _ = tdoa_case
        rng = np.random.default_rng(0)
        observed = draw_one(truth, anchors, np.zeros((3, 3)), rng, ref)
        assert np.array_equal(observed[0], exact_observables(truth, anchors, ref))
        ranges = draw_one(truth, anchors, np.zeros((4, 4)), rng)
        assert np.array_equal(ranges[0], exact_observables(truth, anchors))

    def test_same_seed_same_draws(self, tdoa_case):
        truth, anchors, cov, ref, _ = tdoa_case
        a = draw_one(truth, anchors, cov, np.random.default_rng(42), ref)
        b = draw_one(truth, anchors, cov, np.random.default_rng(42), ref)
        assert np.array_equal(a, b)

    def test_empirical_covariance_matches(self, tdoa_case):
        truth, anchors, _, ref, _ = tdoa_case
        cov = tdoa_covariance([3.0, 1.0, 2.0, 4.0], ref)
        rng = np.random.default_rng(7)
        n = 100_000
        exact = exact_observables(truth, anchors, ref)
        draws = np.array([draw_one(truth, anchors, cov, rng, ref)[0] - exact
                          for _ in range(n)])
        empirical = np.cov(draws.T)
        for i in range(3):
            for j in range(3):
                se = math.sqrt((cov[i, i] * cov[j, j] + cov[i, j] ** 2) / n)
                assert abs(empirical[i, j] - cov[i, j]) < 3.0 * se


# The noiseless solves weight by positive variances: a zero variance is an
# infinite weight, and weights do not move a noiseless fixed point.
class TestSolve:
    def test_noiseless_recovery_from_5km(self, tdoa_case):
        truth, anchors, _, ref, _ = tdoa_case
        observed = draw_one(truth, anchors, np.zeros((3, 3)), np.random.default_rng(0), ref)
        guess = Geodetic(truth.lat_rad + 5e3 / 6371e3, truth.lon_rad, 0.0)
        estimate, iterations, converged = solve_one(observed, anchors, ref, np.ones(4), guess)
        assert converged
        assert iterations <= 50
        err = np.linalg.norm(geodetic_to_ecef(estimate) - geodetic_to_ecef(truth))
        assert err < 1e-3

    def test_ground_track_geometry_raises(self):
        orbit = ground_track_orbit(Geodetic(0.0, 0.0, 0.0), 600e3)
        anchors = make_virtual_anchors(orbit, 10.0, 10)
        truth = Geodetic(math.radians(0.05), 0.0, 0.0)
        cov = np.eye(10) * 25.0
        observed = draw_one(truth, anchors, cov, np.random.default_rng(3))
        with pytest.raises(DegenerateGeometryError):
            solve_one(observed, anchors, None, np.full(10, 25.0), truth)

    def test_guess_with_anchors_below_its_horizon_raises(self, tdoa_case):
        truth, anchors, cov, ref, _ = tdoa_case
        observed = draw_one(truth, anchors, cov, np.random.default_rng(0), ref)
        with pytest.raises(VisibilityError):  # a guess on the far side of the Earth
            solve_one(observed, anchors, ref, np.ones(4), Geodetic(0.0, math.pi, 0.0))

    def test_rtt_solve_matches_truth(self):
        orbit = ground_track_orbit(Geodetic(0.0, 0.0, 0.0), 600e3)
        anchors = make_virtual_anchors(orbit, 10.0, 10)
        truth = Geodetic(math.radians(0.05), math.radians(0.1), 0.0)
        observed = draw_one(truth, anchors, np.zeros((10, 10)), np.random.default_rng(1))
        # an on-track guess is singular by mirror symmetry; start beside it
        estimate, _, converged = solve_one(observed, anchors, None, np.full(10, 25.0),
                                           Geodetic(0.0, math.radians(0.02), 0.0))
        assert converged
        err = np.linalg.norm(geodetic_to_ecef(estimate) - geodetic_to_ecef(truth))
        assert err < 1e-3


class TestValidate:
    def test_report_fields(self):
        report = validate(n_trials=50, seed=11)
        assert report.scenario == "multi-leo-tdoa4"
        assert report.ratio == pytest.approx(report.rmse_m / report.peb_m)
        assert report.ratio > 0
        assert 0.0 <= report.convergence_rate <= 1.0
        assert report.n_trials == 50

    def test_effectively_noiseless_trials_all_converge(self):
        report = validate(n_trials=100, range_sigma_m=1e-4, seed=2)
        assert report.convergence_rate == 1.0
        assert report.rmse_m < 1e-3

    def test_ratio_decreases_toward_one_with_snr(self):
        low = validate(n_trials=400, range_sigma_m=2e5, seed=5)
        high = validate(n_trials=400, range_sigma_m=2e4, seed=5)
        assert high.ratio < low.ratio - 0.005
        assert 0.95 <= high.ratio <= 1.10

    @pytest.mark.parametrize("n_trials", [0, -3, estimator.MAX_TRIALS + 1])
    def test_needs_a_trial(self, n_trials):
        with pytest.raises(ValueError, match="n_trials"):
            validate(n_trials=n_trials)

    # 0 and NaN gave a NaN bound and ratio; -1 ran as +1, squared away. The
    # square of 1e-170 underflows to 0 and that of 1e160 overflows, both to
    # a NaN bound; 1e6 and 1e150 fall below the degenerate gate, and the
    # solver raised DegenerateGeometryError on them.
    # (NumPy warns as the extreme squares leave the float range.)
    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("range_sigma_m", [0.0, -0.0, -1.0, math.nan, math.inf, -math.inf,
                                               1e-170, 1e160, 1e6, 1e150])
    def test_needs_a_positive_finite_range_sigma(self, range_sigma_m):
        with pytest.raises(ValueError, match="range_sigma_m"):
            validate(n_trials=5, range_sigma_m=range_sigma_m)

    def test_unbiased_at_high_snr(self):
        report = validate(n_trials=2000, range_sigma_m=1.0, seed=0)
        assert report.mean_error_m < 0.1 * report.rmse_m


_CRLB_GOLDEN = json.loads(
    (Path(__file__).resolve().parents[1] / "perfbench" / "golden" / "crlb-validate.json")
    .read_text())


def _trial_by_trial(seed, n_trials, **solve_kwargs):
    """Reference for `validate`: its stream, SeedSequence([seed, 0x76616c]),
    drawn one trial at a time with `draw_one` and each trial solved alone.
    Returns (truth, (1, M) observation rows, `solve_one` results)."""
    truth, anchors, cov, ref, guess = reference_tdoa_case(1.0)
    rng = np.random.default_rng(np.random.SeedSequence([seed, 0x76616c]))
    rows = [draw_one(truth, anchors, cov, rng, ref) for _ in range(n_trials)]
    return truth, rows, [solve_one(row, anchors, ref, np.ones(4), guess, **solve_kwargs)
                         for row in rows]


class TestSolverPaths:
    """The Gauss-Newton paths, each pinned on 50 reference-case trials."""

    @pytest.mark.parametrize("threshold, iterations, converged", [
        (None, {3, 4}, True),   # default: no step diverges
        (7e3, {27}, True),      # first step diverges, half steps converge
        (1.0, {1}, False),      # both passes diverge on their first step
    ])
    def test_divergence_restart(self, monkeypatch, threshold, iterations, converged):
        if threshold is not None:
            monkeypatch.setattr(estimator, "_DIVERGENCE_STEP_M", threshold)
        truth, _, results = _trial_by_trial(3, 50)
        assert {n for _, n, _ in results} == iterations
        assert all(c == converged for _, _, c in results)

        origin, basis = enu_frames(truth.lat_rad, truth.lon_rad, truth.alt_m)
        errors = np.array([(basis @ (geodetic_to_ecef(estimate) - origin))[:2]
                           for estimate, _, _ in results])
        report = validate(n_trials=50, seed=3)
        assert report.convergence_rate == (1.0 if converged else 0.0)
        assert report.rmse_m == pytest.approx(
            math.sqrt(np.mean(np.sum(errors**2, axis=1))), rel=1e-12, abs=0)
        assert report.mean_error_m == pytest.approx(
            np.linalg.norm(np.mean(errors, axis=0)), rel=1e-12, abs=0)

    @pytest.mark.parametrize("cap", [2, 3])
    def test_iteration_cap(self, cap):
        _, rows, free = _trial_by_trial(3, 50)
        _, anchors, _, ref, guess = reference_tdoa_case(1.0)
        capped = [solve_one(row, anchors, ref, np.ones(4), guess, max_iterations=cap)
                  for row in rows]
        for (_, free_iterations, _), (_, iterations, converged) in zip(free, capped):
            assert iterations == min(free_iterations, cap)
            assert converged == (free_iterations <= cap)
        if cap == 2:
            assert not any(converged for _, _, converged in capped)

    # (None, 3): some rows converge on the cap, the rest stop at it;
    # 10494.7 m lies inside the spread of first-step lengths (10493-10497 m),
    # so about half the rows restart; (7e3, 10): every row restarts, then stops.
    @pytest.mark.parametrize("threshold, cap", [(None, 3), (10494.7, 50), (7e3, 10)])
    def test_stacked_rows_solve_as_if_alone(self, monkeypatch, threshold, cap):
        if threshold is not None:
            monkeypatch.setattr(estimator, "_DIVERGENCE_STEP_M", threshold)
        _, rows, _ = _trial_by_trial(4, 50)
        _, anchors, _, ref, guess = reference_tdoa_case(1.0)
        alone = [solve_one(row, anchors, ref, np.ones(4), guess, max_iterations=cap)
                 for row in rows]
        lat, lon, iterations, converged = estimator._gauss_newton(
            toas(np.concatenate(rows), ref), anchors, np.ones(4), True, guess, cap,
            estimator.STEP_TOLERANCE_M)
        assert lat.tolist() == [estimate.lat_rad for estimate, _, _ in alone]
        assert lon.tolist() == [estimate.lon_rad for estimate, _, _ in alone]
        assert iterations.tolist() == [n for _, n, _ in alone]
        assert converged.tolist() == [c for _, _, c in alone]

    def test_stacked_draws_equal_sequential_draws(self):
        truth, anchors, cov, ref, _ = reference_tdoa_case(1.0)
        sequential_rng, stacked_rng = np.random.default_rng(9), np.random.default_rng(9)
        sequential = np.array([draw_one(truth, anchors, cov, sequential_rng, ref)[0]
                               for _ in range(50)])
        exact = exact_observables(truth, anchors, ref)
        root = np.linalg.cholesky(cov)
        stacked = np.array([exact + root @ z
                            for z in stacked_rng.standard_normal((50, 3))])
        assert np.array_equal(sequential, stacked)

    def test_one_stacked_draw_equals_sequential_draws(self):
        truth, anchors, cov, ref, _ = reference_tdoa_case(1.0)
        sequential_rng, stacked_rng = np.random.default_rng(9), np.random.default_rng(9)
        sequential = [draw_one(truth, anchors, cov, sequential_rng, ref)[0]
                      for _ in range(500)]
        stacked = estimator._simulate(truth, anchors, cov, stacked_rng, ref, 500)
        assert np.array_equal(stacked, sequential)

    def test_report_does_not_depend_on_the_block_bound(self, monkeypatch):
        one_pass = validate(n_trials=450, seed=6)
        monkeypatch.setattr(estimator, "_BLOCK_TRIALS", 100)  # five passes
        # repr tells every float apart bit for bit, -0.0 from 0.0 included
        assert repr(validate(n_trials=450, seed=6)) == repr(one_pass)

    def test_default_trials_solve_in_one_pass(self, monkeypatch):
        calls, gauss_newton = [], estimator._gauss_newton

        def counted(observed, *args):
            calls.append(len(observed))
            return gauss_newton(observed, *args)

        monkeypatch.setattr(estimator, "_gauss_newton", counted)
        validate(seed=0)
        assert calls == [2000]

    # The benchmark's gate figures, read from its golden file so that this
    # check cannot drift from it.
    @pytest.mark.parametrize("seed, rmse_m, ratio", [
        (int(seed), figures["rmse_m"], figures["ratio"])
        for seed, figures in _CRLB_GOLDEN["seeds"].items()])
    def test_matches_benchmark_golden_figures(self, seed, rmse_m, ratio):
        figures = _CRLB_GOLDEN["seeds"][str(seed)]
        report = validate(n_trials=figures["n_trials"], seed=seed)
        assert report.n_trials == figures["n_trials"]
        assert report.peb_m == pytest.approx(figures["peb_m"], rel=1e-12, abs=0)
        assert report.rmse_m == pytest.approx(rmse_m, rel=1e-12, abs=0)
        assert report.ratio == pytest.approx(ratio, rel=1e-12, abs=0)


def _problem(kind, n_trials):
    """(observed TOA rows, anchors, variances, ref, guess) of `n_trials`
    draws with unequal sigmas: "tdoa" the reference case's satellites, with
    differences against `ref` drawn as `validate` draws them; "rtt" a UE
    beside a single-LEO ground track, whose on-track points are singular,
    with a guess beside the track and `ref` None."""
    if kind == "tdoa":
        truth, anchors, _, ref, guess = reference_tdoa_case(1.0)
        sigmas = np.array([1.0, 2.0, 0.5, 1.5])
        drawn = estimator._simulate(truth, anchors, tdoa_covariance(sigmas, ref),
                                    np.random.default_rng(5), ref, n_trials)
        return toas(drawn, ref), anchors, sigmas**2, ref, guess
    orbit = ground_track_orbit(Geodetic(0.0, 0.0, 0.0), 600e3)
    anchors = make_virtual_anchors(orbit, 10.0, 10)
    truth = Geodetic(math.radians(0.05), math.radians(0.1), 0.0)
    variances = np.linspace(16.0, 36.0, 10)
    return (estimator._simulate(truth, anchors, np.diag(variances), np.random.default_rng(1),
                                None, n_trials), anchors, variances, None,
            Geodetic(0.0, math.radians(0.02), 0.0))


def _difference_step(observed, lat, lon, alt_m, anchors, variances, ref):
    """`estimator._step` as it stood before it took TOAs and variances: the
    (T, N) TOA rows `observed` as range differences against anchor `ref`, on
    `geometry_jacobian`'s rows, weighted by the inverse of their covariance
    `tdoa_covariance`; ranges weighted by their inverse variances where `ref`
    is None. The oracle of the TOA form."""
    p, basis = enu_frames(lat, lon, alt_m)
    ranges, units = line_of_sight(p, anchors, basis)
    J = geometry_jacobian(units, ref)
    if ref is None:
        residual, weight = observed - ranges, np.diag(1.0 / variances)
    else:
        residual = ((np.delete(observed, ref, axis=-1) - observed[..., ref, None])
                    - (np.delete(ranges, ref, axis=-1) - ranges[..., ref, None]))
        weight = np.linalg.inv(tdoa_covariance(np.sqrt(variances), ref))
    JtW = np.swapaxes(J, -1, -2) @ weight
    return np.linalg.solve(JtW @ J, JtW @ residual[..., None])[..., 0]


def _rounding_bound(observed, lat, lon, alt_m, anchors, variances):
    """A bound on what rounding may move a clock-bias step by: each residual
    rounds by about eps * max|TOA|, and the step's gain from residuals is at
    most PEB * sqrt(N * max(1/variance)), taken at the linearisation points."""
    p, basis = enu_frames(lat, lon, alt_m)
    units = line_of_sight(p, anchors, basis)[1]
    peb = peb_arrays(fim_diagonal(units, variances, clock_bias=True))[0]
    gain = peb * math.sqrt(len(variances) / np.min(variances))
    return np.finfo(float).eps * np.max(np.abs(observed), axis=-1) * gain


class TestToaForm:
    """The TOA step with the clock bias centred out is the difference-form
    step against any reference, with any sigmas; the reference case's equal
    sigmas could not tell a weight left out of the centring."""

    @settings(max_examples=200, deadline=None)
    @given(st.floats(-1.0, 1.0), st.floats(-math.pi, math.pi), st.floats(0.0, 2 * math.pi),
           st.lists(st.tuples(st.floats(math.radians(10.0), math.radians(80.0)),
                              st.floats(650e3, 24000e3), st.floats(-1.0, 3.0)),
                    min_size=3, max_size=8),
           st.floats(-1e4, 1e4), st.integers(0, 2**32 - 1))
    def test_equals_difference_form_and_ignores_a_common_offset(self, lat, lon, heading, sky,
                                                                offset_m, seed):
        # Each anchor: elevation, range and log10 of its range sigma, at
        # evenly separated azimuths, which keeps the geometry usable.
        ue = Geodetic(lat, lon, 0.0)
        azimuths = heading + np.linspace(0.0, 2 * math.pi, len(sky), endpoint=False)
        anchors = _anchors_from_sky(ue, [(az, el, r) for az, (el, r, _) in zip(azimuths, sky)])
        variances = 10.0 ** (2.0 * np.array([s for *_, s in sky]))
        rng = np.random.default_rng(seed)
        ranges = np.linalg.norm(anchors - geodetic_to_ecef(ue), axis=-1)
        observed = ranges + np.sqrt(variances) * rng.standard_normal((4, len(sky)))
        # one linearisation point up to 1 km from the UE, shared by the rows
        lat_p, lon_p = np.array([lat]), np.array([lon])
        lat_p += rng.uniform(-1e3, 1e3) / EARTH_RADIUS_M
        lon_p += rng.uniform(-1e3, 1e3) / (EARTH_RADIUS_M * math.cos(lat))
        step = estimator._step(observed, lat_p, lon_p, 0.0, anchors, variances, True)
        bound = 4.0 * _rounding_bound(observed, lat_p, lon_p, 0.0, anchors, variances)
        for ref in range(len(sky)):
            oracle = _difference_step(observed, lat_p, lon_p, 0.0, anchors, variances, ref)
            assert np.all(np.abs(step - oracle) <= bound[:, None]), ref
        offset = observed + offset_m  # one constant on every TOA of a row
        moved = estimator._step(offset, lat_p, lon_p, 0.0, anchors, variances, True)
        bound = 4.0 * _rounding_bound(offset, lat_p, lon_p, 0.0, anchors, variances)
        assert np.all(np.abs(moved - step) <= bound[:, None])


class TestSharedLinearisation:
    """Every row of a pass starts at the guess, so its first `_step`
    linearises once there and broadcasts the geometry over the rows."""

    @pytest.mark.parametrize("kind", ["tdoa", "rtt"])
    def test_shared_point_equals_per_row_copies(self, kind):
        observed, anchors, variances, ref, guess = _problem(kind, 300)
        rows, clock_bias = len(observed), ref is not None
        shared = estimator._step(observed, np.array([guess.lat_rad]), np.array([guess.lon_rad]),
                                 guess.alt_m, anchors, variances, clock_bias)
        copies = estimator._step(observed, np.full(rows, guess.lat_rad),
                                 np.full(rows, guess.lon_rad), guess.alt_m, anchors, variances,
                                 clock_bias)
        assert shared.shape == (rows, 2)
        assert np.array_equal(shared, copies)

    @pytest.mark.parametrize("kind", ["tdoa", "rtt"])
    def test_step_equals_difference_form_oracle(self, kind):
        observed, anchors, variances, ref, guess = _problem(kind, 300)
        rows = len(observed)
        # per-row points up to 0.01 deg from the guess, which keeps the RTT
        # points off the singular ground track
        offsets = np.radians(np.random.default_rng(8).uniform(-0.01, 0.01, (2, rows)))
        for lat, lon in [(np.array([guess.lat_rad]), np.array([guess.lon_rad])),
                         (guess.lat_rad + offsets[0], guess.lon_rad + offsets[1])]:
            step = estimator._step(observed, lat, lon, guess.alt_m, anchors, variances,
                                   ref is not None)
            oracle = _difference_step(observed, lat, lon, guess.alt_m, anchors, variances, ref)
            assert step.shape == (rows, 2)
            if ref is None:  # no centring: only the weighting is written differently
                assert np.allclose(step, oracle, rtol=1e-12, atol=0.0)
            else:
                bound = 4.0 * _rounding_bound(observed, lat, lon, guess.alt_m, anchors, variances)
                assert np.all(np.abs(step - oracle) <= bound[:, None])

    @pytest.mark.parametrize("n_trials", [1, 7])
    def test_singular_guess_raises_for_any_row_count(self, n_trials):
        observed, anchors, variances, _, _ = _problem("rtt", n_trials)
        on_track = Geodetic(math.radians(0.05), 0.0, 0.0)
        with pytest.raises(DegenerateGeometryError):
            estimator._gauss_newton(observed, anchors, variances, False, on_track,
                                    estimator.MAX_ITERATIONS, estimator.STEP_TOLERANCE_M)

    @staticmethod
    def _spy_on_step(monkeypatch):
        """(rows, linearisation points) of every `_step` call, in order."""
        calls, step = [], estimator._step

        def spy(observed, lat, *args):
            calls.append((len(observed), len(lat)))
            return step(observed, lat, *args)

        monkeypatch.setattr(estimator, "_step", spy)
        return calls

    def test_default_validate_linearises_once_at_the_guess(self, monkeypatch):
        calls = self._spy_on_step(monkeypatch)
        validate(seed=0)
        assert calls == [(2000, 1), (2000, 2000), (2000, 2000), (266, 266)]

    def test_restart_pass_linearises_once_at_the_guess(self, monkeypatch):
        # as in test_stacked_rows_solve_as_if_alone: about half the rows restart
        monkeypatch.setattr(estimator, "_DIVERGENCE_STEP_M", 10494.7)
        calls = self._spy_on_step(monkeypatch)
        validate(n_trials=50, seed=4)
        starts = [i for i, (_, points) in enumerate(calls) if points == 1]
        assert [calls[i] for i in starts] == [(50, 1), (25, 1)]
        assert all(points == rows for rows, points in calls[1:starts[1]] + calls[starts[1] + 1:])


# `eigvalsh` and the closed form each land within a few ulps of the larger
# eigenvalue (at most 2.7 over 4e6 random matrices from 1e-20 to 1e20), so
# they may disagree only where the smaller one lies this close to the gate.
_GATE_BAND_ULPS = 8


def _assert_gate_agrees(normal):
    reference = np.linalg.eigvalsh(normal)
    closed = estimator._smallest_eigenvalue(normal)
    band = _GATE_BAND_ULPS * np.finfo(float).eps * np.abs(reference[..., 1])
    assert np.all(np.abs(closed - reference[..., 0]) <= band)
    outside = np.abs(reference[..., 0] - DEGENERATE_EIGENVALUE) > band
    assert np.array_equal((closed < DEGENERATE_EIGENVALUE)[outside],
                          (reference[..., 0] < DEGENERATE_EIGENVALUE)[outside])


def _symmetric(a, b, d):
    return np.array([[a, b], [b, d]])


def _rotated(large, small, angle):
    """The symmetric matrix with eigenvalues `large` and `small`, rotated by `angle`."""
    c, s = math.cos(angle), math.sin(angle)
    return _symmetric(c * c * large + s * s * small, c * s * (large - small),
                      s * s * large + c * c * small)


class TestDegenerateGate:
    @settings(max_examples=400, deadline=None)
    @given(st.floats(-20.0, 20.0), st.one_of(st.just(math.inf), st.floats(0.0, 30.0)),
           st.floats(0.0, math.pi))
    def test_matches_eigvalsh_on_psd_matrices(self, log_large, decades_below, angle):
        # decades_below = inf: the smaller eigenvalue is exactly 0
        large = 10.0 ** log_large
        _assert_gate_agrees(_rotated(large, large * 10.0 ** -decades_below, angle))

    @settings(max_examples=400, deadline=None)
    @given(st.floats(-12.0, 20.0), st.floats(-1e-3, 1e-3), st.floats(0.0, math.pi))
    def test_matches_eigvalsh_near_the_gate(self, log_large, offset, angle):
        small = DEGENERATE_EIGENVALUE * (1.0 + offset)
        _assert_gate_agrees(_rotated(max(10.0 ** log_large, small), small, angle))

    @settings(max_examples=400, deadline=None)
    @given(st.integers(-2**20, 2**20), st.integers(-2**20, 2**20), st.integers(-120, 60))
    @example(0, 0, 0)
    def test_matches_eigvalsh_on_exact_rank_one(self, p, q, scale):
        # 2**scale * [p, q]^T [p, q] is exactly representable and exactly singular
        _assert_gate_agrees(math.ldexp(1.0, scale) * _symmetric(p * p, p * q, q * q))


def test_solver_invariant_under_frame_rotation(tdoa_case):
    # rotating the whole problem about the Earth axis rotates the estimate
    truth, anchors, cov, ref, guess = tdoa_case
    shift = math.radians(37.0)
    rot = np.array([[math.cos(shift), -math.sin(shift), 0.0],
                    [math.sin(shift), math.cos(shift), 0.0],
                    [0.0, 0.0, 1.0]])

    observed = draw_one(truth, anchors, cov, np.random.default_rng(17), ref)
    base, _, base_converged = solve_one(observed, anchors, ref, np.ones(4), guess)

    rot_guess = Geodetic(guess.lat_rad, guess.lon_rad + shift, guess.alt_m)
    rotated, _, rotated_converged = solve_one(observed, anchors @ rot.T, ref, np.ones(4),
                                              rot_guess)

    assert rotated_converged == base_converged
    assert rotated.lat_rad == pytest.approx(base.lat_rad, abs=1e-10)
    assert rotated.lon_rad - shift == pytest.approx(base.lon_rad, abs=1e-10)
