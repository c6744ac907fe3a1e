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
from satpeb.fisher import (DEGENERATE_EIGENVALUE, information, line_of_sight, peb_arrays,
                           smallest_eigenvalue)
from satpeb.geometry import (Geodetic, enu_frames, geodetic_to_ecef,
                             ground_track_orbit, make_virtual_anchors, wrap_longitude)
from tests.test_fisher import (_anchors_from_sky, centred_rows, geometry_jacobian,
                               tdoa_covariance, unit_vectors_en)


def exact_observables(truth, anchors, reference_index=None):
    """Noiseless ranges from the UE at `truth` to the (N, 3) `anchors`, or
    their differences against `reference_index`, by `np.linalg.norm`."""
    ranges = np.linalg.norm(anchors - geodetic_to_ecef(truth), axis=-1)
    if reference_index is None:
        return ranges
    return np.delete(ranges, reference_index) - ranges[reference_index]


def draw_one(truth, anchors, sigmas, rng):
    """One noisy (1, N) TOA row: the exact ranges plus independent noise
    `sigmas` * z, z drawn on `rng`."""
    return exact_observables(truth, anchors) + sigmas * rng.standard_normal((1, len(anchors)))


def reference_toas(n_trials, rng, sigma=1.0):
    """(n_trials, 4) TOA rows of the reference case as `validate` draws them,
    with every range sigma `sigma`: a reference TOA of 0, and the exact
    differences against anchor 0 plus their noise sigma * cholesky(I + 1) @ z,
    z drawn on `rng` three normals a row."""
    truth, anchors, _ = reference_tdoa_case()
    root = np.linalg.cholesky(np.eye(3) + 1.0)
    noise = (root @ rng.standard_normal((n_trials, 3))[..., None])[..., 0]
    return np.insert(exact_observables(truth, anchors, 0) + sigma * noise, 0, 0.0, axis=-1)


def validate_stream(seed):
    return np.random.default_rng(np.random.SeedSequence([seed, 0x76616c]))


def solve_one(observed, anchors, variances, clock_bias, guess,
              max_iterations=estimator.MAX_ITERATIONS):
    """`estimator._gauss_newton` on the one TOA row of `observed`, with the
    (N,) `variances` and, where `clock_bias`, a bias common to the row's TOAs:
    (estimate, iterations, converged)."""
    lat, lon, iterations, converged = (column.item() for column in estimator._gauss_newton(
        observed, anchors, variances, clock_bias, guess, max_iterations,
        estimator.STEP_TOLERANCE_M))
    return Geodetic(lat, lon, guess.alt_m), iterations, converged


def solve_reference_case(sigma, n_trials, seed):
    """`validate` at every range sigma `sigma`, written out on test-side
    draws: (RMSE, PEB, convergence rate, mean error) over `n_trials` trials
    on its stream."""
    truth, anchors, guess = reference_tdoa_case()
    variances = np.full(4, sigma**2)
    lat, lon, _, converged = estimator._gauss_newton(
        reference_toas(n_trials, validate_stream(seed), sigma), anchors, variances, True, guess,
        estimator.MAX_ITERATIONS, estimator.STEP_TOLERANCE_M)
    origin, basis = enu_frames(truth.lat_rad, truth.lon_rad, truth.alt_m)
    errors = (basis @ (enu_frames(lat, lon)[0] - origin)[..., None])[:, :2, 0]
    _, east, north, _ = line_of_sight(truth.lat_rad, truth.lon_rad, truth.alt_m, anchors)
    peb = float(peb_arrays(*information(east, north, variances, clock_bias=True))[0])
    rmse = math.sqrt(np.mean(np.sum(errors**2, axis=1)))
    return rmse, peb, np.mean(converged), np.linalg.norm(np.mean(errors, axis=0))


def captured_rows(**validate_kwargs):
    """The TOA rows `validate` hands `_gauss_newton`, its passes concatenated."""
    blocks, gauss_newton = [], estimator._gauss_newton

    def capture(observed, *args):
        blocks.append(observed.copy())
        return gauss_newton(observed, *args)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(estimator, "_gauss_newton", capture)
        validate(**validate_kwargs)
    return np.concatenate(blocks)


def _parent_simulate(truth, anchors, covariance, rng, ref, n_trials):
    """`estimator._simulate` as it stood before `validate` drew its TOA rows
    directly, frozen with its `_observables`: differences against `ref`
    plus a Cholesky factor of `covariance` times one stacked draw. (Its
    eigendecomposition fallback for singular covariances is left out: the
    reference case's is positive definite.)"""
    ranges = line_of_sight(truth.lat_rad, truth.lon_rad, truth.alt_m, anchors)[0]
    geometric = np.delete(ranges, ref, axis=-1) - ranges[..., ref, None]
    z = rng.standard_normal((n_trials, geometric.size))
    return geometric + (np.linalg.cholesky(covariance) @ z[..., None])[..., 0]


def parent_rows(seed, n_trials):
    """`validate`'s TOA rows as the parent drew them: `tdoa_covariance`'s
    range differences against anchor 0 by `_parent_simulate`, then a
    reference TOA of 0 put in by `np.insert`. The bit-for-bit oracle."""
    truth, anchors, _ = reference_tdoa_case()
    drawn = _parent_simulate(truth, anchors, tdoa_covariance(np.full(4, 1.0), 0),
                             validate_stream(seed), 0, n_trials)
    return np.insert(drawn, 0, 0.0, axis=-1)


@pytest.fixture
def tdoa_case():
    return reference_tdoa_case()


class TestSimulate:
    """`validate`'s draw: the reference case's TOA rows, drawn in one call."""

    @pytest.mark.parametrize("n_trials", [2000, 5000])
    @pytest.mark.parametrize("seed", [0, 1, 7])
    def test_rows_equal_the_parent_draw_bit_for_bit(self, seed, n_trials):
        rows, parent = captured_rows(n_trials=n_trials, seed=seed), parent_rows(seed, n_trials)
        assert rows.shape == parent.shape == (n_trials, 4)
        assert rows.tobytes() == parent.tobytes()  # -0.0 and 0.0 told apart too

    def test_zero_covariance_is_exact(self, monkeypatch, tdoa_case):
        truth, anchors, _ = tdoa_case

        class Silent:  # a stream that draws only zeros
            def __init__(self, *_):
                pass

            def standard_normal(self, shape):
                return np.zeros(shape)

        monkeypatch.setattr(np.random, "default_rng", Silent)
        rows = captured_rows(n_trials=3)
        assert np.array_equal(rows, np.tile(np.insert(
            exact_observables(truth, anchors, 0), 0, 0.0), (3, 1)))

    def test_same_seed_same_draws(self):
        a, b = captured_rows(n_trials=50, seed=42), captured_rows(n_trials=50, seed=42)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, captured_rows(n_trials=50, seed=43))

    def test_empirical_covariance_matches(self, tdoa_case):
        truth, anchors, _ = tdoa_case
        n = 100_000
        rows = captured_rows(n_trials=n, seed=7)
        assert not rows[:, 0].any()
        draws = rows[:, 1:] - exact_observables(truth, anchors, 0)
        empirical, cov = np.cov(draws.T), tdoa_covariance(np.ones(4), 0)
        for i in range(3):
            for j in range(3):
                se = math.sqrt((cov[i, i] * cov[j, j] + cov[i, j] ** 2) / n)
                assert abs(empirical[i, j] - cov[i, j]) < 3.0 * se


class TestSolve:
    def test_noiseless_recovery_from_5km(self, tdoa_case):
        truth, anchors, _ = tdoa_case
        observed = exact_observables(truth, anchors)[None]
        guess = Geodetic(truth.lat_rad + 5e3 / 6371e3, truth.lon_rad, 0.0)
        estimate, iterations, converged = solve_one(observed, anchors, np.ones(4), True, guess)
        assert converged
        assert iterations <= 50
        err = np.linalg.norm(geodetic_to_ecef(estimate) - geodetic_to_ecef(truth))
        assert err < 1e-3

    def test_ground_track_geometry_raises(self):
        orbit = ground_track_orbit(Geodetic(0.0, 0.0, 0.0), 600e3)
        anchors = make_virtual_anchors(orbit, 10.0, 10)
        truth = Geodetic(math.radians(0.05), 0.0, 0.0)
        observed = draw_one(truth, anchors, 5.0, np.random.default_rng(3))
        with pytest.raises(DegenerateGeometryError):
            solve_one(observed, anchors, np.full(10, 25.0), False, truth)

    def test_guess_with_anchors_below_its_horizon_raises(self, tdoa_case):
        _, anchors, _ = tdoa_case
        observed = reference_toas(1, np.random.default_rng(0))
        with pytest.raises(VisibilityError):  # a guess on the far side of the Earth
            solve_one(observed, anchors, np.ones(4), True, Geodetic(0.0, math.pi, 0.0))

    def test_rtt_solve_matches_truth(self):
        orbit = ground_track_orbit(Geodetic(0.0, 0.0, 0.0), 600e3)
        anchors = make_virtual_anchors(orbit, 10.0, 10)
        truth = Geodetic(math.radians(0.05), math.radians(0.1), 0.0)
        observed = exact_observables(truth, anchors)[None]
        # an on-track guess is singular by mirror symmetry; start beside it
        estimate, _, converged = solve_one(observed, anchors, np.full(10, 25.0), False,
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

    # `validate` runs at 1 m; these take its reference case to other sigmas.
    def test_effectively_noiseless_trials_all_converge(self):
        rmse, _, convergence_rate, _ = solve_reference_case(1e-4, 100, seed=2)
        assert convergence_rate == 1.0
        assert rmse < 1e-3

    def test_ratio_decreases_toward_one_with_snr(self):
        low_rmse, low_peb, _, _ = solve_reference_case(2e5, 400, seed=5)
        high_rmse, high_peb, _, _ = solve_reference_case(2e4, 400, seed=5)
        assert high_rmse / high_peb < low_rmse / low_peb - 0.005
        assert 0.95 <= high_rmse / high_peb <= 1.10

    def test_reference_case_at_one_metre_is_validate(self):
        report = validate(n_trials=300, seed=8)
        assert solve_reference_case(1.0, 300, seed=8) == pytest.approx(
            (report.rmse_m, report.peb_m, report.convergence_rate, report.mean_error_m),
            rel=1e-12, abs=0)

    def test_anchor_below_the_truth_horizon_raises(self, monkeypatch):
        # `line_of_sight` only reports the elevation sines; `validate` refuses
        # a reference case whose truth cannot see every anchor
        truth, anchors, guess = reference_tdoa_case()
        hidden = anchors.copy()
        hidden[-1] = -hidden[-1]  # the antipode of a 780 km satellite
        monkeypatch.setattr(estimator, "reference_tdoa_case", lambda: (truth, hidden, guess))
        with pytest.raises(VisibilityError, match="horizon"):
            validate(n_trials=10)

    @pytest.mark.parametrize("n_trials", [0, -3, estimator.MAX_TRIALS + 1])
    def test_needs_a_trial(self, n_trials):
        with pytest.raises(ValueError, match="n_trials"):
            validate(n_trials=n_trials)

    def test_unbiased_at_high_snr(self):
        report = validate(n_trials=2000, seed=0)
        assert report.mean_error_m < 0.1 * report.rmse_m


_CRLB_GOLDEN = json.loads(
    (Path(__file__).resolve().parents[1] / "perfbench" / "golden" / "crlb-validate.json")
    .read_text())


def _trial_by_trial(seed, n_trials, **solve_kwargs):
    """Reference for `validate`: its stream, drawn one trial at a time with
    `reference_toas` and each trial solved alone. Returns (truth, (1, 4) TOA
    rows, `solve_one` results)."""
    truth, anchors, guess = reference_tdoa_case()
    rng = validate_stream(seed)
    rows = [reference_toas(1, rng) for _ in range(n_trials)]
    return truth, rows, [solve_one(row, anchors, np.ones(4), True, guess, **solve_kwargs)
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
        _, anchors, guess = reference_tdoa_case()
        capped = [solve_one(row, anchors, np.ones(4), True, guess, max_iterations=cap)
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
        _, anchors, guess = reference_tdoa_case()
        alone = [solve_one(row, anchors, np.ones(4), True, guess, max_iterations=cap)
                 for row in rows]
        lat, lon, iterations, converged = estimator._gauss_newton(
            np.concatenate(rows), anchors, np.ones(4), True, guess, cap,
            estimator.STEP_TOLERANCE_M)
        assert lat.tolist() == [estimate.lat_rad for estimate, _, _ in alone]
        assert lon.tolist() == [estimate.lon_rad for estimate, _, _ in alone]
        assert iterations.tolist() == [n for _, n, _ in alone]
        assert converged.tolist() == [c for _, _, c in alone]

    # `validate` draws every trial in one call: row t is what a trial-by-trial
    # draw on its stream gives at trial t, in one pass or split over several.
    def test_stacked_draws_equal_sequential_draws(self, monkeypatch):
        monkeypatch.setattr(estimator, "_BLOCK_TRIALS", 20)  # three passes
        rng = validate_stream(9)
        sequential = np.concatenate([reference_toas(1, rng) for _ in range(50)])
        assert np.array_equal(captured_rows(n_trials=50, seed=9), sequential)

    def test_one_stacked_draw_equals_sequential_draws(self):
        rng = validate_stream(9)
        sequential = np.concatenate([reference_toas(1, rng) for _ in range(500)])
        assert np.array_equal(captured_rows(n_trials=500, seed=9), sequential)

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


def _full_array_gauss_newton(observed, anchors, variances, clock_bias, guess, max_iterations,
                             tolerance_m):
    """`estimator._gauss_newton` as it stood before it carried compact pass
    state, frozen: each iteration gathers its active rows from the full (T,)
    arrays and scatters them back. It drives the current `_step`, as
    `_difference_step` is kept, so it is the oracle of the loop alone."""
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
            delta = step_scale * estimator._step(observed[active], lat[at], lon[at],
                                                 guess.alt_m, anchors, variances, clock_bias)
            step = np.linalg.norm(delta, axis=-1)
            diverged = (~np.all(np.isfinite(delta), axis=-1)
                        | (step > estimator._DIVERGENCE_STEP_M))
            rows = np.concatenate([rows, active[diverged]])
            active, delta, step = active[~diverged], delta[~diverged], step[~diverged]
            lat[active], lon[active] = (
                np.clip(lat[active] + delta[:, 1] / r, -math.pi / 2, math.pi / 2),
                wrap_longitude(lon[active] + delta[:, 0] / (r * np.cos(lat[active]))))
            converged[active] = step < tolerance_m
            active = active[~converged[active]]
    return lat, lon, iterations, converged


def _assert_loops_agree(observed, anchors, variances, clock_bias, guess, cap):
    args = (observed, anchors, variances, clock_bias, guess, cap, estimator.STEP_TOLERANCE_M)
    for compact, full in zip(estimator._gauss_newton(*args), _full_array_gauss_newton(*args)):
        assert compact.dtype == full.dtype
        assert np.array_equal(compact, full)


class TestLoopOracle:
    """The compact pass state ends every row where the full-array loop ends
    it: same position bits, iteration count and flag. The "as if alone" tests
    cannot show this, since `solve_one` runs the loop under test."""

    # 10494.7 m: about half the rows restart; 7e3 m: every row restarts and
    # converges at half steps; 1.0 m: both passes diverge on their first step;
    # caps 2 and 3: no row, and then some rows, converge by the cap.
    @pytest.mark.parametrize("threshold, cap", [
        (None, estimator.MAX_ITERATIONS), (10494.7, estimator.MAX_ITERATIONS),
        (7e3, estimator.MAX_ITERATIONS), (1.0, estimator.MAX_ITERATIONS), (None, 2), (None, 3)])
    def test_reference_case(self, monkeypatch, threshold, cap):
        if threshold is not None:
            monkeypatch.setattr(estimator, "_DIVERGENCE_STEP_M", threshold)
        _, anchors, guess = reference_tdoa_case()
        observed = reference_toas(200, validate_stream(4))
        _assert_loops_agree(observed, anchors, np.ones(4), True, guess, cap)

    def test_rows_that_diverge_after_moving(self, monkeypatch):
        # A stand-in step moves each row's latitude `gain` times its distance
        # to the row's target: gains below 2 converge (or oscillate into the
        # cap), gains in (2, 4) diverge and then converge at half steps, and
        # larger ones diverge again, some iterations into the restart. A NaN
        # gain makes a NaN step, which diverges at once.
        def step(observed, lat, *_):
            north = observed[:, 0] * (observed[:, 1] - lat) * EARTH_RADIUS_M
            return np.stack([np.zeros_like(north), north], axis=-1)

        monkeypatch.setattr(estimator, "_step", step)
        rng = np.random.default_rng(12)
        observed = np.stack([rng.uniform(0.1, 6.0, 400), rng.uniform(-1e-3, 1e-3, 400)], -1)
        observed[::50, 0] = np.nan
        _assert_loops_agree(observed, None, None, False, Geodetic(0.0, 0.0, 0.0),
                            estimator.MAX_ITERATIONS)

    @pytest.mark.parametrize("kind", ["tdoa", "rtt"])
    def test_unequal_sigmas(self, kind):
        observed, anchors, variances, ref, guess = _problem(kind, 300)
        _assert_loops_agree(observed, anchors, variances, ref is not None, guess,
                            estimator.MAX_ITERATIONS)


def _problem(kind, n_trials):
    """(observed TOA rows, anchors, variances, ref, guess) of `n_trials`
    draws with unequal sigmas, each TOA with its own noise: "tdoa" the
    reference case's satellites sharing a clock bias, with `ref` the anchor
    the difference-form oracles take differences against; "rtt" a UE beside
    a single-LEO ground track, whose on-track points are singular, with a
    guess beside the track and `ref` None."""
    if kind == "tdoa":
        truth, anchors, guess = reference_tdoa_case()
        sigmas, rng, ref = np.array([1.0, 2.0, 0.5, 1.5]), np.random.default_rng(5), 0
    else:
        anchors = make_virtual_anchors(ground_track_orbit(Geodetic(0.0, 0.0, 0.0), 600e3),
                                       10.0, 10)
        truth, guess = (Geodetic(math.radians(0.05), math.radians(0.1), 0.0),
                        Geodetic(0.0, math.radians(0.02), 0.0))
        sigmas, rng, ref = np.sqrt(np.linspace(16.0, 36.0, 10)), np.random.default_rng(1), None
    observed = exact_observables(truth, anchors) + sigmas * rng.standard_normal(
        (n_trials, len(anchors)))
    return observed, anchors, sigmas**2, ref, guess


def _matmul_geometry(lat, lon, alt_m, anchors):
    """(T, N) ranges by `np.linalg.norm` and (T, N, 2) `unit_vectors_en` of
    the (N, 3) `anchors` from the UEs at (T,) `lat`/`lon`: the geometry of
    the step oracles, on the `enu_frames` basis rather than the solver's
    elementwise `line_of_sight`."""
    p, basis = enu_frames(lat, lon, alt_m)
    return np.linalg.norm(anchors - p[:, None], axis=-1), unit_vectors_en(p, anchors, basis)


def _difference_step(observed, lat, lon, alt_m, anchors, variances, ref):
    """`estimator._step` as it stood before it took TOAs and variances: the
    (T, N) TOA rows `observed` as range differences against anchor `ref`, on
    `geometry_jacobian`'s rows, weighted by the inverse of their covariance
    `tdoa_covariance`; ranges weighted by their inverse variances where `ref`
    is None. The oracle of the TOA form."""
    ranges, units = _matmul_geometry(lat, lon, alt_m, anchors)
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
    _, east, north, _ = line_of_sight(lat, lon, alt_m, anchors[:, None])
    peb = peb_arrays(*information(east, north, variances[:, None], clock_bias=True))[0]
    gain = peb * math.sqrt(len(variances) / np.min(variances))
    return np.finfo(float).eps * np.max(np.abs(observed), axis=-1) * gain


def _lapack_step(observed, lat, lon, alt_m, anchors, variances, clock_bias):
    """The Gauss-Newton step written out: Jacobian rows -`unit_vectors_en`,
    centred with the residuals by `centred_rows` where `clock_bias`, and
    LAPACK's `np.linalg.solve(JᵀWJ, JᵀWr)`."""
    ranges, units = _matmul_geometry(lat, lon, alt_m, anchors)
    w, residual, J = 1.0 / variances, observed - ranges, -units
    if clock_bias:
        residual = residual - np.sum(w * residual, -1, keepdims=True) / np.sum(w)
        J = centred_rows(units, w)
    JtW = np.swapaxes(J * w[:, None], -1, -2)
    return np.linalg.solve(JtW @ J, JtW @ residual[..., None])[..., 0]


# Each anchor of a sky: elevation, range and log10 of its range sigma.
_SKIES = st.lists(st.tuples(st.floats(math.radians(10.0), math.radians(80.0)),
                            st.floats(650e3, 24000e3), st.floats(-1.0, 3.0)),
                  min_size=3, max_size=8)


def _noisy_sky(lat, lon, heading, sky, rng):
    """(anchors, variances, four noisy TOA rows) of a UE at `lat`/`lon` under
    a `_SKIES` sky, its anchors at evenly separated azimuths from `heading`,
    which keeps the geometry usable."""
    ue = Geodetic(lat, lon, 0.0)
    azimuths = heading + np.linspace(0.0, 2 * math.pi, len(sky), endpoint=False)
    anchors = _anchors_from_sky(ue, [(az, el, r) for az, (el, r, _) in zip(azimuths, sky)])
    variances = 10.0 ** (2.0 * np.array([s for *_, s in sky]))
    ranges = np.linalg.norm(anchors - geodetic_to_ecef(ue), axis=-1)
    return anchors, variances, ranges + np.sqrt(variances) * rng.standard_normal((4, len(sky)))


class TestClosedForm:
    """Cramer's rule on the weighted sums solves the same normal equations as
    LAPACK on explicit Jacobian rows, with any sigmas."""

    @settings(max_examples=200, deadline=None)
    @given(st.floats(-1.0, 1.0), st.floats(-math.pi, math.pi), st.floats(0.0, 2 * math.pi),
           _SKIES, st.booleans(), st.integers(0, 2**32 - 1))
    def test_matches_lapack_solve(self, lat, lon, heading, sky, clock_bias, seed):
        rng = np.random.default_rng(seed)
        anchors, variances, observed = _noisy_sky(lat, lon, heading, sky, rng)
        if clock_bias:  # each row's TOAs share one bias of up to 10 km
            observed += rng.uniform(-1e4, 1e4, (4, 1))
        # a linearisation point per row, up to 1 km from the UE
        lat_p = lat + rng.uniform(-1e3, 1e3, 4) / EARTH_RADIUS_M
        lon_p = lon + rng.uniform(-1e3, 1e3, 4) / (EARTH_RADIUS_M * math.cos(lat))
        step = estimator._step(observed, lat_p, lon_p, 0.0, anchors, variances, clock_bias)
        oracle = _lapack_step(observed, lat_p, lon_p, 0.0, anchors, variances, clock_bias)
        bound = _rounding_bound(observed, lat_p, lon_p, 0.0, anchors, variances)
        assert np.all(np.abs(step - oracle) <= bound[:, None])


class TestToaForm:
    """The TOA step with the clock bias centred out is the difference-form
    step against any reference, with any sigmas; the reference case's equal
    sigmas could not tell a weight left out of the centring."""

    @settings(max_examples=200, deadline=None)
    @given(st.floats(-1.0, 1.0), st.floats(-math.pi, math.pi), st.floats(0.0, 2 * math.pi),
           _SKIES, st.floats(-1e4, 1e4), st.integers(0, 2**32 - 1))
    def test_equals_difference_form_and_ignores_a_common_offset(self, lat, lon, heading, sky,
                                                                offset_m, seed):
        rng = np.random.default_rng(seed)
        anchors, variances, observed = _noisy_sky(lat, lon, heading, sky, rng)
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


def _assert_gate_agrees(a, b, d):
    reference = np.linalg.eigvalsh(_symmetric(a, b, d))
    closed = smallest_eigenvalue(a, b, d)
    band = _GATE_BAND_ULPS * np.finfo(float).eps * np.abs(reference[..., 1])
    assert np.all(np.abs(closed - reference[..., 0]) <= band)
    outside = np.abs(reference[..., 0] - DEGENERATE_EIGENVALUE) > band
    assert np.array_equal((closed < DEGENERATE_EIGENVALUE)[outside],
                          (reference[..., 0] < DEGENERATE_EIGENVALUE)[outside])


def _symmetric(a, b, d):
    return np.array([[a, b], [b, d]])


def _rotated(large, small, angle):
    """(a, b, d) of the symmetric matrix [[a, b], [b, d]] with eigenvalues
    `large` and `small`, rotated by `angle`."""
    c, s = math.cos(angle), math.sin(angle)
    return c * c * large + s * s * small, c * s * (large - small), s * s * large + c * c * small


class TestDegenerateGate:
    @settings(max_examples=400, deadline=None)
    @given(st.floats(-20.0, 20.0), st.one_of(st.just(math.inf), st.floats(0.0, 30.0)),
           st.floats(0.0, math.pi))
    def test_matches_eigvalsh_on_psd_matrices(self, log_large, decades_below, angle):
        # decades_below = inf: the smaller eigenvalue is exactly 0
        large = 10.0 ** log_large
        _assert_gate_agrees(*_rotated(large, large * 10.0 ** -decades_below, angle))

    @settings(max_examples=400, deadline=None)
    @given(st.floats(-12.0, 20.0), st.floats(-1e-3, 1e-3), st.floats(0.0, math.pi))
    def test_matches_eigvalsh_near_the_gate(self, log_large, offset, angle):
        small = DEGENERATE_EIGENVALUE * (1.0 + offset)
        _assert_gate_agrees(*_rotated(max(10.0 ** log_large, small), small, angle))

    @settings(max_examples=400, deadline=None)
    @given(st.integers(-2**20, 2**20), st.integers(-2**20, 2**20), st.integers(-120, 60))
    @example(0, 0, 0)
    def test_matches_eigvalsh_on_exact_rank_one(self, p, q, scale):
        # 2**scale * [p, q]^T [p, q] is exactly representable and exactly singular
        _assert_gate_agrees(*(math.ldexp(1.0, scale) * np.array([p * p, p * q, q * q])))


    def test_step_gate_is_the_bound_rule(self, monkeypatch, tdoa_case):
        # det rounds to 0.0 while the closed-form smaller eigenvalue, 0.0078,
        # passes the eigenvalue gate: the bound calls this degenerate, and so
        # must the step, which would divide by the determinant
        a, b, d = 5690823089940.399, 23166718402765.66, 94309176910059.6
        assert a * d - b * b == 0.0 and smallest_eigenvalue(a, b, d) > DEGENERATE_EIGENVALUE
        assert peb_arrays(a, b, d)[2]
        truth, anchors, _ = tdoa_case
        monkeypatch.setattr(estimator, "information", lambda *_: tuple(
            np.full(1, x) for x in (a, b, d, 1.0, 1.0)))
        with pytest.raises(DegenerateGeometryError):
            estimator._step(np.zeros((1, 4)), np.array([truth.lat_rad]),
                            np.array([truth.lon_rad]), 0.0, anchors, np.ones(4), True)


def test_step_at_the_truth_shares_the_bound_information(monkeypatch, tdoa_case):
    # With noise-free TOA rows, a step linearised at the reference case's
    # truth builds `validate`'s bound information bit for bit, and moves by
    # rounding alone.
    calls, kernel = [], estimator.information

    def spy(*args, **kwargs):
        calls.append(kernel(*args, **kwargs))
        return calls[-1]

    monkeypatch.setattr(estimator, "information", spy)
    validate(n_trials=1)
    bound_information = calls[0]
    truth, anchors, _ = tdoa_case
    ranges = np.linalg.norm(anchors - geodetic_to_ecef(truth), axis=-1)
    observed = np.stack([ranges - ranges[0], ranges + 1e3])  # any bias common to a row
    step = estimator._step(observed, np.array([truth.lat_rad]), np.array([truth.lon_rad]),
                           truth.alt_m, anchors, np.ones(4), True)
    a, b, d, *_ = calls[-1]
    for solver, bound in zip((a, b, d), bound_information):
        assert solver.tobytes() == bound.tobytes()
    assert np.all(np.abs(step) < 1e-6)


def test_solver_invariant_under_frame_rotation(tdoa_case):
    # rotating the whole problem about the Earth axis rotates the estimate
    _, anchors, guess = tdoa_case
    shift = math.radians(37.0)
    rot = np.array([[math.cos(shift), -math.sin(shift), 0.0],
                    [math.sin(shift), math.cos(shift), 0.0],
                    [0.0, 0.0, 1.0]])

    observed = reference_toas(1, np.random.default_rng(17))
    base, _, base_converged = solve_one(observed, anchors, np.ones(4), True, guess)

    rot_guess = Geodetic(guess.lat_rad, guess.lon_rad + shift, guess.alt_m)
    rotated, _, rotated_converged = solve_one(observed, anchors @ rot.T, np.ones(4), True,
                                              rot_guess)

    assert rotated_converged == base_converged
    assert rotated.lat_rad == pytest.approx(base.lat_rad, abs=1e-10)
    assert rotated.lon_rad - shift == pytest.approx(base.lon_rad, abs=1e-10)
