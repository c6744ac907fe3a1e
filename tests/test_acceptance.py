"""Acceptance suite: every criterion runs at its stated tolerance and prints
one PASS/FAIL line. The banded scenario checks run the calibrated defaults
at 1000 UE drops with the fixed default seed, single worker."""

import math
import time

import numpy as np
import pytest

from satpeb.config import make_config
from satpeb.errors import DegenerateGeometryError
from satpeb.estimator import validate
from satpeb.fisher import information, line_of_sight, peb_arrays, toa_range_sigma
from satpeb.geometry import (Geodetic, OrbitSpec, geodetic_to_ecef, ground_track_orbit,
                             make_virtual_anchors)
from satpeb.scenarios import run
from tests.test_estimator import draw_one, exact_observables, solve_one
from tests.test_fisher import assert_jacobian_matches_fd, fim, peb_of

FIG4_MEANS = {  # published single-LEO mean PEB per measurement time
    "single_leo_t2": 2220.19, "single_leo_t3": 1692.03,
    "single_leo_t4": 1440.50, "single_leo_t5": 1300.16,
    "single_leo_t6": 1214.39, "single_leo_t7": 1158.84,
    "single_leo_t8": 1121.87, "single_leo_t9": 1096.73,
    "single_leo_t10": 1078.49,
}
FIG5_MEANS = {
    "multi_leo_tdoa3": 187.68, "multi_leo_tdoa3_rtt": 96.25,
    "multi_leo_tdoa4": 53.75, "multi_leo_tdoa4_rtt": 33.64,
}
FIG6_MEANS = {
    "gnss_leo_t2": 184.04, "gnss_leo_t5": 118.37,
    "gnss_leo_t7": 88.85, "gnss_leo_t10": 60.88,
}
GNSS_ONLY_MEAN = 11.93


def _report(criterion: str, passed: bool, detail: str = "") -> None:
    mark = "PASS" if passed else "FAIL"
    print(f"ACCEPTANCE {criterion}: {mark}{' - ' + detail if detail else ''}")
    assert passed, f"{criterion}: {detail}"


def _timed_run(variant):
    start = time.monotonic()
    bundle = run(make_config(variant))
    return bundle, time.monotonic() - start


@pytest.fixture(scope="module")
def single_leo():
    return _timed_run("single-leo")


@pytest.fixture(scope="module")
def multi_leo():
    return _timed_run("multi-leo")


@pytest.fixture(scope="module")
def gnss_leo():
    return _timed_run("gnss-leo")


@pytest.fixture(scope="module")
def gnss_only():
    return _timed_run("gnss-only")


def test_criterion_1_single_leo_sweep(single_leo):
    bundle, elapsed = single_leo
    means = {c: bundle.stats[c].mean for c in bundle.cases}
    in_band = all(0.5 <= means[c] / FIG4_MEANS[c] <= 2.0 for c in FIG4_MEANS)
    ordered = list(means)  # insertion order follows the T sweep
    decreasing = all(means[a] > means[b] for a, b in zip(ordered, ordered[1:]))
    skewed = all(bundle.stats[c].mean > bundle.stats[c].median for c in means)
    runtime_ok = elapsed < 60.0
    detail = (f"means within factor 2: {in_band}, strictly decreasing: "
              f"{decreasing}, mean>median: {skewed}, runtime {elapsed:.1f}s")
    _report("1 (single-LEO sweep)",
            in_band and decreasing and skewed and runtime_ok, detail)


def test_criterion_2_multi_leo_cases(multi_leo, single_leo):
    bundle, elapsed = multi_leo
    means = {c: bundle.stats[c].mean for c in bundle.cases}
    in_band = all(0.5 <= means[c] / FIG5_MEANS[c] <= 2.0 for c in FIG5_MEANS)
    ordered = (means["multi_leo_tdoa3"] > means["multi_leo_tdoa3_rtt"]
               > means["multi_leo_tdoa4"] > means["multi_leo_tdoa4_rtt"])
    single_t10 = single_leo[0].stats["single_leo_t10"].mean
    magnitude = means["multi_leo_tdoa4_rtt"] <= 0.1 * single_t10
    runtime_ok = elapsed < 60.0
    detail = (f"within factor 2: {in_band}, ordering: {ordered}, "
              f"4tdoa+rtt {means['multi_leo_tdoa4_rtt']:.1f} <= 0.1 x "
              f"single-T10 {single_t10:.1f}: {magnitude}, runtime {elapsed:.1f}s")
    _report("2 (multi-LEO cases)",
            in_band and ordered and magnitude and runtime_ok, detail)


def test_criterion_3_gnss_leo(gnss_leo, gnss_only):
    bundle, elapsed = gnss_leo
    baseline, elapsed_only = gnss_only
    means = {c: bundle.stats[c].mean for c in bundle.cases}
    in_band = all(0.5 <= means[c] / FIG6_MEANS[c] <= 2.0 for c in FIG6_MEANS)
    ordered = list(means)
    decreasing = all(means[a] > means[b] for a, b in zip(ordered, ordered[1:]))
    only_mean = baseline.stats["gnss_only"].mean
    only_band = 0.5 <= only_mean / GNSS_ONLY_MEAN <= 2.0
    better = all(only_mean < means[c] for c in means)
    runtime_ok = (elapsed + elapsed_only) < 60.0
    detail = (f"hybrid within factor 2: {in_band}, decreasing in T: {decreasing}, "
              f"gnss-only {only_mean:.2f} within factor 2 of {GNSS_ONLY_MEAN}: "
              f"{only_band}, gnss-only below hybrid: {better}, "
              f"runtime {elapsed + elapsed_only:.1f}s")
    _report("3 (GNSS+LEO)",
            in_band and decreasing and only_band and better and runtime_ok, detail)


def test_criterion_4_jacobian_oracle():
    rng = np.random.default_rng(2024)
    for trial in range(1000):
        # RTT ranges, then TOAs with the clock bias centred out
        assert_jacobian_matches_fd(rng, trial % 2 == 1, rel_tol=1e-6)
    _report("4 (Jacobian finite-difference oracle)", True,
            "1000 random geometries, relative error < 1e-6")


def test_criterion_5_information_monotonicity():
    rng = np.random.default_rng(55)
    checked = 0
    for _ in range(500):
        m = int(rng.integers(2, 6))
        a = rng.standard_normal((m, m))
        f = fim(rng.standard_normal((m, 2)), a @ a.T + 0.5 * np.eye(m))
        m2 = int(rng.integers(1, 5))
        b = rng.standard_normal((m2, m2))
        extra = fim(rng.standard_normal((m2, 2)), b @ b.T + 0.5 * np.eye(m2))
        before, _, before_degenerate = peb_of(f)
        after, _, after_degenerate = peb_of(f + extra)
        if before_degenerate or after_degenerate:
            continue
        assert after <= before + 1e-9
        checked += 1
    _report("5 (information monotonicity)", checked > 400,
            f"{checked} non-degenerate pairs, bound never increased")


def test_criterion_6_ground_track_degeneracy():
    orbit = ground_track_orbit(Geodetic(0.0, 0.0, 0.0), 600e3)
    anchors = make_virtual_anchors(orbit, 10.0, 10)
    ue = Geodetic(math.radians(0.05), 0.0, 0.0)  # exactly on the ground track
    sigma = np.full(10, 5.0)
    _, east, north, _ = line_of_sight(ue.lat_rad, ue.lon_rad, ue.alt_m, anchors)
    flagged = bool(peb_arrays(*information(east, north, sigma**2))[2])
    observed = draw_one(ue, anchors, sigma, np.random.default_rng(0))
    try:
        solve_one(observed, anchors, sigma**2, False, ue)
        solver_degenerate = False
    except DegenerateGeometryError:
        solver_degenerate = True
    _report("6 (ground-track degeneracy)", flagged and solver_degenerate,
            f"bound flagged: {flagged}, solver raised: {solver_degenerate}")


def test_criterion_7_crlb_achievability():
    start = time.monotonic()
    report = validate(n_trials=2000, seed=0)
    elapsed = time.monotonic() - start
    ratio_ok = 0.95 <= report.ratio <= 1.20

    from satpeb.estimator import reference_tdoa_case
    t, anchors, guess = reference_tdoa_case()
    noiseless = exact_observables(t, anchors)[None]
    # weights do not move a noiseless fixed point; a zero variance would be an infinite one
    estimate, _, converged = solve_one(noiseless, anchors, np.ones(4), True, guess)
    recovery = np.linalg.norm(geodetic_to_ecef(estimate) - geodetic_to_ecef(t))
    recovery_ok = converged and recovery < 1e-3
    runtime_ok = elapsed < 30.0
    detail = (f"RMSE/PEB = {report.ratio:.4f} in [0.95, 1.20]: {ratio_ok}, "
              f"noiseless recovery {recovery:.2e} m: {recovery_ok}, "
              f"runtime {elapsed:.1f}s")
    _report("7 (CRLB achievability)", ratio_ok and recovery_ok and runtime_ok,
            detail)


def test_criterion_8_determinism(tmp_path):
    import json
    from satpeb.cli import main

    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps({"variant": "single-leo", "n_ue_drops": 40,
                               "measurement_times_s": [2.0, 5.0], "seed": 7}))
    blobs = []
    for name, workers in (("w1", "1"), ("w1b", "1"), ("w2", "2")):
        out = tmp_path / name
        assert main(["single-leo", "--config", str(cfg), "--out", str(out),
                     "--workers", workers]) == 0
        blobs.append((out / "samples.csv").read_bytes())
    identical = blobs[0] == blobs[1] == blobs[2]
    _report("8 (determinism across workers)", identical,
            "byte-identical samples.csv for workers 1, 1, 2")


def test_criterion_9_closed_form_spot_checks():
    from satpeb.channel import free_space_path_loss

    fspl = free_space_path_loss(600e3, 2e9)
    fspl_ok = abs(fspl - 154.0) <= 0.1
    sigma = toa_range_sigma(10.0, 10e6)
    sigma_ok = abs(sigma - 3.70) <= 0.01
    speed = OrbitSpec(600e3, math.pi / 2).speed
    speed_ok = abs(speed - 7560.0) <= 10.0
    detail = (f"FSPL {fspl:.2f} dB, toa sigma {sigma:.3f} m, "
              f"orbital speed {speed:.1f} m/s")
    _report("9 (closed-form spot checks)",
            fspl_ok and sigma_ok and speed_ok, detail)
