import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from satpeb import channel, geometry, scenarios
from satpeb.config import SCENARIO_CLASSES, LinkBudget, make_config
from satpeb.constants import EARTH_RADIUS_M
from satpeb.errors import StatisticsError
from satpeb.fisher import line_of_sight, min_gdop_subsets
from satpeb.geometry import (Geodetic, angle_between, enu_frames,
                             geodetic_to_ecef, ground_track_orbit, hex_constellation,
                             make_virtual_anchors, propagate_circular_orbit)
from satpeb.scenarios import (RunBundle, cap_half_angle, drop_ues, evaluate, run, substream,
                              substream_draws, summarize)
from tests.test_fisher import best_subset_indices, stacked, unit_vectors_en


def _summarize(values, degenerate=0):
    """`summarize` of case "case": the bounds `values`, then `degenerate`
    degenerate (NaN) drops."""
    flags = np.arange(len(values) + degenerate) >= len(values)
    return summarize("case", np.append(np.asarray(values, dtype=float),
                                       np.full(degenerate, np.nan)), flags)


def _columns_equal(a, b) -> bool:
    return all(np.array_equal(x, y, equal_nan=True) for x, y in zip(a, b))


def _sample_columns(bundle: RunBundle, case_id: str) -> tuple[np.ndarray, ...]:
    """A case's (D,) drop positions, bound, GDOP and degenerate flag."""
    return (bundle.lat_rad, bundle.lon_rad, *bundle.cases[case_id])


# (latitude, longitude) of the coverage center in degrees: the default, a
# mid-latitude one and one whose beam straddles the +-180 degree meridian.
_CENTERS_DEG = pytest.mark.parametrize("center_deg", [
    (0.0, 0.0), (45.0, 30.0), (-70.0, 179.95)], ids=["equator", "mid-latitude", "antimeridian"])


def _centered_config(center_deg, **overrides):
    lat, lon = center_deg
    return make_config("single-leo", center_lat_deg=lat, center_lon_deg=lon, **overrides)


def _center(cfg) -> Geodetic:
    return Geodetic(math.radians(cfg.center_lat_deg), math.radians(cfg.center_lon_deg), 0.0)


def _grid(cfg) -> np.ndarray:
    """The config's (7, 3) hexagonal grid, serving satellite first."""
    return hex_constellation(_center(cfg), math.radians(cfg.lon_gap_deg),
                             math.radians(cfg.lat_gap_deg), cfg.leo_altitude_m)


def _at(lat_deg, lon_deg) -> tuple[np.ndarray, np.ndarray]:
    """One UE position as the (1,) arrays `evaluate` takes."""
    return np.radians([lat_deg]), np.radians([lon_deg])


class TestDropUes:
    def test_cap_radius_matches_beam_footprint(self):
        # 4.4127 deg beam from 600 km: ground radius about 23.1 km
        psi = cap_half_angle(600e3, math.radians(4.4127))
        assert psi * EARTH_RADIUS_M == pytest.approx(23.1e3, rel=0.01)

    def test_beam_wider_than_earth_disc_covers_up_to_horizon(self):
        # 75 deg half-beam from 600 km overshoots the limb (66.1 deg)
        psi = cap_half_angle(600e3, math.radians(150.0))
        assert psi == math.acos(EARTH_RADIUS_M / (EARTH_RADIUS_M + 600e3))

    @pytest.mark.parametrize("altitude_m", [600e3, 780e3, 1200e3])
    @pytest.mark.parametrize("beamwidth_deg", [1.0, 4.4127, 20.0])
    def test_cap_matches_bisection_of_off_boresight_equation(self, altitude_m,
                                                             beamwidth_deg):
        r_sat = EARTH_RADIUS_M + altitude_m
        half_beam = math.radians(beamwidth_deg) / 2.0

        def excess(psi):  # off-boresight angle of the ring at psi, minus half_beam
            return math.atan2(EARTH_RADIUS_M * math.sin(psi),
                              r_sat - EARTH_RADIUS_M * math.cos(psi)) - half_beam

        lo, hi = 0.0, math.acos(EARTH_RADIUS_M / r_sat)
        while True:
            mid = 0.5 * (lo + hi)
            if mid in (lo, hi):
                break
            lo, hi = (mid, hi) if excess(mid) < 0.0 else (lo, mid)
        psi = cap_half_angle(altitude_m, math.radians(beamwidth_deg))
        assert psi == pytest.approx(lo, rel=1e-14, abs=0.0)

    @_CENTERS_DEG
    def test_drops_stay_inside_beam(self, center_deg):
        cfg = _centered_config(center_deg, n_ue_drops=200)
        center = Geodetic(*np.radians(center_deg))
        serving = propagate_circular_orbit(ground_track_orbit(center, cfg.leo_altitude_m), 0.0)
        beam_center = geodetic_to_ecef(center)
        half_beam = math.radians(cfg.link.beamwidth_deg) / 2.0
        for lat, lon in zip(*drop_ues(cfg)):
            off = angle_between(beam_center - serving,
                                geodetic_to_ecef(Geodetic(lat, lon, 0.0)) - serving)
            assert off <= half_beam + 1e-9

    @_CENTERS_DEG
    def test_drop_lies_at_its_drawn_angle_and_bearing(self, center_deg):
        # Each drop is the great-circle step from the center through its
        # drawn central angle psi along its drawn bearing, read back here
        # from 3-D vectors, which do not wrap at +-180 degrees.
        cfg = _centered_config(center_deg, n_ue_drops=200)
        draws, _ = substream_draws(cfg.seed, "ue-drop", (200, 2))
        cos_min = math.cos(cap_half_angle(cfg.leo_altitude_m,
                                          math.radians(cfg.link.beamwidth_deg)))
        psi = np.arccos(cos_min + (1.0 - cos_min) * draws[:, 0])
        bearing = 2.0 * math.pi * draws[:, 1]
        east, north, up = enu_frames(*np.radians(center_deg))[1]
        lat, lon = drop_ues(cfg)
        assert np.all((-math.pi <= lon) & (lon < math.pi))
        ue = enu_frames(lat, lon)[0]
        along = ue @ up
        across = np.linalg.norm(np.cross(ue, up), axis=1)
        assert np.allclose(np.arctan2(across, along), psi, rtol=0.0, atol=1e-12)
        turn = np.arctan2(ue @ east, ue @ north) - bearing
        assert np.allclose((turn + math.pi) % (2.0 * math.pi) - math.pi, 0.0,
                           rtol=0.0, atol=1e-12)

    def test_seed_determinism(self):
        cfg = make_config("single-leo", n_ue_drops=50)
        a = drop_ues(cfg)
        b = drop_ues(cfg)
        assert _columns_equal(a, b)
        c = drop_ues(make_config("single-leo", n_ue_drops=50, seed=1))
        assert not _columns_equal(a, c)

    def test_drop_count_change_preserves_prefix(self):
        small = drop_ues(make_config("single-leo", n_ue_drops=20))
        large = drop_ues(make_config("single-leo", n_ue_drops=60))
        assert _columns_equal((large[0][:20], large[1][:20]), small)


class TestSummarize:
    def test_reference_example(self):
        s = _summarize([1.0, 2.0, 3.0, 4.0, 100.0])
        assert s.median == 3.0
        assert s.q1 == 2.0
        assert s.q3 == 4.0
        assert s.whisker_lo == 1.0
        assert s.whisker_hi == 4.0
        assert s.outlier_count == 1
        assert s.mean == pytest.approx(22.0)

    def test_constant_samples(self):
        s = _summarize([5.0, 5.0, 5.0])
        assert s.mean == s.median == 5.0
        assert s.q3 - s.q1 == 0.0
        assert s.outlier_count == 0

    def test_degenerate_counted_not_averaged(self):
        s = _summarize([2.0, 4.0], degenerate=3)
        assert s.mean == 3.0
        assert s.degenerate_count == 3
        assert s.n_samples == 5

    def test_all_degenerate_raises(self):
        with pytest.raises(StatisticsError, match="^case case: "):
            _summarize([], degenerate=4)

    @pytest.mark.parametrize("values", [[1.0, 2.0, math.inf, 4.0], [math.inf],
                                        [3.0, -math.inf], [2.0, math.nan, 5.0]])
    def test_non_finite_usable_bound_raises_naming_the_case(self, values):
        with pytest.raises(StatisticsError, match="^case case: a non-degenerate bound is not "):
            _summarize(values, degenerate=2)

    def test_singleton(self):
        s = _summarize([7.5])
        assert s.mean == s.median == s.q1 == s.q3 == 7.5

    # Lists drawn from a small pool of values, so ties are common.
    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.floats(1e-3, 1e6), min_size=1, max_size=6).flatmap(
        lambda pool: st.lists(st.sampled_from(pool), min_size=1, max_size=120))
        | st.lists(st.floats(1e-3, 1e6), min_size=1, max_size=400))
    @example([3.0])
    @example([1e-3, 1e6])
    @example([2.0, 2.0, 5.0, 5.0])
    def test_quartiles_equal_numpy_percentile(self, values):
        s = _summarize(values)
        assert [s.q1, s.median, s.q3] == np.percentile(values, [25.0, 50.0, 75.0]).tolist()


class TestSingleLeo:
    def test_records_and_determinism(self):
        cfg = make_config("single-leo", n_ue_drops=30,
                          measurement_times_s=(2.0, 10.0))
        a = run(cfg)
        b = run(cfg)
        assert list(a.cases) == ["single_leo_t2", "single_leo_t10"]
        for case in a.cases:
            assert len(a.cases[case][0]) == 30
            assert _columns_equal(_sample_columns(a, case), _sample_columns(b, case))

    def test_mean_non_increasing_in_time_and_above_median(self):
        cfg = make_config("single-leo", n_ue_drops=300)
        bundle = run(cfg)
        means = [bundle.stats[c].mean for c in bundle.cases]
        assert all(a >= b for a, b in zip(means, means[1:]))
        for c in bundle.cases:
            assert bundle.stats[c].mean > bundle.stats[c].median

    def test_ue_on_ground_track_flagged_degenerate(self):
        cfg = make_config("single-leo", n_ue_drops=1,
                          measurement_times_s=(10.0,), los_only=True)
        peb_m, _, degenerate = evaluate(cfg, *_at(0.02, 0.0))["single_leo_t10"]
        assert degenerate[0]
        assert math.isnan(peb_m[0])


@pytest.fixture(scope="module")
def multi_leo_bundle():
    return run(make_config("multi-leo", n_ue_drops=60))


class TestMultiLeo:
    @pytest.fixture
    def bundle(self, multi_leo_bundle):
        return multi_leo_bundle

    def test_case_ids(self, bundle):
        assert list(bundle.cases) == ["multi_leo_tdoa3", "multi_leo_tdoa3_rtt",
                                      "multi_leo_tdoa4", "multi_leo_tdoa4_rtt"]

    def test_rtt_augmentation_never_hurts_any_ue(self, bundle):
        for k in (3, 4):
            plain_peb, _, plain_deg = bundle.cases[f"multi_leo_tdoa{k}"]
            boosted_peb, _, boosted_deg = bundle.cases[f"multi_leo_tdoa{k}_rtt"]
            for p, b, p_deg, b_deg in zip(plain_peb, boosted_peb, plain_deg, boosted_deg):
                if p_deg or b_deg:
                    continue
                assert b <= p + 1e-9

    def test_four_satellites_better_than_three_on_mean(self, bundle):
        # per-UE ordering is not guaranteed (selection optimizes unit-sigma
        # GDOP, not the realized-sigma bound), but the mean ordering is robust
        assert (bundle.stats["multi_leo_tdoa4"].mean
                < bundle.stats["multi_leo_tdoa3"].mean)

    def test_restricting_cases_via_config(self):
        cfg = make_config("multi-leo", n_ue_drops=5, n_active_satellites=3,
                          rtt_augmentation=True)
        bundle = run(cfg)
        assert list(bundle.cases) == ["multi_leo_tdoa3_rtt"]


class TestHiddenNeighbors:
    def test_batched_choice_matches_scalar_on_visible_anchors(self, monkeypatch):
        # 27 deg gaps put one same-row neighbor below most drops' horizon
        cfg = make_config("multi-leo", n_ue_drops=200, lon_gap_deg=27.0)
        positions = drop_ues(cfg)
        _, east, north, sin_el, _ = line_of_sight(*positions, 0.0, _grid(cfg)[:, None])
        # the (7, D) grid directions and link mask `evaluate` selects from
        searches = []
        real = scenarios.min_gdop_subsets
        monkeypatch.setattr(scenarios, "min_gdop_subsets",
                            lambda e, n, serving, k, visible: searches.append((e, n, visible, k))
                            or real(e, n, serving, k, visible))
        evaluate(cfg, *positions)
        assert [k for *_, k in searches] == [3, 4]
        units = np.stack([east.T, north.T], axis=-1)  # (D, 7, 2)
        for searched_east, searched_north, visible, k in searches:
            assert np.array_equal(searched_east, east) and np.array_equal(searched_north, north)
            assert np.array_equal(visible, sin_el > 0)
            assert np.count_nonzero((~visible).sum(axis=0) == 1) == 190
            batched = min_gdop_subsets(east, north, 0, k, visible)
            for drop, shown, chosen in zip(units, visible.T, batched):
                index = np.flatnonzero(shown)
                assert tuple(chosen) == tuple(index[list(best_subset_indices(
                    drop[index], 0, k))])
        bundle = run(cfg)
        assert len(bundle.lat_rad) == 200
        for peb_m, _, degenerate in bundle.cases.values():
            assert len(peb_m) == 200
            assert not np.any(degenerate)

    def test_grid_links_take_one_budget_pass(self, monkeypatch):
        # One `link_snr` call over the visible grid links, whose penalty term
        # is 0 toward the serving satellite (grid index 0) and the config's
        # neighbour penalty toward every other satellite.
        cfg = make_config("multi-leo", n_ue_drops=50, lon_gap_deg=27.0, rtt_augmentation=False,
                          link=LinkBudget(neighbor_penalty_db=3.5))
        positions = drop_ues(cfg)
        sin_el = line_of_sight(*positions, 0.0, _grid(cfg)[:, None])[3]
        calls = []
        real = channel.link_snr
        monkeypatch.setattr(channel, "link_snr", lambda *a: calls.append(a) or real(*a))
        evaluate(cfg, *positions)
        assert len(calls) == 1
        satellite = np.nonzero(sin_el > 0)[0]  # the links in the (7, D) mask's order
        assert np.count_nonzero(satellite == 0) == 50 and satellite.size < 50 * 7
        assert np.array_equal(calls[0][-1], np.where(satellite == 0, 0.0, 3.5))

    def test_too_few_visible_satellites_degenerate_in_every_case(self):
        cfg = make_config("multi-leo", n_ue_drops=5, lon_gap_deg=60.0)
        records = evaluate(cfg, *drop_ues(cfg))
        assert list(records) == ["multi_leo_tdoa3", "multi_leo_tdoa3_rtt",
                                 "multi_leo_tdoa4", "multi_leo_tdoa4_rtt"]
        for peb_m, gdop, degenerate in records.values():
            assert np.all(degenerate) and np.all(np.isnan(peb_m)) and np.all(np.isnan(gdop))
        with pytest.raises(StatisticsError, match="multi_leo_tdoa3"):
            run(cfg)


class TestHiddenVirtualAnchors:
    def test_drops_with_an_anchor_below_horizon_are_degenerate(self):
        # A 770 s window carries the satellite below some drops' horizon.
        cfg = make_config("single-leo", n_ue_drops=50, measurement_times_s=(10.0, 770.0))
        bundle = run(cfg)
        peb_m, gdop, degenerate = bundle.cases["single_leo_t770"]
        anchors = make_virtual_anchors(ground_track_orbit(_center(cfg), cfg.leo_altitude_m),
                                       770.0, cfg.n_virtual_anchors)
        ue_ecef, basis = enu_frames(bundle.lat_rad, bundle.lon_rad)
        height = np.einsum("dmk,dk->dm", anchors - ue_ecef[:, None, :], basis[:, 2])
        hidden = np.any(height <= 0, axis=1)
        assert 0 < np.count_nonzero(hidden) < 50
        assert np.array_equal(degenerate, hidden)
        assert np.all(np.isnan(peb_m[hidden])) and np.all(np.isnan(gdop[hidden]))
        assert not np.any(bundle.cases["single_leo_t10"][2])

    def test_hidden_rtt_block_flags_only_the_cases_holding_it(self):
        # 900 s carries the 780 km satellite below some drops' horizon.
        cfg = make_config("multi-leo", n_ue_drops=20, rtt_measurement_time_s=900.0)
        plain = run(make_config("multi-leo", n_ue_drops=20))
        bundle = run(cfg)
        hidden = bundle.cases["multi_leo_tdoa3_rtt"][2]
        assert 0 < np.count_nonzero(hidden) < 20
        for case_id, (_, _, degenerate) in bundle.cases.items():
            if case_id.endswith("_rtt"):
                assert np.array_equal(degenerate, hidden)
            else:
                assert _columns_equal(_sample_columns(bundle, case_id),
                                      _sample_columns(plain, case_id))


class TestGnssLeo:
    def test_gnss_leo_cases_and_monotonicity(self):
        cfg = make_config("gnss-leo", n_ue_drops=80,
                          measurement_times_s=(2.0, 10.0))
        bundle = run(cfg)
        assert list(bundle.cases) == ["gnss_leo_t2", "gnss_leo_t10"]
        means = [bundle.stats[c].mean for c in bundle.cases]
        assert means[0] > means[1]

    def test_gnss_only_single_case(self):
        bundle = run(make_config("gnss-only", n_ue_drops=40))
        assert list(bundle.cases) == ["gnss_only"]
        assert bundle.stats["gnss_only"].n_samples == 40

    def test_mirror_symmetry_across_ground_track(self):
        # single-LEO LOS-only: UEs mirrored across the track get equal bounds
        cfg = make_config("single-leo", n_ue_drops=1,
                          measurement_times_s=(10.0,), los_only=True)
        # each a one-drop evaluation, so both take drop 0's link draws
        east = evaluate(cfg, *_at(0.05, 0.08))["single_leo_t10"][0][0]
        west = evaluate(cfg, *_at(0.05, -0.08))["single_leo_t10"][0][0]
        assert east == pytest.approx(west, rel=1e-6)


class TestBlockSums:
    # Blocks to append to every case: a window on a tag of its own, a window
    # on single-leo's tag (stacked with its windows), and the TDOA kinds.
    EXTRA = (scenarios.Rtt(3.0, "extra-link"), scenarios.Rtt(7.0, "sl-link"),
             scenarios.Tdoa(3), scenarios.Tdoa(4), scenarios.Gnss(2), scenarios.Gnss(3))

    @settings(max_examples=30, deadline=None)
    @given(st.sampled_from(["single-leo", "multi-leo", "gnss-leo", "gnss-only"]),
           st.integers(0, 1000), st.sampled_from(EXTRA))
    def test_adding_a_block_never_raises_a_bound(self, variant, seed, extra):
        config = make_config(variant, n_ue_drops=30, seed=seed)
        positions = drop_ues(config)
        base = evaluate(config, *positions)
        real = scenarios.case_table

        def with_extra(config):
            cases = {c: blocks + (extra,) for c, blocks in real(config).items()}
            return {**cases, "extra_alone": (extra,)}

        with mock.patch.object(scenarios, "case_table", with_extra):
            extended = evaluate(config, *positions)
        # A drop that cannot form the extra block (hidden anchors, too few
        # visible satellites) is degenerate in it alone, and so in every sum.
        cannot = extended.pop("extra_alone")[2]
        assert list(extended) == list(base)
        for case_id, (peb_m, _, degenerate) in base.items():
            more_peb, _, more_degenerate = extended[case_id]
            assert not np.any(more_degenerate & ~degenerate & ~cannot), case_id
            both = ~degenerate & ~more_degenerate
            assert np.all(more_peb[both] <= peb_m[both] * (1.0 + 1e-9)), case_id


class TestEvaluate:
    # Row i takes drop i's draws, whatever the other rows hold: what
    # evaluating drops in chunks or one drop alone rests on.
    @pytest.mark.parametrize("variant", ["single-leo", "multi-leo", "gnss-leo", "gnss-only"])
    def test_moving_one_drop_changes_only_its_row(self, variant):
        cfg = make_config(variant, n_ue_drops=12)
        lat, lon = drop_ues(cfg)
        inputs = lat.tobytes(), lon.tobytes()
        base = evaluate(cfg, lat, lon)
        assert (lat.tobytes(), lon.tobytes()) == inputs
        moved_lat, moved_lon = lat.copy(), lon.copy()
        moved_lat[5] += math.radians(0.03)
        moved_lon[5] -= math.radians(0.02)
        moved_inputs = moved_lat.tobytes(), moved_lon.tobytes()
        moved = evaluate(cfg, moved_lat, moved_lon)
        assert (moved_lat.tobytes(), moved_lon.tobytes()) == moved_inputs
        assert list(moved) == list(base)
        others = np.arange(12) != 5
        for case_id, columns in base.items():
            for old, new in zip(columns, moved[case_id]):
                assert new[others].tobytes() == old[others].tobytes(), case_id
            (peb_m, gdop, degenerate), (new_peb, new_gdop, new_degenerate) = (
                [c[5] for c in cols] for cols in (columns, moved[case_id]))
            assert not degenerate and not new_degenerate
            if variant == "gnss-only":  # the sky is drawn in the UE's own frame
                assert (new_peb, new_gdop) == (peb_m, gdop)
            else:  # every other case holds a LEO block
                assert new_peb != peb_m, case_id


class TestSpans:
    @pytest.mark.parametrize("variant, overrides", [
        ("single-leo", {"measurement_times_s": (2.0, 7.0)}),
        ("multi-leo", {}),
        ("gnss-leo", {"measurement_times_s": (2.0, 10.0)}),
        ("gnss-only", {}),
    ])
    def test_more_drops_keep_earlier_drops(self, variant, overrides):
        short = run(make_config(variant, n_ue_drops=10, seed=4, **overrides))
        long = run(make_config(variant, n_ue_drops=23, seed=4, **overrides))
        assert list(short.cases) == list(long.cases)
        for case_id in long.cases:
            assert len(long.cases[case_id][0]) == 23
            assert _columns_equal(_sample_columns(short, case_id),
                                  [c[:10] for c in _sample_columns(long, case_id)])

    @pytest.mark.parametrize("variant, per_drop", [
        ("single-leo", 2), ("multi-leo", 3), ("gnss-leo", 4), ("gnss-only", 4)])
    def test_one_substream_per_drop_and_tag(self, variant, per_drop, monkeypatch):
        # link draws are shared across cases: one stream per drop and tag
        # (and per GNSS satellite), whatever the number of cases; all of
        # them come from the batched helper, none from the scalar one
        streams = []
        real = scenarios.substream_draws

        def counted(seed, tag, shape, n_normal=0):
            streams.extend([tag] * math.prod(shape[:-1]))
            return real(seed, tag, shape, n_normal)

        def scalar(*args):
            pytest.fail(f"substream{args} called on the run path")

        monkeypatch.setattr(scenarios, "substream_draws", counted)
        monkeypatch.setattr(scenarios, "substream", scalar)
        run(make_config(variant, n_ue_drops=7))
        assert len(streams) == per_drop * 7

    def test_drop_records_follow_drop_positions(self):
        cfg = make_config("multi-leo", n_ue_drops=6)
        lat, lon = drop_ues(cfg)
        columns = evaluate(cfg, lat, lon)
        bundle = run(cfg)
        assert list(bundle.cases) == list(columns)
        assert np.array_equal(bundle.lat_rad, lat)
        assert np.array_equal(bundle.lon_rad, lon)
        for case_id, case in bundle.cases.items():
            assert _columns_equal(case, columns[case_id])


_TAGS = ["ue-drop", "sl-link", "ml-link", "ml-rtt", "gl-link", "gnss-pos", "ß-λ-衛星"]


def _assert_matches_scalar(seed, tag, shape, n_normal):
    uniforms, normals = substream_draws(seed, tag, shape, n_normal)
    assert uniforms.shape == shape and normals.shape == (*shape[:-1], n_normal)
    for j in np.ndindex(*shape[:-1]):
        rng = substream(seed, tag, *j)
        assert np.array_equal(uniforms[j].view(np.uint64),
                              rng.random(shape[-1]).view(np.uint64)), (seed, tag, j)
        assert np.array_equal(normals[j].view(np.uint64),
                              rng.standard_normal(n_normal).view(np.uint64)), (seed, tag, j)


class TestSubstreams:
    # `substream` (one SeedSequence per stream) is the oracle: the batched
    # seeding must reproduce NumPy's SeedSequence and PCG64 bit for bit, in
    # uniform-only and in uniform-and-normal rows.
    @settings(max_examples=100, deadline=None)
    @given(st.integers(0, 2**64 - 1), st.sampled_from(_TAGS) | st.text(max_size=6),
           st.integers(1, 5), st.lists(st.integers(1, 3), max_size=2),
           st.integers(0, 4), st.integers(0, 4))
    def test_streams_equal_scalar_substreams(self, seed, tag, n, inner, n_uniform, n_normal):
        _assert_matches_scalar(seed, tag, (n, *inner, n_uniform), n_normal)

    @pytest.mark.parametrize("inner", [(), (2,), (3,)])
    @pytest.mark.parametrize("seed", [0, 2**32 - 1, 2**32, 2**64 - 1])
    def test_seed_word_boundaries(self, seed, inner):
        for tag in _TAGS:
            for n in (4, 1):
                _assert_matches_scalar(seed, tag, (n, *inner, 2), 0)
                _assert_matches_scalar(seed, tag, (n, *inner, 3), 3)

    @pytest.mark.parametrize("inner", [(), (3,)])
    def test_more_streams_keep_earlier_streams(self, inner):
        for n_normal in (0, 4):
            short = substream_draws(7, "sl-link", (6, *inner, 4), n_normal)
            long = substream_draws(7, "sl-link", (11, *inner, 4), n_normal)
            assert all(np.array_equal(a, b[:6]) for a, b in zip(short, long))

    @pytest.mark.parametrize("seed, shape", [
        (-1, (1, 2)), (0, (2**32 + 1, 2)), (0, (1, 2**32 + 1, 2))])
    def test_rejects_what_needs_other_words(self, seed, shape, monkeypatch):
        # an index of 2**32 or more would take a second entropy word; the
        # check runs before any array of that size is made
        def indices(*args):
            pytest.fail("stream indices built before the check")

        monkeypatch.setattr(np, "indices", indices)
        with pytest.raises(ValueError):
            substream_draws(seed, "ue-drop", shape)


class TestStackedWindows:
    @pytest.mark.parametrize("variant", ["single-leo", "gnss-leo"])
    def test_window_does_not_depend_on_the_other_windows(self, variant):
        sweep = run(make_config(variant, n_ue_drops=40, measurement_times_s=(2.0, 5.0, 10.0)))
        alone = run(make_config(variant, n_ue_drops=40, measurement_times_s=(5.0,)))
        case_id = variant.replace("-", "_") + "_t5"
        assert list(alone.cases) == [case_id]
        assert _columns_equal(_sample_columns(sweep, case_id),
                              _sample_columns(alone, case_id))

    @pytest.mark.parametrize("n_times", [1, 3, 9])
    def test_one_downlink_and_one_uplink_budget_per_tag(self, n_times, monkeypatch):
        # All windows of the "sl-link" tag are realized in one pass.
        calls = []
        real = channel.link_snr
        monkeypatch.setattr(channel, "link_snr", lambda *a: calls.append(a) or real(*a))
        times = tuple(float(t) for t in range(2, 2 + n_times))
        bundle = run(make_config("single-leo", n_ue_drops=7, measurement_times_s=times))
        assert len(bundle.cases) == n_times
        assert len(calls) == 2

    @pytest.mark.parametrize("variant, times, expected", [
        ("single-leo", (2.0,), 1), ("single-leo", (2.0, 3.0, 4.0), 1),
        ("single-leo", tuple(float(t) for t in range(2, 11)), 1),
        ("multi-leo", (), 2), ("gnss-leo", (2.0, 5.0), 1), ("gnss-leo", (), 1)])
    def test_one_geometry_pass_per_anchor_set(self, variant, times, expected, monkeypatch):
        # The link budget and the FIM read the same `line_of_sight` result:
        # one call per RTT tag (all its windows) and one for the grid, and
        # each of those anchor layouts is one propagation. The off-boresight
        # angles come from `line_of_sight`'s offsets, with no UE frames.
        calls, propagations = [], []
        real = scenarios.line_of_sight
        monkeypatch.setattr(scenarios, "line_of_sight",
                            lambda *a, **k: calls.append(a) or real(*a, **k))
        propagate = geometry.propagate_circular_orbit
        monkeypatch.setattr(geometry, "propagate_circular_orbit",
                            lambda *a: propagations.append(a) or propagate(*a))
        for module in (geometry, scenarios):
            for name in ("angle_between", "enu_frames"):
                monkeypatch.setattr(module, name, raising=False, value=lambda *a, name=name:
                                    pytest.fail(f"{name} on the run path"))
        extra = {"measurement_times_s": times} if times else {}
        run(make_config(variant, n_ue_drops=7, **extra))
        assert len(calls) == len(propagations) == expected


class TestLineOfSight:
    """`fisher.line_of_sight` and the link model's off-boresight angle on the
    shapes `evaluate` passes them, against their oracles taken on every
    drop's flat (D, K) row of anchors: the ranges, the anchor - UE offsets
    and the off-boresight angles (`geometry.angle_between`) bit for bit, and
    within a few ulps the east/north components of `unit_vectors_en` and the
    elevation sines on the geocentric up, which `line_of_sight` forms
    elementwise."""

    @pytest.mark.parametrize("variant, overrides", [
        pytest.param("single-leo", {}, id="single-leo"),
        pytest.param("multi-leo", {"rtt_augmentation": False}, id="multi-leo"),
        pytest.param("multi-leo", {"rtt_augmentation": True}, id="multi-leo-rtt"),
        pytest.param("gnss-leo", {}, id="gnss-leo")])
    def test_matches_oracle_on_scenario_shapes(self, variant, overrides, monkeypatch):
        # Every anchor set of the run in `evaluate`'s order: the RTT tag's
        # windows at once, (M, W, D), then the hexagonal grid, (7, D)
        cfg = make_config(variant, n_ue_drops=200, **overrides)
        lat, lon = drop_ues(cfg)
        ue_ecef, basis = enu_frames(lat, lon)
        times = (cfg.measurement_times_s if variant != "multi-leo"
                 else (cfg.rtt_measurement_time_s,) if cfg.rtt_augmentation else ())
        orbit = ground_track_orbit(_center(cfg), cfg.leo_altitude_m)
        anchor_sets = [np.stack([make_virtual_anchors(orbit, t, cfg.n_virtual_anchors)
                                 for t in times], axis=1)] if times else []
        if variant == "multi-leo":
            anchor_sets.append(_grid(cfg))
        # the off-boresight angles the link model hands the antenna pattern,
        # one array per anchor set
        angles = []
        real = channel.antenna_gain
        monkeypatch.setattr(channel, "antenna_gain", lambda beamwidth, model, theta:
                            angles.append(theta) or real(beamwidth, model, theta))
        evaluate(cfg, lat, lon)
        assert len(angles) == len(anchor_sets)
        eps = np.finfo(float).eps
        for positions, angle in zip(anchor_sets, angles):
            shape = positions.shape[:-1] + (200,)
            ranges, east, north, sin_el, offsets = line_of_sight(lat, lon, 0.0,
                                                                 positions[..., None, :])
            assert ranges.shape == east.shape == north.shape == sin_el.shape == shape

            def links(flat, shape=shape):  # (D, K) -> the shape `evaluate` uses
                return flat.T.reshape(shape)

            flat = positions.reshape(-1, 3)
            vec = flat - ue_ecef[:, None, :]
            norm = np.linalg.norm(vec, axis=-1)
            up = ue_ecef / np.linalg.norm(ue_ecef, axis=-1, keepdims=True)
            units = unit_vectors_en(ue_ecef, flat, basis)
            assert np.array_equal(ranges, links(norm))
            for i, offset in enumerate(offsets):  # anchor - UE
                assert np.array_equal(offset, links(vec[..., i]))
            for got, oracle in ((east, units[..., 0]), (north, units[..., 1]),
                                (sin_el, (vec @ up[:, :, None])[..., 0] / norm)):
                assert np.max(np.abs(got - links(oracle))) <= 4 * eps
            # on the links whose elevation sine clears the horizon
            oracle = links(angle_between(geodetic_to_ecef(_center(cfg)) - flat, -vec))
            assert np.array_equal(angle, oracle[sin_el > 0])


class TestRunBundle:
    def test_single_drop_stats_equal_sample(self):
        cfg = make_config("single-leo", n_ue_drops=1, measurement_times_s=(5.0,))
        bundle = run(cfg)
        peb_m, _, degenerate = bundle.cases["single_leo_t5"]
        if not degenerate[0]:
            s = bundle.stats["single_leo_t5"]
            assert s.mean == s.median == peb_m[0]


class TestLongitudeShift:
    # On a spherical Earth, moving the whole scene east or west (beam
    # center, orbits, grid and drops alike) changes no geometry.
    @pytest.mark.parametrize("shift_deg", [37.0, -120.5, 179.0])
    @pytest.mark.parametrize("variant", ["single-leo", "multi-leo", "gnss-leo", "gnss-only"])
    def test_shifted_scene_keeps_every_bound(self, variant, shift_deg):
        base = run(make_config(variant, n_ue_drops=20))
        moved = run(make_config(variant, n_ue_drops=20, center_lon_deg=shift_deg))
        assert list(moved.cases) == list(base.cases)
        for case_id, (peb_m, gdop, degenerate) in base.cases.items():
            moved_peb, moved_gdop, moved_degenerate = moved.cases[case_id]
            assert np.array_equal(moved_degenerate, degenerate)
            np.testing.assert_allclose(moved_peb, peb_m, rtol=1e-8, atol=0)
            np.testing.assert_allclose(moved_gdop, gdop, rtol=1e-8, atol=0)


def _scene(variants, **extra):
    """Accepted configs of up to 20 drops: the `make_config` overrides of
    one of the `variants`, anywhere on Earth within 80 degrees of the
    equator, and `extra`'s strategies."""
    return st.fixed_dictionaries({
        "variant": st.sampled_from(variants), "seed": st.integers(0, 2**32 - 1),
        "n_ue_drops": st.integers(1, 20), "scenario_class": st.sampled_from(SCENARIO_CLASSES),
        "los_only": st.booleans(), "center_lat_deg": st.floats(-80.0, 80.0),
        "center_lon_deg": st.floats(-180.0, 180.0), **extra})


def _evaluate_conditioned(config, lat, lon):
    """`evaluate`'s columns, and per case the (D,) condition number
    lmax/lmin of the FIMs `peb_arrays` reads (inf where not definite)."""
    with mock.patch.object(scenarios, "peb_arrays", wraps=scenarios.peb_arrays) as spy:
        columns = evaluate(config, lat, lon)
    small, large = np.moveaxis(np.linalg.eigvalsh(stacked(*spy.call_args.args[:3])), -1, 0)
    condition = np.divide(large, small, out=np.full(small.shape, np.inf), where=small > 0)
    return columns, dict(zip(columns, condition))


# Over 20,000 random accepted configs per relation (`_scene`), a bound or
# GDOP moved by at most 44 eps * cond(F) when every range sigma was scaled by
# a power of ten, and 2,700 eps * cond(F) when the scene moved in longitude,
# cond(F) being its FIM's condition number: the dB-to-linear powers perturb
# the entries by tens of eps, the geometry's rounding by thousands, and the
# bound passes a perturbation on in proportion to cond(F). Absolute moves
# reached 6.0e-8 (scaling, gnss-only) and 6.5e-9 (longitude, single-leo).
_SCALED_EPS, _MOVED_EPS = 500.0, 3e4


def _assert_moved_by(columns, moved, condition, factor, eps_units):
    """`moved` holds `columns`' flags, and its bounds `factor` times theirs
    and its GDOP theirs, within `eps_units` eps per unit of condition."""
    assert list(moved) == list(columns)
    for case_id, (peb_m, gdop, degenerate) in columns.items():
        moved_peb, moved_gdop, moved_degenerate = moved[case_id]
        assert np.array_equal(moved_degenerate, degenerate), case_id
        usable = ~degenerate
        tol = eps_units * np.finfo(float).eps * condition[case_id][usable]
        assert np.all(np.abs(moved_peb[usable] / (factor * peb_m[usable]) - 1.0) <= tol), case_id
        assert np.all(np.abs(moved_gdop[usable] / gdop[usable] - 1.0) <= tol), case_id


class TestScaleFree:
    # Relations no absolute gate can keep: every LEO range sigma times 10**k
    # (k = 1..5) scales the LEO bounds, GNSS sigmas the gnss-only bound,
    # and the flags stay. The absolute eigenvalue gate flipped 112, 1,152,
    # 8,680 and 9,000 of the 9,000 single-leo flags at seed 0 for +40 to
    # +100 dB.
    @settings(max_examples=100, deadline=None)
    @given(_scene(["single-leo", "multi-leo"]), st.floats(-100.0, 100.0), st.integers(1, 5))
    def test_weaker_leo_links_scale_every_bound(self, scene, losses_db, k):
        variant = scene.pop("variant")
        config = make_config(variant, link=LinkBudget(extra_losses_db=losses_db), **scene)
        weaker = make_config(variant, link=LinkBudget(extra_losses_db=losses_db + 20 * k),
                             **scene)
        positions = drop_ues(config)
        columns, condition = _evaluate_conditioned(config, *positions)
        _assert_moved_by(columns, evaluate(weaker, *positions), condition, 10.0 ** k,
                         _SCALED_EPS)

    @settings(max_examples=100, deadline=None)
    @given(_scene(["gnss-only"]), st.floats(-100.0, 200.0), st.integers(1, 5))
    def test_weaker_gnss_scales_the_gnss_only_bound(self, scene, cn0_dbhz, k):
        variant = scene.pop("variant")
        config = make_config(variant, link=LinkBudget(gnss_cn0_dbhz=cn0_dbhz), **scene)
        weaker = make_config(variant, link=LinkBudget(gnss_cn0_dbhz=cn0_dbhz - 20 * k), **scene)
        positions = drop_ues(config)
        columns, condition = _evaluate_conditioned(config, *positions)
        _assert_moved_by(columns, evaluate(weaker, *positions), condition, 10.0 ** k,
                         _SCALED_EPS)

    @settings(max_examples=100, deadline=None)
    @given(_scene(["single-leo", "multi-leo", "gnss-leo", "gnss-only"]),
           st.floats(-180.0, 180.0))
    def test_longitude_shift_moves_no_bound(self, scene, shift_deg):
        # the drawn drops move with the center; on a spherical Earth with no
        # rotation, nothing else in the scene depends on longitude
        variant = scene.pop("variant")
        config = make_config(variant, **scene)
        moved = make_config(variant, **{**scene,
                                        "center_lon_deg": scene["center_lon_deg"] + shift_deg})
        columns, condition = _evaluate_conditioned(config, *drop_ues(config))
        _assert_moved_by(columns, evaluate(moved, *drop_ues(moved)), condition, 1.0,
                         _MOVED_EPS)

    @settings(max_examples=100, deadline=None)
    @given(_scene(["multi-leo"], rtt_measurement_time_s=st.floats(0.5, 20.0)),
           st.floats(-100.0, 100.0))
    def test_rtt_never_raises_a_multi_leo_bound(self, scene, losses_db):
        # the RTT block adds information: tr((A + B)^-1) <= tr(A^-1)
        config = make_config(scene.pop("variant"), link=LinkBudget(extra_losses_db=losses_db),
                             **scene)
        columns, condition = _evaluate_conditioned(config, *drop_ues(config))
        for k in (3, 4):
            peb_m, _, degenerate = columns[f"multi_leo_tdoa{k}"]
            rtt_peb, _, rtt_degenerate = columns[f"multi_leo_tdoa{k}_rtt"]
            both = ~degenerate & ~rtt_degenerate
            tol = _SCALED_EPS * np.finfo(float).eps * condition[f"multi_leo_tdoa{k}"][both]
            assert np.all(rtt_peb[both] <= peb_m[both] * (1.0 + tol))
