import math

import numpy as np
import pytest

from satpeb.constants import EARTH_RADIUS_M, MU_EARTH
from satpeb.fisher import line_of_sight
from satpeb.geometry import (Geodetic, OrbitSpec, enu_frames, geodetic_to_ecef,
                             ground_track_orbit, hex_constellation,
                             make_virtual_anchors, propagate_circular_orbit)


def _to_enu(point, origin: Geodetic) -> np.ndarray:
    """`point` in the east-north-up frame of `enu_frames` at `origin`."""
    ecef, basis = enu_frames(origin.lat_rad, origin.lon_rad, origin.alt_m)
    return basis @ (point - ecef)


def _ecef_to_geodetic(p: np.ndarray) -> Geodetic:
    """The inverse of `geodetic_to_ecef` on the sphere."""
    r = float(np.linalg.norm(p))
    return Geodetic(math.asin(p[2] / r), math.atan2(p[1], p[0]), r - EARTH_RADIUS_M)


def _from_enu(enu, origin: Geodetic) -> np.ndarray:
    ecef, basis = enu_frames(origin.lat_rad, origin.lon_rad, origin.alt_m)
    return ecef + enu @ basis


def _enu_frames_stacked(lat_rad, lon_rad, alt_m=0.0):
    """`enu_frames` built from nested `np.stack` calls: the oracle that its
    filled arrays must match bit for bit."""
    sl, cl = np.sin(lat_rad), np.cos(lat_rad)
    so, co = np.sin(lon_rad), np.cos(lon_rad)
    r = EARTH_RADIUS_M + np.asarray(alt_m, dtype=float)
    ecef = np.stack([r * cl * co, r * cl * so, r * sl], axis=-1)
    basis = np.stack([
        np.stack([-so, co, np.zeros_like(so)], axis=-1),
        np.stack([-sl * co, -sl * so, cl], axis=-1),
        np.stack([cl * co, cl * so, sl], axis=-1),
    ], axis=-2)
    return ecef, basis


_GRID_LAT = np.random.default_rng(4).uniform(-math.pi / 2, math.pi / 2, (4, 5))
_GRID_LON = np.random.default_rng(5).uniform(-math.pi, math.pi, (4, 5))


class TestGeodeticEcef:
    @pytest.mark.parametrize("lat,lon,alt,expected", [
        (0.0, 0.0, 0.0, (6371000.0, 0.0, 0.0)),
        (math.pi / 2, 0.0, 0.0, (0.0, 0.0, 6371000.0)),
        (0.0, math.pi / 2, 600e3, (0.0, 6971000.0, 0.0)),
    ])
    def test_reference_points(self, lat, lon, alt, expected):
        p = geodetic_to_ecef(Geodetic(lat, lon, alt))
        assert np.allclose(p, expected, atol=1e-6)

    def test_round_trip(self):
        rng = np.random.default_rng(7)
        for _ in range(1000):
            g = Geodetic(rng.uniform(-math.pi / 2, math.pi / 2),
                         rng.uniform(-math.pi, math.pi),
                         rng.uniform(0.0, 2e6))
            back = geodetic_to_ecef(_ecef_to_geodetic(geodetic_to_ecef(g)))
            assert np.linalg.norm(back - geodetic_to_ecef(g)) < 1e-6

    def test_latitude_range_enforced(self):
        with pytest.raises(ValueError):
            Geodetic(2.0, 0.0, 0.0)

    def test_longitude_wraps(self):
        g = Geodetic(0.1, math.pi + 0.25, 0.0)
        assert -math.pi <= g.lon_rad < math.pi


class TestEnu:
    def test_origin_maps_to_zero(self):
        origin = Geodetic(0.4, -1.2, 0.0)
        assert np.allclose(_to_enu(geodetic_to_ecef(origin), origin), 0.0, atol=1e-9)

    def test_radial_point_is_up(self):
        origin = Geodetic(0.7, 0.3, 0.0)
        above = geodetic_to_ecef(Geodetic(0.7, 0.3, 1000.0))
        assert np.allclose(_to_enu(above, origin), [0.0, 0.0, 1000.0], atol=1e-6)

    @pytest.mark.parametrize("lat, lon, alt", [
        (0.4, -1.2, 0.0),
        (0.0, 0.0, 0.0),  # signed zeros
        (-math.pi / 2, math.pi, 780e3),
        (np.float64(0.7), np.float64(0.3), np.float64(1000.0)),
        (np.linspace(-1.5, 1.5, 7), np.linspace(-3.0, 3.0, 7), 0.0),
        (np.zeros(4), -np.zeros(4), np.array(600e3)),
        (_GRID_LAT, _GRID_LON, np.linspace(0.0, 2e6, 5)),  # alt_m broadcast on the last axis
        (_GRID_LAT, _GRID_LON, np.array([[0.0], [1e3], [2e6], [-50.0]])),  # and the first
    ])
    def test_matches_stacked_oracle(self, lat, lon, alt):
        for got, expected in zip(enu_frames(lat, lon, alt), _enu_frames_stacked(lat, lon, alt)):
            assert got.shape == expected.shape and got.dtype == expected.dtype
            assert got.tobytes() == expected.tobytes()  # bit for bit, zero signs included

    def test_round_trip_and_rigidity(self):
        rng = np.random.default_rng(11)
        origin = Geodetic(-0.3, 2.1, 0.0)
        for _ in range(100):
            enu = rng.uniform(-5e5, 5e5, 3)
            back = _to_enu(_from_enu(enu, origin), origin)
            assert np.linalg.norm(back - enu) < 1e-6
        a = rng.uniform(-1e5, 1e5, 3)
        b = rng.uniform(-1e5, 1e5, 3)
        d_ecef = np.linalg.norm(_from_enu(a, origin) - _from_enu(b, origin))
        assert d_ecef == pytest.approx(np.linalg.norm(a - b), rel=1e-12)


class TestOrbit:
    def test_epoch_state_matches_spec(self):
        spec = OrbitSpec(600e3, math.radians(53.0), raan_rad=0.7, arg_lat0_rad=0.2)
        p = propagate_circular_orbit(spec, 0.0)
        assert p.shape == (3,)
        assert np.linalg.norm(p) == pytest.approx(spec.radius_m, abs=1e-6)

    def test_speed_at_600km(self):
        # vis-viva for the circular orbit, against the chord flown in 10 ms,
        # which is shorter than the arc by a relative 5e-12
        spec = OrbitSpec(600e3, math.pi / 2)
        expected = math.sqrt(MU_EARTH / (EARTH_RADIUS_M + 600e3))
        a, b = propagate_circular_orbit(spec, np.array([123.395, 123.405]))
        assert np.linalg.norm(b - a) / 0.01 == pytest.approx(expected, rel=1e-9)
        assert expected == pytest.approx(7.56e3, rel=1e-2)

    def test_full_period_returns(self):
        spec = OrbitSpec(780e3, math.radians(86.4), raan_rad=-0.4, arg_lat0_rad=1.1)
        period = 2.0 * math.pi / spec.angular_rate
        p0 = propagate_circular_orbit(spec, 0.0)
        p1 = propagate_circular_orbit(spec, period)
        assert np.linalg.norm(p1 - p0) < 1e-3

    def test_state_invariants(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            spec = OrbitSpec(rng.uniform(400e3, 2e6),
                             rng.uniform(0, math.pi),
                             rng.uniform(-math.pi, math.pi),
                             rng.uniform(-math.pi, math.pi))
            p = propagate_circular_orbit(spec, rng.uniform(-5000, 5000))
            assert abs(np.linalg.norm(p) - spec.radius_m) < 1.0

    def test_radius_constant_over_time(self):
        spec = OrbitSpec(600e3, 1.0, 0.5, -0.2)
        radii = np.linalg.norm(propagate_circular_orbit(spec, np.linspace(0, 6000, 40)),
                               axis=-1)
        assert max(radii) - min(radii) < 1e-3

    def test_times_array_equals_scalar_calls(self):
        rng = np.random.default_rng(8)
        for _ in range(20):
            spec = OrbitSpec(rng.uniform(400e3, 2e7), rng.uniform(0, math.pi),
                             rng.uniform(-math.pi, math.pi), rng.uniform(-math.pi, math.pi))
            times = rng.uniform(-6000.0, 6000.0, (4, 5))
            stacked = propagate_circular_orbit(spec, times)
            assert stacked.shape == (4, 5, 3)
            scalar = [[propagate_circular_orbit(spec, float(t)) for t in row] for row in times]
            assert np.array_equal(stacked, np.array(scalar))

    @pytest.mark.parametrize("t", [math.nan, math.inf, -math.inf,
                                   np.array([0.0, 1.0, math.nan])])
    def test_non_finite_time_rejected(self, t):
        with pytest.raises(ValueError, match="finite"):
            propagate_circular_orbit(OrbitSpec(600e3, math.pi / 2), t)


class TestVirtualAnchors:
    def test_span_at_10s(self):
        # chord between the first and last anchors after a 10 s window
        spec = ground_track_orbit(Geodetic(0.0, 0.0, 0.0), 600e3)
        anchors = make_virtual_anchors(spec, 10.0, 10)
        assert anchors.shape == (10, 3)
        span = np.linalg.norm(anchors[-1] - anchors[0])
        expected = 2.0 * spec.radius_m * math.sin(spec.angular_rate * 10.0 / 2.0)
        assert span == pytest.approx(expected, rel=1e-12)
        assert span == pytest.approx(75.6e3, rel=1e-2)

    def test_two_anchors_sit_at_half_window(self):
        spec = ground_track_orbit(Geodetic(0.0, 0.0, 0.0), 600e3)
        anchors = make_virtual_anchors(spec, 8.0, 2)
        assert np.array_equal(anchors[0], propagate_circular_orbit(spec, -4.0))
        assert np.array_equal(anchors[1], propagate_circular_orbit(spec, 4.0))

    @pytest.mark.parametrize("window, n", [(2.0, 2), (10.0, 10), (770.0, 13)])
    def test_equal_the_orbit_on_linspace_times(self, window, n):
        spec = ground_track_orbit(Geodetic(0.4, -2.9, 0.0), 780e3)
        assert np.array_equal(
            make_virtual_anchors(spec, window, n),
            propagate_circular_orbit(spec, np.linspace(-window / 2, window / 2, n)))

    def test_spans_scale_linearly(self):
        spec = ground_track_orbit(Geodetic(0.1, 0.2, 0.0), 600e3)

        def span(t):
            a = make_virtual_anchors(spec, t, 10)
            return np.linalg.norm(a[-1] - a[0])

        assert span(10.0) / span(2.0) == pytest.approx(5.0, rel=1e-4)

    def test_time_symmetry_about_epoch(self):
        # polar orbit through the equator: mirror anchors differ only in z sign
        spec = ground_track_orbit(Geodetic(0.0, 0.3, 0.0), 600e3)
        anchors = make_virtual_anchors(spec, 10.0, 10)
        for i in range(10):
            a = anchors[i]
            b = anchors[9 - i].copy()
            b[2] = -b[2]
            assert np.linalg.norm(a - b) < 1e-6

    def test_requires_two_anchors(self):
        spec = ground_track_orbit(Geodetic(0.0, 0.0, 0.0), 600e3)
        with pytest.raises(ValueError):
            make_virtual_anchors(spec, 10.0, 1)
        with pytest.raises(ValueError):
            make_virtual_anchors(spec, 0.0, 10)


class TestHexConstellation:
    def test_structure(self):
        center = Geodetic(0.0, 0.0, 0.0)
        grid = hex_constellation(center, math.radians(13.0), math.radians(6.9), 780e3)
        assert grid.shape == (7, 3)
        # the serving satellite, first, sits above the center
        assert np.array_equal(grid[0], propagate_circular_orbit(
            ground_track_orbit(center, 780e3), 0.0))

    def test_same_row_chord_distance(self):
        grid = hex_constellation(Geodetic(0.0, 0.0, 0.0), math.radians(13.0),
                                 math.radians(6.9), 780e3)
        chord = np.linalg.norm(grid[1] - grid[0])
        expected = 2.0 * (EARTH_RADIUS_M + 780e3) * math.sin(math.radians(6.5))
        assert chord == pytest.approx(expected, rel=1e-9)
        # published inter-satellite figure, accepted within 5 percent
        assert abs(chord - 1633.4e3) / 1633.4e3 < 0.05

    def test_single_parallel_when_lat_gap_zero(self):
        grid = hex_constellation(Geodetic(0.0, 0.0, 0.0), math.radians(10.0),
                                 0.0, 780e3)
        lats = [_ecef_to_geodetic(p).lat_rad for p in grid]
        assert np.allclose(lats, 0.0, atol=1e-9)
        chord = np.linalg.norm(grid[2] - grid[0])
        expected = 2.0 * (EARTH_RADIUS_M + 780e3) * math.sin(math.radians(5.0))
        assert chord == pytest.approx(expected, rel=1e-9)

    def test_all_states_satisfy_orbit_invariants(self):
        grid = hex_constellation(Geodetic(0.1, -0.4, 0.0), math.radians(13.0),
                                 math.radians(6.9), 780e3)
        for p in grid:
            assert abs(np.linalg.norm(p) - (EARTH_RADIUS_M + 780e3)) < 1.0


class TestSingleLeoTwin:
    """The virtual anchors of one pass lie on a polar orbit over the beam
    center and the Earth does not rotate, so a UE and its mirror across the
    ground track see the same RTT ranges: a twin that the single-LEO bound,
    a local one, cannot see. The hexagonal grid's satellites have
    identities, and its range differences tell the twins apart; so does the
    one range difference of two GNSS satellites off the track's plane."""

    @staticmethod
    def _twins(dlon_deg):
        """Latitudes, longitudes and altitude of the UEs at (0.1, +-dlon)
        degrees, as `line_of_sight` takes them."""
        return np.radians([0.1, 0.1]), np.radians([dlon_deg, -dlon_deg]), 0.0

    @pytest.mark.parametrize("window_s", [2.0, 10.0])
    @pytest.mark.parametrize("dlon_deg", [0.05, 0.2])
    def test_mirrored_ues_see_equal_rtt_ranges(self, window_s, dlon_deg):
        anchors = make_virtual_anchors(ground_track_orbit(Geodetic(0.0, 0.0), 600e3),
                                       window_s, 10)
        ranges = line_of_sight(*self._twins(dlon_deg), anchors[:, None])[0]  # (N, 2)
        assert np.array_equal(ranges[:, 0], ranges[:, 1])

    @pytest.mark.parametrize("dlon_deg", [0.05, 0.2])
    def test_grid_range_differences_tell_twins_apart(self, dlon_deg):
        grid = hex_constellation(Geodetic(0.0, 0.0), math.radians(13.0),
                                 math.radians(6.9), 780e3)
        ranges = line_of_sight(*self._twins(dlon_deg), grid[:, None])[0]
        differences = ranges[1:] - ranges[:1]  # against the serving satellite
        assert np.max(np.abs(differences[:, 0] - differences[:, 1])) > 1e3

    @pytest.mark.parametrize("dlon_deg", [0.05, 0.2])
    def test_gnss_range_difference_tells_twins_apart(self, dlon_deg):
        # The gnss-leo cases' Gnss(2) block: two GNSS satellites off the
        # ground track's plane, at fixed sky positions 20,200 km up.
        gnss = np.stack([geodetic_to_ecef(Geodetic(math.radians(lat), math.radians(lon),
                                                   20_200e3))
                         for lat, lon in ((10.0, 40.0), (-15.0, -35.0))])
        ranges, _, _, sin_el = line_of_sight(*self._twins(dlon_deg), gnss[:, None])
        assert np.all(sin_el > 0)
        differences = ranges[1] - ranges[0]  # against the first satellite
        assert abs(differences[0] - differences[1]) > 1e3
