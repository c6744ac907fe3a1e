import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from satpeb.constants import EARTH_RADIUS_M
from satpeb.fisher import (DEGENERATE_RATIO, _bound, information, is_degenerate,
                           line_of_sight, min_gdop_subsets, peb_arrays, rtt_range_sigma,
                           subset_gdop, toa_range_sigma)
from satpeb.geometry import (Geodetic, enu_frames, geodetic_to_ecef,
                             ground_track_orbit, hex_constellation,
                             make_virtual_anchors)


def centred_rows(units: np.ndarray, w: np.ndarray) -> np.ndarray:
    """The Jacobian rows -`units` (..., N, 2) of TOAs sharing a clock bias,
    centred on their mean under the (N,) weights `w` as
    `information(..., clock_bias=True)` centres them."""
    J = -units
    return J - np.sum(J * w[:, None], -2, keepdims=True) / np.sum(w)


def fim(J: np.ndarray, R: np.ndarray) -> np.ndarray:
    """Reference for `fim_diagonal`: Fisher information J^T R^-1 J by an LU
    solve against the full covariance; independent sets combine by addition.
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
    """Reference for `information`, in the Jacobian form the package used
    before it: J^T R^-1 J of independent measurements, from (..., M, 2)
    Jacobians and their (..., M) variances, the rows scaled by the
    reciprocal variances, as a symmetrised (..., 2, 2) stack. `clock_bias`
    centres the rows on their 1/variance-weighted mean."""
    w = 1.0 / variances
    if clock_bias:
        J = J - np.sum(J * w[..., None], -2, keepdims=True) / np.sum(w, -1)[..., None, None]
    f = np.swapaxes(J, -1, -2) @ (J * w[..., None])
    return (f + np.swapaxes(f, -1, -2)) / 2.0


def stacked(a, b, d) -> np.ndarray:
    """The (..., 2, 2) stack of the FIMs [[a, b], [b, d]]."""
    return np.stack([np.stack([a, b], -1), np.stack([b, d], -1)], -2)


def peb_of(f: np.ndarray, mean_variance=1.0):
    """`peb_arrays` of a (..., 2, 2) FIM stack, read as (a, b, d)."""
    return peb_arrays(f[..., 0, 0], f[..., 0, 1], f[..., 1, 1], mean_variance)


def tdoa_covariance(sigmas_m, reference_index: int) -> np.ndarray:
    """The TDOA oracle: covariance of range differences against a reference
    anchor, diagonal sigma_i^2 + sigma_ref^2 and off-diagonal sigma_ref^2,
    which `information(..., clock_bias=True)` must match with `fim`.
    Broadcasts over the leading axes of `sigmas_m` (..., N)."""
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


def geometry_jacobian(units_en: np.ndarray, reference_index: int | None = None) -> np.ndarray:
    """Reference for the rows the bound and the solver build from
    `line_of_sight`'s (..., N, 2) unit vectors, as the package built them
    before both took TDOA as TOA with a clock bias: range rows -units, or
    with a `reference_index` the rows of range differences against it,
    over the other anchors in order."""
    if reference_index is None:
        return -units_en
    rows = np.delete(np.arange(units_en.shape[-2]), reference_index)
    return (units_en[..., reference_index:reference_index + 1, :]
            - units_en[..., rows, :])


def unit_vectors_en(ue_ecef: np.ndarray, positions: np.ndarray,
                    basis: np.ndarray) -> np.ndarray:
    """The (..., N, 2) east/north UE->anchor unit vectors as the package
    computed them before `line_of_sight` went elementwise: normalised by
    `np.linalg.norm` and projected on the `enu_frames` basis by matmul. The
    oracle of `line_of_sight`'s east and north components, within a few
    ulps."""
    ue = np.asarray(ue_ecef, dtype=float)
    d = np.asarray(positions, dtype=float) - ue[..., None, :]
    dist = np.linalg.norm(d, axis=-1)
    units = d / dist[..., None]
    return np.concatenate([units @ basis[..., 0, :, None],
                           units @ basis[..., 1, :, None]], axis=-1)


def unit_sigma_gdop(units_en: np.ndarray, reference_index: int) -> float:
    """GDOP of one anchor set's (N, 2) unit vectors with every range sigma at
    1 m, through `fim` and a TDOA covariance against `reference_index`; inf
    where degenerate."""
    ones = np.ones(len(units_en))
    f = fim(geometry_jacobian(units_en, reference_index),
            tdoa_covariance(ones, reference_index))
    eig = np.linalg.eigvalsh(f)
    if eig[0] <= DEGENERATE_RATIO * eig[1]:
        return math.inf
    return math.sqrt(float(np.sum(1.0 / eig)))


def best_subset_indices(units_en: np.ndarray, serving_index: int, k: int) -> tuple[int, ...]:
    """Reference for `min_gdop_subsets` on one drop's (N, 2) unit vectors:
    each k-subset containing the serving anchor scored alone by
    `unit_sigma_gdop`, in enumeration order. Ties go to the lexicographically
    smallest index set."""
    n = len(units_en)
    if k > n:
        raise ValueError(f"cannot select {k} of {n} visible satellites")
    others = [i for i in range(n) if i != serving_index]
    best_subset = None
    best_gdop = math.inf
    for combo in itertools.combinations(others, k - 1):
        indices = tuple(sorted((serving_index,) + combo))
        gdop = unit_sigma_gdop(units_en[list(indices)], indices.index(serving_index))
        # Relative guard keeps the first (lexicographically smallest) subset
        # on exact ties reached through symmetric geometry.
        if gdop < best_gdop * (1.0 - 1e-10):
            best_gdop = gdop
            best_subset = indices
    if best_subset is None:
        # Every subset degenerate; fall back to the first combination.
        best_subset = tuple(sorted((serving_index,) + tuple(others[:k - 1])))
    return best_subset


def _units(ue: Geodetic, anchors: np.ndarray) -> np.ndarray:
    """(N, 2) east/north unit components of the (N, 3) `anchors` in the
    local frame of `ue`."""
    _, east, north, _, _ = line_of_sight(ue.lat_rad, ue.lon_rad, ue.alt_m, anchors)
    return np.stack([east, north], axis=-1)


def search(units_en: np.ndarray, serving: int, k: int, visible=None) -> np.ndarray:
    """`min_gdop_subsets` on the (D, N, 2) unit vectors of D drops and a
    (D, N) mask, every anchor visible by default."""
    if visible is None:
        visible = np.ones(units_en.shape[:2], dtype=bool)
    return min_gdop_subsets(units_en[..., 0].T, units_en[..., 1].T, serving, k, visible.T)


def _anchors_from_sky(ue: Geodetic, sky: list[tuple[float, float, float]]) -> np.ndarray:
    """(N, 3) ECEF anchors from (azimuth, elevation, range) triples on the
    UE's sky."""
    origin, basis = enu_frames(ue.lat_rad, ue.lon_rad, ue.alt_m)
    az, el, rng = np.array(sky, dtype=float).T
    enu = rng[:, None] * np.stack([np.cos(el) * np.sin(az), np.cos(el) * np.cos(az),
                                   np.sin(el)], axis=-1)
    return origin + enu @ basis


class TestRangeSigmas:
    def test_toa_reference_value(self):
        assert toa_range_sigma(10.0, 10e6) == pytest.approx(3.70, abs=0.01)

    def test_toa_inverse_square_root_law(self):
        assert toa_range_sigma(16.02, 10e6) == pytest.approx(
            toa_range_sigma(10.0, 10e6) / 2.0, rel=1e-3)

    def test_toa_vanishes_at_high_snr(self):
        assert toa_range_sigma(200.0, 10e6) < 1e-6

    def test_toa_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            toa_range_sigma(10.0, 0.0)
        with pytest.raises(ValueError):
            toa_range_sigma(-math.inf, 10e6)

    def test_rtt_equal_sigmas(self):
        assert rtt_range_sigma(2.0, 2.0) == pytest.approx(2.0 / math.sqrt(2.0))

    def test_rtt_one_sided(self):
        assert rtt_range_sigma(3.0, 0.0) == pytest.approx(1.5)

    def test_rtt_reference_value(self):
        assert rtt_range_sigma(3.70, 5.00) == pytest.approx(3.11, abs=0.01)


class TestTdoaCovariance:
    def test_three_anchor_structure(self):
        cov = tdoa_covariance([1.0, 1.0, 1.0], 0)
        assert np.allclose(cov, [[2.0, 1.0], [1.0, 2.0]])

    def test_two_anchor_scalar(self):
        cov = tdoa_covariance([1.5, 2.0], 1)
        assert cov.shape == (1, 1)
        assert cov[0, 0] == pytest.approx(1.5**2 + 2.0**2)

    def test_positive_definite_for_random_sigmas(self):
        rng = np.random.default_rng(13)
        for _ in range(100):
            n = rng.integers(2, 9)
            sigmas = rng.uniform(0.1, 50.0, n)
            cov = tdoa_covariance(sigmas, int(rng.integers(0, n)))
            np.linalg.cholesky(cov)  # raises if not PD

    def test_monte_carlo_oracle(self):
        # covariance of explicitly differenced TOAs over 1e5 draws
        rng = np.random.default_rng(99)
        sigmas = np.array([3.0, 1.0, 2.0, 4.0])
        ref = 1
        n = 100_000
        toas = rng.standard_normal((n, 4)) * sigmas
        diffs = np.delete(toas - toas[:, [ref]], ref, axis=1)
        empirical = np.cov(diffs.T)
        expected = tdoa_covariance(sigmas, ref)
        for i in range(3):
            for j in range(3):
                se = math.sqrt((expected[i, i] * expected[j, j]
                                + expected[i, j] ** 2) / n)
                assert abs(empirical[i, j] - expected[i, j]) < 3.0 * se

    def test_requires_two_anchors(self):
        with pytest.raises(ValueError):
            tdoa_covariance([1.0], 0)

    def test_stacked_rows_match_single(self):
        sigmas = np.random.default_rng(17).uniform(0.1, 50.0, (20, 5))
        stacked = tdoa_covariance(sigmas, 2)
        for row, cov in zip(sigmas, stacked):
            assert np.array_equal(cov, tdoa_covariance(row, 2))


class TestJacobian:
    def test_overhead_anchor_has_zero_row(self):
        ue = Geodetic(0.2, 0.4, 0.0)
        anchors = _anchors_from_sky(ue, [(0.0, math.pi / 2, 600e3),
                                         (1.0, 0.5, 900e3)])
        J = -_units(ue, anchors)
        assert np.allclose(J[0], [0.0, 0.0], atol=1e-9)

    def test_due_east_anchor_at_45_degrees(self):
        ue = Geodetic(0.0, 0.0, 0.0)
        anchors = _anchors_from_sky(ue, [(math.pi / 2, math.pi / 4, 800e3)])
        J = -_units(ue, anchors)
        assert J[0, 0] == pytest.approx(-math.cos(math.pi / 4), abs=1e-9)
        assert J[0, 1] == pytest.approx(0.0, abs=1e-9)

    def test_below_horizon_has_negative_elevation_sine(self):
        ue = Geodetic(0.0, 0.0, 0.0)
        anchors = _anchors_from_sky(ue, [(0.3, -0.05, 2000e3)])
        assert line_of_sight(ue.lat_rad, ue.lon_rad, ue.alt_m, anchors)[3][0] == pytest.approx(
            math.sin(-0.05))

    @pytest.mark.parametrize("clock_bias", [False, True], ids=["rtt", "tdoa"])
    def test_stacked_geometry_jacobian_matches_single(self, clock_bias):
        # the rows the bound and the solver build: -units, or weighted-centred ones
        rng = np.random.default_rng(19)
        grid = hex_constellation(Geodetic(0.0, 0.0, 0.0), math.radians(13.0),
                                 math.radians(6.9), 780e3)
        lat = rng.uniform(-0.02, 0.02, 30)
        lon = rng.uniform(-0.02, 0.02, 30)
        w = 1.0 / rng.uniform(0.5, 2.0, len(grid)) ** 2

        def rows(lat, lon, anchors):
            _, east, north, _, _ = line_of_sight(lat, lon, 0.0, anchors)
            units = np.moveaxis(np.stack([east, north], axis=-1), 0, -2)  # (..., N, 2)
            return centred_rows(units, w) if clock_bias else -units

        for one_lat, one_lon, stacked_rows in zip(lat, lon, rows(lat, lon, grid[:, None])):
            assert np.allclose(stacked_rows, rows(one_lat, one_lon, grid), rtol=0.0, atol=1e-12)

    def test_stacked_elevation_sines_tell_hidden_anchors(self):
        # the sign of the sine is the horizon mask the run and the solver use
        ue = Geodetic(0.0, 0.0, 0.0)
        good = _anchors_from_sky(ue, [(0.3, 0.5, 2000e3)])
        bad = _anchors_from_sky(ue, [(0.3, -0.05, 2000e3)])
        # one anchor per drop: (1, 2, 3) anchors against two UEs
        sin_el = line_of_sight(np.zeros(2), np.zeros(2), 0.0, np.stack([good, bad], axis=1))[3]
        assert sin_el.shape == (1, 2)
        np.testing.assert_allclose(sin_el[0], [math.sin(0.5), math.sin(-0.05)], rtol=1e-12)

    @pytest.mark.parametrize("clock_bias", [False, True], ids=["rtt", "tdoa"])
    def test_finite_difference_oracle(self, clock_bias):
        rng = np.random.default_rng(21)
        for _ in range(100):
            assert_jacobian_matches_fd(rng, clock_bias, rel_tol=1e-6)


def model_ranges(anchors, ue_ecef, w, clock_bias):
    """Ranges from `ue_ecef` to the (N, 3) `anchors` by `np.linalg.norm`,
    centred on their mean under the weights `w` where `clock_bias`."""
    ranges = np.linalg.norm(anchors - ue_ecef, axis=1)
    return ranges - np.sum(w * ranges) / np.sum(w) if clock_bias else ranges


def assert_jacobian_matches_fd(rng, clock_bias, rel_tol, step_m=0.1):
    """Independent central-difference check of the rows the bound and the
    solver build: -`line_of_sight`'s east/north against the ranges, or where
    `clock_bias` those rows weighted-centred by `centred_rows` against
    the weighted-centred ranges. Each sigma is proportional to its range, as
    a free-space link's, so the weights differ without a draw from `rng`."""
    ue = Geodetic(rng.uniform(-1.0, 1.0), rng.uniform(-math.pi, math.pi), 0.0)
    n = int(rng.integers(2, 7))
    # keep azimuths separated so centred rows cannot nearly cancel
    azimuths = rng.uniform(0, 2 * math.pi) + np.linspace(0, 2 * math.pi, n,
                                                         endpoint=False)
    sky = [(float(az), float(rng.uniform(math.radians(10), math.radians(80))),
            float(rng.uniform(650e3, 24000e3))) for az in azimuths]
    anchors = _anchors_from_sky(ue, sky)
    ranges, east, north, _, _ = line_of_sight(ue.lat_rad, ue.lon_rad, ue.alt_m, anchors)
    units = np.stack([east, north], axis=-1)
    w = 1.0 / (ranges / 1e6) ** 2
    analytic = centred_rows(units, w) if clock_bias else -units

    def displaced(de, dn):
        r = EARTH_RADIUS_M + ue.alt_m
        return Geodetic(ue.lat_rad + dn / r,
                        ue.lon_rad + de / (r * math.cos(ue.lat_rad)), ue.alt_m)

    fd = np.empty_like(analytic)
    for col, (de, dn) in enumerate([(step_m, 0.0), (0.0, step_m)]):
        plus = model_ranges(anchors, geodetic_to_ecef(displaced(de, dn)), w, clock_bias)
        minus = model_ranges(anchors, geodetic_to_ecef(displaced(-de, -dn)), w, clock_bias)
        fd[:, col] = (plus - minus) / (2.0 * step_m)
    # row-wise relative error; elevations <= 80 deg keep range rows well away
    # from zero, so the quotient is meaningful. A centred row nears zero when
    # its anchor dominates the weighted mean (down to 1.9e-3 over criterion
    # 4's geometries), and the 1e-3 floor makes its check absolute.
    row_err = np.linalg.norm(analytic - fd, axis=1)
    row_norm = np.linalg.norm(fd, axis=1)
    assert np.all(row_err <= rel_tol * np.maximum(row_norm, 1e-3))


class TestFim:
    def test_orthogonal_unit_rows_give_identity(self):
        f = fim(np.array([[1.0, 0.0], [0.0, 1.0]]), np.eye(2))
        assert np.allclose(f, np.eye(2))

    def test_additivity_of_information(self):
        rng = np.random.default_rng(31)
        J1 = rng.standard_normal((4, 2))
        J2 = rng.standard_normal((3, 2))
        a = rng.standard_normal((4, 4))
        b = rng.standard_normal((3, 3))
        R1 = a @ a.T + 0.5 * np.eye(4)
        R2 = b @ b.T + 0.5 * np.eye(3)
        stacked = fim(np.vstack([J1, J2]),
                      np.block([[R1, np.zeros((4, 3))], [np.zeros((3, 4)), R2]]))
        assert np.allclose(stacked, fim(J1, R1) + fim(J2, R2), atol=1e-12)

    def test_scaling_covariance(self):
        rng = np.random.default_rng(37)
        J = rng.standard_normal((5, 2))
        R = np.diag(rng.uniform(0.5, 2.0, 5))
        assert np.allclose(fim(J, 4.0 * R), fim(J, R) / 4.0)

    def test_singular_covariance_rejected(self):
        with pytest.raises(ValueError):
            fim(np.ones((2, 2)), np.zeros((2, 2)))

    def test_stacked_matches_single(self):
        rng = np.random.default_rng(39)
        J = rng.standard_normal((25, 4, 2))
        a = rng.standard_normal((25, 4, 4))
        R = a @ np.swapaxes(a, -1, -2) + 0.5 * np.eye(4)
        stacked = fim(J, R)
        for j, r, f in zip(J, R, stacked):
            assert np.array_equal(f, fim(j, r))

    @pytest.mark.parametrize("clock_bias", [False, True], ids=["rtt", "tdoa"])
    def test_nan_variance_poisons_only_its_column(self, clock_bias):
        # A hidden link's NaN sigma makes its drop's (a, b, d) NaN, which
        # `is_degenerate` flags, and leaves every other drop's bits alone
        rng = np.random.default_rng(41)
        east, north = rng.uniform(-1.0, 1.0, (2, 5, 12))
        variances = 10.0 ** rng.uniform(-2.0, 4.0, (5, 12))
        clean = np.stack(information(east, north, variances, clock_bias))
        for anchor, column in [(0, 0), (2, 7), (4, 11)]:
            hidden = variances.copy()
            hidden[anchor, column] = np.nan
            poisoned = np.stack(information(east, north, hidden, clock_bias))
            assert np.all(np.isnan(poisoned[:, column]))
            assert is_degenerate(*poisoned[:, column])
            others = np.arange(12) != column
            assert np.array_equal(poisoned[:, others], clean[:, others])

    @pytest.mark.parametrize("m", [2, 3, 10, 11])
    def test_diagonal_form_equals_solve_bit_for_bit(self, m):
        rng = np.random.default_rng(40 + m)
        J = rng.standard_normal((4, 30, m, 2))
        variances = 10.0 ** rng.uniform(-3.0, 6.0, (4, 30, m))
        assert np.array_equal(fim_diagonal(J, variances),
                              fim(J, variances[..., None] * np.eye(m)))

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.tuples(st.floats(0.0, 2 * math.pi), st.floats(0.05, 1.5),
                              st.booleans(), st.floats(-1.0, 3.0)),
                    min_size=2, max_size=8),
           st.floats(0.0, 2 * math.pi), st.sampled_from([1.0, 1e-3, 1e-6, 1e-9, 0.0]),
           st.data())
    def test_clock_bias_form_equals_tdoa_against_every_reference(self, sky, heading,
                                                                 spread, data):
        # Each anchor: azimuth, elevation, whether it sits on the far side of
        # the line, and log10 of its range sigma. A small `spread` squeezes
        # the azimuths onto one line through the UE: a near-collinear sky.
        az = np.array([heading + spread * a + (math.pi if flip else 0.0)
                       for a, _, flip, _ in sky])
        el = np.array([e for _, e, _, _ in sky])
        units = np.stack([np.cos(el) * np.sin(az), np.cos(el) * np.cos(az)], axis=-1)
        sigmas = 10.0 ** np.array([s for *_, s in sky])
        variances = sigmas**2
        f = stacked(*information(units[:, 0], units[:, 1], variances, clock_bias=True))
        # F can be tiny on a collinear sky, so errors are measured against
        # the uncentred information sum(w_i |u_i|^2). The LU solve behind
        # the oracle loses accuracy with the covariance's condition number,
        # which grows with the spread of the variances.
        scale = np.sum(np.sum(units**2, axis=-1) / variances)
        eps = np.finfo(float).eps
        tol = 64 * eps * scale * variances.max() / variances.min()
        for r in range(len(sky)):
            oracle = fim(geometry_jacobian(units, r),
                         tdoa_covariance(sigmas, r))
            assert np.all(np.abs(f - oracle) <= tol), r
        order = data.draw(st.permutations(range(len(sky))))
        permuted = stacked(*information(units[order, 0], units[order, 1], variances[order],
                                        clock_bias=True))
        assert np.all(np.abs(permuted - f) <= 16 * eps * scale)

    @pytest.mark.parametrize("clock_bias", [False, True], ids=["rtt", "tdoa"])
    def test_information_matches_the_jacobian_form(self, clock_bias):
        # (a, b, d) of the anchor-first kernel against the Jacobian form's
        # (D, 2, 2) stack: the same sums, added in another order
        rng = np.random.default_rng(57)
        east, north = rng.uniform(-1.0, 1.0, (2, 6, 40))
        variances = 10.0 ** rng.uniform(-2.0, 4.0, (6, 40))
        oracle = fim_diagonal(np.stack([-east.T, -north.T], axis=-1), variances.T, clock_bias)
        scale = np.sum((east**2 + north**2) / variances, axis=0)[:, None, None]
        f = stacked(*information(east, north, variances, clock_bias))
        assert np.all(np.abs(f - oracle) <= 64 * np.finfo(float).eps * scale)

    @pytest.mark.parametrize("clock_bias", [False, True], ids=["rtt", "tdoa"])
    def test_residual_gives_the_normal_equations_right_hand_side(self, clock_bias):
        # J^T W r with J the rows -east/-north, centred with r where a bias
        # is shared; the kernel folds J's sign into the right-hand side
        rng = np.random.default_rng(59)
        east, north, residual = rng.uniform(-1.0, 1.0, (3, 5, 30))
        variances = rng.uniform(0.5, 4.0, (5, 1))
        a, b, d, ge, gn = information(east, north, variances, clock_bias, residual)
        assert np.array_equal(np.stack([a, b, d]),
                              np.stack(information(east, north, variances, clock_bias)))
        w = 1.0 / variances[:, 0]
        for t in range(30):
            J, r = np.stack([-east[:, t], -north[:, t]], axis=-1), residual[:, t]
            if clock_bias:
                J, r = centred_rows(-J, w), r - np.sum(w * r) / np.sum(w)
            np.testing.assert_allclose([-ge[t], -gn[t]], J.T @ (w * r), rtol=0, atol=1e-13)


def _fim_with_eigenvalues(large: float, small: float, angle: float) -> np.ndarray:
    """The 2x2 FIM with eigenvalues `large` and `small`, its principal axes
    rotated by `angle`, rounded to float64."""
    c, s = math.cos(angle), math.sin(angle)
    return np.array([[c * c * large + s * s * small, c * s * (large - small)],
                     [c * s * (large - small), s * s * large + c * c * small]])


# The closed form's a*d - b*b cancels to about (5/8) eps * cond of relative
# error, half that in the bound; eigvalsh's smaller eigenvalue sits within
# 3 ulps of the larger one, about (3/2) eps * cond in the bound. With a few
# roundings of the rest, the two bounds stay within this many eps per unit
# of condition.
_BOUND_EPS_PER_CONDITION = 8


# `eigvalsh` lands within a few ulps of the larger eigenvalue (at most 2.7
# over 4e6 random matrices from 1e-20 to 1e20), and `is_degenerate` rounds
# det/t^2 by a few eps_mach, so the rule and eigvalsh's lmin < ratio * lmax
# may part only where lmin lies within this many eps * lmax of the gate.
_GATE_BAND_EPS = 8


def assert_rule_matches_eigvalsh(a, b, d, degenerate):
    """`degenerate`, the rule's flags of the FIMs [[a, b], [b, d]], equal
    eigvalsh's lmin <= `DEGENERATE_RATIO` * lmax outside the band around it.
    For a small ratio r = lmin/lmax, the rule's det/t^2 = r/(1+r)^2 parts
    from r by 2r^2, far inside the band."""
    eig = np.linalg.eigvalsh(stacked(a, b, d))
    small, large = eig[..., 0], eig[..., 1]
    reference = small <= DEGENERATE_RATIO * large
    outside = ~(np.abs(small - DEGENERATE_RATIO * large)
                < _GATE_BAND_EPS * np.finfo(float).eps * np.abs(large))
    assert np.array_equal(np.asarray(degenerate)[outside], reference[outside])


def _assert_bound_matches_eigvalsh(f: np.ndarray):
    bound, gdop, degenerate = peb_of(f)
    assert_rule_matches_eigvalsh(f[:, 0, 0], f[:, 0, 1], f[:, 1, 1], degenerate)
    assert np.all(np.isnan(bound[degenerate])) and np.all(np.isnan(gdop[degenerate]))
    eig = np.linalg.eigvalsh(f[~degenerate])  # the oracle: sqrt(1/l1 + 1/l2)
    oracle = np.sqrt(np.sum(1.0 / eig, axis=-1))
    tol = _BOUND_EPS_PER_CONDITION * np.finfo(float).eps * eig[:, 1] / eig[:, 0]
    assert np.all(np.abs(bound[~degenerate] / oracle - 1.0) <= tol)


class TestPeb:
    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.tuples(st.floats(-14.0, 8.0), st.floats(0.0, 12.0),
                              st.floats(0.0, math.pi)), min_size=1, max_size=8))
    def test_ill_conditioned_fims_match_eigvalsh(self, specs):
        # Each spec: the decade of the smaller eigenvalue, the condition
        # number's decades from 1 to 1e12, and the angle of the principal axes.
        _assert_bound_matches_eigvalsh(np.array([
            _fim_with_eigenvalues(10.0 ** (small + decades), 10.0 ** small, angle)
            for small, decades, angle in specs]))

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.tuples(st.floats(-1e-3, 1e-3), st.floats(-20.0, 20.0),
                              st.floats(0.0, math.pi)), min_size=1, max_size=8))
    def test_fims_straddling_the_gate(self, specs):
        # Each spec: the smaller eigenvalue's relative offset from
        # DEGENERATE_RATIO times the larger, whose decade is the second entry.
        _assert_bound_matches_eigvalsh(np.array([
            _fim_with_eigenvalues(10.0 ** large, DEGENERATE_RATIO * (1.0 + offset) * 10.0 ** large,
                                  angle)
            for offset, large, angle in specs]))

    def test_determinant_rounding_to_zero_is_degenerate(self):
        # Rank-one FIMs at 1e13-1e15 scale whose a*d - b*b rounds to exactly
        # 0, which would give an infinite bound: the rule reads their det/t^2,
        # which rounds to within a few eps of 0 at any scale.
        f = np.array([[[21820007839048.95, 32507937423899.965],
                       [32507937423899.965, 48431054807643.75]],
                      [[128510354302.54944, -1592603915163.544],
                       [-1592603915163.544, 19736831669009.965]],
                      [[616535632973822.8, 451509842862977.2],
                       [451509842862977.2, 330655889617990.7]]])
        a, b, d = f[:, 0, 0], f[:, 0, 1], f[:, 1, 1]
        assert np.all(a * d - b * b == 0.0)
        bound, gdop, degenerate = peb_of(f)
        assert np.all(degenerate) and np.all(np.isnan(bound)) and np.all(np.isnan(gdop))
        assert np.all(is_degenerate(a, b, d))

    @pytest.mark.filterwarnings("error")
    def test_degenerate_entries_raise_no_warning(self):
        # (a + d) / det of the first would overflow and of the second divide
        # by zero: the division runs on non-degenerate entries alone
        a, b, d = np.array([1e200, 0.0, 4.0]), np.zeros(3), np.array([1e-310, 5.0, 1.0])
        bound, degenerate = _bound(a, b, d, np.nan)
        assert degenerate.tolist() == [True, True, False]
        assert np.isnan(bound[:2]).all() and bound[2] == math.sqrt(1.25)

    def test_identity_fim(self):
        bound, gdop, degenerate = peb_of(np.eye(2))
        assert not degenerate
        assert bound == pytest.approx(math.sqrt(2.0))
        assert gdop == pytest.approx(math.sqrt(2.0))

    def test_diagonal_fim(self):
        bound, _, _ = peb_of(np.diag([4.0, 1.0]))
        assert bound == pytest.approx(math.sqrt(1.25))

    def test_degenerate_flagged_not_raised(self):
        bound, gdop, degenerate = peb_of(np.diag([0.0, 5.0]))
        assert degenerate
        assert np.isnan(bound) and np.isnan(gdop)

    def test_gdop_uses_mean_variance(self):
        bound, gdop, _ = peb_of(np.eye(2), mean_variance=4.0)
        assert gdop == pytest.approx(bound / 2.0)

    def test_on_ground_track_single_leo_is_degenerate(self):
        orbit = ground_track_orbit(Geodetic(0.0, 0.0, 0.0), 600e3)
        anchors = make_virtual_anchors(orbit, 10.0, 10)
        ue = Geodetic(math.radians(0.05), 0.0, 0.0)
        _, east, north, _, _ = line_of_sight(ue.lat_rad, ue.lon_rad, ue.alt_m, anchors)
        _, _, degenerate = peb_arrays(*information(east, north, np.full(10, 25.0)))
        assert degenerate

    def test_information_monotonicity(self):
        rng = np.random.default_rng(41)
        for _ in range(100):
            f = fim(rng.standard_normal((3, 2)), np.eye(3))
            extra = fim(rng.standard_normal((2, 2)), np.diag(rng.uniform(0.5, 3.0, 2)))
            before, _, before_degenerate = peb_of(f)
            after, _, after_degenerate = peb_of(f + extra)
            if before_degenerate or after_degenerate:
                continue
            assert after <= before + 1e-9

    def test_arrays_match_scalar(self):
        rng = np.random.default_rng(47)
        fims = [fim(rng.standard_normal((3, 2)), np.diag(rng.uniform(0.5, 3.0, 3)))
                for _ in range(40)]
        # singular, conditioned at 5e-13, and well conditioned at 1e-12 and
        # 1e-14 m^-2, far below where an absolute eigenvalue gate would cut
        fims += [np.diag([0.0, 5.0]), np.diag([5e-13, 1.0]), np.eye(2) * 1e-12,
                 np.diag([2e-14, 1e-14])]
        variances = rng.uniform(0.5, 9.0, len(fims))
        bound, gdop, degenerate = peb_of(np.array(fims), variances)
        assert degenerate[-4:].tolist() == [True, True, False, False]
        for i, (f, v) in enumerate(zip(fims, variances)):
            # the eigenvalue ratio by eigvalsh, and the bound by inversion
            smaller, larger = np.linalg.eigvalsh(f)
            assert degenerate[i] == (smaller <= DEGENERATE_RATIO * larger)
            if degenerate[i]:
                assert np.isnan(bound[i]) and np.isnan(gdop[i])
            else:
                ref = math.sqrt(np.trace(np.linalg.inv(f)))
                assert bound[i] == pytest.approx(ref, rel=1e-12, abs=0)
                assert gdop[i] == pytest.approx(ref / math.sqrt(v), rel=1e-12, abs=0)

    def test_one_call_over_stacked_cases_equals_per_case_calls(self):
        rng = np.random.default_rng(53)
        fims = fim_diagonal(rng.standard_normal((6, 50, 3, 2)),
                            rng.uniform(0.5, 3.0, (6, 50, 3)))
        fims[:, :3] = [np.diag([0.0, 5.0]), np.diag([5e-13, 1.0]), np.eye(2) * 1e-12]
        variances = rng.uniform(0.5, 9.0, (6, 50))
        together = peb_of(fims, variances)
        for c in range(len(fims)):
            for column, per_case in zip(together, peb_of(fims[c], variances[c])):
                assert np.array_equal(column[c], per_case, equal_nan=True)
        assert np.all(together[2][:, :2]) and not np.any(together[2][:, 2])

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.tuples(st.floats(1e-2, 1e2), st.floats(1e-2, 1e2),
                              st.floats(0.0, math.pi), st.floats(1e-2, 1e2), st.booleans()),
                    min_size=1, max_size=8),
           st.floats(1e-6, 1e6))
    def test_scaling_every_sigma_scales_bound_only(self, specs, s):
        # Each spec: the FIM's eigenvalues along a unit vector u at angle phi
        # and its normal, the mean variance, and whether the FIM is singular.
        # The rule reads det/t^2, which no scale moves, so a singular FIM
        # stays degenerate, and a well-conditioned one usable, at every s.
        fims, variances = [], []
        for along, across, phi, variance, singular in specs:
            u = np.array([math.cos(phi), math.sin(phi)])
            w = np.array([-u[1], u[0]])
            fims.append(1e-3 * along * np.outer(u, u) if singular
                        else along * np.outer(u, u) + across * np.outer(w, w))
            variances.append(variance)
        f, v = np.array(fims), np.array(variances)
        bound, gdop, degenerate = peb_of(f, v)
        # Every sigma times s: information over s^2, variances times s^2.
        bound_s, gdop_s, degenerate_s = peb_of(f / s**2, v * s**2)
        assert degenerate.tolist() == [spec[-1] for spec in specs]
        assert np.array_equal(degenerate_s, degenerate)
        usable = ~degenerate
        np.testing.assert_allclose(bound_s[usable], s * bound[usable], rtol=1e-10)
        np.testing.assert_allclose(gdop_s[usable], gdop[usable], rtol=1e-10)

    def test_frame_invariance(self):
        rng = np.random.default_rng(43)
        J = rng.standard_normal((5, 2))
        R = np.diag(rng.uniform(0.5, 2.0, 5))
        base, base_gdop, _ = peb_of(fim(J, R), mean_variance=float(np.mean(np.diag(R))))
        for phi in rng.uniform(0, 2 * math.pi, 10):
            rot = np.array([[math.cos(phi), -math.sin(phi)],
                            [math.sin(phi), math.cos(phi)]])
            rotated, rotated_gdop, _ = peb_of(fim(J @ rot, R),
                                              mean_variance=float(np.mean(np.diag(R))))
            assert rotated == pytest.approx(base, rel=1e-9)
            assert rotated_gdop == pytest.approx(base_gdop, rel=1e-9)


def _entries(specs) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(a, b, d) arrays of the FIMs whose larger eigenvalue is 10**(first
    entry of each spec), the smaller 10**(second) times that, at the angle."""
    f = np.array([_fim_with_eigenvalues(10.0 ** large, 10.0 ** (large + ratio), angle)
                  for large, ratio, angle in specs])
    return f[:, 0, 0], f[:, 0, 1], f[:, 1, 1]


# Log ratios on both sides of the gate: anywhere from 1e-20 to 1, or within
# about 2.3e-4 of DEGENERATE_RATIO (1e-10).
_LOG_RATIOS = st.floats(-20.0, 0.0) | st.floats(-10.0001, -9.9999)
_SPECIAL = [0.0, -0.0, math.nan, math.inf, -math.inf]


class TestDegeneracyRule:
    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.tuples(st.floats(-200.0, 200.0), _LOG_RATIOS, st.floats(0.0, math.pi)),
                    min_size=1, max_size=8),
           st.integers(-60, 60))
    def test_scaling_by_a_power_of_two_changes_no_flag(self, specs, k):
        # 2**k scales each entry, their sum and no ratio of them, exactly
        a, b, d = _entries(specs)
        scaled = is_degenerate(*(np.ldexp(x, k) for x in (a, b, d)))
        assert np.array_equal(scaled, is_degenerate(a, b, d))

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.tuples(st.floats(-20.0, 20.0), _LOG_RATIOS, st.floats(0.0, math.pi)),
                    min_size=1, max_size=8),
           st.integers(-400, 400))
    def test_scaling_by_a_power_of_four_scales_the_bound_exactly(self, specs, k):
        # 4**k scales the bound by 2**-k: `_bound` works at the scale of a + d,
        # so entries out to 1e-280 and 1e260, whose products leave the float
        # range, keep every bit of it
        a, b, d = _entries(specs)
        bound, _, degenerate = peb_arrays(a, b, d)
        scaled, _, scaled_degenerate = peb_arrays(*(np.ldexp(x, 2 * k) for x in (a, b, d)))
        assert np.array_equal(scaled_degenerate, degenerate)
        assert np.array_equal(scaled, np.ldexp(bound, -k), equal_nan=True)

    @settings(max_examples=300, deadline=None)
    @given(st.integers(-2**20, 2**20), st.integers(-2**20, 2**20), st.integers(-120, 60),
           st.floats(-20.0, 20.0), st.floats(0.0, math.pi))
    def test_rank_one_fims_are_degenerate(self, p, q, scale, log_large, angle):
        # 2**scale * [p, q]^T [p, q] is exactly representable and exactly
        # singular; the rotated one is rounded from eigenvalues 10**log_large and 0
        exact = math.ldexp(1.0, scale) * np.array([p * p, p * q, q * q])
        rotated = _entries([(log_large, -math.inf, angle)])
        for abd in (exact, rotated):
            bound, gdop, degenerate = peb_arrays(*abd)
            assert np.all(degenerate) and np.all(np.isnan(bound)) and np.all(np.isnan(gdop))

    def test_random_rank_one_fims_get_no_bound(self):
        # [p, q]^T [p, q] of random directions and of random normal vectors, at
        # scales from 1e-20 to 1e20: the absolute eigenvalue gate gave 6,827
        # of these 200,000 a finite bound
        rng = np.random.default_rng(67)
        angle = rng.uniform(0.0, math.pi, 100_000)
        vectors = np.concatenate([[np.cos(angle), np.sin(angle)],
                                  rng.standard_normal((2, 100_000))], axis=1)
        p, q = vectors * np.sqrt(10.0 ** rng.uniform(-20.0, 20.0, 200_000))
        assert not np.any(np.isfinite(peb_arrays(p * p, p * q, q * q)[0]))

    @settings(max_examples=300, deadline=None)  # tier 1 turns a RuntimeWarning into an error
    @given(st.lists(st.tuples(*[st.sampled_from(_SPECIAL) | st.builds(
        lambda sign, decade: sign * 10.0 ** decade, st.sampled_from([-1.0, 1.0]),
        st.floats(-300.0, 300.0))] * 3), min_size=1, max_size=8))
    def test_no_warning_at_any_scale(self, entries):
        a, b, d = np.array(entries).T
        degenerate = is_degenerate(a, b, d)
        assert degenerate.dtype == bool
        assert np.all(degenerate[~(np.isfinite(a) & np.isfinite(b) & np.isfinite(d))])
        bound, gdop, flags = peb_arrays(a, b, d)
        assert np.array_equal(flags, degenerate)

    def test_scalar_inputs_give_numpy_bools(self):
        # `~` on a Python bool is bitwise not: a flag built from Python floats
        # must still be a NumPy bool, not the truthy int -2
        a, b, d = np.array([[1.0, 0.0, 1.0], [1.0, 1.0, 1.0], [1.0, 0.0, 1e-11],
                            [math.nan, 0.0, 1.0], [0.0, 0.0, 0.0]]).T
        expected = is_degenerate(a, b, d)
        assert expected.tolist() == [False, True, True, True, True]
        for i in range(len(a)):
            for kind in (float, np.float64, np.array):
                entries = [kind(x[i]) for x in (a, b, d)]
                for flag in (is_degenerate(*entries), peb_arrays(*entries)[2]):
                    assert type(flag) is np.bool_ and flag == expected[i]


class TestSelection:
    def _grid(self, ue):
        # serving overhead plus five spread neighbors, one of them nearly
        # collinear with another to give the search something to avoid
        sky = [(0.0, math.pi / 2, 780e3),
               (0.0, 0.5, 1500e3),
               (0.12, 0.5, 1500e3),
               (2.1, 0.45, 1600e3),
               (4.2, 0.55, 1400e3),
               (5.2, 0.5, 1500e3)]
        return _anchors_from_sky(ue, sky)

    @staticmethod
    def _batched(anchors: np.ndarray, ue: Geodetic, k: int,
                 serving: int = 0) -> tuple[int, ...]:
        return tuple(search(_units(ue, anchors)[None], serving, k)[0])

    def test_full_set_returned_when_k_equals_n(self):
        ue = Geodetic(0.1, 0.1, 0.0)
        anchors = self._grid(ue)
        assert self._batched(anchors, ue, len(anchors)) == tuple(range(len(anchors)))

    def test_matches_brute_force_scan(self):
        ue = Geodetic(0.1, 0.1, 0.0)
        anchors = self._grid(ue)
        units = _units(ue, anchors)
        chosen = self._batched(anchors, ue, 3)
        # independent exhaustive scan over all 3-subsets containing serving
        best = None
        for combo in itertools.combinations(range(1, 6), 2):
            indices = (0,) + combo
            gdop = unit_sigma_gdop(units[list(indices)], 0)
            if best is None or gdop < best[0] - 1e-12:
                best = (gdop, indices)
        assert chosen == best[1]

    def test_k_larger_than_visible_rejected(self):
        ue = Geodetic(0.1, 0.1, 0.0)
        anchors = self._grid(ue)
        with pytest.raises(ValueError):
            self._batched(anchors, ue, 7)

    def test_symmetric_tie_breaks_to_lowest_indices(self):
        ue = Geodetic(0.0, 0.0, 0.0)
        # two mirror-image neighbor pairs: subsets {0,1,2} and {0,3,4} have
        # identical geometry quality
        sky = [(0.0, math.pi / 2, 780e3),
               (math.radians(40), 0.5, 1500e3),
               (math.radians(-40), 0.5, 1500e3),
               (math.radians(140), 0.5, 1500e3),
               (math.radians(220), 0.5, 1500e3)]
        anchors = _anchors_from_sky(ue, sky)
        assert best_subset_indices(_units(ue, anchors), 0, 3) == (0, 1, 2)

    def test_serving_always_included(self):
        ue = Geodetic(0.1, 0.1, 0.0)
        anchors = self._grid(ue)
        for k in (2, 3, 4):
            for serving in (0, 3):
                assert serving in self._batched(anchors, ue, k, serving=serving)

    def test_batched_matches_scalar_on_fixtures(self):
        ue = Geodetic(0.1, 0.1, 0.0)
        anchors = self._grid(ue)
        for k in (2, 3, 4, 6):
            assert self._batched(anchors, ue, k) == best_subset_indices(
                _units(ue, anchors), 0, k)

    def test_batched_symmetric_tie_breaks_to_lowest_indices(self):
        ue = Geodetic(0.0, 0.0, 0.0)
        sky = [(0.0, math.pi / 2, 780e3),
               (math.radians(40), 0.5, 1500e3),
               (math.radians(-40), 0.5, 1500e3),
               (math.radians(140), 0.5, 1500e3),
               (math.radians(220), 0.5, 1500e3)]
        anchors = _anchors_from_sky(ue, sky)
        assert self._batched(anchors, ue, 3) == (0, 1, 2)

    def test_batched_all_degenerate_falls_back_to_first_subset(self):
        # every anchor on one azimuth line through the UE: no subset fixes
        # the cross-track coordinate
        ue = Geodetic(0.0, 0.0, 0.0)
        sky = [(0.0, 1.2, 780e3), (0.0, 0.5, 1500e3), (math.pi, 0.6, 1400e3),
               (0.0, 0.8, 1000e3), (math.pi, 0.4, 1700e3)]
        anchors = _anchors_from_sky(ue, sky)
        scalar = best_subset_indices(_units(ue, anchors), 0, 3)
        assert scalar == (0, 1, 2)
        assert self._batched(anchors, ue, 3) == scalar

    @pytest.mark.parametrize("k", [3, 4])
    def test_batched_matches_scalar_on_random_hex_drops(self, k):
        rng = np.random.default_rng(100 + k)
        grid = hex_constellation(Geodetic(0.0, 0.0, 0.0), math.radians(13.0),
                                 math.radians(6.9), 780e3)
        lat = rng.uniform(-0.03, 0.03, 250)
        lon = rng.uniform(-0.03, 0.03, 250)
        _, east, north, _, _ = line_of_sight(lat, lon, 0.0, grid[:, None])
        batched = min_gdop_subsets(east, north, 0, k, np.ones(east.shape, dtype=bool))
        for drop, chosen in zip(np.stack([east.T, north.T], axis=-1), batched):
            assert tuple(chosen) == best_subset_indices(drop, 0, k)

    @pytest.mark.parametrize("k", [3, 4])
    def test_batched_matches_scalar_on_random_skies(self, k):
        rng = np.random.default_rng(200 + k)
        ue = Geodetic(0.3, -0.2, 0.0)
        skies = [_anchors_from_sky(ue, [(float(rng.uniform(0, 2 * math.pi)),
                                         float(rng.uniform(0.1, 1.5)),
                                         float(rng.uniform(700e3, 3000e3)))
                                        for _ in range(6)])
                 for _ in range(200)]
        # (6, 200, 3): each drop's own sky, anchor axis first
        _, east, north, _, _ = line_of_sight(ue.lat_rad, ue.lon_rad, ue.alt_m, np.stack(skies, 1))
        batched = min_gdop_subsets(east, north, 2, k, np.ones(east.shape, dtype=bool))
        for drop, chosen in zip(np.stack([east.T, north.T], axis=-1), batched):
            assert tuple(chosen) == best_subset_indices(drop, 2, k)


def best_visible_subset(units_en: np.ndarray, serving_index: int, k: int,
                        visible: np.ndarray) -> tuple[int, ...]:
    """Reference for `min_gdop_subsets` with a `visible` mask on one drop:
    `best_subset_indices` over the visible anchors alone, mapped back to the
    drop's indices, or the first subset where no k-subset containing the
    serving anchor is fully visible."""
    shown = np.flatnonzero(visible)
    if not visible[serving_index] or len(shown) < k:
        others = [i for i in range(len(units_en)) if i != serving_index]
        return tuple(sorted((serving_index,) + tuple(others[:k - 1])))
    chosen = best_subset_indices(units_en[shown], int(np.searchsorted(shown, serving_index)), k)
    return tuple(int(i) for i in shown[list(chosen)])


def _sky_units(azimuth: np.ndarray, elevation: np.ndarray) -> np.ndarray:
    """(..., 2) east/north components of unit vectors on the sky."""
    return np.stack([np.cos(elevation) * np.sin(azimuth),
                     np.cos(elevation) * np.cos(azimuth)], axis=-1)


def _sky(kind: str, n: int, serving: int, rng: np.random.Generator) -> np.ndarray:
    """(n, 2) unit vectors of one drop's sky of the given kind:

    * "random": azimuths and elevations uniform;
    * "collinear": every anchor on one line through the UE, its azimuth
      off by 0, 1e-9 or 1e-2 rad times 1 to 2, so that subsets range from
      exactly degenerate to ill-conditioned but usable;
    * "mirror": the serving anchor on an axis and the others in pairs
      mirrored about it, so mirror-image subsets tie up to rounding; one
      pair's azimuth is then off by 0, 1e-13 (still a tie) or 1e-6 rad.
    """
    azimuth, elevation = rng.uniform(0.0, 2.0 * math.pi, n), rng.uniform(0.05, 1.5, n)
    if kind == "collinear":
        offset = rng.choice([0.0, 1e-9, 1e-2]) * rng.choice([-1.0, 1.0], n)
        azimuth = azimuth[0] + math.pi * rng.integers(0, 2, n) + offset * rng.uniform(1, 2, n)
    elif kind == "mirror":
        others = rng.permutation([i for i in range(n) if i != serving])
        azimuth[serving] = axis = azimuth[0]
        for plus, minus in zip(others[0::2], others[1::2]):
            azimuth[plus], azimuth[minus] = axis + azimuth[plus], axis - azimuth[plus]
            elevation[minus] = elevation[plus]
        if len(others) % 2:
            azimuth[others[-1]] = axis + math.pi
        if len(others) > 1:
            azimuth[others[0]] += rng.choice([0.0, 1e-13, 1e-6])
    return _sky_units(azimuth, elevation)


_SKY_KINDS = ("random", "collinear", "mirror")


class TestClosedFormSelection:
    @settings(max_examples=150, deadline=None)
    @given(st.integers(2, 7).flatmap(lambda n: st.tuples(
               st.just(n), st.integers(2, n), st.integers(0, n - 1))),
           st.lists(st.sampled_from(_SKY_KINDS), max_size=9),
           st.sampled_from(["none", "all", "random"]),
           st.integers(0, 2**32 - 1))
    def test_matches_scalar_oracle_drop_by_drop(self, shape, kinds, masking, seed):
        # Every batch holds each kind of sky, mirror skies four times: a
        # mirror sky's best subsets tie, so its row's winner rests on the
        # enumeration-order walk and its margin. k = 2 and exactly
        # collinear skies leave every subset degenerate, and random masks
        # leave some drops no usable subset.
        n, k, serving = shape
        rng = np.random.default_rng(seed)
        units = np.stack([_sky(kind, n, serving, rng)
                          for kind in _SKY_KINDS + ("mirror",) * 3 + tuple(kinds)])
        if masking == "none":  # every anchor visible, against the unmasked oracle
            chosen = search(units, serving, k)
            for drop, picked in zip(units, chosen):
                assert tuple(picked) == best_subset_indices(drop, serving, k)
            return
        visible = (np.ones(units.shape[:2], dtype=bool) if masking == "all"
                   else rng.random(units.shape[:2]) < 0.8)
        chosen = search(units, serving, k, visible)
        for drop, shown, picked in zip(units, visible, chosen):
            assert tuple(picked) == best_visible_subset(drop, serving, k, shown)

    def test_fallbacks(self):
        rng = np.random.default_rng(7)
        collinear = _sky_units(np.array([0.3, 0.3 + math.pi, 0.3, 0.3 + math.pi, 0.3]),
                               rng.uniform(0.1, 1.4, 5))
        spread = _sky("random", 5, 0, rng)
        units = np.stack([collinear, spread, spread])
        visible = np.ones((3, 5), dtype=bool)
        visible[1, 0] = False  # the serving anchor hidden: no usable subset
        visible[2, [1, 2]] = False
        chosen = search(units, 0, 3, visible)
        # all subsets degenerate: the first; none usable: the first; else a
        # subset of the visible anchors
        assert [tuple(c) for c in chosen[:2]] == [(0, 1, 2), (0, 1, 2)]
        assert set(chosen[2]) <= {0, 3, 4}
        hidden = visible.copy()
        hidden[0, 1] = False  # the all-degenerate fallback skips unusable subsets
        assert tuple(search(units, 0, 3, hidden)[0]) == (0, 2, 3)

    @settings(max_examples=100, deadline=None)
    @given(st.integers(3, 9).flatmap(lambda n: st.tuples(st.just(n), st.integers(2, n))),
           st.integers(0, 2**32 - 1))
    def test_gdop_matches_peb_arrays(self, shape, seed):
        # Two closed forms of one bound from different sums: the subset
        # score's per-anchor sums, on units relative to anchor 0, which every
        # subset holds, as `min_gdop_subsets` passes them, and `information`'s
        # centred rows. Each carries an absolute error of a few ulps of
        # sum(e*e + n*n) <= 4k, so they part by k * eps over the smaller
        # eigenvalue: 1e-12 on well-conditioned subsets.
        n, k = shape
        rng = np.random.default_rng(seed)
        units = np.stack([_sky(kind, n, 0, rng) for kind in _SKY_KINDS * 4])
        subsets = np.array([(0,) + c for c in itertools.combinations(range(1, n), k - 1)])
        east, north = units[..., 0].T, units[..., 1].T
        gdop = subset_gdop(east - east[0], north - north[0], subsets)
        abd = information(east[subsets.T], north[subsets.T], np.ones((k, 1, 1)), clock_bias=True)
        _, reference, degenerate = peb_arrays(*abd)
        smaller = np.linalg.eigvalsh(stacked(*abd))[..., 0]
        assert np.array_equal(np.isinf(gdop), degenerate)
        assert_rule_matches_eigvalsh(*abd, degenerate)
        relative = np.abs(gdop[~degenerate] / reference[~degenerate] - 1.0)
        eps = np.finfo(float).eps
        assert np.all(relative <= 2.0 * k * eps / smaller[~degenerate])
        assert np.all(relative[smaller[~degenerate] >= 0.01] <= 1e-12)

    @settings(max_examples=100, deadline=None)
    @given(st.integers(3, 7).flatmap(lambda n: st.tuples(
               st.just(n), st.integers(2, n), st.integers(0, n - 1))),
           st.integers(0, 2**32 - 1))
    def test_clustered_anchors_choose_as_their_spread_does(self, shape, seed):
        # Units 2**-30 times an integer spread away from one direction, as a
        # grid with tiny gaps gives: taken relative to the serving anchor,
        # every score is exactly 2**30 times the spread's, so the choice is
        # the spread's. Sums of the raw units would round to eps of |u|^2,
        # 1e-4 to 1e-3 of these subsets' centred information.
        n, k, serving = shape
        spread = np.random.default_rng(seed).integers(-1000, 1001, (8, n, 2)).astype(float)
        clustered = np.array([0.5, 0.25]) + np.ldexp(spread, -30)
        assert np.array_equal(search(clustered, serving, k), search(spread, serving, k))

    def test_rank_one_subset_on_raw_units_is_degenerate(self):
        # Anchors 0 and 1 of this collinear sky make an exactly rank-one
        # 2-subset. On raw units its per-anchor sums round to eps of |u|^2,
        # which scored it 2.35e8; `subset_gdop` sums relative to an anchor
        # both subsets hold, so raw units give what relative ones do.
        units = _sky("collinear", 7, 0, np.random.default_rng(5))
        east, north = units[:, 0, None], units[:, 1, None]
        subsets = np.array([[0, 1], [0, 2]])
        gdop = subset_gdop(east, north, subsets)
        assert gdop[0, 0] == np.inf
        assert gdop.tobytes() == subset_gdop(east - east[0], north - north[0], subsets).tobytes()

    def test_subsets_sharing_no_anchor_raise(self):
        units = _sky("random", 4, 0, np.random.default_rng(1))
        with pytest.raises(ValueError, match="share no anchor"):
            subset_gdop(units[:, 0, None], units[:, 1, None], np.array([[0, 1], [2, 3]]))

    @pytest.mark.parametrize("gaps_deg", [(13.0, 6.9), (27.0, 6.9), (1.0, 0.5)])
    def test_gdop_matches_peb_arrays_on_hex_grids(self, gaps_deg):
        rng = np.random.default_rng(300)
        grid = hex_constellation(Geodetic(0.0, 0.0, 0.0), *map(math.radians, gaps_deg), 780e3)
        lat, lon = rng.uniform(-0.03, 0.03, 500), rng.uniform(-0.03, 0.03, 500)
        _, east, north, _, _ = line_of_sight(lat, lon, 0.0, grid[:, None])
        subsets = np.array([(0,) + c for c in itertools.combinations(range(1, 7), 3)])
        gdop = subset_gdop(east, north, subsets)
        _, reference, degenerate = peb_arrays(*information(
            east[subsets.T], north[subsets.T], np.ones((4, 1, 1)), clock_bias=True))
        assert not np.any(degenerate)
        assert np.all(np.abs(gdop / reference - 1.0) <= 1e-12)
