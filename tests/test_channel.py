import math

import numpy as np
import pytest

from satpeb import channel
from satpeb.channel import (PINNED_TABLE_CHECKSUMS, antenna_gain, cn0_to_snr,
                            free_space_path_loss, link_snr, los_probability,
                            shadowing_sigma, table_checksums)
from satpeb.config import SCENARIO_CLASSES, LinkBudget

# (beamwidth_rad, model) of the default beam under each antenna model
BESSEL = (math.radians(4.4127), "bessel-aperture")
GAUSS = (math.radians(4.4127), "gaussian-approx")


class TestAntennaPattern:
    @pytest.mark.parametrize("pattern", [BESSEL, GAUSS], ids=["bessel", "gauss"])
    def test_boresight_is_zero_db(self, pattern):
        assert antenna_gain(*pattern, 0.0) == 0.0

    @pytest.mark.parametrize("pattern", [BESSEL, GAUSS], ids=["bessel", "gauss"])
    def test_half_beamwidth_is_minus_3db(self, pattern):
        gain = antenna_gain(*pattern, pattern[0] / 2.0)
        assert abs(gain - (-3.0)) < 0.01

    @pytest.mark.parametrize("pattern", [BESSEL, GAUSS], ids=["bessel", "gauss"])
    def test_main_lobe_monotone(self, pattern):
        grid = np.linspace(0.0, pattern[0] / 2.0, 100)
        gains = antenna_gain(*pattern, grid)
        assert np.all(np.diff(gains) <= 1e-12)

    def test_very_narrow_beam_floors_off_boresight_gain(self):
        # A 1e-190 degree beam puts the Airy argument far past any integer
        # recurrence order; the gain away from boresight is the 1e-8 floor.
        gains = antenna_gain(math.radians(1e-190), "bessel-aperture",
                             np.array([0.0, 1e-16, 0.1, math.pi / 2]))
        assert gains[0] == 0.0
        assert np.all(gains[1:] == -160.0)

    def test_very_narrow_gaussian_beam_floors_off_boresight_gain(self):
        # (theta / beamwidth)**2 overflows to inf for a 1e-38 degree beam; the
        # gain keeps the Bessel pattern's -160 dB floor instead of -inf.
        with np.errstate(over="ignore"):
            gains = antenna_gain(math.radians(1.1754943508222875e-38), "gaussian-approx",
                                 np.array([0.0, 1e-30, 0.1, math.pi / 2]))
        assert gains[0] == 0.0
        assert np.all(gains[1:] == -160.0)
        assert antenna_gain(math.radians(4.0), "gaussian-approx",
                            math.radians(1.0)) == -12.0 * 0.25**2

    def test_floor_argument_lies_below_the_floor(self):
        # Just below the switch the recurrence itself is already at the floor.
        x = np.linspace(channel._FLOOR_ARG - 100.0, channel._FLOOR_ARG, 5)
        assert np.all(np.abs(channel._airy_lobe(x)) < 1e-8)

    def test_rejects_out_of_range_angle(self):
        with pytest.raises(ValueError):
            antenna_gain(*BESSEL, -0.1)

    def test_beamwidth_validation(self):
        # The beamwidth's range is `validate_config`'s check
        # (tests/test_config.py); an unknown model must not fall through to
        # the Bessel pattern.
        with pytest.raises(ValueError, match="antenna model"):
            antenna_gain(0.1, "dipole", 0.0)


def _j1(x):
    """J1 from the pattern kernel's Airy lobe 2*J1(x)/x."""
    x = np.asarray(x, dtype=float)
    return 0.5 * x * channel._airy_lobe(x)


class TestBesselKernel:
    def test_tabulated_values(self):
        assert _j1([1.0, 2.0]) == pytest.approx([0.44005058574493355, 0.5767248077568734],
                                                rel=0, abs=1e-15)
        first_zero = 3.8317059702075125
        assert abs(_j1([first_zero])[0]) < 1e-15
        assert channel._airy_lobe(np.zeros(1))[0] == 1.0

    def test_matches_scipy_on_dense_grid(self):
        special = pytest.importorskip("scipy.special")
        x = np.linspace(0.0, 45.0, 45001)
        assert np.max(np.abs(_j1(x) - special.j1(x))) < 1e-15

    def test_recurrence_rescales_at_large_arguments(self):
        # Started at x + sqrt(160 x), the unscaled iterates reach about 1e219
        # here, so the rescaling runs.
        special = pytest.importorskip("scipy.special")
        x = np.linspace(2e4 - 10.0, 2e4, 11)
        assert np.max(np.abs(channel._miller_j1(x) - special.j1(x))) < 1e-14

    def test_continuous_across_series_switch(self):
        edge = channel._SERIES_MAX_ARG
        x = np.array([np.nextafter(edge, 0.0), edge, np.nextafter(edge, 4.0)])
        lobe = channel._airy_lobe(x)
        assert np.max(np.abs(np.diff(lobe))) < 1e-15
        # Both branches agree at the switch itself.
        recurrence = 2.0 * channel._miller_j1(np.array([edge])) / edge
        assert abs(recurrence[0] - lobe[1]) < 1e-15

    def test_half_power_arg_crosses_minus_3db(self):
        x = np.array([channel._HALF_POWER_ARG])
        # 4*(J1(x)/x)^2 is the square of the lobe 2*J1(x)/x.
        assert abs(channel._airy_lobe(x)[0] ** 2 - 10.0 ** -0.3) < 1e-15


class TestFreeSpacePathLoss:
    def test_leo_sband(self):
        assert abs(free_space_path_loss(600e3, 2e9) - 154.0) < 0.1

    def test_gnss_l1(self):
        assert abs(free_space_path_loss(20200e3, 1575.42e6) - 182.5) < 0.1

    def test_doubling_distance_adds_6db(self):
        d1 = free_space_path_loss(700e3, 2e9)
        d2 = free_space_path_loss(1400e3, 2e9)
        assert d2 - d1 == pytest.approx(6.02, abs=0.01)

    def test_rejects_non_positive_distance(self):
        with pytest.raises(ValueError):
            free_space_path_loss(0.0, 2e9)


class TestTables:
    def test_checksums_pinned(self):
        assert table_checksums() == PINNED_TABLE_CHECKSUMS

    def test_checksums_hashed_once_per_process(self, monkeypatch):
        los_probability("urban", math.pi / 4)  # loads the tables

        def no_reads(*args, **kwargs):
            raise AssertionError("table assets read again")

        monkeypatch.setattr(channel.resources, "files", no_reads)
        sums = table_checksums()
        assert sums == PINNED_TABLE_CHECKSUMS
        sums.clear()
        assert table_checksums() == PINNED_TABLE_CHECKSUMS

    @pytest.mark.parametrize("cls", SCENARIO_CLASSES)
    def test_los_probability_monotone_and_bounded(self, cls):
        els = np.radians(np.arange(10.0, 91.0, 10.0))
        probs = los_probability(cls, els)
        assert np.all((probs >= 0.0) & (probs <= 1.0))
        assert np.all(np.diff(probs) >= 0.0)
        # 90 degrees returns the largest table entry
        assert los_probability(cls, math.pi / 2) == pytest.approx(probs[-1])

    def test_grid_point_exact(self):
        # spot values from the S-band suburban/rural table
        cls = "suburban-rural"
        assert los_probability(cls, math.radians(10.0)) == pytest.approx(0.782)
        assert los_probability(cls, math.radians(30.0)) == pytest.approx(0.919)
        sigma, clutter = shadowing_sigma(cls, math.radians(20.0), False)
        assert sigma == pytest.approx(9.08)
        assert clutter == pytest.approx(18.17)

    def test_midpoint_interpolation(self):
        cls = "urban"
        p40 = los_probability(cls, math.radians(40.0))
        p50 = los_probability(cls, math.radians(50.0))
        assert los_probability(cls, math.radians(45.0)) == pytest.approx((p40 + p50) / 2)

    @pytest.mark.parametrize("cls", SCENARIO_CLASSES)
    def test_los_sigma_never_exceeds_nlos(self, cls):
        for el_deg in range(10, 91, 10):
            el = math.radians(el_deg)
            s_los, c_los = shadowing_sigma(cls, el, True)
            s_nlos, c_nlos = shadowing_sigma(cls, el, False)
            assert s_los <= s_nlos
            assert c_los == 0.0
            assert c_nlos >= 0.0

    def test_below_horizon_raises(self):
        with pytest.raises(ValueError, match=r"\(0, pi/2\]"):
            los_probability("urban", 0.0)
        with pytest.raises(ValueError, match=r"\(0, pi/2\]"):
            shadowing_sigma("urban", -0.1, True)
        with pytest.raises(ValueError, match=r"\(0, pi/2\]"):
            los_probability("urban", math.pi / 2 + 1e-9)

    def test_lookups_are_pure(self):
        cls = "dense-urban"
        el = math.radians(37.3)
        assert los_probability(cls, el) == los_probability(cls, el)
        assert shadowing_sigma(cls, el, False) == shadowing_sigma(cls, el, False)


def _snr(distance_m, gain_db, shadow_db, clutter_db=0.0, bandwidth_hz=10e6, penalty_db=0.0):
    """A 44 dBW, -31.6 dB/K direction without processing gain at 2 GHz."""
    budget = LinkBudget(carrier_hz=2e9, bandwidth_hz=bandwidth_hz, extra_losses_db=0.0)
    return link_snr(budget, 44.0, -31.6, 0.0, distance_m, gain_db, shadow_db, clutter_db,
                    penalty_db)


class TestLinkSnr:
    def test_halving_bandwidth_raises_snr_3db(self):
        full = _snr(600e3, antenna_gain(*BESSEL, 0.0), 0.0, bandwidth_hz=10e6)
        half = _snr(600e3, antenna_gain(*BESSEL, 0.0), 0.0, bandwidth_hz=5e6)
        assert half - full == pytest.approx(3.01, abs=0.01)

    def test_neighbor_penalty_is_exact(self):
        base = _snr(900e3, antenna_gain(*BESSEL, 0.01), 1.3)
        hit = _snr(900e3, antenna_gain(*BESSEL, 0.01), 1.3, penalty_db=6.0)
        assert base - hit == pytest.approx(6.0, abs=1e-12)

    def test_pinned_default_downlink_snr(self):
        # serving-LEO downlink at nadir, 600 km, calibrated defaults
        budget = LinkBudget()
        snr = link_snr(budget, budget.dl_eirp_dbw, budget.ue_g_over_t_db_k,
                       budget.leo_dl_processing_gain_db, 600e3, antenna_gain(*BESSEL, 0.0),
                       0.0, 0.0, 0.0)
        assert snr == pytest.approx(6.967977542068468, abs=1e-9)

    def test_strictly_decreasing_in_distance(self):
        distances = np.linspace(600e3, 2500e3, 50)
        snr = _snr(distances, antenna_gain(*BESSEL, 0.0), 0.0)
        assert np.all(np.diff(snr) < 0.0)

    def test_strictly_decreasing_off_boresight(self):
        angles = np.linspace(0.0, BESSEL[0] / 2.0, 50)
        snr = _snr(600e3, antenna_gain(*BESSEL, angles), 0.0)
        assert np.all(np.diff(snr) < 0.0)

    def test_shadow_and_clutter_subtract(self):
        clean = _snr(600e3, antenna_gain(*BESSEL, 0.0), 0.0, 0.0)
        faded = _snr(600e3, antenna_gain(*BESSEL, 0.0), 2.5, 19.52)
        assert clean - faded == pytest.approx(22.02, abs=1e-9)


def test_cn0_to_snr():
    # 44 dB-Hz over 15.345 MHz, no processing gain
    snr = cn0_to_snr(44.0, 15.345e6)
    assert snr == pytest.approx(44.0 - 10.0 * math.log10(15.345e6), abs=1e-12)
    assert cn0_to_snr(44.0, 15.345e6, 30.0) - snr == pytest.approx(30.0)
