"""Case-study engine: UE drops, link realization, measurement assembly, PEB
evaluation, and box-plot statistics.

Three scenario families are implemented: a single LEO collecting RTT
measurements at virtual anchor positions over a measurement window, a
seven-satellite hexagonal LEO grid doing instantaneous TDOA (optionally
augmented with serving-satellite RTT), and a GNSS-poor hybrid (two GNSS
satellites plus one LEO, with a three-GNSS baseline).

Drops are evaluated in array passes over spans of drops: geometry, link
realization, subset selection and Fisher information run on stacked
(drops, anchors) arrays, with the same per-matrix arithmetic for every span.

Determinism: every random quantity is drawn from a substream keyed by
(seed, stream tag, drop index[, element index]), so results are a pure
function of (config, seed) independent of worker count and span boundaries,
and adding drops never perturbs earlier ones. Link-level draws are shared across measurement
times and cases of one run (common random numbers), which makes the
more-information-never-hurts comparisons hold sample by sample.
"""

from __future__ import annotations

import math
import os
import zlib
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace

import numpy as np
from scipy.optimize import brentq

from . import channel
from .channel import (AntennaModel, AntennaPattern, LinkDirection, LinkParams,
                      ScenarioClass)
from .config import ScenarioConfig, config_to_dict
from .constants import EARTH_RADIUS_M
from .errors import StatisticsError
from .fisher import (MeasurementKind, fim, geometry_jacobian, min_gdop_subsets,
                     peb_arrays, rtt_range_sigma, tdoa_covariance,
                     toa_range_sigma, unit_vectors_en)
from .geometry import (Geodetic, SatelliteState, angle_between,
                       destination_point, ecef_to_geodetic, enu_frames,
                       geodetic_to_ecef, ground_track_orbit,
                       make_virtual_anchors, hex_constellation,
                       propagate_circular_orbit)


@dataclass(frozen=True)
class UeRecord:
    """Outcome of one UE drop in one case."""

    position: Geodetic
    peb_m: float | None
    gdop: float | None
    degenerate: bool


@dataclass(frozen=True)
class PebSampleSet:
    """All UE outcomes of one case, in drop order."""

    scenario_id: str
    case_id: str
    records: tuple[UeRecord, ...]

    @property
    def peb_values(self) -> np.ndarray:
        return np.array([r.peb_m for r in self.records if not r.degenerate])

    @property
    def degenerate_count(self) -> int:
        return sum(1 for r in self.records if r.degenerate)


@dataclass(frozen=True)
class SummaryStats:
    """Tukey box-plot statistics over the non-degenerate PEB samples."""

    mean: float
    median: float
    q1: float
    q3: float
    whisker_lo: float
    whisker_hi: float
    outlier_count: int
    degenerate_count: int
    n_samples: int


@dataclass(frozen=True)
class RunBundle:
    """Full results of one run: per-case samples, statistics, and the resolved
    parameter snapshot for reproducibility."""

    cases: dict[str, PebSampleSet]
    stats: dict[str, SummaryStats]
    params: dict


def substream(seed: int, *keys) -> np.random.Generator:
    """Deterministic RNG substream; string keys are hashed stably."""
    ints = [int(seed)]
    for k in keys:
        ints.append(zlib.crc32(k.encode()) if isinstance(k, str) else int(k))
    return np.random.default_rng(np.random.SeedSequence(ints))


def cap_half_angle(altitude_m: float, beamwidth_rad: float) -> float:
    """Earth-central half-angle of the spherical cap covered by the beam: the
    surface ring where the off-boresight angle from a nadir-pointed satellite
    equals half the beamwidth."""
    r_sat = EARTH_RADIUS_M + altitude_m
    horizon = math.acos(EARTH_RADIUS_M / r_sat)
    half_beam = beamwidth_rad / 2.0
    if half_beam >= math.asin(EARTH_RADIUS_M / r_sat):
        return horizon

    def off_boresight(psi: float) -> float:
        return math.atan2(EARTH_RADIUS_M * math.sin(psi),
                          r_sat - EARTH_RADIUS_M * math.cos(psi)) - half_beam

    return brentq(off_boresight, 1e-9, horizon - 1e-9, xtol=1e-15)


def drop_ues(config: ScenarioConfig, serving: SatelliteState) -> list[Geodetic]:
    """UE positions uniform by area over the beam's spherical cap, centered on
    the serving satellite's nadir. Drop i only consumes substream (seed, i)."""
    nadir = ecef_to_geodetic(serving.position)
    center = Geodetic(nadir.lat_rad, nadir.lon_rad, 0.0)
    psi_max = cap_half_angle(nadir.alt_m, math.radians(config.link.beamwidth_deg))
    cos_min = math.cos(psi_max)
    drops = []
    for i in range(config.n_ue_drops):
        rng = substream(config.seed, "ue-drop", i)
        cos_psi = cos_min + (1.0 - cos_min) * rng.random()
        bearing = 2.0 * math.pi * rng.random()
        psi = math.acos(min(1.0, cos_psi))
        drops.append(destination_point(center, bearing, psi))
    return drops


# ---------------------------------------------------------------------------
# Link realization


class _LinkModel:
    """Per-run radio model: budgets, pattern, and channel-class tables."""

    def __init__(self, config: ScenarioConfig):
        budget = config.link
        self.budget = budget
        self.cls = ScenarioClass(config.scenario_class)
        self.los_only = config.los_only
        self.pattern = AntennaPattern(
            peak_gain_dbi=budget.peak_gain_dbi,
            beamwidth_rad=math.radians(budget.beamwidth_deg),
            model=AntennaModel(budget.antenna_model),
        )
        self.dl = LinkParams(
            direction=LinkDirection.LEO_DOWNLINK,
            carrier_hz=budget.carrier_hz,
            bandwidth_hz=budget.bandwidth_hz,
            eirp_dbw=budget.dl_eirp_dbw,
            rx_g_over_t_db_k=budget.ue_g_over_t_db_k,
            extra_losses_db=budget.extra_losses_db,
            processing_gain_db=budget.leo_dl_processing_gain_db,
        )
        self.dl_neighbor = replace(self.dl, neighbor_penalty_db=budget.neighbor_penalty_db)
        self.ul = LinkParams(
            direction=LinkDirection.LEO_UPLINK,
            carrier_hz=budget.carrier_hz,
            bandwidth_hz=budget.bandwidth_hz,
            eirp_dbw=budget.ue_eirp_dbw,
            rx_g_over_t_db_k=budget.sat_g_over_t_db_k,
            extra_losses_db=budget.extra_losses_db,
            processing_gain_db=budget.leo_ul_processing_gain_db,
        )
        gnss_snr = channel.cn0_to_snr(budget.gnss_cn0_dbhz, budget.gnss_bandwidth_hz,
                                      budget.gnss_processing_gain_db)
        self.gnss_range_sigma = toa_range_sigma(gnss_snr, budget.gnss_bandwidth_hz)

    def _realize(self, anchor_pos: np.ndarray, ue_ecef: np.ndarray,
                 boresight_target: np.ndarray, z_los: np.ndarray,
                 z_shadow: np.ndarray):
        """Common geometry and channel state of the (D, M) links from D UEs
        (D, 3) to M anchors (M, 3); `z_*` are the (D, M) link draws."""
        vec = anchor_pos - ue_ecef[:, None, :]
        dist = np.linalg.norm(vec, axis=-1)
        up = ue_ecef / np.linalg.norm(ue_ecef, axis=-1, keepdims=True)
        elevation = np.arcsin(np.clip((vec @ up[:, :, None])[..., 0] / dist, -1.0, 1.0))
        off_boresight = angle_between(boresight_target - anchor_pos, -vec)
        if self.los_only:
            los = np.ones(dist.shape, dtype=bool)
        else:
            los = z_los < channel.los_probability(self.cls, elevation)
        sigma_sh, clutter = channel.shadowing_sigma(self.cls, elevation, los)
        shadow = z_shadow * sigma_sh
        return dist, off_boresight, los, shadow, clutter

    def leo_dl_sigma(self, anchor_pos, ue_ecef, boresight_target,
                     z_los, z_shadow, neighbor=False) -> np.ndarray:
        """(D, M) downlink TOA range sigma per UE and anchor."""
        dist, off, los, shadow, clutter = self._realize(
            anchor_pos, ue_ecef, boresight_target, z_los, z_shadow)
        params = self.dl_neighbor if neighbor else self.dl
        dl = channel.link_snr(params, self.pattern, dist, off, los, shadow, clutter)
        return toa_range_sigma(dl.snr_db, params.bandwidth_hz)

    def leo_rtt_sigma(self, anchor_pos, ue_ecef, boresight_target,
                      z_los, z_shadow) -> np.ndarray:
        """(D, M) two-way range sigma per UE and anchor; one shadow/LOS draw
        governs both directions of a link (reciprocal large-scale channel)."""
        dist, off, los, shadow, clutter = self._realize(
            anchor_pos, ue_ecef, boresight_target, z_los, z_shadow)
        dl = channel.link_snr(self.dl, self.pattern, dist, off, los, shadow, clutter)
        ul = channel.link_snr(self.ul, self.pattern, dist, off, los, shadow, clutter)
        sigma_dl = toa_range_sigma(dl.snr_db, self.dl.bandwidth_hz)
        sigma_ul = toa_range_sigma(ul.snr_db, self.ul.bandwidth_hz)
        return rtt_range_sigma(sigma_dl, sigma_ul)


def _gnss_positions(ue_ecef: np.ndarray, basis: np.ndarray, draws: np.ndarray,
                    mask_rad: float, gnss_altitude_m: float) -> np.ndarray:
    """(D, S, 3) GNSS satellites, each uniform by solid angle on its UE's sky
    cap above the elevation mask, on the GNSS shell. `draws` holds (D, S, 2)
    uniforms: elevation term, then azimuth."""
    cos_zmax = math.cos(math.pi / 2 - mask_rad)
    sin_el = cos_zmax + (1.0 - cos_zmax) * draws[..., 0]
    azimuth = 2.0 * math.pi * draws[..., 1]
    cos_el = np.sqrt(np.maximum(0.0, 1.0 - sin_el**2))
    d_enu = np.stack([cos_el * np.sin(azimuth), cos_el * np.cos(azimuth), sin_el], axis=-1)
    d_ecef = d_enu @ basis
    ue = ue_ecef[:, None, :]
    r_shell = EARTH_RADIUS_M + gnss_altitude_m
    b = np.sum(ue * d_ecef, axis=-1)
    rho = -b + np.sqrt(b * b + r_shell**2 - np.sum(ue * ue, axis=-1))
    return ue + rho[..., None] * d_ecef


# ---------------------------------------------------------------------------
# Per-variant evaluators: each maps a span of drops [lo, hi) to its records


def _ue_frames(drops: list[Geodetic]) -> tuple[np.ndarray, np.ndarray]:
    """(D, 3) ECEF positions and (D, 3, 3) ENU bases of the drops."""
    return enu_frames(np.array([g.lat_rad for g in drops]),
                      np.array([g.lon_rad for g in drops]),
                      np.array([g.alt_m for g in drops]))


def _link_draws(seed: int, tag: str, lo: int, hi: int,
                n_links: int) -> tuple[np.ndarray, np.ndarray]:
    """(D, n_links) LOS uniforms and shadowing normals, one substream per
    drop, so a drop's draws do not depend on the span it is evaluated in."""
    z_los = np.empty((hi - lo, n_links))
    z_shadow = np.empty((hi - lo, n_links))
    for row, i in enumerate(range(lo, hi)):
        rng = substream(seed, tag, i)
        z_los[row] = rng.random(n_links)
        z_shadow[row] = rng.standard_normal(n_links)
    return z_los, z_shadow


def _rtt_fim(anchor_pos: np.ndarray, ue_ecef: np.ndarray, basis: np.ndarray,
             sigma: np.ndarray) -> np.ndarray:
    """(D, 2, 2) RTT information of D UEs from the (M, 3) anchors with (D, M)
    independent range sigmas."""
    units = unit_vectors_en(ue_ecef, anchor_pos, basis)
    cov = (sigma**2)[..., None] * np.eye(sigma.shape[-1])
    return fim(geometry_jacobian(MeasurementKind.RTT, units), cov)


def _records(drops: list[Geodetic], f: np.ndarray,
             mean_variance: np.ndarray) -> list[UeRecord]:
    peb_m, gdop, degenerate = peb_arrays(f, mean_variance)
    return [UeRecord(ue, None if deg else p, None if deg else g, deg)
            for ue, p, g, deg in zip(drops, peb_m.tolist(), gdop.tolist(),
                                     degenerate.tolist())]


class _SingleLeoEvaluator:
    scenario_id = "single-leo"

    def __init__(self, config: ScenarioConfig):
        self.config = config
        center = Geodetic(config.center_lat_rad, config.center_lon_rad, 0.0)
        self.orbit = ground_track_orbit(center, config.leo_altitude_m)
        self.serving = propagate_circular_orbit(self.orbit, 0.0)
        self.beam_center = geodetic_to_ecef(center)
        self.anchor_positions = [
            make_virtual_anchors(self.orbit, t, config.n_virtual_anchors).positions()
            for t in config.measurement_times_s
        ]
        self.model = _LinkModel(config)
        self.drops = drop_ues(config, self.serving)
        self.case_ids = [_time_case_id("single_leo", t) for t in config.measurement_times_s]

    def evaluate_span(self, lo: int, hi: int) -> dict[str, list[UeRecord]]:
        drops = self.drops[lo:hi]
        ue_ecef, basis = _ue_frames(drops)
        z_los, z_shadow = _link_draws(self.config.seed, "sl-link", lo, hi,
                                      self.config.n_virtual_anchors)
        out = {}
        for case_id, anchors in zip(self.case_ids, self.anchor_positions):
            sigma = self.model.leo_rtt_sigma(anchors, ue_ecef, self.beam_center,
                                             z_los, z_shadow)
            f = _rtt_fim(anchors, ue_ecef, basis, sigma)
            out[case_id] = _records(drops, f, np.mean(sigma**2, axis=-1))
        return out


class _MultiLeoEvaluator:
    scenario_id = "multi-leo"

    def __init__(self, config: ScenarioConfig):
        self.config = config
        center = Geodetic(config.center_lat_rad, config.center_lon_rad, 0.0)
        self.grid = hex_constellation(center, config.lon_gap_rad,
                                      config.lat_gap_rad, config.leo_altitude_m)
        self.beam_center = geodetic_to_ecef(center)
        self.grid_positions = self.grid.positions()
        self.rtt_orbit = ground_track_orbit(center, config.leo_altitude_m)
        self.rtt_positions = make_virtual_anchors(
            self.rtt_orbit, config.rtt_measurement_time_s,
            config.n_virtual_anchors).positions()
        self.model = _LinkModel(config)
        self.drops = drop_ues(config, self.grid.serving)
        self.active_counts = ([config.n_active_satellites]
                              if config.n_active_satellites is not None else [3, 4])
        self.rtt_flags = ([config.rtt_augmentation]
                          if config.rtt_augmentation is not None else [False, True])
        self.case_ids = [self._case_id(k, r)
                         for k in self.active_counts for r in self.rtt_flags]

    @staticmethod
    def _case_id(k: int, rtt: bool) -> str:
        return f"multi_leo_tdoa{k}" + ("_rtt" if rtt else "")

    def evaluate_span(self, lo: int, hi: int) -> dict[str, list[UeRecord]]:
        config = self.config
        drops = self.drops[lo:hi]
        ue_ecef, basis = _ue_frames(drops)
        z_los, z_shadow = _link_draws(config.seed, "ml-link", lo, hi, 7)

        # Downlink sigma for all seven satellites; the serving satellite's
        # beam is nadir-pointed, neighbor beams point at the same coverage
        # center but run a worse link budget.
        pos = self.grid_positions
        sigma_dl = np.concatenate([
            self.model.leo_dl_sigma(pos[:1], ue_ecef, self.beam_center,
                                    z_los[:, :1], z_shadow[:, :1], neighbor=False),
            self.model.leo_dl_sigma(pos[1:], ue_ecef, self.beam_center,
                                    z_los[:, 1:], z_shadow[:, 1:], neighbor=True),
        ], axis=1)

        if any(self.rtt_flags):
            zr_los, zr_shadow = _link_draws(config.seed, "ml-rtt", lo, hi,
                                            config.n_virtual_anchors)
            sigma_rtt = self.model.leo_rtt_sigma(
                self.rtt_positions, ue_ecef, self.beam_center, zr_los, zr_shadow)
            f_rtt = _rtt_fim(self.rtt_positions, ue_ecef, basis, sigma_rtt)

        units = unit_vectors_en(ue_ecef, pos, basis)
        serving = self.grid.serving_index
        out = {}
        for k in self.active_counts:
            subsets = min_gdop_subsets(units, serving, k)
            # Serving satellite first as the TDOA reference, then the others
            # in index order.
            others = subsets[subsets != serving].reshape(len(drops), k - 1)
            order = np.concatenate([np.full((len(drops), 1), serving), others], axis=1)
            cov = tdoa_covariance(np.take_along_axis(sigma_dl, order, axis=1), 0)
            J = geometry_jacobian(MeasurementKind.TDOA,
                                  np.take_along_axis(units, order[..., None], axis=1), 0)
            f_tdoa = fim(J, cov)
            tdoa_var = np.diagonal(cov, axis1=-2, axis2=-1)
            for rtt in self.rtt_flags:
                if rtt:
                    f = f_tdoa + f_rtt
                    mean_var = np.mean(np.concatenate([tdoa_var, sigma_rtt**2], axis=1), axis=1)
                else:
                    f, mean_var = f_tdoa, np.mean(tdoa_var, axis=1)
                out[self._case_id(k, rtt)] = _records(drops, f, mean_var)
        return out


class _GnssLeoEvaluator:
    scenario_id = "gnss-leo"

    def __init__(self, config: ScenarioConfig):
        self.config = config
        center = Geodetic(config.center_lat_rad, config.center_lon_rad, 0.0)
        self.orbit = ground_track_orbit(center, config.leo_altitude_m)
        self.serving = propagate_circular_orbit(self.orbit, 0.0)
        self.beam_center = geodetic_to_ecef(center)
        self.gnss_only = config.variant == "gnss-only"
        self.n_gnss = 3 if self.gnss_only else 2
        self.model = _LinkModel(config)
        self.drops = drop_ues(config, self.serving)
        if self.gnss_only:
            self.scenario_id = "gnss-only"
            self.anchor_positions = []
            self.case_ids = ["gnss_only"]
        else:
            self.anchor_positions = [
                make_virtual_anchors(self.orbit, t, config.n_virtual_anchors).positions()
                for t in config.measurement_times_s
            ]
            self.case_ids = [_time_case_id("gnss_leo", t)
                             for t in config.measurement_times_s]

    def evaluate_span(self, lo: int, hi: int) -> dict[str, list[UeRecord]]:
        config = self.config
        drops = self.drops[lo:hi]
        ue_ecef, basis = _ue_frames(drops)
        draws = np.array([[substream(config.seed, "gnss-pos", i, s).random(2)
                           for s in range(self.n_gnss)] for i in range(lo, hi)])
        gnss_pos = _gnss_positions(ue_ecef, basis, draws, config.gnss_elevation_mask_rad,
                                   config.gnss_altitude_m)
        cov_g = tdoa_covariance(np.full(self.n_gnss, self.model.gnss_range_sigma), 0)
        units_g = unit_vectors_en(ue_ecef, gnss_pos, basis)
        f_gnss = fim(geometry_jacobian(MeasurementKind.TDOA, units_g, 0), cov_g)
        var_g = np.diag(cov_g)

        if self.gnss_only:
            return {"gnss_only": _records(drops, f_gnss, np.mean(var_g))}

        z_los, z_shadow = _link_draws(config.seed, "gl-link", lo, hi,
                                      config.n_virtual_anchors)
        out = {}
        for case_id, anchors in zip(self.case_ids, self.anchor_positions):
            sigma = self.model.leo_rtt_sigma(anchors, ue_ecef, self.beam_center,
                                             z_los, z_shadow)
            f_rtt = _rtt_fim(anchors, ue_ecef, basis, sigma)
            var = np.concatenate([np.broadcast_to(var_g, (hi - lo, len(var_g))),
                                  sigma**2], axis=1)
            out[case_id] = _records(drops, f_gnss + f_rtt, np.mean(var, axis=1))
        return out


def _time_case_id(prefix: str, t: float) -> str:
    return f"{prefix}_t{t:g}".replace(".", "p")


_EVALUATORS = {
    "single-leo": _SingleLeoEvaluator,
    "multi-leo": _MultiLeoEvaluator,
    "gnss-leo": _GnssLeoEvaluator,
    "gnss-only": _GnssLeoEvaluator,
}


def _make_evaluator(config: ScenarioConfig):
    return _EVALUATORS[config.variant](config)


def run_single_leo(config: ScenarioConfig, workers: int = 1) -> RunBundle:
    if config.variant != "single-leo":
        raise ValueError("config variant must be single-leo")
    return run(config, workers=workers)


def run_multi_leo(config: ScenarioConfig, workers: int = 1) -> RunBundle:
    if config.variant != "multi-leo":
        raise ValueError("config variant must be multi-leo")
    return run(config, workers=workers)


def run_gnss_leo(config: ScenarioConfig, workers: int = 1) -> RunBundle:
    if config.variant not in ("gnss-leo", "gnss-only"):
        raise ValueError("config variant must be gnss-leo or gnss-only")
    return run(config, workers=workers)


def _evaluate_span(args) -> dict[str, list[UeRecord]]:
    config, lo, hi = args
    return _make_evaluator(config).evaluate_span(lo, hi)


def run(config: ScenarioConfig, workers: int = 1) -> RunBundle:
    """Evaluate a scenario; `workers` only affects wall-clock time. It is
    clamped to the drop count and the CPU count, and each worker process
    evaluates one span of drops."""
    evaluator = _make_evaluator(config)
    n = config.n_ue_drops
    workers = min(workers, n, os.cpu_count() or 1)
    if workers <= 1:
        chunks = [evaluator.evaluate_span(0, n)]
    else:
        bounds = np.linspace(0, n, workers + 1).astype(int)
        spans = [(config, int(lo), int(hi)) for lo, hi in zip(bounds[:-1], bounds[1:])]
        with ProcessPoolExecutor(max_workers=workers) as pool:
            chunks = list(pool.map(_evaluate_span, spans))

    cases = {}
    for case_id in evaluator.case_ids:
        records = tuple(r for chunk in chunks for r in chunk[case_id])
        cases[case_id] = PebSampleSet(evaluator.scenario_id, case_id, records)
    stats = {case_id: summarize(sample) for case_id, sample in cases.items()}
    params = {
        "config": config_to_dict(config),
        "table_checksums": channel.table_checksums(),
    }
    return RunBundle(cases=cases, stats=stats, params=params)


def summarize(samples: PebSampleSet) -> SummaryStats:
    """Tukey box-plot statistics: quartiles by linear interpolation of order
    statistics, whiskers at the most extreme samples within 1.5*IQR of the
    quartiles, outliers beyond. Degenerate samples are counted separately."""
    values = samples.peb_values
    if values.size == 0:
        raise StatisticsError(f"case {samples.case_id}: no non-degenerate samples")
    q1, median, q3 = np.percentile(values, [25.0, 50.0, 75.0])
    iqr = q3 - q1
    lo_fence = q1 - 1.5 * iqr
    hi_fence = q3 + 1.5 * iqr
    inside = values[(values >= lo_fence) & (values <= hi_fence)]
    return SummaryStats(
        mean=float(np.mean(values)),
        median=float(median),
        q1=float(q1),
        q3=float(q3),
        whisker_lo=float(np.min(inside)),
        whisker_hi=float(np.max(inside)),
        outlier_count=int(values.size - inside.size),
        degenerate_count=samples.degenerate_count,
        n_samples=len(samples.records),
    )
