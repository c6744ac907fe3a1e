"""Case-study engine: UE drops, link realization, measurement assembly, PEB
evaluation, and box-plot statistics.

Every case is a sum of independent Fisher information blocks over the same
UE drops. `case_table` maps each case of a variant to its blocks (`Rtt`,
`Tdoa` and `Gnss` describe the three kinds):

    single-leo  single_leo_t{T}        rtt(T, "sl-link")
    multi-leo   multi_leo_tdoa{k}      tdoa(k)
    multi-leo   multi_leo_tdoa{k}_rtt  tdoa(k), rtt(rtt_measurement_time_s, "ml-rtt")
    gnss-leo    gnss_leo_t{T}          gnss(2), rtt(T, "gl-link")
    gnss-only   gnss_only              gnss(3)

A block's FIM [[a, b], [b, d]] is `fisher.information` over its range
variances, with the UE clock bias eliminated for TDOA and GNSS; a case adds
its blocks' (a, b, d) in table order, and the mean variance behind its GDOP
is taken over the blocks' measurement variances concatenated in that order.

All drops of a run are evaluated in one in-process array pass: geometry,
link realization, subset selection and Fisher information run on stacked
(anchors, drops) arrays, anchor axis first. Each anchor set, the grid or
one link-draw tag's RTT windows stacked to (anchors, windows, drops), is
one orbit propagation and one `line_of_sight` pass: its ranges, elevation
sines and off-boresight cosines (taken from its anchor - UE offsets) feed
the link budget, its east/north components the information. Each block is
computed once and shared by the cases that use it, and one PEB pass over
the cases' stacked (cases, drops) entries gives every bound.

A run is three functions: `drop_ues(config)` gives (D,) latitude and
longitude arrays, `evaluate(config, lat, lon)` gives per case (D,) bound,
GDOP and degenerate-flag arrays (NaN bound and GDOP where degenerate), and
`summarize` reads one case's columns; `run` chains them into a `RunBundle`
that holds the drop positions once and `evaluate`'s columns per case, which
the CLI writers read directly. `evaluate` holds no state between calls: row
i of the positions takes drop i's link and sky draws, so any positions, not
only the drawn ones, can be evaluated, and a row's result depends on the
config and its own position alone.

Determinism: every random quantity is drawn from a substream keyed by
(seed, stream tag, drop index[, element index]), so results are a pure
function of (config, seed), and adding drops never perturbs earlier ones.
Every random array of a run comes from one call of `substream_draws`, the
only code that knows how the streams are laid out: it runs NumPy's
SeedSequence hashing for all streams of a tag as one uint32 array pass,
derives each stream's PCG64 state from it, and fills the stream's row of
uniforms (and normals) from one Generator re-seeded in place, so every row
equals the scalar `substream`'s draws bit for bit. NumPy keeps both
algorithms fixed (its stream-compatibility policy, NEP 19); should a release
change either, the oracle test against `substream` fails.
Link-level draws are shared across measurement times and cases of one run
(common random numbers), which makes the more-information-never-hurts
comparisons hold sample by sample.
"""

from __future__ import annotations

import math
import zlib
from dataclasses import dataclass

import numpy as np

from . import channel
from .config import ScenarioConfig
from .constants import EARTH_RADIUS_M
from .errors import ConfigError, StatisticsError
from .fisher import (information, line_of_sight, min_gdop_subsets, peb_arrays,
                     rtt_range_sigma, toa_range_sigma)
from .geometry import (Geodetic, geodetic_to_ecef, ground_track_orbit, make_virtual_anchors,
                       hex_constellation, wrap_longitude)


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


@dataclass(frozen=True, eq=False)
class RunBundle:
    """Full results of one run: the (D,) drop positions that every case
    shares, each case's `evaluate` columns (bound, GDOP, degenerate flag) in
    drop order, and each case's statistics."""

    lat_rad: np.ndarray
    lon_rad: np.ndarray
    cases: dict[str, tuple[np.ndarray, np.ndarray, np.ndarray]]
    stats: dict[str, SummaryStats]


def substream(seed: int, *keys) -> np.random.Generator:
    """Deterministic RNG substream; string keys are hashed stably. The scalar
    reference of `substream_draws`, which the run draws through."""
    ints = [int(seed)]
    for k in keys:
        ints.append(zlib.crc32(k.encode()) if isinstance(k, str) else int(k))
    return np.random.default_rng(np.random.SeedSequence(ints))


# NumPy's SeedSequence hash constants and PCG64's 128-bit LCG multiplier
# (numpy/random/bit_generator.pyx and pcg64.h).
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_PCG64_MULT = 2549297995355413924 << 64 | 4865540595714422341
_MASK32, _MASK128 = (1 << 32) - 1, (1 << 128) - 1


def _hash_constants(init: int, mult: int, count: int) -> tuple[np.ndarray, np.ndarray]:
    """The (count, 1) uint32 constants that SeedSequence's first `count`
    hashes xor in and multiply by: the constant is multiplied by `mult`
    between the two."""
    consts = [init]
    for _ in range(count):
        consts.append(consts[-1] * mult & _MASK32)
    consts = np.array(consts, np.uint32)[:, None]
    return consts[:-1], consts[1:]


def _hashmix(value: np.ndarray, xor: np.ndarray, mul: np.ndarray) -> np.ndarray:
    value = value ^ xor
    value *= mul
    return value ^ (value >> 16)


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    result = x * _MIX_L - y * _MIX_R
    return result ^ (result >> 16)


def _pcg64_seeds(entropy: np.ndarray) -> np.ndarray:
    """(N, 4) uint64 words of `SeedSequence(e).generate_state(4, np.uint64)`
    for each column e of the (L, N) uint32 `entropy`. SeedSequence's pool
    hashing, run on all N at once; uint32 array products wrap mod 2**32 as
    its C code does. Hashes that update different pool words from the same
    values are independent, so each group runs as one (k, N) step."""
    words = len(entropy)
    xor, mul = _hash_constants(_INIT_A, _MULT_A, 16 + 4 * max(0, words - 4))
    pool = np.zeros((4, entropy.shape[1]), np.uint32)
    pool[:words] = entropy[:4]
    pool = _hashmix(pool, xor[:4], mul[:4])
    k = 4
    for src in range(4):  # every other pool word mixes in a hash of word src
        dst = [d for d in range(4) if d != src]
        pool[dst] = _mix(pool[dst], _hashmix(pool[src], xor[k:k + 3], mul[k:k + 3]))
        k += 3
    for word in entropy[4:]:  # every pool word mixes in a hash of each extra word
        pool = _mix(pool, _hashmix(word, xor[k:k + 4], mul[k:k + 4]))
        k += 4
    # generate_state: 8 words cycled from the pool, read as 4 little-endian uint64.
    state = _hashmix(np.tile(pool, (2, 1)), *_hash_constants(_INIT_B, _MULT_B, 8))
    state = state.astype(np.uint64)
    return (state[0::2] | state[1::2] << 32).T


def substream_draws(seed: int, tag: str, shape: tuple[int, ...],
                    n_normal: int = 0) -> tuple[np.ndarray, np.ndarray]:
    """Uniforms of `shape` and standard normals of `shape[:-1] + (n_normal,)`:
    for every index j of `shape[:-1]`, the row j of both is what
    `substream(seed, tag, *j)` draws first, uniforms before normals, bit for
    bit. All the streams' SeedSequence hashes run as one array pass; one
    PCG64 is then re-seeded in place with each stream's state and fills its
    rows."""
    seed = int(seed)
    if seed < 0:
        raise ValueError(f"seed must be non-negative, got {seed}")
    *streams, n_uniform = shape
    if any(k > 1 << 32 for k in streams):
        raise ValueError(f"substream indices must be below 2**32, got shape {tuple(shape)}")
    # SeedSequence's entropy words: the seed's (one, or more from 2**32 on),
    # the tag's CRC, then one word per index.
    head = [seed & _MASK32]
    while seed >> 32:
        seed >>= 32
        head.append(seed & _MASK32)
    head.append(zlib.crc32(tag.encode()))
    index = np.indices(streams).reshape(len(streams), math.prod(streams))
    entropy = np.empty((len(head) + len(index), index.shape[1]), np.uint32)
    entropy[:len(head)] = np.array(head, np.uint32)[:, None]
    entropy[len(head):] = index
    uniforms = np.empty((index.shape[1], n_uniform))
    normals = np.empty((index.shape[1], n_normal))
    bit_generator = np.random.PCG64(0)
    rng = np.random.Generator(bit_generator)
    for u, z, (s0, s1, q0, q1) in zip(uniforms, normals, _pcg64_seeds(entropy).tolist()):
        # pcg64_set_seed: initstate s0:s1, initseq q0:q1 (high:low), two LCG steps.
        inc = ((q0 << 64 | q1) << 1 | 1) & _MASK128
        state = ((inc + (s0 << 64 | s1)) * _PCG64_MULT + inc) & _MASK128
        bit_generator.state = {"bit_generator": "PCG64",
                               "state": {"state": state, "inc": inc},
                               "has_uint32": 0, "uinteger": 0}
        rng.random(out=u)
        if n_normal:
            rng.standard_normal(out=z)
    return uniforms.reshape(shape), normals.reshape(*streams, n_normal)


def cap_half_angle(altitude_m: float, beamwidth_rad: float) -> float:
    """Earth-central half-angle of the spherical cap covered by the beam: the
    surface ring where the off-boresight angle from a nadir-pointed satellite
    equals half the beamwidth, or the horizon ring when the beam overfills
    the Earth's disc."""
    r_sat = EARTH_RADIUS_M + altitude_m
    half_beam = beamwidth_rad / 2.0
    if half_beam >= math.asin(EARTH_RADIUS_M / r_sat):
        return math.acos(EARTH_RADIUS_M / r_sat)
    # Law of sines in the (Earth center, satellite, ring point) triangle: the
    # angle at the near ring point is pi - asin((r_sat/R) sin(half_beam)),
    # and the three angles sum to pi.
    return math.asin(r_sat / EARTH_RADIUS_M * math.sin(half_beam)) - half_beam


def drop_ues(config: ScenarioConfig) -> tuple[np.ndarray, np.ndarray]:
    """(D,) latitudes and longitudes of ground UE positions uniform by area
    over the beam's spherical cap about the coverage center, seen from the
    nadir-pointed satellite at `leo_altitude_m` above it (the serving
    satellite at t = 0). Drop i only consumes substream (seed, "ue-drop", i):
    its central angle's cosine, then its bearing (clockwise from north)."""
    lat0 = math.radians(config.center_lat_deg)
    lon0 = wrap_longitude(math.radians(config.center_lon_deg))
    cos_min = math.cos(cap_half_angle(config.leo_altitude_m,
                                      math.radians(config.link.beamwidth_deg)))
    draws, _ = substream_draws(config.seed, "ue-drop", (config.n_ue_drops, 2))
    psi = np.arccos(np.minimum(1.0, cos_min + (1.0 - cos_min) * draws[:, 0]))
    bearing = 2.0 * math.pi * draws[:, 1]
    # The great-circle step from the center through psi along the bearing.
    sd, cd = np.sin(psi), np.cos(psi)
    s1, c1 = math.sin(lat0), math.cos(lat0)
    lat = np.arcsin(np.clip(s1 * cd + c1 * sd * np.cos(bearing), -1.0, 1.0))
    return lat, wrap_longitude(lon0 + np.arctan2(np.sin(bearing) * sd * c1,
                                                 cd - s1 * np.sin(lat)))


# ---------------------------------------------------------------------------
# Link realization


def _sight(lat_rad, lon_rad, anchors: np.ndarray, beam_center: np.ndarray):
    """`line_of_sight` of the (D,) ground UEs and (..., 3) `anchors` on (..., D) arrays,
    its anchor - UE offsets turned into cosines off each beam's axis, anchor to `beam_center`."""
    *sight, (dx, dy, dz) = line_of_sight(lat_rad, lon_rad, 0.0, anchors[..., None, :])
    ax, ay, az = np.moveaxis(anchors - beam_center, -1, 0)[..., None]
    # np.sum's order, (p0 + p1) + p2, and the ranges keep the pinned bits
    return *sight, (ax * dx + ay * dy + az * dz) / (np.sqrt(ax * ax + ay * ay + az * az) * sight[0])


def _realize(config: ScenarioConfig, directions, ranges: np.ndarray, sin_el: np.ndarray,
             cos: np.ndarray, draws, penalty_db=0.0):
    """SNR in each of `directions`, (EIRP, G/T, processing gain) triples of
    `channel.link_snr` under the config's `LinkBudget`, on the links of
    `_sight`'s (..., D) `ranges`, elevation sines and off-boresight cosines
    that clear the horizon (sine > 0), flattened in their mask's C order, and
    that mask. `penalty_db` (scalar, or per anchor) is each link's neighbour
    penalty; every beam has the budget's pattern. One LOS/shadowing draw
    (`draws`) and one pattern gain govern every direction of a link
    (reciprocal large-scale channel); the penalty and draws broadcast against the mask."""
    budget = config.link
    visible = sin_el > 0
    elevation = np.arcsin(np.minimum(sin_el[visible], 1.0))
    off_boresight = np.arccos(np.clip(cos[visible], -1.0, 1.0))
    z_los, z_shadow = (np.broadcast_to(z, visible.shape)[visible] for z in draws)
    if config.los_only:
        los = np.ones(elevation.shape, dtype=bool)
    else:
        los = z_los < channel.los_probability(config.scenario_class, elevation)
    sigma_sh, clutter = channel.shadowing_sigma(config.scenario_class, elevation, los)
    gain = channel.antenna_gain(math.radians(budget.beamwidth_deg), budget.antenna_model,
                                off_boresight)
    penalty = np.broadcast_to(penalty_db, visible.shape)[visible]
    return [channel.link_snr(budget, *d, ranges[visible], gain, z_shadow * sigma_sh, clutter,
                             penalty)
            for d in directions], visible


# ---------------------------------------------------------------------------
# Cases as sums of information blocks


@dataclass(frozen=True)
class Rtt:
    """Two-way ranges from the serving LEO at `n_virtual_anchors` virtual
    anchors spread over a window of `time_s`, with the link draws of `tag`."""

    time_s: float
    tag: str


@dataclass(frozen=True)
class Tdoa:
    """Downlink range differences over each drop's minimum-GDOP k-subset of
    the hexagonal grid's satellites above its horizon, the serving satellite
    as reference. A drop with fewer than k visible satellites is degenerate
    in every case that holds the block."""

    k: int


@dataclass(frozen=True)
class Gnss:
    """Range differences over n GNSS satellites drawn on each UE's sky above
    the elevation mask, the first one as reference."""

    n: int


def case_table(config: ScenarioConfig) -> dict[str, tuple[Rtt | Tdoa | Gnss, ...]]:
    """Case id -> its information blocks, in summation order (see the
    module docstring)."""
    times = config.measurement_times_s
    if config.variant in ("single-leo", "gnss-leo"):
        # Ids show times in `:g` form, so two times that print alike would merge.
        ids = [f"{config.variant.replace('-', '_')}_t{t:g}".replace(".", "p") for t in times]
        for i, case_id in enumerate(ids):
            if case_id in ids[:i]:
                raise ConfigError("measurement_times_s", f"two times name case {case_id!r}")
        if config.variant == "single-leo":
            return {c: (Rtt(t, "sl-link"),) for c, t in zip(ids, times)}
        return {c: (Gnss(2), Rtt(t, "gl-link")) for c, t in zip(ids, times)}
    if config.variant == "gnss-only":
        return {"gnss_only": (Gnss(3),)}
    ks = [config.n_active_satellites] if config.n_active_satellites is not None else [3, 4]
    flags = ([config.rtt_augmentation] if config.rtt_augmentation is not None
             else [False, True])
    rtt = Rtt(config.rtt_measurement_time_s, "ml-rtt")
    return {f"multi_leo_tdoa{k}" + ("_rtt" if r else ""): (Tdoa(k),) + ((rtt,) if r else ())
            for k in ks for r in flags}


def evaluate(config: ScenarioConfig, lat_rad: np.ndarray,
             lon_rad: np.ndarray) -> dict[str, tuple[np.ndarray, ...]]:
    """Case id -> (D,) bound, GDOP and degenerate flag of every case of the
    config for UEs at the (D,) ground positions `lat_rad`, `lon_rad`; bound
    and GDOP are NaN where the drop is degenerate. Row i takes drop i's
    draws (link, GNSS sky) of the config's seed, so a row's result depends
    only on the config and that row's position. The inputs are not
    modified."""
    cases = case_table(config)
    blocks = list(dict.fromkeys(b for bs in cases.values() for b in bs))
    budget, seed, n = config.link, config.seed, len(lat_rad)
    center = Geodetic(math.radians(config.center_lat_deg),
                      math.radians(config.center_lon_deg), 0.0)
    # Every beam points at the coverage center. A link direction is its
    # (EIRP, G/T, processing gain).
    beam_center = geodetic_to_ecef(center)
    dl = (budget.dl_eirp_dbw, budget.ue_g_over_t_db_k, budget.leo_dl_processing_gain_db)
    ul = (budget.ue_eirp_dbw, budget.sat_g_over_t_db_k, budget.leo_ul_processing_gain_db)
    gnss_snr = channel.cn0_to_snr(budget.gnss_cn0_dbhz, budget.gnss_bandwidth_hz,
                                  budget.gnss_processing_gain_db)
    gnss_sigma = toa_range_sigma(gnss_snr, budget.gnss_bandwidth_hz)
    info = {}

    # All RTT windows of a link-draw tag in one pass, on the tag's one set of
    # link draws: (D, M) LOS uniforms and (D, M) shadowing normals, shared by
    # the (M, W, 3) windows' virtual anchors, propagated in one call. One
    # (M, W, D) `_sight` pass feeds the link budget and the information;
    # hidden links keep a 1 m placeholder sigma, and a drop with a hidden
    # anchor is degenerate in the window.
    orbit = ground_track_orbit(center, config.leo_altitude_m)
    m = config.n_virtual_anchors
    windows = {}
    for b in blocks:
        if isinstance(b, Rtt):
            windows.setdefault(b.tag, []).append(b)
    for tag, rtts in windows.items():
        anchors = make_virtual_anchors(orbit, [b.time_s for b in rtts], m)
        ranges, east, north, sin_el, cos = _sight(lat_rad, lon_rad, anchors, beam_center)
        draws = (z.T[:, None] for z in substream_draws(seed, tag, (n, m), m))
        (dl_snr, ul_snr), visible = _realize(config, (dl, ul), ranges, sin_el, cos, draws)
        sigma = np.ones(visible.shape)
        sigma[visible] = rtt_range_sigma(toa_range_sigma(dl_snr, budget.bandwidth_hz),
                                         toa_range_sigma(ul_snr, budget.bandwidth_hz))
        del dl_snr, ul_snr  # kept, the SNRs would add to the subset search's memory peak
        variances = sigma**2
        info.update(zip(rtts, zip(zip(*information(east, north, variances)),
                                  np.swapaxes(variances, 0, 1), ~np.all(visible, axis=0))))

    # The (7, 3) hexagonal grid, serving satellite first: (7, D) downlink TOA
    # sigmas in one budget pass, where only the serving satellite runs the
    # nominal budget and every neighbour takes its penalty.
    if any(isinstance(b, Tdoa) for b in blocks):
        grid = hex_constellation(center, math.radians(config.lon_gap_deg),
                                 math.radians(config.lat_gap_deg), config.leo_altitude_m)
        ranges, east, north, sin_el, cos = _sight(lat_rad, lon_rad, grid, beam_center)
        draws = (z.T for z in substream_draws(seed, "ml-link", (n, len(grid)), len(grid)))
        penalty = np.full((len(grid), 1), budget.neighbor_penalty_db)
        penalty[0] = 0.0
        (snr,), visible = _realize(config, (dl,), ranges, sin_el, cos, draws, penalty)
        sigma = np.ones(visible.shape)
        sigma[visible] = toa_range_sigma(snr, budget.bandwidth_hz)
        del snr
        grid_links = (east, north, sigma, visible)
    for block in blocks:
        if isinstance(block, Tdoa):
            info[block] = _tdoa(block.k, *grid_links)
        elif isinstance(block, Gnss):
            info[block] = (*_gnss(config, block.n, n, gnss_sigma), np.zeros(n, dtype=bool))

    # Every case's summed information and mean variance, stacked to (C, D)
    # for one bound pass.
    abd, mean_variances, shorts = [], [], []
    for case_blocks in cases.values():
        entries, variances, short = zip(*(info[b] for b in case_blocks))
        abd.append([sum(x[1:], x[0]) for x in zip(*entries)])
        mean_variances.append(np.mean(np.concatenate(variances), axis=0))
        shorts.append(np.any(short, axis=0))
    peb_m, gdop, degenerate = peb_arrays(*np.stack(abd, axis=1), np.stack(mean_variances))
    degenerate |= np.stack(shorts)
    peb_m[degenerate] = gdop[degenerate] = np.nan
    return dict(zip(cases, zip(peb_m, gdop, degenerate)))


def _tdoa(k: int, east, north, sigma_dl, visible):
    """(a, b, d) of the grid TDOA information, (k-1, D) range-difference
    variances against the serving satellite (grid index 0, so first in
    every sorted subset), and the (D,) mask of drops with fewer than k
    visible satellites, from the grid's (7, D) arrays."""
    subsets = min_gdop_subsets(east, north, 0, k, visible).T
    east, north, sigma_dl, visible = (np.take_along_axis(x, subsets, axis=0)
                                      for x in (east, north, sigma_dl, visible))
    variances = sigma_dl**2
    return (information(east, north, variances, clock_bias=True),
            variances[1:] + variances[:1], ~np.all(visible, axis=0))


def _gnss(config: ScenarioConfig, n: int, n_drops: int, range_sigma: float):
    """(a, b, d) of the GNSS TDOA information and (n-1, D) range-difference
    variances of n satellite directions, each uniform by solid angle on its
    UE's sky cap above the elevation mask, with TOA range sigma
    `range_sigma`. A satellite enters the information only through the east
    and north parts of its direction, so the sky is drawn in the UE's own
    frame."""
    # Per satellite: an elevation term, then an azimuth uniform.
    draws, _ = substream_draws(config.seed, "gnss-pos", (n_drops, n, 2))
    cos_zmax = math.cos(math.pi / 2 - math.radians(config.gnss_elevation_mask_deg))
    sin_el = cos_zmax + (1.0 - cos_zmax) * draws[..., 0].T
    azimuth = 2.0 * math.pi * draws[..., 1].T
    cos_el = np.sqrt(np.maximum(0.0, 1.0 - sin_el**2))
    variances = np.full((n, 1), range_sigma) ** 2
    return (information(cos_el * np.sin(azimuth), cos_el * np.cos(azimuth), variances,
                        clock_bias=True),
            np.broadcast_to(variances[1:] + variances[:1], (n - 1, n_drops)))


def run(config: ScenarioConfig) -> RunBundle:
    """Evaluate every case of a scenario over all of its drops."""
    lat_rad, lon_rad = drop_ues(config)
    cases = evaluate(config, lat_rad, lon_rad)
    stats = {case_id: summarize(case_id, peb_m, degenerate)
             for case_id, (peb_m, _, degenerate) in cases.items()}
    return RunBundle(lat_rad, lon_rad, cases, stats)


def _linear_quantile(ordered: np.ndarray, q: float) -> float:
    """Quantile `q` of the sorted 1-D `ordered` by NumPy's "linear" method,
    with its arithmetic, so the bits equal `np.percentile(ordered, 100 * q)`
    (which would import `numpy.ma` on first use)."""
    virtual = (len(ordered) - 1) * q
    i = math.floor(virtual)
    t = virtual - i
    a = float(ordered[i])
    b = float(ordered[min(i + 1, len(ordered) - 1)])
    return b - (b - a) * (1 - t) if t >= 0.5 else a + (b - a) * t


def summarize(case_id: str, peb_m: np.ndarray, degenerate: np.ndarray) -> SummaryStats:
    """Tukey box-plot statistics of one case's (D,) bound and degenerate
    columns: quartiles by linear interpolation of order statistics, whiskers
    at the most extreme samples within 1.5*IQR of the quartiles, outliers
    beyond. Degenerate samples are counted separately."""
    values = peb_m[~degenerate]
    if values.size == 0:
        raise StatisticsError(f"case {case_id}: no non-degenerate samples")
    ordered = np.sort(values)  # NaN sorts last
    if not np.isfinite(ordered[[0, -1]]).all():
        raise StatisticsError(f"case {case_id}: a non-degenerate bound is not finite")
    q1, median, q3 = (_linear_quantile(ordered, q) for q in (0.25, 0.5, 0.75))
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
        degenerate_count=int(np.count_nonzero(degenerate)),
        n_samples=len(degenerate),
    )
