import json
import math
import tempfile
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from satpeb.cli import main
from satpeb.config import (ANTENNA_MODELS, MAX_REALIZED_LINKS, MAX_UE_DROPS,
                           MAX_VIRTUAL_ANCHORS, SCENARIO_CLASSES, VARIANTS, LinkBudget,
                           ScenarioConfig, config_from_dict, config_to_dict, make_config)
from satpeb.errors import ConfigError
from satpeb.scenarios import run

_any_float = st.floats(allow_nan=False, allow_infinity=False)
_positive = st.floats(1e-3, 1e9)

# Valid values of every field but `variant`, `measurement_times_s` and
# `link`, whose valid values depend on the variant or on each other.
_FIELD_VALUES = {
    "leo_altitude_m": _positive,
    "n_virtual_anchors": st.integers(2, MAX_VIRTUAL_ANCHORS),
    "n_active_satellites": st.sampled_from([None, 3, 4]),
    "rtt_augmentation": st.sampled_from([None, False, True]),
    "rtt_measurement_time_s": _positive,
    "n_ue_drops": st.integers(1, MAX_UE_DROPS),
    "seed": st.integers(0, 2**64 - 1),
    "scenario_class": st.sampled_from(SCENARIO_CLASSES),
    "los_only": st.booleans(),
    "gnss_elevation_mask_deg": st.floats(0.0, 90.0, exclude_max=True),
    "center_lat_deg": st.floats(-90.0, 90.0),
    "center_lon_deg": _any_float,
    "lon_gap_deg": st.floats(1e-3, 180.0),
    "lat_gap_deg": st.floats(1e-3, 90.0),
}

_LINK_VALUES = {
    # Budget terms in dB lie within +-300 dB, frequencies within [1e-3, 1e15]
    # Hz (see `validate_config`); `_links` keeps the LEO band within its carrier.
    **{f.name: st.floats(-300.0, 300.0) for f in fields(LinkBudget) if "_db" in f.name},
    **{f.name: st.floats(1e-3, 1e15) for f in fields(LinkBudget) if f.name.endswith("_hz")},
    "neighbor_penalty_db": st.floats(0.0, 100.0),
    "beamwidth_deg": st.floats(1e-3, 180.0, exclude_max=True),
    "antenna_model": st.sampled_from(ANTENNA_MODELS),
}


@st.composite
def _links(draw):
    values = draw(st.fixed_dictionaries({}, optional=_LINK_VALUES))
    # The LEO band lies in [1e-3, 1e15] Hz and is no wider than its carrier.
    values["carrier_hz"] = draw(st.floats(1e-3, 1e15))
    values["bandwidth_hz"] = draw(st.floats(1e-3, values["carrier_hz"]))
    return LinkBudget(**values)


@st.composite
def _configs(draw):
    variant = draw(st.sampled_from(VARIANTS))
    overrides = draw(st.fixed_dictionaries({}, optional={**_FIELD_VALUES, "link": _links()}))
    if variant in ("single-leo", "gnss-leo") and draw(st.booleans()):
        overrides["measurement_times_s"] = tuple(draw(st.lists(_positive, min_size=1,
                                                               max_size=50)))
    # The run's realized links stay within their cap; 9 windows covers every
    # variant's default sweep.
    windows = len(overrides.get("measurement_times_s", ())) or 9
    max_drops = MAX_REALIZED_LINKS // (
        windows * overrides.get("n_virtual_anchors", ScenarioConfig.n_virtual_anchors))
    if overrides.get("n_ue_drops", ScenarioConfig.n_ue_drops) > max_drops:
        overrides["n_ue_drops"] = draw(st.integers(1, max_drops))
    if variant == "multi-leo":
        # The grid's side rows, center_lat_deg +- lat_gap_deg, stay on the sphere.
        assume(abs(math.radians(overrides.get("center_lat_deg", 0.0)))
               + math.radians(overrides.get("lat_gap_deg", ScenarioConfig.lat_gap_deg))
               <= math.pi / 2)
    return make_config(variant, **overrides)


_json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=5),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=5), inner,
                                                                max_size=3),
    max_leaves=6)


def test_value_strategies_cover_the_schema():
    assert set(_FIELD_VALUES) == {f.name for f in fields(ScenarioConfig)} - {
        "variant", "measurement_times_s", "link"}
    assert set(_LINK_VALUES) == {f.name for f in fields(LinkBudget)}


@settings(max_examples=300, deadline=None)
@given(_configs())
def test_resolved_config_rebuilds_an_equal_config(config):
    raw = json.loads(json.dumps(config_to_dict(config)))
    assert config_from_dict(raw) == config


_KEYS = [f.name for f in fields(ScenarioConfig)]
_LINK_KEYS = [f.name for f in fields(LinkBudget)]


@settings(max_examples=300, deadline=None)
@given(_configs(), st.sets(st.sampled_from(_KEYS), max_size=2),
       st.dictionaries(st.sampled_from(_KEYS), _json_values, max_size=3),
       st.dictionaries(st.sampled_from(_LINK_KEYS), _json_values, max_size=3),
       st.sampled_from(VARIANTS))
def test_any_json_under_schema_keys_is_a_config_or_config_error(config, dropped, top, link,
                                                               default_variant):
    """A valid config's file with some keys dropped and others set to
    arbitrary JSON values."""
    raw = json.loads(json.dumps(config_to_dict(config)))
    raw["link"].update(link)
    for key in dropped:
        del raw[key]
    raw.update(top)
    try:
        parsed = config_from_dict(raw, default_variant)
    except ConfigError:
        return
    assert isinstance(parsed, ScenarioConfig)


@settings(max_examples=100, deadline=None)
@given(_configs(), st.dictionaries(st.sampled_from(_KEYS), _json_values, max_size=2),
       st.dictionaries(st.sampled_from(_LINK_KEYS), _json_values, max_size=2))
def test_refused_config_file_exits_2_with_its_error_in_the_manifest(config, top, link):
    """The command half of the parse fuzz: a config file that the parser
    refuses makes the command exit 2 with that ConfigError as the manifest's
    only error. Accepted files are run by the next test."""
    raw = json.loads(json.dumps(config_to_dict(config)))
    raw["link"].update(link)
    raw.update(top)
    command = "gnss-leo" if config.variant == "gnss-only" else config.variant
    try:
        config_from_dict(raw, command)
    except ConfigError as exc:
        refused = str(exc)
    else:
        return
    with tempfile.TemporaryDirectory() as work:
        path, out = Path(work, "config.json"), Path(work, "out")
        path.write_text(json.dumps(raw))
        assert main([command, "--config", str(path), "--out", str(out)]) == 2
        assert json.loads((out / "manifest.json").read_text())["errors"] == [refused]


@settings(max_examples=100, deadline=None)
@given(_configs(), st.dictionaries(st.sampled_from(_KEYS), _json_values, max_size=1),
       st.dictionaries(st.sampled_from(_LINK_KEYS), st.floats(allow_nan=False), max_size=2),
       st.integers(1, 5), st.integers(2, 12))
def test_accepted_config_file_runs_to_a_manifest_without_errors(config, top, link, drops,
                                                                anchors):
    """The run half of the parse fuzz: a config file that the parser accepts,
    link-budget numbers of any magnitude included, runs to exit 0 with no
    error in the manifest. The designed exceptions: a case whose every drop
    is degenerate (exit 1, `StatisticsError`, common at so few drops), and
    measurement times that print alike and so name one case twice (exit 2,
    found when the case table is built). The drop and virtual-anchor counts
    are held small to keep each run cheap."""
    raw = json.loads(json.dumps(config_to_dict(config)))
    raw["link"].update(link)
    raw.update(top)
    raw["n_ue_drops"], raw["n_virtual_anchors"] = drops, anchors
    command = "gnss-leo" if config.variant == "gnss-only" else config.variant
    try:
        config_from_dict(raw, command)
    except ConfigError:
        return
    with tempfile.TemporaryDirectory() as work:
        path, out = Path(work, "config.json"), Path(work, "out")
        path.write_text(json.dumps(raw))
        status = main([command, "--config", str(path), "--out", str(out)])
        errors = json.loads((out / "manifest.json").read_text())["errors"]
    if status == 1:
        assert errors and all(e.endswith(": no non-degenerate samples") for e in errors)
    elif status == 2:
        assert len(errors) == 1 and errors[0].startswith("measurement_times_s: two times name")
    else:
        assert (status, errors) == (0, [])


@pytest.mark.parametrize("raw, field", [
    ({"variant": "single-leo", "link": {"ue_eirp_dbw": -1e6}}, "link.ue_eirp_dbw"),
    ({"variant": "single-leo", "link": {"ue_eirp_dbw": 1e6}}, "link.ue_eirp_dbw"),
    ({"variant": "gnss-only", "link": {"gnss_cn0_dbhz": -1e6}}, "link.gnss_cn0_dbhz"),
    ({"variant": "multi-leo", "link": {"bandwidth_hz": 1e-300}}, "link.bandwidth_hz"),
    ({"variant": "multi-leo", "leo_altitude_m": 1e200}, "leo_altitude_m"),
    ({"variant": "single-leo", "link": {"beamwidth_deg": 0}}, "link.beamwidth_deg"),
    ({"variant": "single-leo", "link": {"beamwidth_deg": 180}}, "link.beamwidth_deg"),
    ({"variant": "single-leo", "link": {"antenna_model": "dipole"}}, "link.antenna_model"),
    ({"variant": "multi-leo", "link": {"neighbor_penalty_db": -0.5}}, "link.neighbor_penalty_db"),
    ({"variant": "multi-leo", "link": {"carrier_hz": 5e6, "bandwidth_hz": 10e6}},
     "link.bandwidth_hz"),
])
def test_link_budget_out_of_float_range_names_the_field(raw, field):
    """A value that would take a link's linear SNR out of the float range, or
    a link-budget term out of its own range (beamwidth, antenna model,
    neighbour penalty, bandwidth above the carrier), is refused before the
    run, naming the field. `validate_config` is the only check on these
    values: the radio model reads the validated `LinkBudget` as it is."""
    with pytest.raises(ConfigError) as err:
        config_from_dict({"n_ue_drops": 2, **raw})
    assert err.value.field == field


@pytest.mark.parametrize("overrides, field", [
    ({"center_lat_deg": 83.2}, "center_lat_deg"),
    ({"center_lat_deg": -83.2}, "center_lat_deg"),
    ({"center_lat_deg": 89.5}, "center_lat_deg"),
    ({"center_lat_deg": -89.5}, "center_lat_deg"),
    ({"center_lat_deg": 40.0, "lat_gap_deg": 50.5}, "center_lat_deg"),
    ({"lat_gap_deg": 90.5}, "lat_gap_deg"),
])
def test_grid_side_rows_beyond_a_pole_name_the_field(overrides, field):
    with pytest.raises(ConfigError) as err:
        make_config("multi-leo", n_ue_drops=3, **overrides)
    assert err.value.field == field


@pytest.mark.parametrize("lat", [83.0, -83.0])
def test_grid_side_rows_just_short_of_a_pole_run(lat):
    """Side rows at +-89.9 degrees."""
    bundle = run(make_config("multi-leo", n_ue_drops=3, center_lat_deg=lat))
    assert len(bundle.cases) == 4


def test_side_rows_bound_only_the_grid_variant():
    make_config("single-leo", n_ue_drops=3, center_lat_deg=89.5)


def _cli_errors(raw: dict, tmp_path: Path) -> tuple[int, list[str]]:
    """Exit status and manifest errors of a single-leo command on config `raw`."""
    path, out = tmp_path / "config.json", tmp_path / "out"
    path.write_text(json.dumps(raw))
    status = main(["single-leo", "--config", str(path), "--out", str(out)])
    return status, json.loads((out / "manifest.json").read_text())["errors"]


@pytest.mark.parametrize("raw, key", [
    ({"gnss_altitude_m": 20200e3}, "gnss_altitude_m"),
    ({"link": {"gnss_carrier_hz": 1575.42e6}}, "link.gnss_carrier_hz"),
    ({"link": {"peak_gain_dbi": 30.0}}, "link.peak_gain_dbi"),
])
def test_removed_keys_exit_2_as_unknown(raw, key, tmp_path):
    """Keys that once existed but never reached an output are refused like
    any unknown key."""
    status, errors = _cli_errors({"variant": "gnss-only", "n_ue_drops": 2, **raw}, tmp_path)
    assert (status, errors) == (2, [f"{key}: unknown configuration key"])


def test_anchors_beyond_memory_refused_before_the_run(tmp_path):
    """10^8 virtual anchors would need tens of GB; validation names the field
    before anything is allocated."""
    status, errors = _cli_errors({"variant": "single-leo", "n_ue_drops": 2,
                                  "n_virtual_anchors": 100_000_000}, tmp_path)
    assert status == 2 and len(errors) == 1
    assert errors[0].startswith("n_virtual_anchors: ")


@pytest.mark.parametrize("overrides, field", [
    ({"n_ue_drops": MAX_UE_DROPS + 1}, "n_ue_drops"),
    ({"n_virtual_anchors": MAX_VIRTUAL_ANCHORS + 1}, "n_virtual_anchors"),
    ({"n_ue_drops": 2_000, "n_virtual_anchors": 1_000}, "n_ue_drops"),
])
def test_run_size_caps_name_the_field(overrides, field):
    with pytest.raises(ConfigError) as err:
        make_config("single-leo", **overrides)
    assert err.value.field == field


def test_run_size_caps_admit_the_tail_study_sizes():
    """64,000 drops of the default sweep (5.76M links), the largest run at
    each cap, and runs that realize no RTT link whatever their anchor count."""
    make_config("single-leo", n_ue_drops=64_000)
    make_config("gnss-only", n_ue_drops=MAX_UE_DROPS)
    make_config("gnss-only", n_ue_drops=20_000, n_virtual_anchors=1_000)
    make_config("multi-leo", n_ue_drops=20_000, n_virtual_anchors=1_000, rtt_augmentation=False)
    make_config("single-leo", n_ue_drops=MAX_REALIZED_LINKS // 90)
    make_config("single-leo", n_ue_drops=1, n_virtual_anchors=MAX_VIRTUAL_ANCHORS)


# Field -> (variant, changed value) for `test_every_field_reaches_an_output`:
# each change must show in the run of that variant at 20 drops.
_FIELD_CHANGES = {
    "variant": ("single-leo", "gnss-leo"),
    "leo_altitude_m": ("single-leo", 700e3),
    "measurement_times_s": ("single-leo", [3.5]),
    "n_virtual_anchors": ("single-leo", 5),
    "n_active_satellites": ("multi-leo", 3),
    "rtt_augmentation": ("multi-leo", True),
    "rtt_measurement_time_s": ("multi-leo", 5.0),
    "n_ue_drops": ("single-leo", 21),
    "seed": ("single-leo", 1),
    "scenario_class": ("single-leo", "urban"),
    "los_only": ("single-leo", True),
    "gnss_elevation_mask_deg": ("gnss-only", 10.0),
    "center_lat_deg": ("single-leo", 30.0),
    "center_lon_deg": ("single-leo", 30.0),
    "lon_gap_deg": ("multi-leo", 10.0),
    "lat_gap_deg": ("multi-leo", 5.0),
    "link": ("single-leo", {"ue_eirp_dbw": 0.0}),
    "link.carrier_hz": ("single-leo", 2.5e9),
    "link.bandwidth_hz": ("single-leo", 20e6),
    "link.eirp_density_dbw_mhz": ("single-leo", 40.0),
    "link.ue_g_over_t_db_k": ("single-leo", -20.0),
    "link.ue_eirp_dbw": ("single-leo", 0.0),
    "link.sat_g_over_t_db_k": ("single-leo", 5.0),
    "link.extra_losses_db": ("single-leo", 3.0),
    "link.neighbor_penalty_db": ("multi-leo", 0.0),
    "link.leo_dl_processing_gain_db": ("single-leo", 0.0),
    "link.leo_ul_processing_gain_db": ("single-leo", 10.0),
    "link.beamwidth_deg": ("single-leo", 3.0),
    "link.antenna_model": ("single-leo", "gaussian-approx"),
    "link.gnss_bandwidth_hz": ("gnss-only", 2e6),
    "link.gnss_cn0_dbhz": ("gnss-only", 40.0),
    "link.gnss_processing_gain_db": ("gnss-only", 50.0),
}


def _outputs(raw: dict) -> dict:
    bundle = run(config_from_dict(raw))
    return {case_id: (bundle.lat_rad, bundle.lon_rad, peb_m)
            for case_id, (peb_m, _, _) in bundle.cases.items()}


@pytest.mark.parametrize("path", [f.name for f in fields(ScenarioConfig)]
                         + [f"link.{f.name}" for f in fields(LinkBudget)])
def test_every_field_reaches_an_output(path):
    """A settable value that changes no case id, no UE position and no bound
    (beyond 1e-6 relative) is a knob that does nothing."""
    if path not in _FIELD_CHANGES:
        pytest.fail(f"{path} has no row in _FIELD_CHANGES")
    variant, value = _FIELD_CHANGES[path]
    base = {"variant": variant, "n_ue_drops": 20}
    key = path.removeprefix("link.")
    changed = {**base, "link": {key: value}} if key != path else {**base, key: value}
    before, after = _outputs(base), _outputs(changed)
    assert list(before) != list(after) or any(
        not (np.array_equal(lat0, lat1) and np.array_equal(lon0, lon1))
        or np.any(~np.isclose(peb1, peb0, rtol=1e-6, atol=0.0, equal_nan=True))
        for (lat0, lon0, peb0), (lat1, lon1, peb1) in zip(before.values(), after.values()))
