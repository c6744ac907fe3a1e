import json
import math
import tempfile
from dataclasses import fields
from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from satpeb.cli import main
from satpeb.config import (ANTENNA_MODELS, SCENARIO_CLASSES, VARIANTS, LinkBudget,
                           ScenarioConfig, config_from_dict, config_to_dict, make_config)
from satpeb.errors import ConfigError
from satpeb.scenarios import run

_any_float = st.floats(allow_nan=False, allow_infinity=False)
_positive = st.floats(1e-3, 1e9)

# Valid values of every field but `variant`, `measurement_times_s` and
# `link`, whose valid values depend on the variant or on each other.
_FIELD_VALUES = {
    "leo_altitude_m": _positive,
    "gnss_altitude_m": _positive,
    "n_virtual_anchors": st.integers(2, 10**6),
    "n_active_satellites": st.sampled_from([None, 3, 4]),
    "rtt_augmentation": st.sampled_from([None, False, True]),
    "rtt_measurement_time_s": _positive,
    "n_ue_drops": st.integers(1, 10**9),
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
    # Hz (see `validate_config`); `_links` keeps each band within its carrier.
    **{f.name: st.floats(-300.0, 300.0) for f in fields(LinkBudget) if "_db" in f.name},
    **{f.name: st.floats(1e-3, 1e15) for f in fields(LinkBudget) if f.name.endswith("_hz")},
    "neighbor_penalty_db": st.floats(0.0, 100.0),
    "beamwidth_deg": st.floats(1e-3, 180.0, exclude_max=True),
    "antenna_model": st.sampled_from(ANTENNA_MODELS),
}


@st.composite
def _links(draw):
    values = draw(st.fixed_dictionaries({}, optional=_LINK_VALUES))
    # A band lies in [1e-3, 1e15] Hz and is no wider than its carrier.
    for carrier, bandwidth in (("carrier_hz", "bandwidth_hz"),
                               ("gnss_carrier_hz", "gnss_bandwidth_hz")):
        values[carrier] = draw(st.floats(1e-3, 1e15))
        values[bandwidth] = draw(st.floats(1e-3, values[carrier]))
    return LinkBudget(**values)


@st.composite
def _configs(draw):
    variant = draw(st.sampled_from(VARIANTS))
    overrides = draw(st.fixed_dictionaries({}, optional={**_FIELD_VALUES, "link": _links()}))
    if variant in ("single-leo", "gnss-leo") and draw(st.booleans()):
        overrides["measurement_times_s"] = tuple(draw(st.lists(_positive, min_size=1)))
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
])
def test_link_budget_out_of_float_range_names_the_field(raw, field):
    """A value that would take a link's linear SNR out of the float range is
    refused before the run, naming the field."""
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
