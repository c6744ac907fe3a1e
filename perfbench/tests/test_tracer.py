"""Tests of the benchmark's tracer and its layer table.

Run from the repository root:  python3 -m pytest -q perfbench/tests
"""

import json
from pathlib import Path

import pytest

import layers
import run as bench
from tracer import Tracer

from satpeb import cli, estimator, fisher, make_config, scenarios


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def test_self_time_of_nested_calls():
    clock = FakeClock()
    tracer = Tracer("satpeb", clock=clock)

    def leaf(dt):
        clock.now += dt

    leaf = tracer.wrap("m.leaf", leaf)

    def middle():
        clock.now += 1.0
        leaf(2.0)
        leaf(3.0)
        clock.now += 0.5

    middle = tracer.wrap("m.middle", middle)

    def outer():
        clock.now += 0.25
        middle()
        leaf(4.0)

    outer = tracer.wrap("root", outer)
    outer()
    s = tracer.summary({"m.middle": "select", "m.leaf": "fim"}, "dispatch")
    assert s["calls"] == {"root": 1, "m.middle": 1, "m.leaf": 3}
    assert s["total_s"] == {"root": 10.75, "m.middle": 6.5, "m.leaf": 9.0}
    assert s["self_s"] == {"root": 0.25, "m.middle": 1.5, "m.leaf": 9.0}
    # leaves under middle count as select; the leaf called from root keeps fim.
    assert s["stages"] == {"dispatch": 0.25, "select": 6.5, "fim": 4.0}
    assert s["wall_s"] == 10.75


def test_exception_still_closes_span():
    clock = FakeClock()
    tracer = Tracer("satpeb", clock=clock)

    def boom():
        clock.now += 1.0
        raise ValueError("x")

    boom = tracer.wrap("m.boom", boom)
    with pytest.raises(ValueError):
        boom()
    assert tracer.summary({}, "dispatch")["self_s"] == {"m.boom": 1.0}
    assert tracer._stack == []


def test_patch_reaches_from_imports_and_unpatch_restores():
    original = fisher.jacobian
    assert scenarios.jacobian is original and estimator.fisher_jacobian is original
    init = fisher.MeasurementSet.__init__
    tracer = Tracer("satpeb")
    assert tracer.patch("fisher.jacobian")
    assert tracer.patch("fisher.MeasurementSet")
    try:
        assert fisher.jacobian is not original
        assert scenarios.jacobian is fisher.jacobian
        assert estimator.fisher_jacobian is fisher.jacobian  # aliased import
        assert scenarios.MeasurementSet is fisher.MeasurementSet  # class kept
        scenarios.run(make_config("multi-leo", n_ue_drops=2))
        calls = tracer.summary({}, "dispatch")["calls"]
        assert calls["fisher.jacobian"] > 0
        assert calls["fisher.MeasurementSet"] > 0
    finally:
        tracer.unpatch()
    assert fisher.jacobian is original and scenarios.jacobian is original
    assert estimator.fisher_jacobian is original
    assert fisher.MeasurementSet.__init__ is init


def test_missing_target_is_reported_absent():
    tracer = Tracer("satpeb")
    assert not tracer.patch("fisher.no_such_function")
    assert not tracer.patch("no_such_module.run")
    assert tracer.absent == ["fisher.no_such_function", "no_such_module.run"]
    assert tracer._restore == []


@pytest.mark.parametrize("command, streams", [("single-leo", 2), ("multi-leo", 3)])
def test_traced_samples_match_untraced(tmp_path, command, streams):
    config = tmp_path / "c.json"
    config.write_text(json.dumps({"variant": command, "n_ue_drops": 12, "seed": 5}))
    argv = [command, "--config", str(config), "--out"]
    assert cli.main(argv + [str(tmp_path / "plain")]) == 0
    tracer = Tracer(layers.PACKAGE)
    for target in layers.TARGETS:
        tracer.patch(target, layers.OBSERVERS.get(target))
    try:
        status = tracer.wrap(layers.ROOT, cli.main)(argv + [str(tmp_path / "traced")])
    finally:
        tracer.unpatch()
    assert status == 0 and tracer.absent == []
    plain = (tmp_path / "plain" / "samples.csv").read_bytes()
    assert plain == (tmp_path / "traced" / "samples.csv").read_bytes()
    summary = tracer.summary(layers.STAGE_OF, "dispatch")
    # one drop stream plus one or two link streams per drop
    assert summary["calls"]["scenarios.substream"] == streams * 12
    assert sum(summary["stages"].values()) == pytest.approx(summary["wall_s"], rel=1e-9)


def test_benchmark_json_lists_every_metric():
    spec = json.loads((Path(bench.ROOT) / "BENCHMARK.json").read_text())
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    assert per_layer == layers.metric_units()
    from workloads import WORKLOADS
    assert {w["name"]: w["why"] for w in spec["workloads"]} == {
        name: w.why for name, w in WORKLOADS.items()}
