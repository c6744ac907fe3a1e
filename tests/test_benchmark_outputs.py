"""The benchmark's commands, each workload of `perfbench/workloads.py` at
seeds 0-9, run through `satpeb.cli.main` and checked against the golden
fingerprints of `perfbench/golden.py`: a change to the bits of a benchmarked
command fails here, not first in a benchmark run. Both modules are loaded
read-only from their files."""

import importlib.util
import sys
from pathlib import Path

import pytest

from satpeb import cli

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load(name: str):
    spec = importlib.util.spec_from_file_location(f"_perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up
    spec.loader.exec_module(module)
    return module


workloads, golden = _load("workloads"), _load("golden")


@pytest.mark.parametrize("seed", range(10))
@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_command_matches_its_golden_outputs(name, seed, tmp_path):
    want = golden.load_golden(name, seed)
    assert want is not None, f"no golden fingerprint of {name} at seed {seed}"
    inputs = workloads.generate(name, seed, tmp_path / "work")
    out = tmp_path / "out"
    assert cli.main(inputs.argv(out)) == 0
    assert golden.check(out, inputs.rows, inputs.cases, want, inputs.items) == []
