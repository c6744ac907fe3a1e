import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import satpeb

SRC = Path(satpeb.__file__).resolve().parents[1]

# Imports the CLI in a fresh interpreter, runs one command and reports its
# exit status and every loaded module of the scipy package and of numpy.ma
# (which `np.percentile` and `np.unique` import on first use).
_START_UP = """
import json, sys
from satpeb.cli import main
status = main(sys.argv[1:])
print(json.dumps([status, sorted(m for m in sys.modules if m.split(".")[0] == "scipy"),
                  sorted(m for m in sys.modules if m.split(".")[:2] == ["numpy", "ma"])]))
"""


def test_exports_resolve():
    missing = [name for name in satpeb.__all__ if not hasattr(satpeb, name)]
    assert not missing


def test_benchmark_traced_layers_resolve():
    # The benchmark wraps each `perfbench/layers.py` target by name; one that
    # is renamed or deleted away would leave its layer silently untraced.
    path = Path(__file__).resolve().parents[1] / "perfbench" / "layers.py"
    spec = importlib.util.spec_from_file_location("_perfbench_layers", path)
    layers = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(layers)
    assert layers.PACKAGE == "satpeb" and layers.TARGETS
    missing = []
    for target in layers.TARGETS:
        module_name, attr = target.rsplit(".", 1)
        module = importlib.import_module(f"satpeb.{module_name}")
        if not hasattr(module, attr):
            missing.append(target)
    assert not missing


def test_cli_start_up_imports_no_scipy(tmp_path):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"variant": "single-leo", "n_ue_drops": 1}))
    result = subprocess.run(
        [sys.executable, "-c", _START_UP, "single-leo", "--config", str(config),
         "--out", str(tmp_path / "out")],
        capture_output=True, text=True, check=True,
        env={**os.environ, "PYTHONPATH": str(SRC)})
    status, scipy_modules, masked_array_modules = json.loads(result.stdout.splitlines()[-1])
    assert status == 0
    assert scipy_modules == []
    assert masked_array_modules == []


# The scalar reference layer of `fisher`, kept as API and as the tests'
# oracle for the array kernels; no command may run through it.
_SCALAR_LAYER = ("MeasurementSet", "jacobian", "peb", "best_subset_indices",
                 "unit_sigma_gdop")


def test_commands_never_reach_the_scalar_layer(tmp_path, monkeypatch):
    from satpeb.cli import main

    def forbidden(*args, **kwargs):
        raise AssertionError("a command reached the scalar reference layer")

    for name, module in list(sys.modules.items()):
        if name == "satpeb" or name.startswith("satpeb."):
            for attr in _SCALAR_LAYER:
                if hasattr(module, attr):
                    monkeypatch.setattr(module, attr, forbidden)
    assert satpeb.fisher.peb is forbidden
    config = tmp_path / "multi.json"
    config.write_text(json.dumps({"variant": "multi-leo", "n_ue_drops": 2}))
    assert main(["validate", "--trials", "20", "--out", str(tmp_path / "v")]) == 0
    assert main(["multi-leo", "--config", str(config),
                 "--out", str(tmp_path / "m")]) == 0


def test_commands_build_no_covariance_fim(tmp_path, monkeypatch):
    # Every command's information comes from `fisher.fim_diagonal`; the LU
    # form `fim` stays only as the tests' oracle and the scalar layer's.
    from satpeb.cli import main

    def forbidden(*args, **kwargs):
        raise AssertionError("a command reached fisher.fim")

    for name, module in list(sys.modules.items()):
        if (name == "satpeb" or name.startswith("satpeb.")) and hasattr(module, "fim"):
            monkeypatch.setattr(module, "fim", forbidden)
    assert satpeb.fisher.fim is forbidden
    assert main(["validate", "--trials", "20", "--out", str(tmp_path / "v")]) == 0
    # gnss-only runs through the gnss-leo command, chosen by its config.
    for command, variant in (("multi-leo", "multi-leo"), ("gnss-leo", "gnss-leo"),
                             ("gnss-leo", "gnss-only")):
        config = tmp_path / f"{variant}.json"
        config.write_text(json.dumps({"variant": variant, "n_ue_drops": 3}))
        assert main([command, "--config", str(config),
                     "--out", str(tmp_path / variant)]) == 0
