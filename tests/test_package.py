import importlib.util
import inspect
import json
import os
import re
import subprocess
import sys
import types
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


def _readme_section(title: str) -> str:
    text = (SRC.parent / "README.md").read_text(encoding="utf-8")
    return text.split(f"\n## {title}\n", 1)[1].split("\n## ", 1)[0]


def test_readme_python_api_names_the_exports():
    # Every export is named in code form, and every type named there in
    # code form is one the package has: a removed type cannot linger.
    section = _readme_section("Python API")
    unnamed = [name for name in satpeb.__all__
               if not re.search(rf"`{re.escape(name)}[`(]", section)]
    assert not unnamed
    code = " ".join(re.findall(r"`([^`]*)`", section))
    types_named = set(re.findall(r"(?<![\w.])[A-Z][a-z0-9]\w*", code))
    assert types_named and not {t for t in types_named if not hasattr(satpeb, t)}
    for dotted in set(re.findall(r"\bsatpeb(?:\.\w+)+", code)):  # a name or a module
        module, _, attr = dotted.rpartition(".")
        assert hasattr(importlib.import_module(module), attr) or importlib.import_module(dotted)


# `perfbench/layers.py` targets whose functions this package deleted, with
# no command calling them; the benchmark records each as absent, 0 calls.
_DELETED_LAYERS = ("fisher.best_subset_indices", "fisher.MeasurementSet", "fisher.jacobian",
                   "fisher.fim", "fisher.peb", "fisher.tdoa_covariance",
                   "geometry.ecef_to_geodetic", "geometry.enu_basis",
                   "geometry.destination_point", "estimator.solve",
                   "estimator.simulate_measurements")


def test_benchmark_traced_layers_resolve():
    # The benchmark wraps each `perfbench/layers.py` target by name; a live
    # layer renamed away would leave it silently untraced.
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
    assert tuple(missing) == _DELETED_LAYERS


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


# Runs every command once, small, in a fresh interpreter under a profile hook
# set before the package is imported, and reports each command's exit status
# and the (file, qualified name) of every function that ran.
_REACH = """
import json, sys
codes = set()
def hook(frame, event, arg):
    if event == "call":
        codes.add(frame.f_code)
sys.setprofile(hook)
from satpeb.cli import main
statuses = [main(argv) for argv in json.loads(sys.argv[1])]
sys.setprofile(None)
print(json.dumps([statuses, sorted({(c.co_filename, c.co_qualname) for c in codes})]))
"""

# Functions of the package that no command runs, each kept for a stated
# reason. Anything else unreached is a second path no output depends on.
_UNREACHED = {
    # Past the Airy main lobe of the aperture pattern; no drop's off-axis
    # angle gets that far.
    "channel._miller_j1",
    # Criterion 9's orbital-speed spot check.
    "geometry.OrbitSpec.speed",
    # The oracle of the off-boresight tests.
    "geometry.angle_between",
    # The oracle that `substream_draws` reproduces, until the one-stream redraw.
    "scenarios.substream",
}


def _package_functions() -> set[str]:
    """"module.qualname" of every named function and method in the package's
    source files, nested ones included."""
    names = set()
    for path in sorted((SRC / "satpeb").glob("*.py")):
        stack = [compile(path.read_text(), str(path), "exec")]
        while stack:
            code = stack.pop()
            stack += [c for c in code.co_consts if isinstance(c, types.CodeType)]
            if code.co_flags & inspect.CO_OPTIMIZED and "<" not in code.co_qualname:
                names.add(f"{path.stem}.{code.co_qualname}")
    return names


def test_every_function_is_reached_by_a_command(tmp_path):
    argv = []
    for variant in ("single-leo", "multi-leo", "gnss-leo", "gnss-only"):
        config = tmp_path / f"{variant}.json"
        config.write_text(json.dumps({"variant": variant, "n_ue_drops": 2}))
        command = "gnss-leo" if variant == "gnss-only" else variant
        argv += [[command, "--config", str(config), "--format", fmt,
                  "--out", str(tmp_path / f"{variant}-{fmt}")] for fmt in ("csv", "json")]
    refused = tmp_path / "refused.json"
    refused.write_text(json.dumps({"variant": "single-leo", "leo_altitude_m": "600e3"}))
    argv += [["validate", "--trials", "5", "--out", str(tmp_path / "validate")],
             ["reproduce-figures", "--seed", "3", "--out", str(tmp_path / "figures")],
             ["single-leo", "--config", str(refused), "--out", str(tmp_path / "refused")]]
    result = subprocess.run(
        [sys.executable, "-c", _REACH, json.dumps(argv)], capture_output=True, text=True,
        check=True, env={**os.environ, "PYTHONPATH": str(SRC)})
    statuses, reached = json.loads(result.stdout.splitlines()[-1])
    assert statuses == [0] * 10 + [2]
    package = SRC / "satpeb"
    ran = {f"{Path(file).stem}.{name}" for file, name in reached
           if Path(file).resolve().parent == package}
    assert _package_functions() - ran == _UNREACHED
