"""A smoke run of `scripts/bound_accuracy.py`, which reaches into
`satpeb.scenarios` by name."""

import importlib.util
from pathlib import Path

import numpy as np
import pytest

_SPEC = importlib.util.spec_from_file_location(
    "_bound_accuracy_script",
    Path(__file__).resolve().parents[1] / "scripts" / "bound_accuracy.py")
bound_accuracy = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bound_accuracy)


@pytest.mark.skipif(np.finfo(np.longdouble).eps >= np.finfo(float).eps,
                    reason="np.longdouble is no wider than float64 here")
def test_prints_one_row_per_variant(capsys):
    assert bound_accuracy.main(["--drops", "3", "--seeds", "0"]) == 0
    header, *rows = capsys.readouterr().out.splitlines()
    assert header.startswith("variant")
    assert [row.split()[:2] for row in rows] == [[v, "0"] for v in bound_accuracy.VARIANTS]
