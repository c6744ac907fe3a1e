"""Regression check of `run()` against outputs captured before the scenario
engine was rewritten as one block-sum evaluator.

Regenerate the golden file (only from a commit whose outputs are trusted):

    PYTHONPATH=src python -m tests.test_golden [VARIANT ...]

Named variants have their entries rewritten and every other entry keeps its
bytes; with no names, every entry is rewritten. Each rewritten entry prints
one line against the entry it replaces: the largest relative movement of the
bound and of GDOP, and how many degenerate flags and UE positions changed.
"""

import json
import math
import sys
from pathlib import Path

import pytest

from satpeb.config import make_config
from satpeb.scenarios import run

GOLDEN = Path(__file__).parent / "data" / "run_golden.json"
VARIANTS = ("single-leo", "multi-leo", "gnss-leo", "gnss-only")
SEEDS = (0, 3)
N_DROPS = 25
REL_TOL = 1e-12


def _nullable(column) -> list:
    """Column values with NaN (degenerate drops) written as None."""
    return [None if math.isnan(v) else v for v in column.tolist()]


def _snapshot(variant: str, seed: int) -> dict:
    bundle = run(make_config(variant, n_ue_drops=N_DROPS, seed=seed))
    ue = [[lat, lon, 0.0] for lat, lon in zip(bundle.lat_rad.tolist(), bundle.lon_rad.tolist())]
    return {
        "variant": variant,
        "seed": seed,
        "cases": {
            case_id: {
                "ue": ue,
                "peb_m": _nullable(peb_m),
                "gdop": _nullable(gdop),
                "degenerate": degenerate.tolist(),
            }
            for case_id, (peb_m, gdop, degenerate) in bundle.cases.items()
        },
    }


def _close(a, b) -> bool:
    if a is None or b is None:
        return a is None and b is None
    return math.isclose(a, b, rel_tol=REL_TOL, abs_tol=0.0)


@pytest.fixture(scope="module")
def golden():
    return {(g["variant"], g["seed"]): g for g in json.loads(GOLDEN.read_text())}


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("variant", VARIANTS)
def test_run_matches_golden(golden, variant, seed):
    expected = golden[(variant, seed)]
    actual = _snapshot(variant, seed)
    assert list(actual["cases"]) == list(expected["cases"])
    for case_id, want in expected["cases"].items():
        got = actual["cases"][case_id]
        assert got["ue"] == want["ue"], case_id
        assert got["degenerate"] == want["degenerate"], case_id
        for field in ("peb_m", "gdop"):
            bad = [i for i, (a, b) in enumerate(zip(got[field], want[field]))
                   if not _close(a, b)]
            assert not bad, f"{case_id} {field} differs at drops {bad}"


def movement(old: dict, new: dict) -> str:
    """How golden entry `new` moved against the entry `old` it replaces."""
    head = f"{new['variant']} seed {new['seed']}:"
    if list(old["cases"]) != list(new["cases"]):
        return f"{head} case ids {list(old['cases'])} -> {list(new['cases'])}"
    worst = {"peb_m": 0.0, "gdop": 0.0}
    flags = positions = 0
    for case_id, was in old["cases"].items():
        now = new["cases"][case_id]
        flags += sum(a != b for a, b in zip(was["degenerate"], now["degenerate"]))
        positions += (sum(a != b for a, b in zip(was["ue"], now["ue"]))
                      + abs(len(was["ue"]) - len(now["ue"])))
        for field in worst:
            worst[field] = max([worst[field]] + [abs(b - a) / abs(a) for a, b in zip(
                was[field], now[field]) if a is not None and b is not None])
    return (f"{head} largest relative move peb_m {worst['peb_m']:.3g}, "
            f"gdop {worst['gdop']:.3g}; {flags} degenerate flags and "
            f"{positions} UE positions changed")


def recapture(variants=VARIANTS, path: Path = GOLDEN) -> None:
    """Rewrite the entries of `variants` in the golden file at `path`,
    printing each one's `movement`. The file is one `json.dumps` line, whose
    floats round-trip, so re-dumping the other entries leaves their bytes as
    they were."""
    unknown = set(variants) - set(VARIANTS)
    if unknown:
        raise ValueError(f"unknown variants {sorted(unknown)}; expected some of {VARIANTS}")
    kept = ({(g["variant"], g["seed"]): g for g in json.loads(path.read_text())}
            if path.exists() else {})
    entries = []
    for v in VARIANTS:
        for s in SEEDS:
            if v not in variants:
                entries.append(kept[(v, s)])
                continue
            entries.append(_snapshot(v, s))
            print(movement(kept[(v, s)], entries[-1]) if (v, s) in kept
                  else f"{v} seed {s}: new entry")
    path.parent.mkdir(exist_ok=True)
    path.write_text(json.dumps(entries) + "\n")


def test_movement_reports_what_a_recapture_shifts():
    old = json.loads(GOLDEN.read_text())[0]
    new = json.loads(json.dumps(old))
    case = next(iter(new["cases"].values()))
    case["peb_m"][0] *= 1 + 2e-9
    case["degenerate"][1] = not case["degenerate"][1]
    case["ue"][2] = [0.0, 0.0, 0.0]
    assert movement(old, new) == (
        "single-leo seed 0: largest relative move peb_m 2e-09, gdop 0; "
        "1 degenerate flags and 1 UE positions changed")
    assert movement(old, old).endswith("peb_m 0, gdop 0; 0 degenerate flags and "
                                       "0 UE positions changed")


def test_recapture_rewrites_only_the_named_variants(tmp_path, monkeypatch, capsys):
    path = tmp_path / "golden.json"
    path.write_bytes(GOLDEN.read_bytes())
    recapture((), path)
    assert path.read_bytes() == GOLDEN.read_bytes()
    monkeypatch.setattr(sys.modules[__name__], "_snapshot",
                        lambda v, s: {"variant": v, "seed": s, "cases": {}})
    recapture(("gnss-only",), path)
    assert capsys.readouterr().out == "".join(
        f"gnss-only seed {s}: case ids ['gnss_only'] -> []\n" for s in SEEDS)
    before = json.loads(GOLDEN.read_text())
    after = json.loads(path.read_text())
    assert [(g["variant"], g["seed"]) for g in after] == [(g["variant"], g["seed"])
                                                         for g in before]
    for old, new in zip(before, after):
        assert new == (old if old["variant"] != "gnss-only" else {**old, "cases": {}})
    with pytest.raises(ValueError, match="gnss_only"):
        recapture(("gnss_only",), path)


if __name__ == "__main__":
    recapture(tuple(sys.argv[1:]) or VARIANTS)
