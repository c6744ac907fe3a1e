"""Output checks for benchmark commands, against golden fingerprints.

A scenario command's samples.csv is reduced to a fingerprint: the ordered
case ids, and per case the row count, the indices of degenerate rows and, for
each numeric column, fsum-exact sums (plain and row-index weighted, signed
and absolute) plus min and max. A later commit passes when the case ids and
degenerate rows are equal and every figure agrees to REL_TOL (ROADMAP item
2's tolerance) relative to its absolute counterpart. A validate command's
validation.json passes when its trial count is the one asked for, its RMSE/PEB
ratio lies in criterion 7's band and, against a golden fingerprint, `n_trials`
is equal and `peb_m`, `rmse_m` and `ratio` agree to REL_TOL. A seed with no
golden fingerprint is checked for invariants only.

Capture the fingerprints of the current code with
    PYTHONPATH=src python3 perfbench/golden.py --seeds 0-9
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import math
import shutil
from pathlib import Path

REL_TOL = 1e-12
RATIO_BAND = (0.95, 1.20)  # acceptance criterion 7: RMSE/PEB
HERE = Path(__file__).resolve().parent
GOLDEN_DIR = HERE / "golden"
NUMERIC = ("ue_lat_deg", "ue_lon_deg", "peb_m", "gdop")


def _column_stats(values: list[tuple[int, float]]) -> dict:
    if not values:
        return {}
    return {
        "n": len(values),
        "sum": math.fsum(v for _, v in values),
        "abs": math.fsum(abs(v) for _, v in values),
        "wsum": math.fsum((i + 1) * v for i, v in values),
        "wabs": math.fsum((i + 1) * abs(v) for i, v in values),
        "min": min(v for _, v in values),
        "max": max(v for _, v in values),
    }


def samples_fingerprint(path: Path) -> dict:
    raw = path.read_bytes()
    cases: dict[str, dict] = {}
    columns: dict[str, dict[str, list]] = {}
    for row in csv.DictReader(raw.decode().splitlines()):
        case = cases.setdefault(row["case_id"], {"rows": 0, "degenerate": []})
        cols = columns.setdefault(row["case_id"], {k: [] for k in NUMERIC})
        i = case["rows"]
        case["rows"] += 1
        if row["degenerate"] == "true":
            case["degenerate"].append(i)
        for key in NUMERIC:
            if row[key] != "":
                cols[key].append((i, float(row[key])))
    for case_id, case in cases.items():
        for key in NUMERIC:
            case[key] = _column_stats(columns[case_id][key])
    return {"sha256": hashlib.sha256(raw).hexdigest(), "cases": list(cases),
            "per_case": cases}


def validation_fingerprint(path: Path) -> dict:
    report = json.loads(path.read_text())
    return {key: report[key] for key in ("n_trials", "peb_m", "rmse_m", "ratio")}


def _close(value: float, golden: float, scale: float) -> bool:
    return abs(value - golden) <= REL_TOL * abs(scale)


def _compare_samples(fp: dict, golden: dict) -> list[str]:
    if fp["sha256"] == golden["sha256"]:
        return []
    if fp["cases"] != golden["cases"]:
        return [f"case ids changed: {fp['cases']} != {golden['cases']}"]
    problems = []
    for case_id in golden["cases"]:
        got, want = fp["per_case"][case_id], golden["per_case"][case_id]
        if got["rows"] != want["rows"] or got["degenerate"] != want["degenerate"]:
            problems.append(f"{case_id}: rows or degenerate flags changed")
            continue
        for key in NUMERIC:
            g, w = got[key], want[key]
            if g.keys() != w.keys():
                problems.append(f"{case_id}.{key}: missing values")
                continue
            if not w:
                continue
            span = max(abs(w["min"]), abs(w["max"]))
            scales = {"n": 0, "sum": w["abs"], "abs": w["abs"], "wsum": w["wabs"],
                      "wabs": w["wabs"], "min": span, "max": span}
            bad = [s for s, scale in scales.items() if not _close(g[s], w[s], scale)]
            if bad:
                problems.append(f"{case_id}.{key}: {', '.join(bad)} beyond {REL_TOL:g}")
    return problems


def _samples_invariants(fp: dict, rows: int, cases: int) -> list[str]:
    problems = []
    total = sum(c["rows"] for c in fp["per_case"].values())
    if total != rows or len(fp["cases"]) != cases:
        problems.append(f"{total} rows in {len(fp['cases'])} cases, "
                        f"expected {rows} in {cases}")
    for case_id, case in fp["per_case"].items():
        peb = case["peb_m"]
        if peb.get("n", 0) + len(case["degenerate"]) != case["rows"]:
            problems.append(f"{case_id}: PEB missing on a non-degenerate row")
        if peb and not (math.isfinite(peb["sum"]) and peb["min"] > 0):
            problems.append(f"{case_id}: PEB not finite and positive")
    return problems


def load_golden(workload: str, seed: int) -> dict | None:
    """The golden fingerprint of `workload` at `seed`, if one was captured."""
    path = GOLDEN_DIR / f"{workload}.json"
    return json.loads(path.read_text())["seeds"].get(str(seed)) if path.exists() else None


def _compare_validation(fp: dict, golden: dict) -> list[str]:
    if fp["n_trials"] != golden["n_trials"]:
        return [f"n_trials {fp['n_trials']} != golden {golden['n_trials']}"]
    return [f"{key} {fp[key]!r} != golden {golden[key]!r}"
            for key in ("peb_m", "rmse_m", "ratio")
            if not _close(fp[key], golden[key], golden[key])]


def check(out_dir: Path, rows: int | None, cases: int, want: dict | None,
          trials: int | None = None) -> list[str]:
    """Problems with the outputs of one command that exited 0; empty when it
    passed. `rows` is None for a validate command, which ran `trials` trials;
    `want` is the golden fingerprint or None."""
    problems = []
    try:
        manifest = json.loads((out_dir / "manifest.json").read_text())
        if manifest["errors"]:
            problems.append(f"manifest errors: {manifest['errors']}")
        if rows is None:
            fp = validation_fingerprint(out_dir / "validation.json")
            if fp["n_trials"] != trials:
                problems.append(f"{fp['n_trials']} trials, expected {trials}")
            if not RATIO_BAND[0] <= fp["ratio"] <= RATIO_BAND[1]:
                problems.append(f"RMSE/PEB {fp['ratio']:.4f} outside {RATIO_BAND}")
            if want:
                problems += _compare_validation(fp, want)
        else:
            fp = samples_fingerprint(out_dir / "samples.csv")
            problems += _samples_invariants(fp, rows, cases)
            if want:
                problems += _compare_samples(fp, want)
    except (OSError, ValueError, KeyError) as exc:
        problems.append(f"unreadable output: {exc!r}")
    return problems


def _seed_range(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def capture(seeds: list[int]) -> None:
    """Run every workload in-process at each seed and store fingerprints."""
    from satpeb import cli

    from workloads import WORKLOADS, generate

    GOLDEN_DIR.mkdir(exist_ok=True)
    for name in WORKLOADS:
        entries = {}
        for seed in seeds:
            work = HERE.parent / ".perfbench_work" / f"golden-{name}-{seed}"
            try:
                inputs = generate(name, seed, work)
                out = work / "out"
                status = cli.main(inputs.argv(out))
                problems = ([f"exit status {status}"] if status else
                            check(out, inputs.rows, inputs.cases, None, inputs.items))
                if problems:
                    raise SystemExit(f"{name} seed {seed}: {problems}")
                entries[str(seed)] = (validation_fingerprint(out / "validation.json")
                                      if inputs.rows is None
                                      else samples_fingerprint(out / "samples.csv"))
            finally:
                shutil.rmtree(work, ignore_errors=True)
            print(f"{name} seed {seed}: captured", flush=True)
        payload = {"rel_tol": REL_TOL, "seeds": entries}
        (GOLDEN_DIR / f"{name}.json").write_text(json.dumps(payload, sort_keys=True) + "\n")


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="0-9", help="seed range, e.g. 0-9")
    capture(_seed_range(parser.parse_args().seeds))
