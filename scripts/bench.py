#!/usr/bin/env python3
"""Wall time and peak RSS of satpeb's default commands, as one JSON file.

Each source tree given as `--tree LABEL=DIR` (DIR holds `src/satpeb`) is
measured in alternating rounds, so that a drift of the host's speed falls on
every tree alike:

* in process: a worker interpreter imports the tree's `satpeb.cli`, runs each
  command once to warm it, then times `main(argv)` three times;
* fresh: each command as a new interpreter, started by a minimal launcher
  process that reports the command's wall time and peak RSS.

The launcher is there because a child's `ru_maxrss` starts at the peak
resident set of the process that spawned it (Linux keeps the old address
space's high-water mark at exec). Spawned straight from this script, a
command would report this script's peak when its own is lower.

The commands are the CLI defaults: `single-leo`, `multi-leo` and `gnss-leo`
at 1000 drops, `gnss-only` (the `gnss-leo` command on a config that names
that variant) at 1000 drops, and `validate` at 2000 trials. Each reports
median seconds with the quartiles around it, microseconds per drop (or
trial) and per case, and the fresh command's median peak RSS, next to the
CPU count and the Python and NumPy versions. With two trees it also counts,
per command, the rounds in which the second tree's in-process round median
beat the first's.

    python scripts/bench.py --tree parent=PARENT_CHECKOUT --tree change=. \\
        --out BENCH_12.json
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

INNER = 3  # timed in-process runs per command and round, after one warm run
# Started with (command argv...): runs it with stdout and stderr discarded and
# prints "wall_s ru_maxrss_kb exit_status". It imports only os, sys and time,
# so its own small peak is the floor the command's ru_maxrss starts from.
LAUNCHER = """\
import os, sys, time
null = [(os.POSIX_SPAWN_OPEN, fd, os.devnull, os.O_WRONLY, 0) for fd in (1, 2)]
t0 = time.perf_counter()
pid = os.posix_spawn(sys.argv[1], sys.argv[1:], os.environ, file_actions=null)
_, status, usage = os.wait4(pid, 0)
print(time.perf_counter() - t0, usage.ru_maxrss, os.waitstatus_to_exitcode(status))
"""


def commands(work: Path) -> dict[str, list[str]]:
    """Command name -> CLI argv (without --out) at the default size."""
    gnss_only = work / "gnss-only.json"
    gnss_only.write_text(json.dumps({"variant": "gnss-only"}))
    return {
        "single-leo": ["single-leo"],
        "multi-leo": ["multi-leo"],
        "gnss-leo": ["gnss-leo"],
        "gnss-only": ["gnss-leo", "--config", str(gnss_only)],
        "validate": ["validate"],
    }


def _size(out: Path) -> tuple[int, int]:
    """(items, cases) of a finished command from its outputs: drops and
    cases from summary.json, or trials and one case from validation.json."""
    if (out / "validation.json").is_file():
        return json.loads((out / "validation.json").read_text())["n_trials"], 1
    summary = json.loads((out / "summary.json").read_text())
    return next(iter(summary.values()))["n_samples"], len(summary)


def worker(tree: Path) -> dict:
    """In-process seconds of each command, run from `tree`'s sources."""
    sys.path.insert(0, str(tree / "src"))
    from satpeb.cli import main

    results = {}
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        for name, argv in commands(work).items():
            out = work / name
            seconds = []
            for i in range(INNER + 1):  # the first run warms
                shutil.rmtree(out, ignore_errors=True)
                with contextlib.redirect_stdout(io.StringIO()):
                    t0 = time.perf_counter()
                    status = main([*argv, "--out", str(out)])
                    elapsed = time.perf_counter() - t0
                if status != 0:
                    raise SystemExit(f"{name} exited {status} in process")
                if i:
                    seconds.append(elapsed)
            items, cases = _size(out)
            results[name] = {"argv": argv, "items": items, "cases": cases,
                             "seconds": seconds}
    return results


def _in_process(tree: Path) -> dict:
    proc = subprocess.run([sys.executable, __file__, "--worker", str(tree)],
                          check=True, capture_output=True, text=True)
    return json.loads(proc.stdout)


def _fresh(tree: Path, argv: list[str], out: Path) -> tuple[float, float]:
    """Wall seconds and peak RSS (MB) of one fresh command."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"))
    shutil.rmtree(out, ignore_errors=True)
    proc = subprocess.run(
        [sys.executable, "-c", LAUNCHER, sys.executable, "-m", "satpeb.cli", *argv,
         "--out", str(out)], env=env, check=True, capture_output=True, text=True)
    wall, maxrss_kb, status = proc.stdout.split()
    if int(status) != 0:
        raise SystemExit(f"{' '.join(argv)} exited {status} from {tree}")
    return float(wall), int(maxrss_kb) / 1024.0


def _commit(tree: Path) -> str | None:
    proc = subprocess.run(["git", "-C", str(tree), "describe", "--always", "--dirty"],
                          capture_output=True, text=True)
    return proc.stdout.strip() or None


def _summary(name: str, in_process: list[dict], fresh: list[tuple[float, float]]) -> dict:
    first = in_process[0][name]
    seconds = [s for r in in_process for s in r[name]["seconds"]]
    walls, peaks = [w for w, _ in fresh], [p for _, p in fresh]
    items, cases = first["items"], first["cases"]
    per_item = "us_per_trial" if name == "validate" else "us_per_drop"
    entry = {"argv": first["argv"], "items": items, "cases": cases}
    for mode, values in (("in_process", seconds), ("fresh", walls)):
        median = statistics.median(values)
        q1, q3 = np.percentile(values, [25, 75])
        entry[mode] = {"median_s": round(median, 6),
                       "q1_s": round(float(q1), 6), "q3_s": round(float(q3), 6),
                       per_item: round(median / items * 1e6, 3),
                       "us_per_case": round(median / (items * cases) * 1e6, 3),
                       "samples_s": [round(v, 6) for v in values]}
    entry["fresh"]["peak_rss_mb"] = round(statistics.median(peaks), 2)
    entry["fresh"]["peak_rss_mb_samples"] = [round(p, 2) for p in peaks]
    return entry


def _round_wins(first: list[dict], second: list[dict]) -> dict:
    """Command name -> rounds in which `second`'s median in-process time beat
    `first`'s, out of all rounds; ties count for neither."""
    return {name: {"wins": sum(statistics.median(b[name]["seconds"])
                               < statistics.median(a[name]["seconds"])
                               for a, b in zip(first, second)),
                   "rounds": len(first)}
            for name in first[0]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--tree", action="append", default=[], metavar="LABEL=DIR",
                        help="a source tree to measure; repeat to compare trees")
    parser.add_argument("--rounds", type=int, default=5,
                        help="alternating rounds over the trees (default 5)")
    parser.add_argument("--out", default="BENCH.json", help="JSON file to write")
    parser.add_argument("--worker", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.worker:
        print(json.dumps(worker(Path(args.worker))))
        return 0

    trees = dict(t.split("=", 1) for t in args.tree or ["change=."])
    trees = {label: Path(d).resolve() for label, d in trees.items()}
    for label, tree in trees.items():
        if not (tree / "src" / "satpeb" / "cli.py").is_file():
            parser.error(f"--tree {label}: no src/satpeb/cli.py under {tree}")
    in_process = {label: [] for label in trees}
    fresh = {label: {} for label in trees}
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        for r in range(args.rounds):
            for label, tree in trees.items():
                in_process[label].append(_in_process(tree))
                for name, cmd in commands(work).items():
                    fresh[label].setdefault(name, []).append(_fresh(tree, cmd, work / name))
            print(f"round {r + 1}/{args.rounds} done", file=sys.stderr)

    result = {
        "machine": {
            "cpu_count": os.cpu_count(),
            "cpus_usable": len(os.sched_getaffinity(0)),
            "python": platform.python_version(),
            "numpy": np.__version__,
            "platform": platform.platform(),
            "loadavg_end": os.getloadavg(),
        },
        "rounds": args.rounds,
        "inner": INNER,
        "trees": {
            label: {"commit": _commit(tree),
                    "commands": {name: _summary(name, in_process[label], fresh[label][name])
                                 for name in fresh[label]}}
            for label, tree in trees.items()},
    }
    if len(trees) == 2:
        first, second = trees
        result["in_process_round_wins"] = {
            "tree": second, "against": first,
            "commands": _round_wins(in_process[first], in_process[second])}
    Path(args.out).write_text(json.dumps(result, indent=2) + "\n")
    for label, tree_result in result["trees"].items():
        for name, entry in tree_result["commands"].items():
            print(f"{label:>8} {name:<11} in-process {entry['in_process']['median_s']:.4f} s"
                  f"  fresh {entry['fresh']['median_s']:.3f} s"
                  f"  {entry['fresh']['peak_rss_mb']:.1f} MB")
    if "in_process_round_wins" in result:
        wins = result["in_process_round_wins"]
        for name, count in wins["commands"].items():
            print(f"{wins['tree']} beat {wins['against']} on {name} in process in "
                  f"{count['wins']} of {count['rounds']} rounds")
    return 0


if __name__ == "__main__":
    sys.exit(main())
