#!/usr/bin/env python3
"""Wall time and peak RSS of satpeb's default commands, as one JSON file.

Each source tree given as `--tree LABEL=DIR` (DIR holds `src/satpeb`) is
measured in alternating rounds, so that a drift of the host's speed falls on
every tree alike:

* in process: each round starts a new worker interpreter per tree, in that
  round's order, which imports the tree's `satpeb.cli` and runs each
  command once to warm it. The round then times every command once on each
  tree, one command at a time, the trees taking turns and swapping which
  goes first every round, and stops its workers. A worker kept for the
  whole run would carry what is particular to its process (its address
  layout, where the host schedules it) into every round, where it does not
  cancel; new workers every round turn it into noise;
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
CPU count and the Python and NumPy versions. With two trees it also reports,
per command, the ratios of the second tree's in-process time to the first's
within each round: their median and quartiles, and the rounds the second
tree won. Two commands timed back to back see the same host speed, so the
paired ratio shows a change that unpaired medians, which drift apart
between trees by up to 20% on a shared host, hide.

    python scripts/bench.py --tree parent=PARENT_CHECKOUT --tree change=. \\
        --out BENCH_25.json
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


def worker(tree: Path) -> None:
    """Serve in-process commands from `tree`'s sources: each stdin line names
    a command, and each reply line is its JSON seconds, items and cases."""
    sys.path.insert(0, str(tree / "src"))
    from satpeb.cli import main

    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        argvs = commands(work)
        for line in sys.stdin:
            name = line.strip()
            out = work / name
            shutil.rmtree(out, ignore_errors=True)
            with contextlib.redirect_stdout(io.StringIO()):
                t0 = time.perf_counter()
                status = main([*argvs[name], "--out", str(out)])
                elapsed = time.perf_counter() - t0
            if status != 0:
                raise SystemExit(f"{name} exited {status} in process")
            items, cases = _size(out)
            print(json.dumps({"seconds": elapsed, "items": items, "cases": cases}), flush=True)


class _Worker:
    """A `worker` interpreter for one tree, kept for one round."""

    def __init__(self, tree: Path):
        self.tree = tree
        self.proc = subprocess.Popen([sys.executable, __file__, "--worker", str(tree)],
                                     stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)

    def run(self, name: str) -> dict:
        self.proc.stdin.write(name + "\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise SystemExit(f"the worker for {self.tree} stopped at {name}")
        return json.loads(line)

    def close(self) -> None:
        self.proc.stdin.close()
        self.proc.wait()


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


def _summary(name: str, command: dict, seconds: list[float],
             fresh: list[tuple[float, float]]) -> dict:
    """One tree's entry for command `name`: its argv, items and cases, and the
    quartiles of its in-process `seconds` and of its fresh runs' wall times,
    with the fresh runs' median peak RSS."""
    walls, peaks = [w for w, _ in fresh], [p for _, p in fresh]
    items, cases = command["items"], command["cases"]
    per_item = "us_per_trial" if name == "validate" else "us_per_drop"
    entry = dict(command)
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


def _paired(first: list[float], second: list[float]) -> dict:
    """The ratios second/first of in-process seconds timed in the same
    round: their median and quartiles, and the rounds in which the second
    tree was faster (ties count for neither)."""
    ratios = [b / a for a, b in zip(first, second)]
    q1, median, q3 = np.percentile(ratios, [25, 50, 75])
    return {"ratio_median": round(float(median), 4), "ratio_q1": round(float(q1), 4),
            "ratio_q3": round(float(q3), 4), "wins": sum(r < 1.0 for r in ratios),
            "rounds": len(ratios)}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--tree", action="append", default=[], metavar="LABEL=DIR",
                        help="a source tree to measure; repeat to compare trees")
    parser.add_argument("--rounds", type=int, default=15,
                        help="alternating rounds over the trees (default 15)")
    parser.add_argument("--out", default="BENCH.json", help="JSON file to write")
    parser.add_argument("--worker", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.worker:
        worker(Path(args.worker))
        return 0

    trees = dict(t.split("=", 1) for t in args.tree or ["change=."])
    trees = {label: Path(d).resolve() for label, d in trees.items()}
    for label, tree in trees.items():
        if not (tree / "src" / "satpeb" / "cli.py").is_file():
            parser.error(f"--tree {label}: no src/satpeb/cli.py under {tree}")
    labels = list(trees)
    in_process = {label: {} for label in trees}
    fresh = {label: {} for label in trees}
    sizes = {}
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        argvs = commands(work)
        for r in range(args.rounds):
            order = labels if r % 2 == 0 else labels[::-1]
            with contextlib.ExitStack() as stack:
                workers = {}
                for label in order:  # a new worker per tree, run once per command to warm it
                    workers[label] = stack.enter_context(
                        contextlib.closing(_Worker(trees[label])))
                    for name, argv in argvs.items():
                        warm = workers[label].run(name)
                        sizes[name] = {"argv": argv, "items": warm["items"],
                                       "cases": warm["cases"]}
                for name in argvs:
                    for label in order:
                        in_process[label].setdefault(name, []).append(
                            workers[label].run(name)["seconds"])
            for label in order:
                for name, cmd in argvs.items():
                    fresh[label].setdefault(name, []).append(
                        _fresh(trees[label], cmd, work / name))
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
        "trees": {
            label: {"commit": _commit(tree),
                    "commands": {name: _summary(name, sizes[name], in_process[label][name],
                                                fresh[label][name])
                                 for name in sizes}}
            for label, tree in trees.items()},
    }
    if len(trees) == 2:
        first, second = labels
        result["paired_in_process"] = {
            "tree": second, "against": first,
            "commands": {name: _paired(in_process[first][name], in_process[second][name])
                         for name in sizes}}
    Path(args.out).write_text(json.dumps(result, indent=2) + "\n")
    for label, tree_result in result["trees"].items():
        for name, entry in tree_result["commands"].items():
            print(f"{label:>8} {name:<11} in-process {entry['in_process']['median_s']:.4f} s"
                  f"  fresh {entry['fresh']['median_s']:.3f} s"
                  f"  {entry['fresh']['peak_rss_mb']:.1f} MB")
    if "paired_in_process" in result:
        paired = result["paired_in_process"]
        for name, p in paired["commands"].items():
            print(f"{name:<11} {paired['tree']}/{paired['against']} in process "
                  f"{p['ratio_median']:.3f} ({p['ratio_q1']:.3f}-{p['ratio_q3']:.3f}), "
                  f"{paired['tree']} faster in {p['wins']} of {p['rounds']} rounds")
    return 0


if __name__ == "__main__":
    sys.exit(main())
