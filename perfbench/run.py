"""satpeb benchmark: drives the unmodified CLI from outside.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. With `--trace 0` it reports the end-to-end
metrics: set-up time of fresh interpreters, wall time of fresh `python -m
satpeb.cli` processes with the peak RSS of their process tree, and warmed
in-process throughput of `satpeb.cli.main(argv)`. With `--trace 1` it
alternates untraced and traced in-process commands and reports per-layer
metrics from spans around public functions of each satpeb module.

Every command's outputs are checked (see golden.py). Human-readable lines
go to stdout; the last stdout line is one JSON object with the keys
correct, attempted, failed and metrics. A copy with the environment is
written under .perfbench_work/results/.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import golden
import layers
from tracer import Tracer
from workloads import WORKLOADS, generate

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
SETUP_REPEATS = 5
# Warmed in-process commands per fresh command: a fresh command pays about
# 0.9 s of interpreter start and imports, so this gives the two end-to-end
# timings similar shares of the window.
IN_PROCESS_PER_FRESH = 2
# Allowed gap between the traced stage rollup and the measured wall time of
# the traced command: the root wrapper's own entry and exit lie outside spans.
ROLLUP_TOL_S = 0.005
DEADLINE_S = 170.0  # a run must end within 180 s; fresh commands are killed after this
PROBE = ("import json, sys\nfrom satpeb.cli import main\n"
         "sys.exit(max(main(a) for a in json.loads(sys.argv[1])))")


class Run:
    """State of one benchmark run: inputs, output checks and failure counts."""

    def __init__(self, workload: str, seed: int, seconds: float):
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.started = time.perf_counter()
        self.work = WORK / f"{workload}-{os.getpid()}"
        self.inputs = generate(workload, seed, self.work)
        self.golden = golden.load_golden(workload, seed)
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            [str(SRC)] + ([self.env["PYTHONPATH"]] if self.env.get("PYTHONPATH") else []))
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def record(self, status: int, out: Path | None, check: bool = True) -> bool:
        """Count one command and check its outputs when it ran at full size.
        True when it completed, so its timing counts even if outputs are wrong."""
        self.attempted += 1
        problems = [] if status == 0 else [f"exit status {status}"]
        if check and status == 0:
            problems = golden.check(out, self.inputs.rows, self.inputs.cases,
                                    self.golden, self.inputs.items)
        if problems:
            self.failed += 1
            self.problems.extend(problems[:3])
        return status == 0

    def out(self, name: str) -> Path:
        """An empty output directory for the next command, so that a command
        is never checked against files an earlier one left behind."""
        path = self.work / name
        shutil.rmtree(path, ignore_errors=True)
        return path

    def fresh(self, args: list[str]) -> tuple[float, float, int]:
        """Wall seconds, peak RSS (MB) of the process tree, exit status."""
        log = self.work / "stderr.log"
        with open(log, "ab") as err:
            t0 = time.perf_counter()
            proc = subprocess.Popen([sys.executable, *args], cwd=ROOT, env=self.env,
                                    stdout=subprocess.DEVNULL, stderr=err)
            left = max(1.0, DEADLINE_S - (t0 - self.started))
            killer = threading.Timer(left, proc.kill)
            killer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                killer.cancel()
            wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        return wall, usage.ru_maxrss / 1024.0, proc.returncode

    def in_process(self, argv: list[str], main=None) -> tuple[float, int]:
        """Wall seconds and exit status of `main(argv)` (default cli.main)."""
        if main is None:
            from satpeb.cli import main
        sink = io.StringIO()
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            t0 = time.perf_counter()
            try:
                status = main(argv)
            except Exception as exc:  # a crash is a failed command, not a benchmark error
                print(repr(exc), file=sys.__stderr__)
                status = -1
            return time.perf_counter() - t0, status

    def warm(self) -> None:
        for argv in self.inputs.probe:
            self.record(self.in_process(argv)[1], None, check=False)

    def window(self):
        """Yield once per loop iteration over the --seconds window: always
        once, then again while at least half an iteration's time is left, so
        a run measures about --seconds however long one iteration takes."""
        start = time.perf_counter()
        end = start + self.seconds
        yield
        while (now := time.perf_counter()) + (now - start) / 2 < end:
            start = now
            yield


def _median(values: list[float]) -> float:
    return statistics.median(values) if values else math.nan


def _tail(values: list[float]) -> str:
    """Highest percentile with at least ten samples beyond it, if any."""
    n = len(values)
    if n < 20:
        return f"median of {n}"
    p = math.floor(100 * (n - 10) / n)
    return f"median of {n}, p{p} {statistics.quantiles(values, n=100)[p - 1]:.4f}"


def timed_run(run: Run) -> tuple[dict, list[str]]:
    inputs = run.inputs
    setup = []
    for _ in range(SETUP_REPEATS):
        wall, _, status = run.fresh(["-c", PROBE, json.dumps(inputs.probe)])
        if run.record(status, None, check=False):
            setup.append(wall)
    run.warm()
    command, rss, rate = [], [], []
    for _ in run.window():
        out = run.out("fresh")
        wall, peak, status = run.fresh(["-m", "satpeb.cli", *inputs.argv(out)])
        if run.record(status, out):
            command.append(wall)
            rss.append(peak)
        for _ in range(IN_PROCESS_PER_FRESH):
            out = run.out("inproc")
            wall, status = run.in_process(inputs.argv(out))
            if run.record(status, out):
                rate.append(inputs.items / wall)
    metrics = {
        "command_s": (_median(command), "s"),
        "drops_per_s": (_median(rate), "1/s"),
        "peak_rss_mb": (_median(rss), "MB"),
        "setup_s": (_median(setup), "s"),
    }
    item = "trials" if inputs.rows is None else "drops"
    lines = [
        f"command_s    {metrics['command_s'][0]:.4f} s ({_tail(command)} fresh processes)",
        f"drops_per_s  {metrics['drops_per_s'][0]:.2f} 1/s ({item} per second, "
        f"{inputs.items} per command, {_tail(rate)} warmed in-process calls)",
        f"peak_rss_mb  {metrics['peak_rss_mb'][0]:.2f} MB ({_tail(rss)})",
        f"setup_s      {metrics['setup_s'][0]:.4f} s ({_tail(setup)} fresh 1-drop runs)",
    ]
    return metrics, lines


def traced_run(run: Run) -> tuple[dict, list[str]]:
    from satpeb import cli
    inputs = run.inputs
    tracer = Tracer(layers.PACKAGE)
    root = tracer.wrap(layers.ROOT, cli.main)
    run.warm()
    untraced, per_command, out_bytes = [], [], []
    mismatched = unaccounted = 0
    worst_gap = 0.0
    for _ in run.window():
        plain = run.out("untraced")
        wall, status = run.in_process(inputs.argv(plain))
        if run.record(status, plain):
            untraced.append(wall)

        traced = run.out("traced")
        tracer.reset()
        tracer.absent.clear()
        for target in layers.TARGETS:
            tracer.patch(target, layers.OBSERVERS.get(target))
        try:
            measured, status = run.in_process(inputs.argv(traced), root)
        finally:
            tracer.unpatch()
        if not run.record(status, traced):
            continue
        summary = tracer.summary(layers.STAGE_OF, "dispatch")
        per_command.append(layers.command_metrics(summary, tracer.counters))
        gap = abs(math.fsum(summary["stages"].values()) - measured)
        worst_gap = max(worst_gap, gap)
        if gap > ROLLUP_TOL_S:
            unaccounted += 1
        name = "validation.json" if inputs.rows is None else "samples.csv"
        if (plain / name).read_bytes() != (traced / name).read_bytes():
            mismatched += 1
        out_bytes.append(sum(p.stat().st_size for p in traced.iterdir() if p.is_file()))
    _write_spans(tracer, WORK / "results" / f"{run.workload}-seed{run.seed}-spans.csv")
    run.failed += mismatched + unaccounted
    if mismatched:
        run.problems.append(f"traced {name} differs from untraced in {mismatched} commands")
    if unaccounted:
        run.problems.append(f"stage rollup misses the traced wall time by more than "
                            f"{ROLLUP_TOL_S} s in {unaccounted} commands")

    metrics = {}
    units = layers.metric_units()
    for key in units:
        values = [m[key] for m in per_command if key in m]
        metrics[key] = (_median(values), units[key])
    metrics["cli.output_bytes"] = (_median(out_bytes), units["cli.output_bytes"])
    traced_wall = metrics["trace.wall_s"][0]
    metrics["trace.overhead_ratio"] = (traced_wall / _median(untraced) - 1.0, "ratio")
    stage_line = ", ".join(f"{s} {metrics[f'stage.{s}_s'][0]:.3f}" for s in layers.STAGES)
    lines = [
        f"traced {len(per_command)} commands, untraced {len(untraced)}; "
        f"traced wall {traced_wall:.4f} s, overhead "
        f"{metrics['trace.overhead_ratio'][0]:+.1%}",
        f"stages (s): {stage_line}; largest gap to measured wall {worst_gap * 1e3:.3f} ms",
        f"absent targets: {', '.join(tracer.absent) or 'none'}",
    ]
    return metrics, lines


def _write_spans(tracer: Tracer, path: Path) -> None:
    """Spans of the last traced command, one row each, parents by row index."""
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as fh:
        fh.write("name,parent,start_s,end_s\n")
        for nid, parent, t0, t1 in tracer.spans:
            fh.write(f"{tracer.names[nid]},{parent},{t0!r},{t1!r}\n")


def environment() -> dict:
    import numpy
    import scipy
    cpu = "unknown"
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    commit = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        with contextlib.suppress(OSError, subprocess.SubprocessError):
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, timeout=10,
                                    capture_output=True, text=True).stdout.strip()
    return {"nproc": os.cpu_count(), "cpu_model": cpu,
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "git_commit": commit,
            "loadavg_start": _loadavg()}


def _loadavg() -> str:
    try:
        return Path("/proc/loadavg").read_text().strip()
    except OSError:
        return "unknown"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "satpeb" / "cli.py").is_file():
        print(f"error: no satpeb sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import satpeb
    if Path(satpeb.__file__).resolve().parent != SRC / "satpeb":
        print(f"error: imported satpeb from {satpeb.__file__}, not {SRC}", file=sys.stderr)
        return 2

    env = environment()
    run = Run(args.workload, args.seed, args.seconds)
    try:
        metrics, lines = (traced_run if args.trace else timed_run)(run)
    finally:
        shutil.rmtree(run.work, ignore_errors=True)
    env["loadavg_end"] = _loadavg()
    if any(math.isnan(v) for v, _ in metrics.values()):
        print(f"error: no successful command to measure; {run.problems[:5]}", file=sys.stderr)
        return 1

    ratio = run.failed / run.attempted
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"failed_ratio {ratio:.4f} ({run.failed}/{run.attempted} commands)")
    for line in lines + [f"problem: {p}" for p in run.problems]:
        print("  " + line)
    print("env " + json.dumps(env, sort_keys=True))
    result = {
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    results = WORK / "results"
    results.mkdir(parents=True, exist_ok=True)
    (results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps({"env": env, "summary": lines, "problems": run.problems, **result},
                   indent=2) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
