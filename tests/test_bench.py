"""The summary arithmetic of `scripts/bench.py`, on made-up timings."""

import importlib.util
from pathlib import Path

_SPEC = importlib.util.spec_from_file_location(
    "_bench_script", Path(__file__).resolve().parents[1] / "scripts" / "bench.py")
bench = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench)

# The `validate` command's argv and size, as a worker's warm run reports them.
_VALIDATE = {"argv": ["validate"], "items": 2000, "cases": 1}


def test_summary_reports_quartiles_around_the_median():
    entry = bench._summary("validate", _VALIDATE, [1.0, 2.0, 3.0, 4.0, 5.0, 6.0],
                           [(1.0, 30.0), (3.0, 40.0)])
    in_process, fresh = entry["in_process"], entry["fresh"]
    assert (in_process["q1_s"], in_process["median_s"], in_process["q3_s"]) == (2.25, 3.5, 4.75)
    assert in_process["us_per_trial"] == 1750.0
    assert (fresh["q1_s"], fresh["median_s"], fresh["q3_s"]) == (1.5, 2.0, 2.5)
    assert fresh["peak_rss_mb"] == 35.0


def test_round_wins_count_rounds_the_second_tree_won():
    # per round: 1 against 2 (won), 2 against 2 (tie), 6 against 5 (lost)
    paired = bench._paired([2.0, 2.0, 5.0], [1.0, 2.0, 6.0])
    assert (paired["wins"], paired["rounds"]) == (1, 3)


def test_paired_ratios_are_taken_within_rounds():
    # the host slows down round by round; the second tree runs 10% faster
    # than the first in four rounds and 5% slower in one, yet the unpaired
    # medians (3.0 against 3.15) would call it slower
    first = [1.0, 2.0, 3.0, 4.0, 5.0]
    second = [0.9, 1.8, 3.15, 3.6, 4.5]
    paired = bench._paired(first, second)
    assert (paired["ratio_q1"], paired["ratio_median"], paired["ratio_q3"]) == (0.9, 0.9, 0.9)
    assert (paired["wins"], paired["rounds"]) == (4, 5)
    reversed_order = bench._paired(second, first)
    assert reversed_order["ratio_median"] == round(1 / 0.9, 4)
    assert reversed_order["wins"] == 1


def test_every_round_times_a_new_warmed_worker_pair(tmp_path, monkeypatch):
    # Fake workers log their start, warm-up and timed runs; fake fresh runs
    # start nothing. Each round starts one worker per tree in its order,
    # warms it on every command, times it, and stops it.
    log, names = [], list(bench.commands(tmp_path))

    class Worker:
        def __init__(self, tree):
            self.tree, self.runs = tree.name, 0
            log.append(("start", self.tree))

        def run(self, name):
            self.runs += 1
            log.append(("warm" if self.runs <= len(names) else "time", self.tree, name))
            return {"seconds": 1.0, "items": 10, "cases": 1}

        def close(self):
            log.append(("stop", self.tree))

    monkeypatch.setattr(bench, "_Worker", Worker)
    monkeypatch.setattr(bench, "_fresh", lambda tree, argv, out: (1.0, 30.0))
    for label in ("a", "b"):
        (tmp_path / label / "src" / "satpeb").mkdir(parents=True)
        (tmp_path / label / "src" / "satpeb" / "cli.py").touch()
    bench.main(["--tree", f"a={tmp_path / 'a'}", "--tree", f"b={tmp_path / 'b'}",
                "--rounds", "3", "--out", str(tmp_path / "bench.json")])
    per_round = 4 * len(names) + 4  # two starts, two warm-ups, two timings, two stops
    assert len(log) == 3 * per_round
    for r, order in enumerate(["ab", "ba", "ab"]):
        steps = log[r * per_round:(r + 1) * per_round]
        warmed = [step for label in order for step in
                  [("start", label)] + [("warm", label, n) for n in names]]
        timed = [("time", label, n) for n in names for label in order]
        assert steps[:-2] == warmed + timed
        assert sorted(steps[-2:]) == [("stop", "a"), ("stop", "b")]
