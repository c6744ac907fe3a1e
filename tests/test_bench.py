"""The summary arithmetic of `scripts/bench.py`, on made-up timings."""

import importlib.util
from pathlib import Path

_SPEC = importlib.util.spec_from_file_location(
    "_bench_script", Path(__file__).resolve().parents[1] / "scripts" / "bench.py")
bench = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench)


def _round(seconds):
    """One round's in-process results of the `validate` command alone."""
    return {"validate": {"argv": ["validate"], "items": 2000, "cases": 1,
                         "seconds": seconds}}


def test_summary_reports_quartiles_around_the_median():
    entry = bench._summary("validate", [_round([1.0, 2.0, 3.0]), _round([4.0, 5.0, 6.0])],
                           [(1.0, 30.0), (3.0, 40.0)])
    in_process, fresh = entry["in_process"], entry["fresh"]
    assert (in_process["q1_s"], in_process["median_s"], in_process["q3_s"]) == (2.25, 3.5, 4.75)
    assert (fresh["q1_s"], fresh["median_s"], fresh["q3_s"]) == (1.5, 2.0, 2.5)


def test_round_wins_count_rounds_the_second_tree_won():
    # round medians: 2 against 1 (won), 2 against 2 (tie), 5 against 6 (lost)
    first = [_round([1.0, 2.0, 3.0]), _round([2.0, 2.0, 2.0]), _round([5.0, 5.0, 5.0])]
    second = [_round([0.5, 1.0, 9.0]), _round([2.0, 1.0, 3.0]), _round([6.0, 6.0, 6.0])]
    assert bench._round_wins(first, second) == {"validate": {"wins": 1, "rounds": 3}}
