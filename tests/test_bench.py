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
