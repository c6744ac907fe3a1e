"""The layers the traced run measures: wrapped functions per satpeb module,
their ROADMAP stage, and the per-layer metrics derived from one traced
command."""

from __future__ import annotations

from collections import Counter

PACKAGE = "satpeb"
ROOT = "cli.main"  # the benchmark's own span around each traced command

TARGETS = (
    "scenarios.run", "scenarios.drop_ues", "scenarios.substream", "scenarios.summarize",
    "channel.link_snr", "channel.los_probability", "channel.shadowing_sigma",
    "channel.table_checksums",
    "fisher.best_subset_indices", "fisher.MeasurementSet", "fisher.jacobian", "fisher.fim",
    "fisher.peb", "fisher.tdoa_covariance", "fisher.toa_range_sigma",
    "fisher.rtt_range_sigma",
    "geometry.ecef_to_geodetic", "geometry.geodetic_to_ecef", "geometry.enu_basis",
    "geometry.angle_between", "geometry.destination_point",
    "estimator.solve", "estimator.simulate_measurements",
    "cli.write_samples_csv", "cli.write_summary", "cli.write_boxplot", "cli.emit_manifest",
)

# Targets that call other targets, so total time differs from self time.
NESTED = ("scenarios.run", "scenarios.drop_ues", "fisher.best_subset_indices",
          "fisher.jacobian", "estimator.solve", "estimator.simulate_measurements",
          "cli.emit_manifest")

# ROADMAP stages. A classified span claims its whole subtree, so everything
# under best_subset_indices is select. Spans outside any classified span
# (the root, scenarios.run, estimator, geometry called from the drop loop)
# count as dispatch.
STAGES = ("drops", "link", "select", "fim", "stats", "write", "dispatch")
STAGE_OF = {
    "scenarios.drop_ues": "drops",
    "channel.link_snr": "link",
    "channel.los_probability": "link",
    "channel.shadowing_sigma": "link",
    "fisher.toa_range_sigma": "link",
    "fisher.rtt_range_sigma": "link",
    "fisher.best_subset_indices": "select",
    "fisher.MeasurementSet": "fim",
    "fisher.jacobian": "fim",
    "fisher.fim": "fim",
    "fisher.peb": "fim",
    "fisher.tdoa_covariance": "fim",
    "scenarios.summarize": "stats",
    "cli.write_samples_csv": "write",
    "cli.write_summary": "write",
    "cli.write_boxplot": "write",
    "cli.emit_manifest": "write",
}


def _observe_peb(result, counters: Counter) -> None:
    counters["peb.results"] += 1
    counters["peb.degenerate"] += bool(getattr(result, "degenerate", False))


def _observe_solve(result, counters: Counter) -> None:
    counters["solve.results"] += 1
    counters["solve.iterations"] += getattr(result, "iterations", 0)
    counters["solve.converged"] += bool(getattr(result, "converged", False))


OBSERVERS = {"fisher.peb": _observe_peb, "estimator.solve": _observe_solve}

DERIVED = (
    ("scenarios.run.unattributed_s", "s"),
    ("fisher.peb.degenerate_ratio", "ratio"),
    ("estimator.solve.iterations", "count"),
    ("estimator.solve.converged_ratio", "ratio"),
    ("cli.output_bytes", "B"),
    ("trace.overhead_ratio", "ratio"),
    ("trace.wall_s", "s"),
)


def metric_units() -> dict[str, str]:
    """Every per-layer metric name with its unit, in report order."""
    units = {}
    for target in TARGETS:
        units[f"{target}.calls"] = "count"
        units[f"{target}.self_s"] = "s"
        if target in NESTED:
            units[f"{target}.total_s"] = "s"
    units.update(DERIVED)
    for stage in STAGES:
        units[f"stage.{stage}_s"] = "s"
    return units


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def command_metrics(summary: dict, counters: Counter) -> dict[str, float]:
    """Per-layer metrics of one traced command (output and overhead figures
    are added by the caller, which measures them)."""
    calls, self_s, total_s = summary["calls"], summary["self_s"], summary["total_s"]
    out = {}
    for target in TARGETS:
        out[f"{target}.calls"] = float(calls.get(target, 0))
        out[f"{target}.self_s"] = self_s.get(target, 0.0)
        if target in NESTED:
            out[f"{target}.total_s"] = total_s.get(target, 0.0)
    out["scenarios.run.unattributed_s"] = self_s.get("scenarios.run", 0.0)
    out["fisher.peb.degenerate_ratio"] = _ratio(counters["peb.degenerate"],
                                                counters["peb.results"])
    out["estimator.solve.iterations"] = _ratio(counters["solve.iterations"],
                                               counters["solve.results"])
    out["estimator.solve.converged_ratio"] = _ratio(counters["solve.converged"],
                                                    counters["solve.results"])
    out["trace.wall_s"] = summary["wall_s"]
    for stage in STAGES:
        out[f"stage.{stage}_s"] = summary["stages"].get(stage, 0.0)
    return out
