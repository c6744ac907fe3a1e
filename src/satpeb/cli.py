"""Command-line interface: config ingestion, command dispatch, deterministic
execution, and result serialization.

Commands write four artifacts into the output directory: per-UE samples
(CSV or JSON), per-case summary statistics (JSON), box-plot rows (CSV), and a
run manifest recording the resolved configuration, calibration constants, and
table-asset checksums.

Every writer takes the list of runs, one per config, and writes their cases
in run order. Samples are written by column: each case's bound, GDOP and
degenerate columns become text as whole lists, each run's UE position text is
formatted once for all of its cases, and each case id is quoted once. There is
one row per case and drop: UE latitude and longitude in degrees,
case id, bound, GDOP and the degenerate flag, with no bound or GDOP where
degenerate. `samples.csv` holds the bytes of a row-by-row `csv.writer` (floats
in shortest round-trip form, empty cells for the missing bound and GDOP), and
`samples.json` the text of `json.dumps(rows, indent=2)` over one object per
row (`null` for the missing bound and GDOP).
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import functools
import hashlib
import io
import json
import math
import sys
import traceback
from datetime import datetime, timezone
from pathlib import Path

from . import __version__
from .channel import PINNED_TABLE_CHECKSUMS, table_checksums
from .config import (CALIBRATED_GNSS_PROCESSING_GAIN_DB,
                     CALIBRATED_LEO_DL_PROCESSING_GAIN_DB,
                     CALIBRATED_LEO_UL_PROCESSING_GAIN_DB, VARIANTS, ScenarioConfig,
                     check_seed, config_from_dict, config_to_dict, make_config, with_seed)
from .errors import ConfigError, SatPebError
from .estimator import MAX_TRIALS, validate
from .scenarios import RunBundle, run

SAMPLE_FIELDS = ("ue_lat_deg", "ue_lon_deg", "case_id", "peb_m", "gdop", "degenerate")
BOXPLOT_FIELDS = ("case_id", "mean", "median", "q1", "q3",
                  "whisker_lo", "whisker_hi", "n_outliers")


def parse_config(path: str | Path, default_variant: str | None = None) -> ScenarioConfig:
    """Load, validate, and default a JSON scenario config."""
    p = Path(path)
    if not p.exists():
        raise ConfigError("<config>", f"file not found: {p}")
    try:
        text = p.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:  # a directory, unreadable, or not UTF-8
        raise ConfigError("<config>", f"cannot read {p}: {exc}") from None
    try:
        raw = json.loads(text)
    except (json.JSONDecodeError, RecursionError) as exc:  # RecursionError: nested too deep
        raise ConfigError("<config>", f"malformed JSON: {exc}") from None
    return config_from_dict(raw, default_variant=default_variant)


def config_hash(resolved: dict) -> str:
    """sha256 of the canonical (key-sorted) form of a `config_to_dict`
    snapshot; stable under key reordering in the source file."""
    canonical = json.dumps(resolved, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()


def _csv_cell(text: str) -> str:
    """`text` quoted as csv.writer quotes it inside a samples.csv row."""
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerow([text, ""])
    return buf.getvalue()[:-2]  # the empty second cell's "," and the "\n"


def write_samples_csv(runs: list[RunBundle], path: Path) -> None:
    """The sample rows, floats in shortest round-trip form, built per case
    from whole columns; each run's positions are formatted once."""
    lines = [",".join(SAMPLE_FIELDS) + "\n"]
    for bundle in runs:
        positions = [f"{math.degrees(lat)!r},{math.degrees(lon)!r},"
                     for lat, lon in zip(bundle.lat_rad.tolist(), bundle.lon_rad.tolist())]
        for case_id, (peb_m, gdop, degenerate) in bundle.cases.items():
            cell = _csv_cell(case_id)
            lines += [f"{pos}{cell},,,true\n" if flag else
                      f"{pos}{cell},{p!r},{g!r},false\n"
                      for pos, p, g, flag in zip(positions, peb_m.tolist(), gdop.tolist(),
                                                 degenerate.tolist())]
    with open(path, "w", newline="") as fh:
        fh.writelines(lines)


def _json_numbers(values: list[float]) -> list[str]:
    """Each float of `values` as `json.dumps` writes it, from one call of
    the C encoder."""
    return json.dumps(values)[1:-1].split(", ") if values else []


def write_samples_json(runs: list[RunBundle], path: Path) -> None:
    """The sample rows as `json.dumps(rows, indent=2)` writes them, built per
    case from whole columns; each run's positions are formatted once, as in
    `write_samples_csv`."""
    rows = []
    for bundle in runs:
        positions = [
            f'  {{\n    "ue_lat_deg": {lat},\n    "ue_lon_deg": {lon},\n    "case_id": '
            for lat, lon in zip(
                _json_numbers([math.degrees(x) for x in bundle.lat_rad.tolist()]),
                _json_numbers([math.degrees(x) for x in bundle.lon_rad.tolist()]))]
        for case_id, (peb_m, gdop, degenerate) in bundle.cases.items():
            cell = json.dumps(case_id)
            rows += [f'{pos}{cell},\n    "peb_m": null,\n    "gdop": null,\n'
                     '    "degenerate": true\n  }' if flag else
                     f'{pos}{cell},\n    "peb_m": {p},\n    "gdop": {g},\n'
                     '    "degenerate": false\n  }'
                     for pos, p, g, flag in zip(positions, _json_numbers(peb_m.tolist()),
                                                _json_numbers(gdop.tolist()),
                                                degenerate.tolist())]
    path.write_text("[\n" + ",\n".join(rows) + "\n]\n" if rows else "[]\n")


def write_summary(runs: list[RunBundle], path: Path) -> None:
    # SummaryStats is flat: its fields are read as they stand, not deep-copied
    payload = {case_id: vars(stats) for bundle in runs for case_id, stats in bundle.stats.items()}
    path.write_text(json.dumps(payload, indent=2) + "\n")


def write_boxplot(runs: list[RunBundle], path: Path) -> None:
    # csv.writer writes a float as its repr, the shortest round-trip form
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(BOXPLOT_FIELDS)
        writer.writerows([case_id, s.mean, s.median, s.q1, s.q3, s.whisker_lo, s.whisker_hi,
                          s.outlier_count]
                         for bundle in runs for case_id, s in bundle.stats.items())


def emit_manifest(out_dir: Path, configs: list[ScenarioConfig], seed: int,
                  outputs: list[str], errors: list[str],
                  started: str, finished: str) -> None:
    checksums = table_checksums()
    warnings = [
        f"table asset {name} checksum mismatch (expected {expected})"
        for name, expected in PINNED_TABLE_CHECKSUMS.items()
        if checksums.get(name) != expected
    ]
    resolved = [config_to_dict(c) for c in configs]
    manifest = {
        "tool_version": __version__,
        "seed": seed,
        "started_utc": started,
        "finished_utc": finished,
        "config_hash": [config_hash(r) for r in resolved],
        "resolved_config": resolved,
        "calibration": {
            "leo_dl_processing_gain_db": CALIBRATED_LEO_DL_PROCESSING_GAIN_DB,
            "leo_ul_processing_gain_db": CALIBRATED_LEO_UL_PROCESSING_GAIN_DB,
            "gnss_processing_gain_db": CALIBRATED_GNSS_PROCESSING_GAIN_DB,
        },
        "table_checksums": checksums,
        "outputs": outputs,
        "warnings": warnings,
        "errors": errors,
    }
    (out_dir / "manifest.json").write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")


def _scenario_configs(command: str, args) -> list[ScenarioConfig]:
    variant = command
    if args.config:
        config = parse_config(args.config, default_variant=variant)
        if config.variant != variant and not (
                command == "gnss-leo" and config.variant == "gnss-only"):
            raise ConfigError("variant",
                              f"config variant {config.variant!r} does not match "
                              f"command {command!r}")
        configs = [config]
    else:
        configs = [make_config(variant)]
    if args.seed is not None:
        configs = [with_seed(c, args.seed) for c in configs]
    return configs


def _run_and_write(configs: list[ScenarioConfig], args, out_dir: Path) -> list[str]:
    runs = [run(c) for c in configs]
    outputs = []
    if args.format == "json":
        write_samples_json(runs, out_dir / "samples.json")
        outputs.append("samples.json")
    else:
        write_samples_csv(runs, out_dir / "samples.csv")
        outputs.append("samples.csv")
    write_summary(runs, out_dir / "summary.json")
    outputs.append("summary.json")
    write_boxplot(runs, out_dir / "boxplot.csv")
    outputs.append("boxplot.csv")
    return outputs


def _utcnow() -> str:
    return datetime.now(timezone.utc).isoformat()


def execute(args) -> int:
    out_dir = Path(args.out)
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        # Without an output directory there is nowhere to write a manifest.
        print(f"error: cannot create output directory: {exc}", file=sys.stderr)
        return 1
    started = _utcnow()
    outputs: list[str] = []
    errors: list[str] = []
    configs: list[ScenarioConfig] = []
    status = 0
    try:
        if args.command == "validate":
            if not 1 <= args.trials <= MAX_TRIALS:
                raise ConfigError("trials", f"must lie in [1, {MAX_TRIALS:,}]")
            report = validate(n_trials=args.trials, seed=check_seed(args.seed or 0))
            payload = dataclasses.asdict(report)
            (out_dir / "validation.json").write_text(json.dumps(payload, indent=2) + "\n")
            outputs.append("validation.json")
            print(f"validate: rmse={report.rmse_m:.3f} m peb={report.peb_m:.3f} m "
                  f"ratio={report.ratio:.3f} convergence={report.convergence_rate:.3f}")
        elif args.command == "reproduce-figures":
            seed = args.seed if args.seed is not None else 0
            configs = [with_seed(make_config(variant), seed) for variant in VARIANTS]
            outputs = _run_and_write(configs, args, out_dir)
        else:
            configs = _scenario_configs(args.command, args)
            outputs = _run_and_write(configs, args, out_dir)
    except Exception as exc:
        # Every failure ends in a manifest that records it; an unexpected
        # exception type also gets its traceback on stderr.
        if not isinstance(exc, (SatPebError, OSError, ValueError)):
            traceback.print_exc()
        errors.append(str(exc) or type(exc).__name__)
        print(f"error: {exc}", file=sys.stderr)
        status = 2 if isinstance(exc, ConfigError) else 1

    seed = args.seed if args.seed is not None else (configs[0].seed if configs else 0)
    emit_manifest(out_dir, configs, seed, outputs, errors, started, _utcnow())
    return status


@functools.cache  # built once per process; parsing leaves it unchanged
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="satpeb",
        description="Position error bounds for LEO/GNSS positioning scenarios.")
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--seed", type=int, default=None,
                        help="random seed (overrides the config)")
    common.add_argument("--out", default="out", help="output directory")
    common.add_argument("--workers", type=int, default=1,
                        help="accepted for compatibility; has no effect "
                             "(every run is one in-process pass)")
    # Only commands that write samples take --format, and only the variant
    # commands read a --config.
    samples = argparse.ArgumentParser(add_help=False, parents=[common])
    samples.add_argument("--format", choices=("csv", "json"), default="csv",
                         help="samples serialization format")
    variant = argparse.ArgumentParser(add_help=False, parents=[samples])
    variant.add_argument("--config", help="JSON scenario config file")
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("single-leo", parents=[variant],
                   help="single-LEO RTT sweep over measurement times")
    sub.add_parser("multi-leo", parents=[variant],
                   help="hexagonal LEO grid TDOA cases (3/4 active, +-RTT)")
    sub.add_parser("gnss-leo", parents=[variant],
                   help="2 GNSS + 1 LEO hybrid sweep (or gnss-only via config)")
    val = sub.add_parser("validate", parents=[common],
                         help="estimator bound-achievability check")
    val.add_argument("--trials", type=int, default=2000)
    sub.add_parser("reproduce-figures", parents=[samples],
                   help="run all scenario cases in one go")
    return parser


def main(argv=None) -> int:
    return execute(_build_parser().parse_args(argv))


if __name__ == "__main__":
    sys.exit(main())
