import csv
import json
import math

import numpy as np
import pytest

from satpeb import channel
from satpeb.cli import (SAMPLE_FIELDS, _build_parser, config_hash, main, parse_config,
                        write_samples_csv, write_samples_json, write_summary)
from satpeb.config import config_to_dict, make_config
from satpeb.errors import ConfigError
from satpeb.estimator import MAX_TRIALS
from satpeb.scenarios import RunBundle, run, summarize


def write_config(tmp_path, payload, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return path


def unreadable_config(tmp_path, kind):
    """A `--config` path that exists but holds no readable JSON text: a file
    that is not UTF-8, or a directory."""
    path = tmp_path / "config.json"
    if kind == "not-utf8":
        path.write_bytes(b'{"variant": "single-leo", "seed": "\xff"}')
    else:
        path.mkdir()
    return path


UNREADABLE = ["not-utf8", "directory"]


SMALL_RUN = {
    "variant": "single-leo",
    "n_ue_drops": 12,
    "measurement_times_s": [2.0, 5.0],
}


class TestParseConfig:
    def test_minimal_config_gets_defaults(self, tmp_path):
        cfg = parse_config(write_config(tmp_path, {"variant": "single-leo"}))
        assert cfg.leo_altitude_m == 600e3
        assert cfg.n_virtual_anchors == 10
        assert cfg.n_ue_drops == 1000
        assert cfg.seed == 0
        assert cfg.measurement_times_s == (2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0)

    def test_multi_leo_defaults(self, tmp_path):
        cfg = parse_config(write_config(tmp_path, {"variant": "multi-leo"}))
        assert cfg.leo_altitude_m == 780e3
        assert cfg.lon_gap_deg == 13.0

    def test_active_satellite_constraint(self, tmp_path):
        path = write_config(tmp_path, {"variant": "multi-leo",
                                       "n_active_satellites": 5})
        with pytest.raises(ConfigError) as err:
            parse_config(path)
        assert "n_active_satellites" in str(err.value)
        assert "3 or 4" in str(err.value)

    def test_unknown_key_named(self, tmp_path):
        path = write_config(tmp_path, {"variant": "single-leo", "altittude": 1.0})
        with pytest.raises(ConfigError) as err:
            parse_config(path)
        assert "altittude" in str(err.value)

    def test_unknown_variant_named(self, tmp_path):
        path = write_config(tmp_path, {"variant": "double-leo"})
        with pytest.raises(ConfigError) as err:
            parse_config(path)
        assert "variant" in str(err.value)
        assert "double-leo" in str(err.value)

    def test_unknown_link_key_named(self, tmp_path):
        path = write_config(tmp_path, {"variant": "single-leo",
                                       "link": {"eirp_dbw_typo": 3}})
        with pytest.raises(ConfigError) as err:
            parse_config(path)
        assert "link.eirp_dbw_typo" in str(err.value)

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError):
            parse_config(tmp_path / "nope.json")

    @pytest.mark.parametrize("kind", UNREADABLE)
    def test_unreadable_file_named(self, tmp_path, kind):
        with pytest.raises(ConfigError) as err:
            parse_config(unreadable_config(tmp_path, kind))
        assert err.value.field == "<config>"
        assert "cannot read" in str(err.value)

    def test_malformed_json(self, tmp_path):
        path = tmp_path / "bad.json"
        for text in ["{variant:", "[" * 100_000 + "]" * 100_000]:  # the second nests too deep
            path.write_text(text)
            with pytest.raises(ConfigError) as err:
                parse_config(path)
            assert "malformed" in str(err.value)

    def test_out_of_range_value(self, tmp_path):
        path = write_config(tmp_path, {"variant": "single-leo", "n_ue_drops": 0})
        with pytest.raises(ConfigError) as err:
            parse_config(path)
        assert "n_ue_drops" in str(err.value)

    @pytest.mark.parametrize("payload, field", [
        ({"variant": "multi-leo", "leo_altitude_m": math.nan}, "leo_altitude_m"),
        ({"variant": "single-leo", "center_lat_deg": math.inf}, "center_lat_deg"),
        ({"variant": "single-leo", "link": {"eirp_density_dbw_mhz": -math.inf}},
         "link.eirp_density_dbw_mhz"),
        ({"variant": "single-leo", "measurement_times_s": [2.0, math.nan]},
         "measurement_times_s"),
    ])
    def test_non_finite_number_named(self, tmp_path, payload, field):
        path = write_config(tmp_path, payload)
        assert "NaN" in path.read_text() or "Infinity" in path.read_text()
        with pytest.raises(ConfigError) as err:
            parse_config(path)
        assert err.value.field == field
        assert "finite" in str(err.value)

    @pytest.mark.parametrize("payload, field, message", [
        ({"n_ue_drops": 2.0}, "n_ue_drops", "must be an integer"),
        ({"seed": True}, "seed", "must be an integer"),
        ({"los_only": 1}, "los_only", "must be a boolean"),
        ({"scenario_class": None}, "scenario_class", "must be a string"),
        ({"variant": "multi-leo", "n_active_satellites": "3"}, "n_active_satellites",
         "must be an integer or null"),
        ({"variant": "multi-leo", "n_active_satellites": False}, "n_active_satellites",
         "must be an integer or null"),
        ({"variant": "multi-leo", "rtt_augmentation": 0}, "rtt_augmentation",
         "must be a boolean or null"),
        ({"measurement_times_s": 2.0}, "measurement_times_s", "must be a list of numbers"),
        ({"measurement_times_s": [2.0, "3"]}, "measurement_times_s", "must be a number"),
        ({"link": [34.0]}, "link", "must be an object"),
        ({"leo_altitude_m": "600e3"}, "leo_altitude_m", "must be a number"),
        ({"center_lon_deg": None}, "center_lon_deg", "must be a number"),
        ({"lon_gap_deg": False}, "lon_gap_deg", "must be a number"),
        ({"link": {"antenna_model": 1}}, "link.antenna_model", "must be a string"),
        ({"link": {"carrier_hz": "2e9"}}, "link.carrier_hz", "must be a number"),
        ({"link": {"sat_g_over_t_db_k": True}}, "link.sat_g_over_t_db_k", "must be a number"),
        ({"link": {"beamwidth_deg": None}}, "link.beamwidth_deg", "must be a number"),
        ({"variant": 5}, "variant",
         "unknown variant 5; expected one of "
         "('single-leo', 'multi-leo', 'gnss-leo', 'gnss-only')"),
    ])
    def test_wrong_type_named(self, tmp_path, payload, field, message):
        path = write_config(tmp_path, {"variant": "single-leo", **payload})
        with pytest.raises(ConfigError) as err:
            parse_config(path)
        assert err.value.field == field
        assert str(err.value) == f"{field}: {message}"

    @pytest.mark.parametrize("payload, field, message", [
        ([], "<root>", "config must be a JSON object"),
        ({"seed": 1}, "variant", "missing required key"),
    ])
    def test_malformed_root_named(self, tmp_path, payload, field, message):
        with pytest.raises(ConfigError) as err:
            parse_config(write_config(tmp_path, payload))
        assert str(err.value) == f"{field}: {message}"

    def test_numbers_stored_as_floats(self, tmp_path):
        cfg = parse_config(write_config(tmp_path, {
            "variant": "multi-leo", "leo_altitude_m": 780000, "lon_gap_deg": 12,
            "link": {"carrier_hz": 2000000000, "extra_losses_db": 3}}))
        values = (cfg.leo_altitude_m, cfg.lon_gap_deg, cfg.link.carrier_hz,
                  cfg.link.extra_losses_db)
        assert values == (780e3, 12.0, 2e9, 3.0)
        assert all(type(v) is float for v in values)

    def test_bandwidth_above_carrier_named(self, tmp_path):
        path = write_config(tmp_path, {"variant": "single-leo",
                                       "link": {"bandwidth_hz": 1e300}})
        with pytest.raises(ConfigError) as err:
            parse_config(path)
        assert err.value.field == "link.bandwidth_hz"

    def test_hash_stable_under_key_reordering(self, tmp_path):
        a = parse_config(write_config(tmp_path, {
            "variant": "single-leo", "seed": 3, "n_ue_drops": 10}, "a.json"))
        b = parse_config(write_config(tmp_path, {
            "n_ue_drops": 10, "seed": 3, "variant": "single-leo"}, "b.json"))
        assert config_hash(config_to_dict(a)) == config_hash(config_to_dict(b))

    def test_hash_sensitive_to_values(self, tmp_path):
        a = parse_config(write_config(tmp_path, {"variant": "single-leo"}, "a.json"))
        b = parse_config(write_config(tmp_path, {"variant": "single-leo",
                                                 "seed": 1}, "b.json"))
        assert config_hash(config_to_dict(a)) != config_hash(config_to_dict(b))


class TestExecute:
    def test_single_leo_outputs(self, tmp_path):
        cfg = write_config(tmp_path, SMALL_RUN)
        out = tmp_path / "out"
        assert main(["single-leo", "--config", str(cfg), "--out", str(out)]) == 0
        with open(out / "samples.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 12 * 2
        assert set(r["case_id"] for r in rows) == {"single_leo_t2", "single_leo_t5"}
        assert list(rows[0]) == ["ue_lat_deg", "ue_lon_deg", "case_id",
                                 "peb_m", "gdop", "degenerate"]
        summary = json.loads((out / "summary.json").read_text())
        assert set(summary) == {"single_leo_t2", "single_leo_t5"}
        with open(out / "boxplot.csv") as fh:
            box = list(csv.DictReader(fh))
        assert [r["case_id"] for r in box] == ["single_leo_t2", "single_leo_t5"]
        assert list(box[0]) == ["case_id", "mean", "median", "q1", "q3",
                                "whisker_lo", "whisker_hi", "n_outliers"]
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["errors"] == []
        assert manifest["warnings"] == []
        assert set(manifest["outputs"]) == {"samples.csv", "summary.json",
                                            "boxplot.csv"}
        assert manifest["resolved_config"][0]["n_ue_drops"] == 12

    def test_byte_identical_reruns_and_workers(self, tmp_path):
        cfg = write_config(tmp_path, SMALL_RUN)
        outs = []
        for name, workers in (("a", "1"), ("b", "1"), ("c", "2")):
            out = tmp_path / name
            assert main(["single-leo", "--config", str(cfg), "--out", str(out),
                         "--workers", workers]) == 0
            outs.append((out / "samples.csv").read_bytes())
        assert outs[0] == outs[1] == outs[2]

    def test_weak_links_keep_every_bound(self, tmp_path):
        # +100 dB of losses multiplies every range sigma by 1e5: the bounds
        # scale, and no drop turns degenerate, so the command still succeeds
        summaries = []
        for name, losses in (("base", 0.0), ("weak", 100.0)):
            cfg = write_config(tmp_path, {"variant": "single-leo", "n_ue_drops": 200,
                                          "link": {"extra_losses_db": losses}}, f"{name}.json")
            out = tmp_path / name
            assert main(["single-leo", "--config", str(cfg), "--out", str(out)]) == 0
            manifest = json.loads((out / "manifest.json").read_text())
            assert manifest["errors"] == []
            assert set(manifest["outputs"]) == {"samples.csv", "summary.json", "boxplot.csv"}
            summaries.append(json.loads((out / "summary.json").read_text()))
        base, weak = summaries
        assert list(weak) == list(base)
        for case_id, stats in base.items():
            assert weak[case_id]["degenerate_count"] == stats["degenerate_count"]
            assert weak[case_id]["median"] == pytest.approx(1e5 * stats["median"], rel=1e-12)

    def test_json_format(self, tmp_path):
        cfg = write_config(tmp_path, SMALL_RUN)
        out = tmp_path / "out"
        assert main(["single-leo", "--config", str(cfg), "--out", str(out),
                     "--format", "json"]) == 0
        rows = json.loads((out / "samples.json").read_text())
        assert len(rows) == 24
        assert set(rows[0]) == {"ue_lat_deg", "ue_lon_deg", "case_id",
                                "peb_m", "gdop", "degenerate"}
        assert not (out / "samples.csv").exists()

    def test_seed_flag_overrides_config(self, tmp_path):
        cfg = write_config(tmp_path, {**SMALL_RUN, "seed": 9})
        out1, out2 = tmp_path / "o1", tmp_path / "o2"
        main(["single-leo", "--config", str(cfg), "--out", str(out1)])
        main(["single-leo", "--config", str(cfg), "--out", str(out2),
              "--seed", "9"])
        m1 = json.loads((out1 / "manifest.json").read_text())
        m2 = json.loads((out2 / "manifest.json").read_text())
        assert m1["config_hash"] == m2["config_hash"]
        assert (out1 / "samples.csv").read_bytes() == (out2 / "samples.csv").read_bytes()

    def test_variant_command_mismatch_fails(self, tmp_path):
        cfg = write_config(tmp_path, {"variant": "multi-leo", "n_ue_drops": 4})
        out = tmp_path / "out"
        status = main(["single-leo", "--config", str(cfg), "--out", str(out)])
        assert status != 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["errors"]

    def test_gnss_only_via_gnss_leo_command(self, tmp_path):
        cfg = write_config(tmp_path, {"variant": "gnss-only", "n_ue_drops": 8})
        out = tmp_path / "out"
        assert main(["gnss-leo", "--config", str(cfg), "--out", str(out)]) == 0
        with open(out / "samples.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert all(r["case_id"] == "gnss_only" for r in rows)

    @pytest.mark.parametrize("variant", ["gnss-only", "single-leo", "multi-leo", "gnss-leo",
                                         "validate"])
    def test_no_command_calls_eigvalsh(self, tmp_path, monkeypatch, variant):
        # Bounds, subset scores and the solver's step gate are closed forms.
        def refuse(*args, **kwargs):
            raise AssertionError("np.linalg.eigvalsh called")

        monkeypatch.setattr(np.linalg, "eigvalsh", refuse)
        out = tmp_path / "out"
        if variant == "validate":
            argv, outputs = ["validate", "--trials", "5"], {"validation.json"}
        else:
            cfg = write_config(tmp_path, {"variant": variant, "n_ue_drops": 3})
            command = "gnss-leo" if variant == "gnss-only" else variant
            argv = [command, "--config", str(cfg)]
            outputs = {"samples.csv", "summary.json", "boxplot.csv"}
        assert main(argv + ["--out", str(out)]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["errors"] == [] and set(manifest["outputs"]) == outputs
        assert all((out / name).stat().st_size > 0 for name in outputs)

    def test_config_error_exits_2_with_manifest(self, tmp_path):
        cfg = write_config(tmp_path, {"variant": "multi-leo",
                                      "leo_altitude_m": math.nan})
        out = tmp_path / "out"
        assert main(["multi-leo", "--config", str(cfg), "--out", str(out)]) == 2
        manifest = json.loads((out / "manifest.json").read_text())
        assert any("leo_altitude_m" in e for e in manifest["errors"])

    @pytest.mark.parametrize("kind", UNREADABLE)
    def test_unreadable_config_exits_2_with_manifest(self, tmp_path, kind):
        cfg, out = unreadable_config(tmp_path, kind), tmp_path / "out"
        assert main(["single-leo", "--config", str(cfg), "--out", str(out)]) == 2
        manifest = json.loads((out / "manifest.json").read_text())
        assert any(e.startswith("<config>: cannot read") for e in manifest["errors"])

    @pytest.mark.parametrize("argv", [
        ["single-leo", "--seed", "-1"],
        ["multi-leo", "--seed", str(2**64)],
        ["gnss-leo", "--seed", str(2**64)],
        ["reproduce-figures", "--seed", "-1"],
        ["validate", "--trials", "3", "--seed", "-2"],
        ["validate", "--trials", "3", "--seed", str(2**64)],
    ])
    def test_seed_flag_out_of_range_exits_2_with_manifest(self, tmp_path, argv):
        out = tmp_path / "out"
        assert main(argv + ["--out", str(out)]) == 2
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["errors"] == ["seed: must fit in 64 bits"]
        assert manifest["outputs"] == []

    @pytest.mark.parametrize("argv", [
        ["validate", "--config", "config.json"],
        ["validate", "--format", "json"],
        ["reproduce-figures", "--config", "config.json"],
    ])
    def test_flag_the_command_ignores_exits_2(self, tmp_path, capsys, argv):
        with pytest.raises(SystemExit) as exit_:
            main(argv + ["--out", str(tmp_path / "out")])
        assert exit_.value.code == 2
        assert "unrecognized arguments: " + " ".join(argv[1:]) in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", [
        "single-leo", "multi-leo", "gnss-leo", "validate", "reproduce-figures"])
    def test_workers_still_parses(self, command):
        assert _build_parser().parse_args([command, "--workers", "2"]).workers == 2

    @pytest.mark.parametrize("trials", ["0", "-3", str(MAX_TRIALS + 1)])
    def test_validate_without_trials_exits_2(self, tmp_path, monkeypatch, trials):
        def refused(**kwargs):
            raise AssertionError("validate ran on a refused trial count")

        monkeypatch.setattr("satpeb.cli.validate", refused)
        out = tmp_path / "out"
        assert main(["validate", "--trials", trials, "--out", str(out)]) == 2
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["errors"] == [f"trials: must lie in [1, {MAX_TRIALS:,}]"]
        assert manifest["outputs"] == []

    @pytest.mark.parametrize("command, times, case_id", [
        ("single-leo", [2.0, 2.0], "single_leo_t2"),
        ("single-leo", [2.0000001, 2.0000002], "single_leo_t2"),
        ("gnss-leo", [5.0, 2.0, 5.0], "gnss_leo_t5"),
        ("gnss-leo", [2.0000001, 2.0000002], "gnss_leo_t2"),
    ])
    def test_times_naming_one_case_exit_2(self, tmp_path, command, times, case_id):
        cfg = write_config(tmp_path, {"n_ue_drops": 3, "measurement_times_s": times})
        out = tmp_path / "out"
        assert main([command, "--config", str(cfg), "--out", str(out)]) == 2
        [error] = json.loads((out / "manifest.json").read_text())["errors"]
        assert error.startswith("measurement_times_s: ")
        assert repr(case_id) in error

    def test_grid_side_row_beyond_pole_exits_2(self, tmp_path):
        cfg = write_config(tmp_path, {"variant": "multi-leo", "n_ue_drops": 3,
                                      "center_lat_deg": 83.2})
        out = tmp_path / "out"
        assert main(["multi-leo", "--config", str(cfg), "--out", str(out)]) == 2
        manifest = json.loads((out / "manifest.json").read_text())
        [error] = manifest["errors"]
        assert error.startswith("center_lat_deg: ")
        assert manifest["outputs"] == []

    @pytest.mark.parametrize("command, variant", [
        ("multi-leo", "multi-leo"),
        ("gnss-leo", "gnss-only"),
    ])
    def test_times_on_variant_without_sweep_exit_2(self, tmp_path, command, variant):
        cfg = write_config(tmp_path, {"variant": variant, "n_ue_drops": 3,
                                      "measurement_times_s": [1.0, 1.0]})
        out = tmp_path / "out"
        assert main([command, "--config", str(cfg), "--out", str(out)]) == 2
        manifest = json.loads((out / "manifest.json").read_text())
        [error] = manifest["errors"]
        assert error.startswith("measurement_times_s: ")
        assert manifest["outputs"] == []

    @pytest.mark.parametrize("command, payload", [
        pytest.param("multi-leo", {"variant": "multi-leo", "measurement_times_s": []},
                     id="multi-leo-multi-leo"),
        pytest.param("gnss-leo", {"variant": "gnss-only", "measurement_times_s": []},
                     id="gnss-leo-gnss-only"),
        pytest.param("multi-leo", {"variant": "multi-leo", "n_ue_drops": 20,
                                   "lon_gap_deg": 12.0, "lat_gap_deg": 6.0},
                     id="multi-leo-grid-gaps"),
    ])
    def test_resolved_config_round_trips(self, tmp_path, command, payload):
        cfg = write_config(tmp_path, {"n_ue_drops": 3, **payload})
        first, second = tmp_path / "first", tmp_path / "second"
        assert main([command, "--config", str(cfg), "--out", str(first)]) == 0
        manifest = json.loads((first / "manifest.json").read_text())
        [resolved] = manifest["resolved_config"]
        # Every key reads back exactly as written, in the file's units.
        assert {key: resolved[key] for key in payload} == payload
        assert resolved["gnss_elevation_mask_deg"] == 30.0
        again = write_config(tmp_path, resolved, "resolved.json")
        assert main([command, "--config", str(again), "--out", str(second)]) == 0
        rerun = json.loads((second / "manifest.json").read_text())
        assert rerun["resolved_config"] == manifest["resolved_config"]
        assert rerun["config_hash"] == manifest["config_hash"]
        assert (first / "samples.csv").read_bytes() == (second / "samples.csv").read_bytes()

    def test_hidden_virtual_anchor_leaves_other_windows(self, tmp_path):
        # A 770 s window carries the satellite below the horizon of some
        # drops; those drops are degenerate in that case alone.
        both = write_config(tmp_path, {"n_ue_drops": 50,
                                       "measurement_times_s": [10, 770]}, "both.json")
        alone = write_config(tmp_path, {"n_ue_drops": 50,
                                        "measurement_times_s": [10]}, "alone.json")
        assert main(["single-leo", "--config", str(both), "--out", str(tmp_path / "b")]) == 0
        assert main(["single-leo", "--config", str(alone), "--out", str(tmp_path / "a")]) == 0
        with open(tmp_path / "b" / "samples.csv") as fh:
            rows = list(csv.DictReader(fh))
        with open(tmp_path / "a" / "samples.csv") as fh:
            assert [r for r in rows if r["case_id"] == "single_leo_t10"] == list(
                csv.DictReader(fh))
        flags = [r["degenerate"] for r in rows if r["case_id"] == "single_leo_t770"]
        assert 0 < flags.count("true") < 50
        summary = json.loads((tmp_path / "b" / "summary.json").read_text())
        assert summary["single_leo_t770"]["degenerate_count"] == flags.count("true")

    def test_every_drop_hiding_an_anchor_ends_in_statistics_error(self, tmp_path):
        cfg = write_config(tmp_path, {"n_ue_drops": 50, "measurement_times_s": [10, 800]})
        out = tmp_path / "out"
        assert main(["single-leo", "--config", str(cfg), "--out", str(out)]) == 1
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["errors"] == ["case single_leo_t800: no non-degenerate samples"]

    def test_unexpected_error_still_writes_manifest(self, tmp_path, monkeypatch):
        import satpeb.cli as cli_mod

        def overflow(config):
            raise OverflowError("(34, 'Numerical result out of range')")

        monkeypatch.setattr(cli_mod, "run", overflow)
        cfg = write_config(tmp_path, SMALL_RUN)
        out = tmp_path / "out"
        assert main(["single-leo", "--config", str(cfg), "--out", str(out)]) != 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["errors"]
        assert manifest["outputs"] == []

    def test_no_visible_neighbors_ends_in_statistics_error(self, tmp_path):
        # 60 deg gaps leave only the serving satellite above every UE's horizon
        cfg = write_config(tmp_path, {"variant": "multi-leo", "n_ue_drops": 5,
                                      "lon_gap_deg": 60})
        out = tmp_path / "out"
        assert main(["multi-leo", "--config", str(cfg), "--out", str(out)]) == 1
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["errors"] == [
            "case multi_leo_tdoa3: no non-degenerate samples"]

    def test_uncreatable_out_dir_ends_in_error_line(self, tmp_path, capsys):
        blocker = tmp_path / "afile"
        blocker.write_text("")
        status = main(["validate", "--trials", "3", "--out", str(blocker / "x")])
        assert status == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1
        assert blocker.read_text() == ""

    def test_missing_config_file_nonzero_exit(self, tmp_path):
        out = tmp_path / "out"
        assert main(["single-leo", "--config", str(tmp_path / "nope.json"),
                     "--out", str(out)]) != 0

    def test_multi_leo_command(self, tmp_path):
        cfg = write_config(tmp_path, {"variant": "multi-leo", "n_ue_drops": 6})
        out = tmp_path / "out"
        assert main(["multi-leo", "--config", str(cfg), "--out", str(out)]) == 0
        with open(out / "samples.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 6 * 4

    def test_validate_command(self, tmp_path):
        out = tmp_path / "out"
        assert main(["validate", "--trials", "40", "--out", str(out)]) == 0
        report = json.loads((out / "validation.json").read_text())
        assert report["n_trials"] == 40
        assert report["ratio"] > 0

    def test_manifest_calibration_constants(self, tmp_path):
        cfg = write_config(tmp_path, SMALL_RUN)
        out = tmp_path / "out"
        main(["single-leo", "--config", str(cfg), "--out", str(out)])
        manifest = json.loads((out / "manifest.json").read_text())
        calib = manifest["calibration"]
        assert set(calib) == {"leo_dl_processing_gain_db",
                              "leo_ul_processing_gain_db",
                              "gnss_processing_gain_db"}
        assert manifest["table_checksums"] == channel.PINNED_TABLE_CHECKSUMS

    def test_manifest_snapshot_reproducible(self, tmp_path):
        cfg = write_config(tmp_path, {"variant": "single-leo", "n_ue_drops": 3,
                                      "measurement_times_s": [2.0]})
        out = tmp_path / "out"
        assert main(["single-leo", "--config", str(cfg), "--out", str(out)]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["resolved_config"][0]["seed"] == 0
        assert manifest["resolved_config"][0]["variant"] == "single-leo"
        assert len(manifest["table_checksums"]) == 12

    def test_tampered_table_recorded_as_warning(self, tmp_path, monkeypatch):
        monkeypatch.setitem(channel.PINNED_TABLE_CHECKSUMS,
                            "los_probability_urban.csv", "0" * 64)
        cfg = write_config(tmp_path, SMALL_RUN)
        out = tmp_path / "out"
        assert main(["single-leo", "--config", str(cfg), "--out", str(out)]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert any("los_probability_urban.csv" in w for w in manifest["warnings"])


def _csv_value(field, text):
    """A samples.csv cell as the value samples.json holds for it."""
    if field == "case_id":
        return text
    if field == "degenerate":
        return {"true": True, "false": False}[text]
    return float(text) if text else None


def _sample_rows(runs):
    """One dict per case and drop, keyed by SAMPLE_FIELDS: the rows both
    sample writers serialize."""
    for bundle in runs:
        for case_id, (peb_m, gdop, degenerate) in bundle.cases.items():
            for lat, lon, p, g, flag in zip(
                    bundle.lat_rad.tolist(), bundle.lon_rad.tolist(), peb_m.tolist(),
                    gdop.tolist(), degenerate.tolist()):
                yield {
                    "ue_lat_deg": math.degrees(lat),
                    "ue_lon_deg": math.degrees(lon),
                    "case_id": case_id,
                    "peb_m": None if flag else p,
                    "gdop": None if flag else g,
                    "degenerate": flag,
                }


def _row_wise_samples_json(runs, path):
    """samples.json as one `json.dumps` of the row dicts: the byte-level
    oracle for the columnar `write_samples_json`."""
    path.write_text(json.dumps(list(_sample_rows(runs)), indent=2) + "\n")


def _cell(value) -> str:
    """A samples.csv cell: empty for a missing bound or GDOP, true/false for
    the flag, a float's shortest round-trip form, the case id as it is."""
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    return repr(value) if isinstance(value, float) else value


def _row_wise_samples_csv(runs, path):
    """samples.csv written row by row through csv.writer: the byte-level
    oracle for the columnar `write_samples_csv`."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(SAMPLE_FIELDS)
        for row in _sample_rows(runs):
            writer.writerow([_cell(row[k]) for k in SAMPLE_FIELDS])


def _hand_built_runs(*case_ids):
    """One run of three drops, the second degenerate, in every case."""
    lat, lon = np.radians([1.0, 2.0, 3.0]), np.radians([-4.0, 5.0, 6.0])
    peb_m, degenerate = np.array([10.5, np.nan, 12.25]), np.array([False, True, False])
    cases = {c: (peb_m, np.array([1.5, np.nan, 2.0]), degenerate) for c in case_ids}
    return [RunBundle(lat, lon, cases, {c: summarize(c, peb_m, degenerate) for c in case_ids})]


class TestSampleSerialization:
    @pytest.mark.parametrize("runs", [
        pytest.param(lambda: _hand_built_runs("case", 'odd, "quoted"\nid', ""),
                     id="hand-built"),
        pytest.param(lambda: [run(make_config("single-leo", n_ue_drops=25)),
                              run(make_config("gnss-leo", n_ue_drops=25, seed=1))],
                     id="merged"),
        *(pytest.param(lambda v=v: [run(make_config(v, n_ue_drops=25))], id=v)
          for v in ("single-leo", "multi-leo", "gnss-leo", "gnss-only")),
    ])
    def test_columnar_csv_equals_row_wise_writer(self, tmp_path, runs):
        runs = runs()
        write_samples_csv(runs, tmp_path / "columnar.csv")
        _row_wise_samples_csv(runs, tmp_path / "row_wise.csv")
        columnar = (tmp_path / "columnar.csv").read_bytes()
        assert columnar == (tmp_path / "row_wise.csv").read_bytes()

    @pytest.mark.parametrize("runs", [
        pytest.param(lambda: _hand_built_runs("case", 'odd, "quoted"\nid', "",
                                              "d\u00e9g\u00e9n\u00e9r\u00e9 \u03c3 \U0001f6f0"),
                     id="hand-built"),
        pytest.param(lambda: [run(make_config("single-leo", n_ue_drops=25)),
                              run(make_config("gnss-leo", n_ue_drops=25, seed=1))],
                     id="merged"),
        *(pytest.param(lambda v=v: [run(make_config(v, n_ue_drops=25))], id=v)
          for v in ("single-leo", "multi-leo", "gnss-leo", "gnss-only")),
    ])
    def test_columnar_json_equals_row_wise_dumps(self, tmp_path, runs):
        runs = runs()
        write_samples_json(runs, tmp_path / "columnar.json")
        _row_wise_samples_json(runs, tmp_path / "row_wise.json")
        columnar = (tmp_path / "columnar.json").read_bytes()
        assert columnar == (tmp_path / "row_wise.json").read_bytes()

    def test_csv_and_json_samples_agree(self, tmp_path):
        runs = _hand_built_runs("case")
        write_samples_csv(runs, tmp_path / "samples.csv")
        write_samples_json(runs, tmp_path / "samples.json")
        write_summary(runs, tmp_path / "summary.json")
        with open(tmp_path / "samples.csv") as fh:
            csv_rows = list(csv.DictReader(fh))
        json_rows = json.loads((tmp_path / "samples.json").read_text())

        assert [list(r) for r in csv_rows] == [list(r) for r in json_rows]
        assert [{k: _csv_value(k, v) for k, v in r.items()} for r in csv_rows] == json_rows
        assert [r["peb_m"] for r in json_rows] == [10.5, None, 12.25]
        assert [r["gdop"] for r in json_rows] == [1.5, None, 2.0]
        assert (csv_rows[1]["peb_m"], csv_rows[1]["gdop"], csv_rows[1]["degenerate"]) == (
            "", "", "true")
        summary = json.loads((tmp_path / "summary.json").read_text())["case"]
        assert summary["degenerate_count"] == 1
        assert summary["n_samples"] == 3
        assert summary["mean"] == pytest.approx(11.375)


def _joined(parts: list[bytes], opening: bytes, closing: bytes) -> bytes:
    """One JSON array or object whose items are those of each of `parts`, in
    order, as `json.dumps(..., indent=2)` writes them."""
    assert all(p.startswith(opening) and p.endswith(closing) for p in parts)
    return opening + b",\n".join(p[len(opening):-len(closing)] for p in parts) + closing


class TestReproduceFigures:
    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize("seed", [0, 3])
    def test_outputs_are_the_variant_commands_in_order(self, tmp_path, monkeypatch, seed, fmt):
        # reproduce-figures writes the samples, summary and box-plot rows of
        # the single-leo, multi-leo, gnss-leo and gnss-only commands at its
        # seed, one variant after another, byte for byte
        import satpeb.cli as cli_mod
        from satpeb.config import make_config as real_make

        monkeypatch.setattr(cli_mod, "make_config",
                            lambda variant, **kw: real_make(variant, n_ue_drops=20, **kw))
        common = ["--seed", str(seed), "--format", fmt, "--out"]
        figures = tmp_path / "figures"
        assert main(["reproduce-figures", *common, str(figures)]) == 0
        gnss_only = write_config(tmp_path, {"variant": "gnss-only", "n_ue_drops": 20})
        parts = []
        for i, command in enumerate([["single-leo"], ["multi-leo"], ["gnss-leo"],
                                     ["gnss-leo", "--config", str(gnss_only)]]):
            parts.append(tmp_path / f"variant{i}")
            assert main([*command, *common, str(parts[-1])]) == 0

        def read(name):
            return [(p / name).read_bytes() for p in parts]

        for name in ["boxplot.csv"] + (["samples.csv"] if fmt == "csv" else []):
            # one header, then every variant's rows
            heads, rows = zip(*(text.split(b"\n", 1) for text in read(name)))
            assert len(set(heads)) == 1
            assert (figures / name).read_bytes() == heads[0] + b"\n" + b"".join(rows)
        if fmt == "json":
            assert (figures / "samples.json").read_bytes() == _joined(
                read("samples.json"), b"[\n", b"\n]\n")
        assert (figures / "summary.json").read_bytes() == _joined(
            read("summary.json"), b"{\n", b"\n}\n")

    def test_all_cases_emitted(self, tmp_path, monkeypatch):
        # shrink the run; the full reproduction is exercised by the
        # acceptance suite
        import satpeb.cli as cli_mod
        from satpeb.config import make_config as real_make

        def small_make(variant, **kw):
            kw.setdefault("n_ue_drops", 5)
            return real_make(variant, **kw)

        monkeypatch.setattr(cli_mod, "make_config", small_make)
        out = tmp_path / "out"
        assert main(["reproduce-figures", "--out", str(out)]) == 0
        with open(out / "boxplot.csv") as fh:
            cases = [r["case_id"] for r in csv.DictReader(fh)]
        assert [c for c in cases if c.startswith("single_leo_t")] == [
            f"single_leo_t{t}" for t in range(2, 11)]
        assert [c for c in cases if c.startswith("multi_leo")] == [
            "multi_leo_tdoa3", "multi_leo_tdoa3_rtt",
            "multi_leo_tdoa4", "multi_leo_tdoa4_rtt"]
        assert [c for c in cases if c.startswith("gnss_leo")] == [
            f"gnss_leo_t{t}" for t in (2, 5, 7, 10)]
        assert "gnss_only" in cases
