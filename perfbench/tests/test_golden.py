"""The output check flags changes beyond the golden tolerance, and only those."""

import json

import golden

HEADER = "ue_lat_deg,ue_lon_deg,case_id,peb_m,gdop,degenerate\n"
ROWS = [("0.1", "-0.2", "a", "10.5", "1.5", "false"),
        ("0.3", "0.4", "a", "", "", "true"),
        ("0.1", "-0.2", "b", "7.25", "1.25", "false")]


def _write(tmp_path, rows, name="out"):
    out = tmp_path / name
    out.mkdir()
    (out / "samples.csv").write_text(HEADER + "".join(",".join(r) + "\n" for r in rows))
    (out / "manifest.json").write_text(json.dumps({"errors": []}))
    return out


def _check(out, want):
    return golden.check(out, rows=3, cases=2, want=want)


def test_identical_and_tiny_differences_pass(tmp_path):
    want = golden.samples_fingerprint(_write(tmp_path, ROWS, "gold") / "samples.csv")
    assert _check(_write(tmp_path, ROWS), want) == []
    nudged = [list(r) for r in ROWS]
    nudged[0][3] = repr(10.5 * (1 + 4e-16))
    assert _check(_write(tmp_path, nudged, "nudged"), want) == []


def test_changes_beyond_tolerance_fail(tmp_path):
    want = golden.samples_fingerprint(_write(tmp_path, ROWS, "gold") / "samples.csv")
    moved = [list(r) for r in ROWS]
    moved[2][4] = repr(1.25 * (1 + 1e-9))
    assert _check(_write(tmp_path, moved, "moved"), want)
    flipped = [list(r) for r in ROWS]
    flipped[0][3:] = ["", "", "true"]
    assert _check(_write(tmp_path, flipped, "flipped"), want)
    renamed = [list(r) for r in ROWS]
    renamed[2][2] = "c"
    assert _check(_write(tmp_path, renamed, "renamed"), want)


def test_invariants_without_golden(tmp_path):
    out = _write(tmp_path, ROWS)
    assert golden.check(out, rows=3, cases=2, want=None) == []
    assert golden.check(out, rows=4, cases=2, want=None)
    bad = [list(r) for r in ROWS]
    bad[0][3] = "-1.0"
    assert golden.check(_write(tmp_path, bad, "bad"), 3, 2, None)


REPORT = {"n_trials": 2000, "peb_m": 1.3734555070441905,
          "rmse_m": 1.3689620640014828, "ratio": 0.9967283665035659}


def _validation(tmp_path, name, **changes):
    out = tmp_path / name
    out.mkdir()
    (out / "validation.json").write_text(json.dumps({**REPORT, **changes}))
    (out / "manifest.json").write_text(json.dumps({"errors": []}))
    return golden.check(out, rows=None, cases=1, want=REPORT, trials=2000)


def test_validation_checks_the_trials(tmp_path):
    assert _validation(tmp_path, "same") == []
    # Each change keeps RMSE/PEB inside criterion 7's band.
    assert _validation(tmp_path, "rmse", rmse_m=REPORT["rmse_m"] * (1 + 1e-9))
    assert _validation(tmp_path, "ratio", ratio=REPORT["ratio"] * (1 + 1e-9))
    assert _validation(tmp_path, "fewer", n_trials=1000)
