"""CLI: output files, config precedence, exit codes, and self-verification."""

import json
import shutil
import subprocess
import sys

import pytest

import recal.cli as cli
from recal.geometry import point_mass
from recal.harness import checkpoint_schedule


def _run_args(out, **kw):
    base = {"--T": "32", "--m": "4", "--seed": "3", "--out": str(out)}
    base.update(kw)
    argv = ["run"]
    for k, v in base.items():
        if v is not None:
            argv += [k, v]
    return argv


# ---------------------------------------------------------------------------
# cmd_run
# ---------------------------------------------------------------------------


def test_run_writes_trace_and_summary(tmp_path, capsys):
    assert cli.main(_run_args(tmp_path)) == 0
    out = capsys.readouterr().out
    assert "recal_rate=" in out

    raw = (tmp_path / "trace.csv").read_bytes()
    assert b"\r" not in raw
    lines = raw.decode().splitlines()
    assert lines[0] == "t,q,p,y,calib_l1,avg_regret,recal_rate,dist_to_target"
    assert len(lines) == 33
    cps = set(checkpoint_schedule(32))
    for line in lines[1:]:
        cells = line.split(",")
        t = int(cells[0])
        populated = all(cells[4:])
        assert populated == (t in cps)
        assert cells[3] in ("0", "1")

    summary = json.loads((tmp_path / "summary.json").read_text())
    assert summary["config"]["T"] == 32
    assert summary["config"]["labels"] == "iid_bernoulli:0.5"
    assert summary["resolved"]["m"] == 4
    assert summary["resolved"]["lambda"] == 2.0
    assert summary["resolved"]["delta"] == 0.5
    assert summary["final"]["t"] == 32
    assert summary["wall_time_s"] > 0.0


def test_run_outputs_are_byte_identical(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    assert cli.main(_run_args(a)) == 0
    assert cli.main(_run_args(b)) == 0
    assert (a / "trace.csv").read_bytes() == (b / "trace.csv").read_bytes()


def test_run_json_format(tmp_path):
    assert cli.main(_run_args(tmp_path, **{"--format": "json"})) == 0
    rows = json.loads((tmp_path / "trace.json").read_text())
    assert len(rows) == 32
    assert rows[0]["t"] == 1
    assert rows[0]["dist_to_target"] is not None
    assert rows[2]["dist_to_target"] is None  # t = 3 is not a checkpoint
    assert not (tmp_path / "trace.csv").exists()


def test_run_flag_overrides_config_file(tmp_path):
    cfg_file = tmp_path / "cfg.json"
    cfg_file.write_text(json.dumps({"T": 32, "m": 4, "seed": 5, "rule": "brier"}))
    out = tmp_path / "out"
    code = cli.main(["run", "--config", str(cfg_file), "--seed", "9",
                     "--out", str(out)])
    assert code == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["config"]["seed"] == 9  # flag wins
    assert summary["config"]["T"] == 32  # file fills the gap
    assert summary["config"]["oracle"] == "clairvoyant:0.2"  # default


@pytest.mark.parametrize(
    "argv",
    [
        ["run", "--T", "32", "--m", "1"],
        ["run", "--T", "32", "--m", "4", "--exponent", "0.35"],
        ["run", "--T", "32", "--exponent", "0.5"],
        ["run", "--m", "4"],
        ["run", "--T", "32", "--m", "4", "--labels", "weather"],
        ["run", "--T", "32", "--m", "4", "--rule", "log:whoops"],
        ["run", "--T", "32", "--m", "4", "--format", "yaml"],
        ["sweep", "--T-grid", "", "--m", "4"],
        ["sweep", "--T-grid", "a,b", "--m", "4"],
    ],
)
def test_bad_configs_exit_2(argv, tmp_path, capsys):
    assert cli.main(argv + ["--out", str(tmp_path)]) == 2
    capsys.readouterr()


def test_unknown_config_key_rejected(tmp_path):
    cfg_file = tmp_path / "cfg.json"
    cfg_file.write_text(json.dumps({"T": 32, "m": 4, "horizon": 99}))
    assert cli.main(["run", "--config", str(cfg_file), "--out", str(tmp_path)]) == 2


def test_malformed_config_rejected(tmp_path):
    cfg_file = tmp_path / "cfg.json"
    cfg_file.write_text("not json {")
    assert cli.main(["run", "--config", str(cfg_file)]) == 2
    cfg_file.write_text(json.dumps([1, 2, 3]))
    assert cli.main(["run", "--config", str(cfg_file)]) == 2
    assert cli.main(["run", "--config", str(tmp_path / "missing.json")]) == 2


def test_run_type_checks_config_values(tmp_path):
    cfg_file = tmp_path / "cfg.json"
    cfg_file.write_text(json.dumps({"T": "thirty", "m": 4}))
    assert cli.main(["run", "--config", str(cfg_file), "--out", str(tmp_path)]) == 2
    cfg_file.write_text(json.dumps({"T": True, "m": 4}))
    assert cli.main(["run", "--config", str(cfg_file), "--out", str(tmp_path)]) == 2


# ---------------------------------------------------------------------------
# cmd_sweep
# ---------------------------------------------------------------------------


def test_sweep_writes_rows_and_slopes(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("RECAL_THREADS", "1")
    code = cli.main(["sweep", "--T-grid", "32,64,128", "--m", "4", "--seeds", "2",
                     "--out", str(tmp_path)])
    assert code == 0
    out = capsys.readouterr().out
    assert "recalibration_rate:" in out

    lines = (tmp_path / "sweep.csv").read_text().splitlines()
    assert lines[0] == ("T,m,mean_calib,mean_regret,mean_recal_rate,"
                        "stderr_calib,stderr_regret,stderr_recal_rate")
    assert [int(line.split(",")[0]) for line in lines[1:]] == [32, 64, 128]

    summary = json.loads((tmp_path / "sweep_summary.json").read_text())
    assert set(summary["slopes"]) == {
        "calibration_rate", "average_regret", "recalibration_rate"
    }
    assert len(summary["rows"]) == 3
    assert summary["config"]["T_grid"] == "32,64,128"


def test_sweep_json_format(tmp_path, monkeypatch):
    monkeypatch.setenv("RECAL_THREADS", "1")
    code = cli.main(["sweep", "--T-grid", "32,64", "--m", "4", "--out",
                     str(tmp_path), "--format", "json"])
    assert code == 0
    rows = json.loads((tmp_path / "sweep.json").read_text())
    assert [r["T"] for r in rows] == [32, 64]


# ---------------------------------------------------------------------------
# cmd_verify
# ---------------------------------------------------------------------------


def test_verify_quick_reports_known_failure(capsys):
    code = cli.main(["verify", "--quick"])
    out = capsys.readouterr().out.splitlines()
    assert code == 1
    statuses = dict(line.split(": ", 1) for line in out)
    assert statuses["halfspace_response"].startswith("PASS")
    assert statuses["distance_dual_identity"].startswith("PASS")
    assert statuses["rate_bucket_identity"].startswith("PASS")
    assert statuses["mw_dp_consistency"].startswith("PASS")
    assert statuses["nearest_grid_regret"].startswith("FAIL")
    assert statuses["label_averaged_rounding"].startswith("PASS")


def test_verify_detects_broken_oracle(capsys, monkeypatch):
    # sabotage the halfspace oracle: the self-check must notice
    monkeypatch.setattr(cli, "approach_with_cost", lambda cfg, theta, q: (point_mass(0), 0))
    code = cli.main(["verify", "--quick"])
    out = capsys.readouterr().out
    assert code == 1
    assert "halfspace_response: FAIL" in out


def test_verify_detects_broken_rounding(capsys, monkeypatch):
    # always rounding down to 0 breaks the label-averaged bound too
    monkeypatch.setattr(cli, "nearest_grid_index", lambda p, m: 0)
    code = cli.main(["verify", "--quick"])
    assert code == 1
    assert "label_averaged_rounding: FAIL" in capsys.readouterr().out


# ---------------------------------------------------------------------------
# Installed entry point
# ---------------------------------------------------------------------------


def test_console_script(tmp_path):
    exe = shutil.which("recal")
    if exe is None:
        pytest.skip("console script not installed")
    proc = subprocess.run(
        [exe, "run", "--T", "16", "--m", "4", "--out", str(tmp_path)],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert (tmp_path / "trace.csv").exists()


def test_main_module_help():
    proc = subprocess.run(
        [sys.executable, "-m", "recal.cli", "--help"], capture_output=True, text=True
    )
    assert proc.returncode == 0
    assert "run" in proc.stdout and "sweep" in proc.stdout and "verify" in proc.stdout
