"""CLI: output files, config precedence, exit codes, and self-verification."""

import json
import shutil
import subprocess
import sys
import tracemalloc

import pytest

import recal.cli as cli
from recal.geometry import game_config, point_mass
from recal.harness import ConfigError, ExperimentConfig, checkpoint_schedule, run_experiment
from recal.metrics import default_regret_slack
from recal.scoring import parse_rule

from .reference import _json_text, _trace_csv_text, _trace_json_rows


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


def test_summary_constants_are_the_runs_game_config(tmp_path):
    assert cli.main(_run_args(tmp_path, **{"--m": "16", "--rule": "log:0.05"})) == 0
    resolved = json.loads((tmp_path / "summary.json").read_text())["resolved"]
    rule = parse_rule("log:0.05")
    cfg = game_config(16, rule)
    assert resolved == {"m": 16, "lambda": cfg.lam, "cal_threshold": cfg.cal_threshold,
                        "reg_threshold": cfg.reg_threshold,
                        "delta": default_regret_slack(rule, 16)}


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


FORECASTERS = ("approach", "passthrough", "mw")
LABEL_ORACLES = [(labels, oracle)
                 for labels in ("iid_bernoulli:0.5", "periodic:0110")
                 for oracle in ("constant:0.5", "clairvoyant:0.2", "truth", "noisy_truth:0.1")
                 ] + [("adversarial_greedy", "constant:0.5")]


def _matrix_trace(forecaster, labels, oracle, T):
    return run_experiment(ExperimentConfig(T=T, m=3, forecaster=forecaster, labels=labels,
                                           oracle=oracle, seed=17))


@pytest.mark.parametrize("labels, oracle", LABEL_ORACLES)
@pytest.mark.parametrize("forecaster", FORECASTERS)
def test_trace_blocks_match_whole_file_formatters(monkeypatch, forecaster, labels, oracle):
    # The chunked writer spells every trace exactly as the formatters
    # that built the whole file did, with block boundaries on and beside
    # checkpoint rows (blocks of 1, 3 and 7 rows) as well as the default.
    for T in (1, 2, 3, 1000, 1024):
        if forecaster == "mw" and T < 3:
            # mw needs T >= ln(2^(m+1) + 1), which is 2.83 at m = 3
            with pytest.raises(ConfigError):
                _matrix_trace(forecaster, labels, oracle, T)
            continue
        trace = _matrix_trace(forecaster, labels, oracle, T)
        want = {"csv": _trace_csv_text(trace), "json": _json_text(_trace_json_rows(trace))}
        for rows in (cli.TRACE_BLOCK_ROWS, 1, 3, 7):
            monkeypatch.setattr(cli, "TRACE_BLOCK_ROWS", rows)
            for fmt in ("csv", "json"):
                assert "".join(cli._trace_blocks(trace, fmt)) == want[fmt], (T, rows, fmt)


def test_trace_cells_have_the_types_the_writer_formats():
    # The writer formats q and p by float repr and y by int repr; a numpy
    # scalar would spell itself 'np.float64(0.5)' in the CSV.
    for forecaster in FORECASTERS:
        for labels, oracle in LABEL_ORACLES:
            trace = _matrix_trace(forecaster, labels, oracle, 64)
            assert {type(v) for v in trace.q} == {float}, (forecaster, labels, oracle)
            assert {type(v) for v in trace.p} == {float}, (forecaster, labels, oracle)
            assert {type(v) for v in trace.y} == {int}, (forecaster, labels, oracle)
            for c in trace.checkpoints:
                assert {type(v) for v in (c.calib_l1, c.average_regret,
                                          c.recalibration_rate, c.dist_to_target)} == {float}


def _writer_peak(trace, fmt):
    """Peak bytes the writer allocates, excluding the trace, and its
    longest block."""
    longest = 0
    tracemalloc.start()
    try:
        for block in cli._trace_blocks(trace, fmt):
            longest = max(longest, len(block))
        return tracemalloc.get_traced_memory()[1], longest
    finally:
        tracemalloc.stop()


def test_trace_writer_memory_does_not_grow_with_T():
    # JSON is the longer spelling; at 2^17 the whole file is 128 blocks.
    peaks = {}
    for T in (2**14, 2**17):
        trace = run_experiment(ExperimentConfig(T=T, m=8, forecaster="passthrough", seed=1))
        peaks[T], block = _writer_peak(trace, "json")
    assert abs(peaks[2**17] - peaks[2**14]) <= block, (peaks, block)
    assert peaks[2**17] <= 8 * block, (peaks, block)


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
