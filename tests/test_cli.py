"""CLI: output files, config precedence, exit codes, and self-verification."""

import argparse
import hashlib
import importlib.util
import json
import math
import os
import re
import shutil
import stat
import subprocess
import sys
import tracemalloc
from array import array
from pathlib import Path

import pytest

import recal.cli as cli
from recal import compiled, harness
from recal.geometry import game_config
from recal.harness import ConfigError, ExperimentConfig, checkpoint_schedule, run_experiment
from recal.metrics import default_regret_slack
from recal.recalibrator import ORACLE_COUNTERS
from recal.scoring import parse_rule

from .reference import _json_text, _trace_csv_text, _trace_json_rows, point_mass


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


@pytest.mark.parametrize("umask, mode", [(0o022, 0o644), (0o077, 0o600)],
                         ids=["umask022", "umask077"])
def test_output_files_follow_the_umask(tmp_path, umask, mode):
    # the mode open(path, "w") would give, not the temporary file's 0600
    saved = os.umask(umask)
    try:
        assert cli.main(_run_args(tmp_path)) == 0
        assert cli.main(["sweep", "--T-grid", "32,64", "--m", "4",
                         "--out", str(tmp_path)]) == 0
    finally:
        os.umask(saved)
    for name in ("trace.csv", "summary.json", "sweep.csv", "sweep_summary.json"):
        assert stat.S_IMODE((tmp_path / name).stat().st_mode) == mode, name


def test_the_writer_never_sets_the_umask(tmp_path, monkeypatch):
    # Reading the umask means setting it, and while it is 0 a file that
    # another thread creates comes out world-writable.
    def refuse(mask):
        raise AssertionError("os.umask called")

    saved = os.umask(0o027)
    try:
        with monkeypatch.context() as m:
            m.setattr(os, "umask", refuse)
            assert cli.main(_run_args(tmp_path)) == 0
            assert cli.main(["sweep", "--T-grid", "32,64", "--m", "4",
                             "--out", str(tmp_path)]) == 0
    finally:
        os.umask(saved)
    for name in ("trace.csv", "summary.json", "sweep.csv", "sweep_summary.json"):
        assert stat.S_IMODE((tmp_path / name).stat().st_mode) == 0o640, name
    assert [p.name for p in tmp_path.iterdir() if p.name.startswith(".tmp")] == []


def test_summary_times_the_trace_write(tmp_path):
    assert cli.main(_run_args(tmp_path)) == 0
    summary = json.loads((tmp_path / "summary.json").read_text())
    assert summary["trace_write_s"] > 0.0
    assert summary["wall_time_s"] > 0.0


def test_run_json_format(tmp_path):
    assert cli.main(_run_args(tmp_path, **{"--format": "json"})) == 0
    rows = json.loads((tmp_path / "trace.json").read_text())
    assert len(rows) == 32
    assert rows[0]["t"] == 1
    assert rows[0]["dist_to_target"] is not None
    assert rows[2]["dist_to_target"] is None  # t = 3 is not a checkpoint
    assert not (tmp_path / "trace.csv").exists()


FORECASTERS = tuple(harness.FORECASTERS)
TRACE_BLOCK_ROWS = cli.TRACE_BLOCK_ROWS
LABEL_ORACLES = [(labels, oracle)
                 for labels in ("iid_bernoulli:0.5", "periodic:0110")
                 for oracle in ("constant:0.5", "clairvoyant:0.2", "truth", "noisy_truth:0.1")
                 ] + [("adversarial_greedy", "constant:0.5"), ("iid_bernoulli:0.5", "constant:-0")]


def _matrix_trace(forecaster, labels, oracle, T, m=3):
    return run_experiment(ExperimentConfig(T=T, m=m, forecaster=forecaster, labels=labels,
                                           oracle=oracle, seed=17))


def _column_trace(q, p, y):
    """A trace of the given columns, with a checkpoint row at each power of 2
    and at the last row."""
    trace = harness.Trace(config=None, m=4, q=array("d", q), p=array("d", p),
                          y=array("b", y))
    trace.checkpoints = [harness.CheckpointMetrics(t, t / 3, 0.0, -0.0, 1e-300 * t, 2.0 ** -t)
                         for t in checkpoint_schedule(len(q))]
    return trace


def _edge_trace(name):
    if name == "m300":
        return _matrix_trace("approach", "iid_bernoulli:0.5", "clairvoyant:0.2", 2000, m=300)
    if name == "repeated_then_distinct":
        # 1,024 rows of three quotes, then 1,024 distinct ones
        q = [(0.2, 0.6, 0.6)[t % 3] for t in range(1024)] + [t / 2048 for t in range(1024)]
        return _column_trace(q, [(t * t % 5) / 4 for t in range(2048)],
                             [int(t % 3 == 1) for t in range(2048)])
    if name == "quote_threshold":
        # 1,024 rows of 256 distinct quotes, the most for which q is keyed,
        # then 1,024 rows of 257, the fewest for which it is loose; each
        # block has a checkpoint row before its last
        q = [t % 256 / 256 for t in range(1024)] + [t % 257 / 257 for t in range(1024)]
        trace = _column_trace(q, [(t * t % 5) / 4 for t in range(2048)],
                              [int(t % 5 < 2) for t in range(2048)])
        trace.checkpoints.insert(-1, harness.CheckpointMetrics(1500, 0.5, 0.0, -0.0, 1e-300, 0.25))
        return trace
    if name == "signed_zeros":
        return _column_trace([(0.0, -0.0, 0.5)[t % 3] for t in range(40)],
                             [(-0.0, 0.0)[t % 7 < 3] for t in range(40)], [t % 2 for t in range(40)])
    if name == "off_grid":
        # 0.1 + 0.2 and the float after 0.25 lie off the m = 4 grid beside
        # points on it
        p = (0.25, math.nextafter(0.25, 1.0), 0.1 + 0.2, 0.3, 1 / 3)
        return _column_trace([0.3] * 50, [p[t % 5] for t in range(50)], [0] * 50)
    raise ValueError(name)


def _assert_blocks_match(monkeypatch, trace, label):
    # The chunked writer spells every trace exactly as the formatters
    # that built the whole file did, with block boundaries on and beside
    # checkpoint rows (blocks of 1, 3 and 7 rows) as well as the default.
    want = {"csv": _trace_csv_text(trace), "json": _json_text(_trace_json_rows(trace))}
    for rows in (TRACE_BLOCK_ROWS, 1, 3, 7):
        monkeypatch.setattr(cli, "TRACE_BLOCK_ROWS", rows)
        for fmt in ("csv", "json"):
            assert "".join(cli._trace_blocks(trace, fmt)) == want[fmt], (label, rows, fmt)


@pytest.mark.parametrize("labels, oracle", LABEL_ORACLES)
@pytest.mark.parametrize("forecaster", FORECASTERS)
def test_trace_blocks_match_whole_file_formatters(monkeypatch, forecaster, labels, oracle):
    for T in (1, 2, 3, 1000, 1024):
        if forecaster == "mw" and T < 3:
            # mw needs T >= ln(2^(m+1) + 1), which is 2.83 at m = 3
            with pytest.raises(ConfigError):
                _matrix_trace(forecaster, labels, oracle, T)
            continue
        _assert_blocks_match(monkeypatch, _matrix_trace(forecaster, labels, oracle, T), T)


@pytest.mark.parametrize("name", ["m300", "repeated_then_distinct", "quote_threshold",
                                  "signed_zeros", "off_grid"])
def test_trace_blocks_match_whole_file_formatters_on_edge_traces(monkeypatch, name):
    # Rows are keyed by the bits of their cells: blocks whose quotes repeat
    # and blocks whose quotes do not, on either side of the threshold
    # between them, more grid points than a block has rows, 0.0 beside
    # -0.0 in one block of q and of p, and plays off the grid each keep
    # their own text.
    _assert_blocks_match(monkeypatch, _edge_trace(name), name)


def test_trace_columns_can_grow_between_blocks(monkeypatch):
    # The writer holds no buffer of the trace's columns across a block, so
    # a producer can append rows while it waits for the next one.
    monkeypatch.setattr(cli, "TRACE_BLOCK_ROWS", 16)
    for name in ("repeated_then_distinct", "signed_zeros"):
        trace = _edge_trace(name)
        want = _trace_csv_text(trace)
        got = []
        for block in cli._trace_blocks(trace, "csv"):
            got.append(block)
            for col in (trace.q, trace.p, trace.y):
                col.append(col[-1])  # BufferError while a view is exported
                col.pop()
        assert "".join(got) == want, name


def test_trace_cells_have_the_types_the_writer_formats():
    # The writer formats every cell by repr, which spells a finite float or
    # an int as json.dumps does; a numpy scalar would spell itself
    # 'np.float64(0.5)', and nan or inf differ between the two.  q, p and
    # y are typed arrays, whose items read back as float and int; p holds
    # the grid's own floats.
    for forecaster in FORECASTERS:
        for labels, oracle in LABEL_ORACLES:
            trace = _matrix_trace(forecaster, labels, oracle, 64)
            assert (trace.q.typecode, trace.p.typecode, trace.y.typecode) == ("d", "d", "b")
            assert {type(v) for v in trace.q} == {float}, (forecaster, labels, oracle)
            assert {type(v) for v in trace.p} == {float}, (forecaster, labels, oracle)
            assert {type(v) for v in trace.y} == {int}, (forecaster, labels, oracle)
            assert set(trace.p) <= set(trace.game.grid), (forecaster, labels, oracle)
            assert all(0.0 <= v <= 1.0 for v in trace.q), (forecaster, labels, oracle)
            for c in trace.checkpoints:
                metrics = (c.calib_l1, c.average_regret, c.recalibration_rate,
                           c.dist_to_target)
                assert {type(v) for v in metrics} == {float}
                assert all(math.isfinite(v) for v in metrics), (forecaster, labels, oracle)


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


def _pool_modules_after(argv) -> str:
    """The process-pool modules that cli.main(argv) leaves imported, run
    in a fresh interpreter."""
    script = ("import sys, recal.cli; "
              f"assert recal.cli.main({argv!r}) == 0; "
              "print([m for m in ('multiprocessing', 'concurrent.futures.process')"
              " if m in sys.modules])")
    env = dict(os.environ)
    src = str(Path(cli.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env=env)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()[-1]


def test_a_run_does_not_import_the_process_pool(tmp_path):
    # multiprocessing would cost a run about 2 MB of memory and 15 ms of import
    assert _pool_modules_after(["run", "--T", "64", "--m", "4", "--out", str(tmp_path)]) == "[]"


def test_a_sweep_does_not_import_the_process_pool(tmp_path):
    # a sweep plays its jobs one after another in the calling process
    assert _pool_modules_after(["sweep", "--T-grid", "32,64", "--m", "4", "--seeds", "2",
                                "--out", str(tmp_path)]) == "[]"


# sha256 of what the benchmark's command lines write at seed 200, as
# bench/run.py prints them: one trace per run, sweep.csv for the sweep
BENCH_DIGESTS = {
    "run_stochastic": ["6d7051ff3d9a5b38b3006f57d02f174904fba85a68e3f9310e96fcac90e79fbf"],
    "run_adversarial": ["0ecdc98734ea97ae0b366512321d4bb092659097d1349fdfaf4dc9c0406aba07",
                        "17afb71fe1a40e0a64568da241b383c62fc50786f2a068c961eb3b59920feb4d"],
    "run_mw": ["a327ba1735e256f8c2d54371f97530625a4432577281347dd1c61c3a07e4fe25"],
    "sweep": ["ded58003e783822c23dcc43b99757f0ef05dfc1fc3d8e2e9e391c418e86b789e"],
}


@pytest.mark.parametrize("round_", ["compiled", "python"])
def test_bench_command_lines_write_the_pinned_bytes(tmp_path, monkeypatch, round_):
    # both rounds write the pinned bytes; the python case is the fallback's
    fn = compiled.library() if round_ == "compiled" else None
    monkeypatch.setattr(compiled, "library", lambda: fn)
    path = Path(cli.__file__).resolve().parents[2] / "bench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("bench_workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, workloads)  # for its dataclasses
    spec.loader.exec_module(workloads)
    assert sorted(workloads.NAMES) == sorted(BENCH_DIGESTS)
    for name, digests in BENCH_DIGESTS.items():
        wl = workloads.build(name, 200, str(tmp_path / name))
        if wl.sweep is not None:
            assert cli.main(list(wl.sweep.argv)) == 0
            files = [tmp_path / name / "0" / "sweep.csv"]
        else:
            for call in wl.calls:
                assert cli.main(list(call.argv)) == 0
            files = [tmp_path / name / str(k) / f"trace.{call.fmt}"
                     for k, call in enumerate(wl.calls)]
        got = [hashlib.sha256(f.read_bytes()).hexdigest() for f in files]
        assert got == digests, name


@pytest.mark.skipif(shutil.which("cc") is None, reason="no C compiler on PATH")
def test_run_and_sweep_note_the_python_round_on_stderr(tmp_path, monkeypatch, capsys):
    # The note changes neither the exit code nor a byte of the outputs.
    fn = compiled.library()
    assert fn is not None, "a C compiler is on PATH but the library did not load"
    written = {}
    for name, library in (("compiled", fn), ("python", None)):
        monkeypatch.setattr(compiled, "library", lambda: library)
        for forecaster in FORECASTERS:
            out = tmp_path / name / forecaster
            assert cli.main(_run_args(out, **{"--forecaster": forecaster})) == 0
            assert cli.main(["sweep", "--T-grid", "32,64", "--m", "4", "--seeds", "2",
                             "--forecaster", forecaster, "--out", str(out)]) == 0
            err = capsys.readouterr().err
            note = ("note: the compiled round did not load; the Python round plays "
                    f"{forecaster}\n")
            assert err == ("" if library else 2 * note), (name, forecaster)
            written[name, forecaster] = [(out / f).read_bytes()
                                         for f in ("trace.csv", "sweep.csv")]
    for forecaster in FORECASTERS:
        assert written["python", forecaster] == written["compiled", forecaster], forecaster


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


def test_a_forecaster_that_is_not_a_string_is_a_config_error(tmp_path, capsys):
    # a list is unhashable, so a bare lookup in the forecaster table would
    # raise TypeError, a runtime error, instead of a config error
    with pytest.raises(ConfigError, match="forecaster must be a string"):
        run_experiment(ExperimentConfig(T=8, m=4, forecaster=["mw"]))
    cfg_file = tmp_path / "cfg.json"
    cfg_file.write_text(json.dumps({"forecaster": ["mw"], "T": 8, "m": 4}))
    assert cli.main(["run", "--config", str(cfg_file), "--out", str(tmp_path)]) == 2
    assert "forecaster must be a string" in capsys.readouterr().err
    assert not (tmp_path / "trace.csv").exists()


def test_run_type_checks_config_values(tmp_path):
    cfg_file = tmp_path / "cfg.json"
    cfg_file.write_text(json.dumps({"T": "thirty", "m": 4}))
    assert cli.main(["run", "--config", str(cfg_file), "--out", str(tmp_path)]) == 2
    cfg_file.write_text(json.dumps({"T": True, "m": 4}))
    assert cli.main(["run", "--config", str(cfg_file), "--out", str(tmp_path)]) == 2
    cfg_file.write_text(json.dumps({"T": 32, "exponent": "0.35"}))
    assert cli.main(["run", "--config", str(cfg_file), "--out", str(tmp_path)]) == 2
    cfg_file.write_text(json.dumps({"T": 32, "m": 4, "labels": 3}))
    assert cli.main(["run", "--config", str(cfg_file), "--out", str(tmp_path)]) == 2
    # seeds is a count, not a list
    cfg_file.write_text(json.dumps({"T_grid": [32, 64], "m": 4, "seeds": [1, 2]}))
    assert cli.main(["sweep", "--config", str(cfg_file), "--out", str(tmp_path)]) == 2
    assert not (tmp_path / "sweep.csv").exists()


# ---------------------------------------------------------------------------
# cmd_sweep
# ---------------------------------------------------------------------------


def test_sweep_writes_rows_and_slopes(tmp_path, capsys):
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
    # each job's wall time, round and counters, ordered by (T, seed)
    jobs = summary["jobs"]
    assert [(job["T"], job["seed"]) for job in jobs] == [
        (T, seed) for T in (32, 64, 128) for seed in (0, 1)]
    for job in jobs:
        assert set(job) == {"T", "seed", "wall_time_s", "round", "oracle"}
        assert job["wall_time_s"] > 0.0
        assert job["round"] in ("compiled", "python")
        assert set(job["oracle"]) == set(ORACLE_COUNTERS)


def test_sweep_json_format(tmp_path):
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


def test_verify_refuses_a_negative_seed_before_any_suite(capsys):
    # numpy used to refuse it mid-run without naming the flag
    assert cli.main(["verify", "--quick", "--seed", "-1"]) == 2
    captured = capsys.readouterr()
    assert captured.err == "error: seed must be a nonnegative integer, got -1\n"
    assert captured.out == ""


# What each passing suite checks, and a broken stand-in for it inside
# recal.checks that the suite must catch.
_SABOTAGE = {
    "halfspace_response": ("approach_with_cost", lambda cfg, theta, q: (point_mass(0), 0)),
    "distance_dual_identity": ("dual_linear_min", lambda cfg, v: 0.0),
    "rate_bucket_identity": ("BucketStats.recalibration_rate", lambda stats, delta: -1.0),
    "mw_dp_consistency": ("dp_denominator", lambda state: 0.0),
    # always rounding down to 0 breaks the label-averaged bound too
    "label_averaged_rounding": ("nearest_grid_index", lambda p, m: 0),
}


@pytest.mark.parametrize("suite", list(_SABOTAGE))
def test_verify_detects_sabotage(suite, capsys, monkeypatch):
    target, broken = _SABOTAGE[suite]
    monkeypatch.setattr(f"recal.checks.{target}", broken)
    code = cli.main(["verify", "--quick"])
    assert code == 1
    assert f"{suite}: FAIL" in capsys.readouterr().out


def test_verify_under_python_O():
    # the suites back the acceptance criteria, so none may rest on assert
    env = dict(os.environ)
    src = str(Path(cli.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-O", "-m", "recal.cli", "verify", "--quick"],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 1, proc.stderr
    verdicts = [line.split(" (", 1)[0] for line in proc.stdout.splitlines()]
    assert verdicts == [
        "halfspace_response: PASS",
        "distance_dual_identity: PASS",
        "rate_bucket_identity: PASS",
        "mw_dp_consistency: PASS",
        "nearest_grid_regret: FAIL",
        "label_averaged_rounding: PASS",
    ]


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


# ---------------------------------------------------------------------------
# Public surface
# ---------------------------------------------------------------------------


def test_readme_library_example_runs(capsys):
    readme = Path(__file__).resolve().parents[1] / "README.md"
    blocks = re.findall(r"```python\n(.*?)```", readme.read_text(), re.S)
    assert len(blocks) == 1
    exec(compile(blocks[0], "README.md", "exec"), {})
    assert 0.0 <= float(capsys.readouterr().out) <= 1.0


def test_readme_run_flag_table_matches_the_parser():
    # The CLI derives its defaults from ExperimentConfig; README's table
    # under "recal run" is the one place they are written out by hand.
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("### recal run", 1)[1].split("\n### ", 1)[0]
    rows = re.findall(r"^\| `--(\w+)` \| .* \| (.*) \|$", section, re.M)
    sub = next(a for a in cli.build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    options = {s[2:] for a in sub.choices["run"]._actions for s in a.option_strings
               if s != "--help" and s.startswith("--")}
    assert sorted(flag for flag, _ in rows) == sorted(options)
    for flag, default in rows:
        value = cli.DEFAULTS.get(flag)
        if value is None:
            assert not default.startswith("`"), (flag, default)
        else:
            assert default == f"`{value}`", (flag, default)
