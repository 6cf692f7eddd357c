"""Smoke test of the benchmark itself.

    python3 -m pytest bench

Runs every workload at 1/64 of its horizons, in both modes, and checks
that the result line carries exactly the metrics BENCHMARK.json names,
with their units.  Then shows that an output outside the paper's bound
is counted as a failure, and that the benchmark refuses to run without
the program's sources.
"""

import json
import os
import shutil
import subprocess
import sys
from types import SimpleNamespace

import numpy as np
import pytest

import checks
import run
import workloads

SRC = os.path.join(run.ROOT, "src")
with open(os.path.join(run.ROOT, "BENCHMARK.json")) as _fh:
    SPEC = json.load(_fh)


def _bench(*args, cwd=run.ROOT):
    return subprocess.run([sys.executable, os.path.join(cwd, "bench", "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("name", [w["name"] for w in SPEC["workloads"]])
def test_every_metric_is_emitted_with_its_unit(name, trace):
    proc = _bench("--workload", name, "--seed", "3", "--seconds", "0",
                  "--trace", trace, "--tiny")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = SPEC["per_layer"] if trace == "1" else SPEC["end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in declared}
    for value in result["metrics"].values():
        assert isinstance(value["value"], (int, float))


def _cli(argv):
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    import recal.cli
    assert recal.cli.main(list(argv)) == 0


def _tampered_run(tmp_path):
    """A tiny approach run whose summary and last row claim a distance
    ten times the paper's bound."""
    wl = workloads.build("run_stochastic", 3, str(tmp_path), run.TINY_SHIFT)
    call = wl.calls[0]
    _cli(call.argv)
    out = os.path.join(str(tmp_path), "0")
    assert checks.check_run(call, out)[0] == []
    bad = 10 * checks.approach_bound(call.m, call.T)
    with open(os.path.join(out, "summary.json")) as fh:
        summary = json.load(fh)
    summary["final"]["dist_to_target"] = bad
    with open(os.path.join(out, "summary.json"), "w") as fh:
        json.dump(summary, fh)
    with open(os.path.join(out, "trace.csv")) as fh:
        lines = fh.read().splitlines()
    last = lines[-1].split(",")
    last[7] = repr(bad)
    lines[-1] = ",".join(last)
    with open(os.path.join(out, "trace.csv"), "w") as fh:
        fh.write("\n".join(lines) + "\n")
    return call, out


def test_out_of_bound_output_counts_as_an_error(tmp_path, capsys):
    call, out = _tampered_run(tmp_path)
    fails, _ = checks.check_run(call, out)
    assert any("D*G/sqrt(T)" in f for f in fails)

    ok = {"reps": [[1.0, 0.5]], "rounds": call.T, "peak_rss_mb": 40.0,
          "traced": False, "fails": []}
    m = {"setup": [0.2], "samples": [ok, dict(ok, fails=fails)],
         "failures": [fails], "ref": None}
    result = run.report("run_stochastic", 3, False, m)
    assert not result["correct"] and result["failed"] == 1
    assert result["metrics"]["pass_rate"]["value"] == 0.5
    assert "error_rate 0.5000" in capsys.readouterr().out


def test_out_of_bound_sweep_row_and_mw_payoff_fail(tmp_path, monkeypatch):
    monkeypatch.setenv("RECAL_THREADS", "1")
    wl = workloads.build("sweep", 3, str(tmp_path), run.TINY_SHIFT)
    _cli(wl.sweep.argv)
    out = os.path.join(str(tmp_path), "0")
    assert checks.check_sweep(wl.sweep, out)[0] == []
    path = os.path.join(out, "sweep.csv")
    with open(path) as fh:
        lines = fh.read().splitlines()
    row = lines[1].split(",")
    row[2] = "5.0"  # mean calibration rate far above D*G/sqrt(T)
    lines[1] = ",".join(row)
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")
    assert checks.check_sweep(wl.sweep, out)[0]

    mw = workloads.build("run_mw", 3, str(tmp_path / "mw"), run.TINY_SHIFT).calls[0]
    _cli(mw.argv)
    mw_out = os.path.join(str(tmp_path / "mw"), "0")
    # Average calibration l1 of 1 per coordinate is far beyond the MW bound.
    payoff = SimpleNamespace(cal=np.full(mw.m + 1, float(mw.T)), reg=0.0)
    fails, _ = checks.check_run(mw, mw_out, SimpleNamespace(cum_payoff=payoff))
    assert any("lifted max" in f for f in fails)


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copytree(os.path.join(run.ROOT, "bench"), tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), tmp_path)
    proc = _bench("--workload", "run_stochastic", "--seed", "1", "--seconds", "1",
                  "--trace", "0", cwd=str(tmp_path))
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
