"""Checks of what a `recal` call wrote against the guarantees the paper states.

Each check returns a list of failure strings (empty when the output is
correct) and the facts the report shows: the output's sha256, its size
and, for sweeps, the fitted slopes.  The bounds are computed here from
the paper's constants, not taken from the code under test.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import os

import numpy as np

# Payoff norm bound of the paper's construction.
G = math.sqrt(2.0)
TRACE_HEADER = ["t", "q", "p", "y", "calib_l1", "avg_regret", "recal_rate",
                "dist_to_target"]
SWEEP_HEADER = ["T", "m", "mean_calib", "mean_regret", "mean_recal_rate",
                "stderr_calib", "stderr_regret", "stderr_recal_rate"]
GRID_TOL = 1e-9


def lipschitz(rule: str) -> float:
    if rule == "brier":
        return 2.0
    return 1.0 / float(rule.split(":", 1)[1])


def dual_set_diameter(m: int) -> float:
    """l2 diameter D(m) of the box K of halfspace parameters."""
    return math.sqrt(4.0 * (m + 1) + 1.0)


def approach_bound(m: int, T: int) -> float:
    """Per-run distance bound D*G/sqrt(T) of the approachability forecaster."""
    return dual_set_diameter(m) * G / math.sqrt(T)


def mw_bound(m: int, T: int, rule: str) -> float:
    """Lifted-max bound of the MW baseline: lam*(1/(2m) + 4*sqrt(ln d / T))."""
    log_d = (m + 1) * math.log(2.0) + math.log1p(2.0 ** -(m + 1))
    return max(1.0, lipschitz(rule)) * (1.0 / (2.0 * m) + 4.0 * math.sqrt(log_d / T))


def _digest(path: str) -> tuple[str, int]:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest(), os.path.getsize(path)


def _read_trace(path: str, fmt: str):
    """(header, columns t, q, p, y as arrays, last row's dist_to_target)."""
    if fmt == "csv":
        with open(path, newline="") as fh:
            reader = csv.reader(fh)
            header = next(reader, [])
            rows = list(reader)
        cols = list(zip(*rows)) if rows else [()] * len(TRACE_HEADER)
        last = rows[-1][7] if rows else ""
        last = float(last) if last != "" else None
    else:
        with open(path) as fh:
            doc = json.load(fh)
        header = list(doc[0]) if doc else []
        cols = [[row[k] for row in doc] for k in TRACE_HEADER[:4]]
        last = doc[-1]["dist_to_target"] if doc else None
    t, q, p, y = (np.asarray(c, dtype=float) for c in cols[:4])
    return header, t, q, p, y, last


def check_run(call, out_dir: str, trace=None) -> tuple[list, dict]:
    """Check one `recal run`: trace rows, summary, and the per-run bound.

    `trace` is the Trace object run_experiment returned; the MW bound is
    on the expected payoff, which only it carries.
    """
    trace_path = os.path.join(out_dir, f"trace.{call.fmt}")
    summary_path = os.path.join(out_dir, "summary.json")
    try:
        header, t, q, p, y, last = _read_trace(trace_path, call.fmt)
        with open(summary_path) as fh:
            summary = json.load(fh)
    except (OSError, ValueError, KeyError, IndexError, TypeError) as exc:
        return [f"{call.forecaster}: unreadable output: {exc}"], {}
    sha, size = _digest(trace_path)
    info = {"sha256": sha, "bytes": size}
    fails = []
    m = call.m
    if sorted(header) != sorted(TRACE_HEADER):
        fails.append(f"trace header {header}")
    if len(t) != call.T or not np.array_equal(t, np.arange(1, call.T + 1)):
        fails.append(f"{len(t)} trace rows, expected t = 1..{call.T}")
    if not np.isin(y, (0.0, 1.0)).all():
        fails.append("labels outside {0, 1}")
    if not ((q >= 0.0) & (q <= 1.0)).all():
        fails.append("quotes outside [0, 1]")
    if not (((p >= 0.0) & (p <= 1.0)).all()
            and (np.abs(p * m - np.round(p * m)) <= GRID_TOL).all()):
        fails.append(f"forecasts off the grid {{0, 1/{m}, ..., 1}}")

    final = summary.get("final", {})
    dist = final.get("dist_to_target")
    if final.get("t") != call.T or summary.get("resolved", {}).get("m") != m:
        fails.append(f"summary final t={final.get('t')} m={summary.get('resolved', {}).get('m')}")
    if last is None or last != dist:
        fails.append("last trace row disagrees with summary dist_to_target")
    if call.forecaster == "approach":
        bound = approach_bound(m, call.T)
        info["headroom"] = dist / bound if dist is not None else math.nan
        if dist is None or not dist <= bound:
            fails.append(f"approach dist_to_target {dist} > D*G/sqrt(T) = {bound:.6g}")
    elif call.forecaster == "mw":
        bound = mw_bound(m, call.T, call.rule)
        if trace is None:
            fails.append("mw: run_experiment result not captured")
        else:
            lam = max(1.0, lipschitz(call.rule))
            cal = trace.cum_payoff.cal / call.T
            lifted = max(float(abs(cal).sum()), trace.cum_payoff.reg * lam / call.T)
            info["headroom"] = lifted / bound
            if not lifted <= bound:
                fails.append(f"mw lifted max {lifted:.6g} > bound {bound:.6g}")
    return [f"{call.forecaster}: {f}" for f in fails], info


def check_sweep(spec, out_dir: str) -> tuple[list, dict]:
    """Check `recal sweep` rows against the per-row bounds of criterion 07."""
    rows_path = os.path.join(out_dir, "sweep.csv")
    try:
        with open(rows_path, newline="") as fh:
            reader = csv.reader(fh)
            header = next(reader, [])
            rows = [[float(v) for v in row] for row in reader]
        with open(os.path.join(out_dir, "sweep_summary.json")) as fh:
            slopes = json.load(fh)["slopes"]
    except (OSError, ValueError, KeyError) as exc:
        return [f"sweep: unreadable output: {exc}"], {}
    sha, size = _digest(rows_path)
    info = {"sha256": sha, "bytes": size, "slopes": {
        k: (v["slope"] if v else None) for k, v in slopes.items()}}
    fails = []
    if header != SWEEP_HEADER:
        fails.append(f"sweep header {header}")
    if [int(r[0]) for r in rows] != list(spec.T_grid):
        fails.append(f"sweep horizons {[r[0] for r in rows]} != {list(spec.T_grid)}")
    L = lipschitz(spec.rule)
    worst = 0.0
    for T, m, calib, regret, recal, *stderrs in rows:
        T, m = int(T), int(m)
        if m != math.ceil(T ** (1.0 - 2.0 * spec.exponent)):
            fails.append(f"T={T}: m={m} is not ceil(T^(1-2x))")
            continue
        cal_bound = approach_bound(m, T)
        reg_bound = 4.0 * L / m ** 2 / 2.0 + cal_bound
        worst = max(worst, calib / cal_bound, regret / reg_bound)
        if not (0.0 <= calib <= cal_bound and regret <= reg_bound
                and recal >= 0.0 and all(s >= 0.0 for s in stderrs)):
            fails.append(f"T={T}: calib {calib:.4g} (bound {cal_bound:.4g}), "
                         f"regret {regret:.4g} (bound {reg_bound:.4g}), recal {recal:.4g}")
    info["headroom"] = worst
    return [f"sweep: {f}" for f in fails], info
