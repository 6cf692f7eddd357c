"""Command-line interface: single runs, parameter sweeps, self-verification.

Configuration comes from flags, or from a JSON file (--config) whose
keys mirror the flag names; flags override file values, file values
override defaults, unknown keys are rejected.  Exit codes: 0 success,
1 runtime or property failure, 2 configuration error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from dataclasses import MISSING, asdict, astuple, fields
from typing import Callable, NamedTuple, Sequence

import numpy as np

from . import checks, compiled
from .harness import FORECASTERS, ConfigError, ExperimentConfig, run_experiment, sweep
from .metrics import default_regret_slack

# The config keys and their defaults are ExperimentConfig's fields; a
# sweep takes T_grid and seeds in place of T.
CONFIG_KEYS = tuple(f.name for f in fields(ExperimentConfig))
RUN_KEYS = CONFIG_KEYS + ("out", "format")
SWEEP_KEYS = tuple(k for k in RUN_KEYS if k != "T") + ("T_grid", "seeds")
DEFAULTS = {f.name: None if f.default is MISSING else f.default for f in fields(ExperimentConfig)}
DEFAULTS.update(T_grid=None, seeds=1, out=".", format="csv")
TRACE_HEADER = ("t", "q", "p", "y", "calib_l1", "avg_regret", "recal_rate",
                "dist_to_target")
SWEEP_HEADER = ("T", "m", "mean_calib", "mean_regret", "mean_recal_rate",
                "stderr_calib", "stderr_regret", "stderr_recal_rate")


def _merged_config(args, keys) -> dict:
    merged = {k: DEFAULTS[k] for k in keys}
    if getattr(args, "config", None) is not None:
        try:
            with open(args.config) as fh:
                doc = json.load(fh)
        except OSError as exc:
            raise ConfigError(f"cannot read config file: {exc}") from None
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config file is not valid JSON: {exc}") from None
        if not isinstance(doc, dict):
            raise ConfigError("config file must contain a JSON object")
        unknown = sorted(set(doc) - set(keys))
        if unknown:
            raise ConfigError(f"unknown config keys: {', '.join(unknown)}")
        for k, v in doc.items():
            if v is not None:
                merged[k] = v
    for k in keys:
        v = getattr(args, k, None)
        if v is not None:
            merged[k] = v
    return merged


def _as_str(merged: dict, key: str) -> str:
    v = merged.get(key)
    if not isinstance(v, str):
        raise ConfigError(f"{key} must be a string, got {v!r}")
    return v


def _as_format(merged: dict) -> str:
    v = _as_str(merged, "format")
    if v not in ("csv", "json"):
        raise ConfigError(f"format must be 'csv' or 'json', got {v!r}")
    return v


def _as_T_grid(merged: dict):
    """T_grid as given, a comma list split into integers; sweep checks it."""
    v = merged["T_grid"]
    if isinstance(v, str):
        try:
            v = [int(s) for s in v.split(",") if s.strip()]
        except ValueError:
            raise ConfigError(f"T_grid must be a comma list of integers, got {v!r}") from None
    return v


def _atomic_write(path: str, blocks) -> None:
    """Write the text blocks to path, one at a time, through a temporary
    file in the same directory that replaces path once all are written."""
    directory, name = os.path.split(os.path.abspath(path))
    # A random name that O_EXCL refuses if it exists; the kernel gives the
    # file 0666 less the umask, the mode open(path, "w") would.
    tmp = os.path.join(directory, f".tmp.{os.urandom(8).hex()}.{name}")
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with os.fdopen(fd, "w", newline="") as fh:
            fh.writelines(blocks)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def _json_text(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def _experiment_config(merged: dict) -> ExperimentConfig:
    return ExperimentConfig(**{k: merged.get(k) for k in CONFIG_KEYS})


def _note_fallback(exp: ExperimentConfig) -> None:
    """Say on stderr when the compiled round cannot play a forecaster that
    has a compiled mode, so the Python round plays it."""
    entry = FORECASTERS.get(exp.forecaster) if isinstance(exp.forecaster, str) else None
    if entry is not None and entry.mode is not None and compiled.library() is None:
        print(f"note: the compiled round did not load; the Python round plays "
              f"{exp.forecaster}", file=sys.stderr)


def _csv_row(cells) -> str:
    return ",".join(cells) + "\n"


# TRACE_HEADER's indices in the order of its sorted keys
_JSON_ORDER = sorted(range(len(TRACE_HEADER)), key=TRACE_HEADER.__getitem__)


def _json_row(cells) -> str:
    return ("  {\n" + ",\n".join([f'    "{TRACE_HEADER[k]}": {cells[k]}' for k in _JSON_ORDER])
            + "\n  }")


class _TraceFormat(NamedTuple):
    """How a trace file spells its rows.

    row spells one row from the texts of its cells, in TRACE_HEADER's
    order; a row that is not a checkpoint has empty for each of its four
    checkpoint cells.  Every row starts with sep, which the file's first
    row drops.  loose is the order in which a row spells t (0) and q (1).
    """

    head: str
    sep: str
    foot: str
    row: Callable[[Sequence[str]], str]
    empty: str
    loose: tuple


_TRACE_FORMATS = {
    "csv": _TraceFormat(_csv_row(TRACE_HEADER), "", "", _csv_row, "", (0, 1)),
    "json": _TraceFormat("[\n", ",\n", "\n]\n", _json_row, "null", (1, 0)),
}
# Rows per block of a trace file: a block's text and cell lists are all
# the writer holds, whatever T is.
TRACE_BLOCK_ROWS = 1024


def _distinct(bits):
    """The distinct values of bits, sorted."""
    s = np.sort(bits)
    return s[np.concatenate(([True], s[1:] != s[:-1]))]


def _block_text(spec: _TraceFormat, trace, lo: int, hi: int) -> str:
    """The text of trace's rows lo + 1 to hi.

    Each row is keyed by the bit patterns of its cells (so -0.0 and 0.0,
    or a p off the grid, keep their own text), and spelled once per
    distinct key with a stand-in in each loose cell, then cut there.  t
    is always loose.  When the block's quotes repeat (a distinct quote
    per four rows at most) the key is (q, p, y); otherwise q is loose
    too, spelled by repr in every row, and the key is (p, y).
    Checkpoint rows are spelled whole.
    """
    n = hi - lo
    # Views of copies: no buffer of trace's own columns is exported, so
    # they can still grow while the writer is between blocks.
    q = np.frombuffer(trace.q[lo:hi], np.float64)
    p = np.frombuffer(trace.p[lo:hi], np.float64)
    y = np.frombuffer(trace.y[lo:hi], np.int8)
    qbits, pbits = q.view(np.uint64), p.view(np.uint64)
    quotes = _distinct(qbits)
    if 4 * len(quotes) <= n:
        loose, key = (0,), np.searchsorted(quotes, qbits)
    else:
        loose, key = spec.loose, 0
    plays = _distinct(pbits)
    # a label's byte is its own code
    key = (key * len(plays) + np.searchsorted(plays, pbits)) * 256 + y.view(np.uint8)
    keys, row_key = np.unique(key, return_inverse=True)
    some_row = np.empty(len(keys), np.intp)  # a row with each key
    some_row[row_key] = np.arange(n)
    # Every cell is an int or a finite float: q lies in [0, 1], p is a
    # grid point and the metrics are bounded sums.  For those repr
    # writes the same text as json.dumps, so one encoder serves both
    # formats.  No repr holds the stand-in "\0".
    stand_in = ["\0"] * len(keys)
    cells = [stand_in] + [stand_in if k in loose else list(map(repr, col[some_row].tolist()))
                          for k, col in enumerate((q, p, y), 1)]
    empty = (spec.empty,) * 4
    texts = [(spec.sep + spec.row(row + empty)).split("\0") for row in zip(*cells)]
    width = 2 * len(loose) + 1
    pieces = [None] * (width * n)
    for k, run in enumerate(zip(*texts)):
        pieces[2 * k::width] = np.array(run, dtype=object)[row_key].tolist()
    for k, cell in enumerate(loose):
        pieces[2 * k + 1::width] = map(repr, q.tolist() if cell else range(lo + 1, hi + 1))
    for c in trace.checkpoints:
        if lo < c.t <= hi:
            row = [repr(v) for v in (c.t, trace.q[c.t - 1], trace.p[c.t - 1], trace.y[c.t - 1],
                                     c.calib_l1, c.average_regret, c.recalibration_rate,
                                     c.dist_to_target)]
            r = width * (c.t - lo - 1)
            pieces[r:r + width] = [spec.sep + spec.row(row)] + [""] * (width - 1)
    return "".join(pieces)


def _trace_blocks(trace, fmt: str):
    """The text of trace's file in format fmt, TRACE_BLOCK_ROWS rows at a time."""
    spec = _TRACE_FORMATS[fmt]
    T = len(trace.p)
    yield spec.head
    for lo in range(0, T, TRACE_BLOCK_ROWS):
        text = _block_text(spec, trace, lo, min(lo + TRACE_BLOCK_ROWS, T))
        yield text if lo else text[len(spec.sep):]
    yield spec.foot


def cmd_run(args) -> int:
    merged = _merged_config(args, RUN_KEYS)
    fmt = _as_format(merged)
    out_dir = _as_str(merged, "out")
    exp = _experiment_config(merged)
    _note_fallback(exp)
    trace = run_experiment(exp)

    os.makedirs(out_dir, exist_ok=True)
    trace_path = os.path.join(out_dir, f"trace.{fmt}")
    t0 = time.perf_counter()
    _atomic_write(trace_path, _trace_blocks(trace, fmt))
    trace_write_s = time.perf_counter() - t0

    cfg = trace.game
    final = trace.final
    summary = {
        "config": {k: merged[k] for k in RUN_KEYS},
        "resolved": {
            "m": trace.m,
            "lambda": cfg.lam,
            "cal_threshold": cfg.cal_threshold,
            "reg_threshold": cfg.reg_threshold,
            "delta": default_regret_slack(cfg.rule, trace.m),
        },
        "final": asdict(final),
        "round": trace.round,
        "wall_time_s": trace.wall_time,
        "trace_write_s": trace_write_s,
    }
    if trace.oracle is not None:
        summary["oracle"] = trace.oracle
    summary_path = os.path.join(out_dir, "summary.json")
    _atomic_write(summary_path, [_json_text(summary)])
    print(f"T={exp.T} m={trace.m} recal_rate={final.recalibration_rate:.6g} "
          f"dist_to_target={final.dist_to_target:.6g} -> {trace_path}, {summary_path}")
    return 0


def cmd_sweep(args) -> int:
    merged = _merged_config(args, SWEEP_KEYS)
    fmt = _as_format(merged)
    out_dir = _as_str(merged, "out")
    T_grid = _as_T_grid(merged)
    exp = _experiment_config(merged)
    _note_fallback(exp)
    result = sweep(exp, T_grid, merged["seeds"])

    os.makedirs(out_dir, exist_ok=True)
    rows_path = os.path.join(out_dir, f"sweep.{fmt}")
    if fmt == "csv":
        _atomic_write(rows_path, [_csv_row(SWEEP_HEADER)]
                      + [_csv_row(map(repr, astuple(row))) for row in result.rows])
    else:
        _atomic_write(rows_path, [_json_text([asdict(r) for r in result.rows])])

    summary = {
        "config": {k: merged[k] for k in SWEEP_KEYS},
        "slopes": result.slopes,
        "rows": [asdict(r) for r in result.rows],
        "jobs": result.jobs,
    }
    summary_path = os.path.join(out_dir, "sweep_summary.json")
    _atomic_write(summary_path, [_json_text(summary)])

    for key in ("calibration_rate", "average_regret", "recalibration_rate"):
        info = result.slopes[key]
        if info is None:
            print(f"{key}: slope unavailable (fewer than 3 positive points)")
        else:
            print(f"{key}: slope={info['slope']:.4f} r2={info['r_squared']:.4f}")
    print(f"wrote {rows_path}, {summary_path}")
    return 0


def cmd_verify(args) -> int:
    seed = args.seed
    if seed < 0:
        raise ConfigError(f"seed must be a nonnegative integer, got {seed!r}")
    scale = 1 if args.quick else 10
    m_max, updates = (4, 20) if args.quick else (10, 100)
    suites = (
        ("halfspace_response", checks.halfspace_response, (2000 * scale, seed)),
        ("distance_dual_identity", checks.distance_dual, (1000 * scale, seed + 1)),
        ("rate_bucket_identity", checks.rate_identity, (100 * scale, seed + 2)),
        ("mw_dp_consistency", checks.mw_dp, (m_max, updates, 1, seed + 3)),
        ("nearest_grid_regret", checks.nearest_grid_regret, (100 * scale,)),
        ("label_averaged_rounding", checks.label_averaged_rounding, (100 * scale,)),
    )
    failures = 0
    for name, check, sizes in suites:
        ok, _, detail = check(*sizes)
        print(f"{name}: {'PASS' if ok else 'FAIL'} ({detail})")
        failures += not ok
    return 0 if failures == 0 else 1


def _add_common_flags(p) -> None:
    p.add_argument("--config", help="JSON config file; flags override its values")
    p.add_argument("--forecaster", choices=FORECASTERS)
    p.add_argument("--rule", help="scoring rule: brier or log:<gamma>")
    p.add_argument("--m", type=int, help="grid resolution (exclusive with --exponent)")
    p.add_argument("--exponent", type=float,
                   help="regret-rate exponent x in [1/3, 2/5]; sets m = ceil(T^(1-2x))")
    p.add_argument("--oracle",
                   help="truth | clairvoyant:<beta> | constant:<c> | noisy_truth:<sigma>")
    p.add_argument("--labels",
                   help="iid_bernoulli:<pi> | periodic:<pattern> | adversarial_greedy")
    p.add_argument("--seed", type=int)
    p.add_argument("--out", help="output directory")
    p.add_argument("--format", choices=("csv", "json"))


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="recal",
        description="Online recalibration of black-box probability forecasts.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run one experiment, write trace and summary")
    _add_common_flags(p_run)
    p_run.add_argument("--T", type=int, help="number of rounds")
    p_run.set_defaults(func=cmd_run)

    p_sweep = sub.add_parser("sweep", help="run a horizon sweep and fit rate slopes")
    _add_common_flags(p_sweep)
    p_sweep.add_argument("--T-grid", dest="T_grid", help="comma list of horizons")
    p_sweep.add_argument("--seeds", type=int, help="number of seeds per horizon")
    p_sweep.set_defaults(func=cmd_sweep)

    p_verify = sub.add_parser("verify", help="run the property self-checks")
    p_verify.add_argument("--quick", action="store_true", help="10x fewer samples")
    p_verify.add_argument("--seed", type=int, default=0)
    p_verify.set_defaults(func=cmd_verify)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        return args.func(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:
        print(f"runtime error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
