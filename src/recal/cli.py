"""Command-line interface: single runs, parameter sweeps, self-verification.

Configuration comes from flags, or from a JSON file (--config) whose
keys mirror the flag names; flags override file values, file values
override defaults, unknown keys are rejected.  Exit codes: 0 success,
1 runtime or property failure, 2 configuration error.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import string
import sys
import tempfile
from dataclasses import MISSING, asdict, astuple, fields
from typing import Callable, NamedTuple

from . import checks
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
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp.",
                               suffix="." + os.path.basename(path))
    # mkstemp creates the file 0600 and os.replace keeps that mode: give
    # it the mode open(path, "w") would, 0666 less the umask.
    umask = os.umask(0)
    os.umask(umask)
    try:
        os.chmod(tmp, 0o666 & ~umask)
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


def _json_items(values) -> list:
    """Cell texts of values, a list or a block of a typed column, from the
    C encoder: the same float, int and null text as the indented encoder
    writes.  json refuses an array, so a block goes through tolist."""
    if not isinstance(values, list):
        values = values.tolist()
    return json.dumps(values)[1:-1].split(", ")


def _csv_items(values) -> list:
    return list(map(repr, values))


def _template(row: str) -> tuple:
    """A row in str.format syntax as alternating literal texts and field
    numbers."""
    pieces = []
    for literal, field_name, _, _ in string.Formatter().parse(row):
        if literal:
            pieces.append(literal)
        if field_name is not None:
            pieces.append(int(field_name))
    return tuple(pieces)


def _json_row(cells) -> str:
    fields = sorted(zip(TRACE_HEADER, cells))
    return (",\n  {{\n" + ",\n".join(f'    "{key}": {cell}' for key, cell in fields)
            + "\n  }}")


class _TraceFormat(NamedTuple):
    """How a trace file spells its rows.

    plain and full are row templates whose fields 0-7 are the columns of
    TRACE_HEADER: plain has the four empty checkpoint cells baked in,
    full is the checkpoint row.  Every row starts with sep, which the
    file's first row drops.  items turns a list or a column block into
    cell texts.
    """

    head: str
    sep: str
    plain: tuple
    full: tuple
    foot: str
    items: Callable[[list], list]


_FIELDS = tuple(f"{{{k}}}" for k in range(len(TRACE_HEADER)))
_TRACE_FORMATS = {
    "csv": _TraceFormat(",".join(TRACE_HEADER) + "\n", "",
                        _template(",".join(_FIELDS[:4] + ("",) * 4) + "\n"),
                        _template(",".join(_FIELDS) + "\n"), "", _csv_items),
    "json": _TraceFormat("[\n", ",\n", _template(_json_row(_FIELDS[:4] + ("null",) * 4)),
                         _template(_json_row(_FIELDS)), "\n]\n", _json_items),
}
# Rows per block of a trace file: a block's text and cell lists are all
# the writer holds, whatever T is.
TRACE_BLOCK_ROWS = 1024


def _fill(template: tuple, cols: list):
    """The texts of template's rows, field k of each row from cols[k]."""
    return itertools.chain.from_iterable(zip(*[
        itertools.repeat(piece) if isinstance(piece, str) else cols[piece]
        for piece in template]))


def _trace_blocks(trace, fmt: str):
    """The text of trace's file in format fmt, TRACE_BLOCK_ROWS rows at a time.

    A block is built column by column: the format's encoder turns each
    of q, p and y into cell texts, the rows between checkpoints take the
    plain template and each checkpoint row the full one.
    """
    spec = _TRACE_FORMATS[fmt]
    items = spec.items
    T = len(trace.p)
    yield spec.head
    for lo in range(0, T, TRACE_BLOCK_ROWS):
        hi = min(lo + TRACE_BLOCK_ROWS, T)
        cols = [list(map(str, range(lo + 1, hi + 1))), items(trace.q[lo:hi]),
                items(trace.p[lo:hi]), items(trace.y[lo:hi])]
        runs = []
        start = 0
        for c in trace.checkpoints:
            if lo < c.t <= hi:
                k = c.t - lo - 1
                metrics = items([c.calib_l1, c.average_regret, c.recalibration_rate,
                                 c.dist_to_target])
                runs.append(_fill(spec.plain, [col[start:k] for col in cols]))
                runs.append(_fill(spec.full, [col[k:k + 1] for col in cols]
                                  + [[cell] for cell in metrics]))
                start = k + 1
        runs.append(_fill(spec.plain, [col[start:] for col in cols]))
        text = "".join(itertools.chain.from_iterable(runs))
        yield text if lo else text[len(spec.sep):]
    yield spec.foot


def cmd_run(args) -> int:
    merged = _merged_config(args, RUN_KEYS)
    fmt = _as_format(merged)
    out_dir = _as_str(merged, "out")
    exp = _experiment_config(merged)
    trace = run_experiment(exp)

    os.makedirs(out_dir, exist_ok=True)
    trace_path = os.path.join(out_dir, f"trace.{fmt}")
    _atomic_write(trace_path, _trace_blocks(trace, fmt))

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
    # The library also takes a list of seeds; the CLI takes a count.
    if isinstance(merged["seeds"], list):
        raise ConfigError(f"seeds must be a count, got {merged['seeds']!r}")
    result = sweep(_experiment_config(merged), T_grid, merged["seeds"])

    os.makedirs(out_dir, exist_ok=True)
    rows_path = os.path.join(out_dir, f"sweep.{fmt}")
    if fmt == "csv":
        text = "".join(",".join(map(repr, astuple(row))) + "\n" for row in result.rows)
        _atomic_write(rows_path, [",".join(SWEEP_HEADER) + "\n" + text])
    else:
        _atomic_write(rows_path, [_json_text([asdict(r) for r in result.rows])])

    summary = {
        "config": {k: merged[k] for k in SWEEP_KEYS},
        "slopes": result.slopes,
        "rows": [asdict(r) for r in result.rows],
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
