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
import math
import os
import string
import sys
import tempfile
from dataclasses import asdict
from typing import Callable, NamedTuple

import numpy as np

from .geometry import (
    HalfspaceParam,
    PayoffVector,
    dist_to_target,
    dual_linear_min,
    game_config,
    nearest_grid_index,
    payoff_vector,
    unchecked_game_config,
)
from .harness import ConfigError, ExperimentConfig, run_experiment, sweep
from .metrics import BucketStats, default_regret_slack
from .mw_recalibrator import dp_denominator, dp_weighted_loss, mw_init, mw_update
from .recalibrator import approach_with_cost
from .scoring import brier, log_clipped, regret_term, score

RUN_KEYS = ("forecaster", "rule", "m", "exponent", "T", "oracle", "labels",
            "seed", "out", "format")
SWEEP_KEYS = ("forecaster", "rule", "m", "exponent", "T_grid", "seeds",
              "oracle", "labels", "seed", "out", "format")
DEFAULTS = {
    "forecaster": "approach",
    "rule": "brier",
    "m": None,
    "exponent": None,
    "T": None,
    "T_grid": None,
    "seeds": 1,
    "oracle": "clairvoyant:0.2",
    "labels": "iid_bernoulli:0.5",
    "seed": 0,
    "out": ".",
    "format": "csv",
}
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


def _as_int(merged: dict, key: str, required: bool = False):
    v = merged.get(key)
    if v is None:
        if required:
            raise ConfigError(f"{key} is required")
        return None
    if isinstance(v, bool) or not isinstance(v, int):
        raise ConfigError(f"{key} must be an integer, got {v!r}")
    return v


def _as_float(merged: dict, key: str):
    v = merged.get(key)
    if v is None:
        return None
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        raise ConfigError(f"{key} must be a number, got {v!r}")
    return float(v)


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


def _as_T_grid(merged: dict) -> list:
    v = merged.get("T_grid")
    if v is None:
        raise ConfigError("T_grid is required")
    if isinstance(v, str):
        parts = [s.strip() for s in v.split(",") if s.strip()]
        try:
            v = [int(s) for s in parts]
        except ValueError:
            raise ConfigError(f"T_grid must be a comma list of integers, got {v!r}") from None
    if not isinstance(v, (list, tuple)) or not v:
        raise ConfigError("T_grid must be a nonempty list of integers")
    out = []
    for item in v:
        if isinstance(item, bool) or not isinstance(item, int):
            raise ConfigError(f"T_grid entries must be integers, got {item!r}")
        out.append(item)
    return out


def _atomic_write(path: str, blocks) -> None:
    """Write the text blocks to path, one at a time, through a temporary
    file in the same directory that replaces path once all are written."""
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp.",
                               suffix="." + os.path.basename(path))
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
    return ExperimentConfig(
        T=_as_int(merged, "T", required=True),
        rule=_as_str(merged, "rule"),
        forecaster=_as_str(merged, "forecaster"),
        m=_as_int(merged, "m"),
        exponent=_as_float(merged, "exponent"),
        oracle=_as_str(merged, "oracle"),
        labels=_as_str(merged, "labels"),
        seed=_as_int(merged, "seed", required=True),
    )


def _json_items(values) -> list:
    """Cell texts of values from the C encoder: the same float, int and
    null text as the indented encoder writes."""
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
    file's first row drops.  items turns a list of values into cell texts.
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
        "final": {
            "t": final.t,
            "calib_l1": final.calib_l1,
            "calibration_rate": final.calibration_rate,
            "average_regret": final.average_regret,
            "recalibration_rate": final.recalibration_rate,
            "dist_to_target": final.dist_to_target,
        },
        "wall_time_s": trace.wall_time,
    }
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
    seeds = _as_int(merged, "seeds", required=True)
    base = ExperimentConfig(
        T=T_grid[0],
        rule=_as_str(merged, "rule"),
        forecaster=_as_str(merged, "forecaster"),
        m=_as_int(merged, "m"),
        exponent=_as_float(merged, "exponent"),
        oracle=_as_str(merged, "oracle"),
        labels=_as_str(merged, "labels"),
        seed=_as_int(merged, "seed", required=True),
    )
    result = sweep(base, T_grid, seeds)

    os.makedirs(out_dir, exist_ok=True)
    rows_path = os.path.join(out_dir, f"sweep.{fmt}")
    if fmt == "csv":
        text = "".join(",".join(map(repr, (
            row.T, row.m, row.calibration_rate, row.average_regret,
            row.recalibration_rate, row.calibration_rate_stderr,
            row.average_regret_stderr, row.recalibration_rate_stderr))) + "\n"
            for row in result.rows)
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


def _check_halfspace_response(seed: int, quick: bool):
    """The oracle's response satisfies <payoff, theta> <= 1/m + reg_threshold
    for both labels, for random theta in K, q, grid size, and rule."""
    n = 2000 if quick else 20000
    rng = np.random.default_rng(seed)
    variants = (("brier", brier(), 3), ("log:0.05", log_clipped(0.05), 9))
    cfg_cache = {}
    worst = math.inf
    witness = ""
    for k in range(n):
        name, rule, m_lo = variants[k % 2]
        m = int(rng.integers(m_lo, 65))
        cfg = cfg_cache.get((name, m))
        if cfg is None:
            cfg = cfg_cache.setdefault((name, m), game_config(m, rule))
        theta = HalfspaceParam(rng.uniform(-1.0, 1.0, m + 1), float(rng.uniform()))
        q = float(rng.random())
        w, _ = approach_with_cost(cfg, theta, q)
        bound = 1.0 / m + cfg.reg_threshold
        for y in (0, 1):
            v = payoff_vector(cfg, w, q, y)
            slack = bound - (float(v.cal @ theta.a) + theta.b * v.reg)
            if slack < worst:
                worst = slack
                witness = f"m={m} rule={name} q={q:.6f} y={y}"
    ok = worst >= -1e-9
    detail = f"worst slack {worst:.3e} over {2 * n} checks"
    if not ok:
        detail += f"; violated at {witness}"
    return "halfspace_response", ok, detail


def _check_distance_dual(seed: int, quick: bool):
    """dist_to_target(v) == -1/m - reg_threshold - dual_linear_min(v) for
    vectors with calibration l1 and regret both beyond their thresholds."""
    n = 1000 if quick else 10000
    rng = np.random.default_rng(seed)
    variants = (("brier", brier(), 3), ("log:0.05", log_clipped(0.05), 9))
    cfg_cache = {}
    worst = 0.0
    for k in range(n):
        name, rule, m_lo = variants[k % 2]
        m = int(rng.integers(m_lo, 65))
        cfg = cfg_cache.get((name, m))
        if cfg is None:
            cfg = cfg_cache.setdefault((name, m), game_config(m, rule))
        cal = rng.uniform(-1.0, 1.0, m + 1)
        l1 = float(np.abs(cal).sum())
        target_l1 = cfg.cal_threshold + float(rng.exponential(0.5))
        if l1 == 0.0:
            cal[0] = target_l1
        else:
            cal *= target_l1 / l1
        reg = cfg.reg_threshold + float(rng.exponential(0.3))
        v = PayoffVector(cal, reg)
        lhs = dist_to_target(cfg, v)
        rhs = -cfg.cal_threshold - cfg.reg_threshold - dual_linear_min(cfg, v)
        worst = max(worst, abs(lhs - rhs))
    ok = worst <= 1e-12
    return "distance_dual_identity", ok, f"worst gap {worst:.3e} over {n} vectors"


def _check_rate_identity(seed: int, quick: bool):
    """Bucket-computed recalibration rate equals the expression built
    from the recalibration vector, on random traces."""
    n = 100 if quick else 1000
    rng = np.random.default_rng(seed)
    rules = (brier(), log_clipped(0.05))
    worst = 0.0
    for k in range(n):
        rule = rules[k % 2]
        m = int(rng.integers(1, 17))
        T = int(rng.integers(1, 301))
        stats = BucketStats(m)
        for _ in range(T):
            i = int(rng.integers(0, m + 1))
            stats.record(i / m, float(rng.random()), int(rng.integers(0, 2)), rule)
        delta = default_regret_slack(rule, m)
        lhs = stats.recalibration_rate(delta)
        c, R = stats.recalibration_vector()
        rhs = max(0.0, float(np.abs(c).sum()) - 0.5 / m, R - delta / 2.0)
        worst = max(worst, abs(lhs - rhs))
    ok = worst <= 1e-12
    return "rate_bucket_identity", ok, f"worst gap {worst:.3e} over {n} traces"


def _check_mw_dp(seed: int, quick: bool):
    """dp_denominator and dp_weighted_loss match brute-force enumeration
    over all 2^(m+1)+1 lifted coordinates after random update streams."""
    ms = (2, 3, 4) if quick else tuple(range(2, 11))
    updates = 20 if quick else 100
    rng = np.random.default_rng(seed)
    worst = 0.0
    for m in ms:
        rule = brier() if m % 2 == 0 else log_clipped(0.05)
        cfg = unchecked_game_config(m, rule)
        state = mw_init(cfg, 200)
        grid = np.asarray(cfg.grid)
        scores = (np.asarray(cfg.score0), np.asarray(cfg.score1))
        signs = np.array(list(itertools.product((1.0, -1.0), repeat=m + 1)))
        cal_sums = np.zeros(m + 1)
        reg_sum = 0.0
        for _ in range(updates):
            x = rng.dirichlet(np.ones(m + 1))
            q = float(rng.random())
            y = int(rng.integers(0, 2))
            cal = x * (grid - y)
            r = float(x @ scores[y]) - score(rule, q, y)
            mw_update(state, x, q, y)
            cal_sums += cal
            reg_sum += r
        pattern = np.exp(state.eta * (signs @ cal_sums))
        reg_weight = math.exp(state.eta * reg_sum)
        bf_den = reg_weight + float(pattern.sum())
        worst = max(worst, abs(dp_denominator(state) - bf_den) / max(1.0, abs(bf_den)))
        xp = rng.dirichlet(np.ones(m + 1))
        qp = float(rng.random())
        yp = int(rng.integers(0, 2))
        calp = xp * (grid - yp)
        rp = float(xp @ scores[yp]) - score(rule, qp, yp)
        bf_loss = (float(pattern @ (signs @ calp)) + reg_weight * rp) / bf_den
        dp_loss = dp_weighted_loss(state, xp, qp, yp)
        worst = max(worst, abs(dp_loss - bf_loss) / max(1.0, abs(bf_loss)))
    ok = worst <= 1e-9
    return "mw_dp_consistency", ok, f"worst rel err {worst:.3e} over m in {ms}"


def _check_nearest_grid(quick: bool):
    """Playing the grid point nearest q keeps the per-label raw regret
    within 2*L_s/m^2.

    This per-label form is intentionally strict and is known to fail
    near the ends of [0, 1]; the label-averaged form (probability-q
    mixture of the two regrets) is what the halfspace_response suite
    exercises and it holds.  The failure is reported honestly.
    """
    qs = np.linspace(0.0, 1.0, 100 if quick else 1000)
    variants = (("brier", brier()), ("log:0.05", log_clipped(0.05)))
    worst = -math.inf
    witness = ""
    checks = 0
    for name, rule in variants:
        for m in range(3, 33):
            bound = 2.0 * rule.lipschitz / (m * m)
            for q in qs:
                qf = float(q)
                p = nearest_grid_index(qf, m) / m
                for y in (0, 1):
                    excess = regret_term(rule, p, qf, y) - bound
                    checks += 1
                    if excess > worst:
                        worst = excess
                        witness = f"m={m} rule={name} q={qf:.6f} y={y}"
    ok = worst <= 1e-12
    detail = f"worst excess {worst:.3e} over {checks} checks"
    if not ok:
        detail += f"; violated at {witness} (label-averaged form does hold)"
    return "nearest_grid_regret", ok, detail


def _check_rounding_bound(quick: bool):
    """Playing the grid point nearest q keeps the label-averaged regret
    E_{y~Bern(q)}[S(round(q), y) - S(q, y)] within 2*L_s/m^2, on the
    nearest_grid_regret grid."""
    qs = np.linspace(0.0, 1.0, 100 if quick else 1000)
    variants = (("brier", brier()), ("log:0.05", log_clipped(0.05)))
    ms = range(3, 33)
    worst = -math.inf
    witness = ""
    for name, rule in variants:
        for m in ms:
            bound = 2.0 * rule.lipschitz / (m * m)
            for q in qs:
                qf = float(q)
                p = nearest_grid_index(qf, m) / m
                expected = ((1.0 - qf) * regret_term(rule, p, qf, 0)
                            + qf * regret_term(rule, p, qf, 1))
                if expected / bound > worst:
                    worst = expected / bound
                    witness = f"m={m} rule={name} q={qf:.6f}"
    ok = worst <= 1.0
    checks = len(variants) * len(ms) * qs.size
    detail = f"worst regret/bound {worst:.3f} over {checks} checks, at {witness}"
    return "label_averaged_rounding", ok, detail


def cmd_verify(args) -> int:
    seed = args.seed
    quick = bool(args.quick)
    results = [
        _check_halfspace_response(seed, quick),
        _check_distance_dual(seed + 1, quick),
        _check_rate_identity(seed + 2, quick),
        _check_mw_dp(seed + 3, quick),
        _check_nearest_grid(quick),
        _check_rounding_bound(quick),
    ]
    failures = 0
    for name, ok, detail in results:
        print(f"{name}: {'PASS' if ok else 'FAIL'} ({detail})")
        if not ok:
            failures += 1
    return 0 if failures == 0 else 1


def _add_common_flags(p) -> None:
    p.add_argument("--config", help="JSON config file; flags override its values")
    p.add_argument("--forecaster", choices=("approach", "mw", "passthrough"))
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
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:
        print(f"runtime error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
