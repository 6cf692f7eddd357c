"""Experiment harness: label streams, quote oracles, protocol loop, sweeps."""

from __future__ import annotations

import math
import os
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, replace
from typing import NamedTuple

import numpy as np

from .geometry import (
    GameConfig,
    PayoffLedger,
    PayoffVector,
    add_payoff,
    dist_to_target,
    game_config,
    nearest_grid_index,
)
from .metrics import BucketStats, default_regret_slack
from .mw_recalibrator import lifted_dimension, mw_choose, mw_init, mw_update
from .recalibrator import RecalibratorState
from .scoring import parse_rule, score_pair

FORECASTERS = ("approach", "mw", "passthrough")
EXPONENT_LO = 1.0 / 3.0
EXPONENT_HI = 2.0 / 5.0
EXPONENT_TOL = 1e-3


class ConfigError(ValueError):
    """Invalid or inconsistent experiment configuration."""


@dataclass(frozen=True)
class ExperimentConfig:
    T: int
    rule: str = "brier"
    forecaster: str = "approach"
    m: int | None = None
    exponent: float | None = None
    oracle: str = "clairvoyant:0.2"
    labels: str = "iid_bernoulli:0.5"
    seed: int = 0


def _is_int(v) -> bool:
    """An integer, numpy's included, and not a bool."""
    return isinstance(v, (int, np.integer)) and not isinstance(v, bool)


def resolved_m(cfg: ExperimentConfig) -> int:
    if (cfg.m is None) == (cfg.exponent is None):
        raise ConfigError("exactly one of m and exponent must be set")
    if cfg.m is not None:
        if not (_is_int(cfg.m) and cfg.m >= 1):
            raise ConfigError(f"m must be a positive integer, got {cfg.m!r}")
        return cfg.m
    x = cfg.exponent
    if not (EXPONENT_LO - EXPONENT_TOL <= x <= EXPONENT_HI + EXPONENT_TOL):
        raise ConfigError(f"exponent must lie in [1/3, 2/5], got {x}")
    return math.ceil(cfg.T ** (1.0 - 2.0 * x))


class LabelSource:
    """Draws (or defers, when adversarial) the label sequence."""

    def __init__(self, kind: str, param, rng):
        self.kind = kind
        self.param = param
        self.rng = rng

    @property
    def is_adversarial(self) -> bool:
        return self.kind == "adversarial_greedy"

    def generate(self, T: int):
        if self.kind == "iid_bernoulli":
            return (self.rng.random(T) < self.param).astype(int).tolist()
        if self.kind == "periodic":
            pattern = self.param
            reps = T // len(pattern) + 1
            return (pattern * reps)[:T]
        return None

    def pi_schedule(self, T: int):
        """Conditional label probabilities, for the truth oracle."""
        if self.kind == "iid_bernoulli":
            return [self.param] * T
        if self.kind == "periodic":
            pattern = self.param
            reps = T // len(pattern) + 1
            return [float(v) for v in (pattern * reps)[:T]]
        return None


def make_label_stream(spec: str, seed=None) -> LabelSource:
    rng = np.random.default_rng(seed)
    kind, _, arg = spec.partition(":")
    if kind == "bernoulli":
        kind = "iid_bernoulli"
    if kind == "iid_bernoulli":
        try:
            pi = float(arg)
        except ValueError:
            raise ConfigError(f"bad bernoulli parameter {arg!r}") from None
        if not 0.0 <= pi <= 1.0:
            raise ConfigError(f"bernoulli parameter must be in [0, 1], got {pi}")
        return LabelSource(kind, pi, rng)
    if kind == "periodic":
        if not arg or any(ch not in "01" for ch in arg):
            raise ConfigError(f"periodic pattern must be a nonempty 0/1 string, got {arg!r}")
        return LabelSource(kind, [int(ch) for ch in arg], rng)
    if kind == "adversarial_greedy":
        if arg:
            raise ConfigError("adversarial_greedy takes no parameter")
        return LabelSource(kind, None, rng)
    raise ConfigError(f"unknown label stream {kind!r}")


class OracleSource:
    """Produces the quote sequence, given labels where applicable."""

    def __init__(self, kind: str, param, rng):
        self.kind = kind
        self.param = param
        self.rng = rng

    def quotes(self, T: int, labels, pi_schedule):
        if self.kind == "constant":
            return [self.param] * T
        if self.kind == "clairvoyant":
            beta = self.param
            y = np.asarray(labels, dtype=float)
            return ((1.0 - 2.0 * beta) * y + beta).tolist()
        if self.kind == "truth":
            return list(pi_schedule)
        # noisy_truth
        pi = np.asarray(pi_schedule, dtype=float)
        noise = self.rng.normal(0.0, self.param, size=T)
        return np.clip(pi + noise, 0.0, 1.0).tolist()


def make_oracle(spec: str, seed=None) -> OracleSource:
    rng = np.random.default_rng(seed)
    kind, _, arg = spec.partition(":")
    if kind == "truth":
        if arg:
            raise ConfigError("truth oracle takes no parameter")
        return OracleSource(kind, None, rng)
    if kind in ("clairvoyant", "constant", "noisy_truth"):
        try:
            param = float(arg)
        except ValueError:
            raise ConfigError(f"bad {kind} parameter {arg!r}") from None
        if kind == "clairvoyant" and not 0.0 <= param <= 0.5:
            raise ConfigError(f"clairvoyant shrinkage must be in [0, 0.5], got {param}")
        if kind == "constant" and not 0.0 <= param <= 1.0:
            raise ConfigError(f"constant quote must be in [0, 1], got {param}")
        if kind == "noisy_truth" and not 0.0 <= param < math.inf:
            raise ConfigError(f"noise level must be finite and nonnegative, got {param}")
        return OracleSource(kind, param, rng)
    raise ConfigError(f"unknown oracle {kind!r}")


def adversary_label(support, quote_scores, cal, reg: float, l1: float, t: int,
                    cfg: GameConfig) -> tuple[int, float]:
    """The greedy adversary: the label maximizing next-step average
    distance to the target set, and the ledger's l1 norm after it.

    cal and reg are the payoff ledger after t completed rounds, read and
    not copied, and l1 is the l1 norm of cal; the caller carries the
    returned norm into the next round.  support is the play's
    (index, weight) pairs with distinct indices and quote_scores the
    pair (score(q, 0), score(q, 1)).  Each label's distance is
    dist_to_target's formula, with the changed entries' terms swapped
    in l1, so a round costs O(|support|).  Ties resolve to y = 1.
    """
    grid = cfg.grid
    n = t + 1
    best_y = 1
    best_d = -math.inf
    best_l1 = l1
    for y in (1, 0):
        score_y = cfg.score1 if y else cfg.score0
        sq = quote_scores[y]
        l1_y = l1
        r = 0.0
        for i, wi in support:
            c = cal[i]
            l1_y += abs(c + wi * (grid[i] - y)) - abs(c)
            r += wi * (score_y[i] - sq)
        cal_excess = l1_y / n - cfg.cal_threshold
        reg_excess = (reg + r / cfg.lam) / n - cfg.reg_threshold
        d = (cal_excess if cal_excess > 0.0 else 0.0) + (reg_excess if reg_excess > 0.0 else 0.0)
        if d > best_d:
            best_y, best_d, best_l1 = y, d, l1_y
    return best_y, best_l1


def checkpoint_schedule(T: int) -> list[int]:
    cps = []
    v = 1
    while v < T:
        cps.append(v)
        v *= 2
    cps.append(T)
    return cps


@dataclass(frozen=True)
class CheckpointMetrics:
    t: int
    calib_l1: float
    calibration_rate: float
    average_regret: float
    recalibration_rate: float
    dist_to_target: float


@dataclass
class Trace:
    config: ExperimentConfig
    m: int
    q: list = field(default_factory=list)
    p: list = field(default_factory=list)
    y: list = field(default_factory=list)
    checkpoints: list = field(default_factory=list)
    stats: BucketStats | None = None
    cum_payoff: PayoffVector | None = None
    wall_time: float = 0.0
    game: GameConfig | None = None

    @property
    def final(self) -> CheckpointMetrics:
        return self.checkpoints[-1]


class _Play(NamedTuple):
    """A play by its (index, weight) support, which need not be adjacent."""

    support: tuple


class _PassthroughForecaster(PayoffLedger):
    """Plays the grid point nearest to each quote.

    predict keeps the play's support and quote_scores, the round's
    (score(q, 0), score(q, 1)), for observe, which adds the round's
    payoff to the ledger.
    """

    def predict(self, q: float, quote_scores):
        i = nearest_grid_index(q, self.cfg.m)
        self._support = ((i, 1.0),)
        self._quote_scores = quote_scores
        return self.cfg.grid[i], _Play(self._support)

    def observe(self, q: float, y: int) -> None:
        self.cum_reg += add_payoff(self.cfg, self._support, q, y, self._cal_view,
                                   self._quote_scores[y])


class _MWForecaster(_PassthroughForecaster):
    """Plays mw_choose's support, samples a grid point from it by
    inverse CDF over the support in ascending order, and feeds the
    support to mw_update."""

    def __init__(self, cfg: GameConfig, T: int, rng):
        super().__init__(cfg, rng)
        self.state = mw_init(cfg, T)

    def predict(self, q: float, quote_scores):
        self._support = mw_choose(self.state, q)
        self._quote_scores = quote_scores
        u = self._uniform()
        acc = 0.0
        for i, wi in self._support:
            acc += wi
            if u < acc:
                break
        return self.cfg.grid[i], _Play(self._support)

    def observe(self, q: float, y: int) -> None:
        super().observe(q, y)
        mw_update(self.state, self._support, self._quote_scores[y], y)


def run_experiment(cfg: ExperimentConfig) -> Trace:
    t_start = time.perf_counter()
    if not (_is_int(cfg.T) and cfg.T >= 1):
        raise ConfigError(f"T must be a positive integer, got {cfg.T!r}")
    if cfg.forecaster not in FORECASTERS:
        raise ConfigError(f"unknown forecaster {cfg.forecaster!r}")
    if not (_is_int(cfg.seed) and cfg.seed >= 0):
        raise ConfigError(f"seed must be a nonnegative integer, got {cfg.seed!r}")
    try:
        rule = parse_rule(cfg.rule)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    m = resolved_m(cfg)
    try:
        gcfg = game_config(m, rule)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    if cfg.forecaster == "mw" and cfg.T < math.log(lifted_dimension(m)):
        raise ConfigError(
            f"mw needs T >= ln(2^(m+1)+1) = {math.log(lifted_dimension(m)):.3f}, got T={cfg.T}")

    ss_labels, ss_oracle, ss_forecaster = np.random.SeedSequence(cfg.seed).spawn(3)
    labels_src = make_label_stream(cfg.labels, ss_labels)
    oracle_src = make_oracle(cfg.oracle, ss_oracle)
    if labels_src.is_adversarial and oracle_src.kind != "constant":
        raise ConfigError(
            "adversarial_greedy labels are only defined against a constant oracle; "
            "other oracles would peek at labels chosen after their quotes")

    T = cfg.T
    ys = labels_src.generate(T)
    qs = oracle_src.quotes(T, ys, labels_src.pi_schedule(T))
    adversarial = ys is None

    trace = Trace(config=cfg, m=m, game=gcfg)
    trace.q = qs
    stats = BucketStats(m)
    delta = default_regret_slack(rule, m)
    cp_set = set(checkpoint_schedule(T))
    rng = np.random.default_rng(ss_forecaster)

    if cfg.forecaster == "approach":
        forecaster = RecalibratorState(gcfg, rng)
    elif cfg.forecaster == "mw":
        forecaster = _MWForecaster(gcfg, T, rng)
    else:
        forecaster = _PassthroughForecaster(gcfg)

    ps = trace.p
    ys_out = [] if adversarial else ys
    trace.y = ys_out
    score_tables = (gcfg.score0, gcfg.score1)
    # The greedy adversary reads the live ledger and carries its l1 norm.
    ledger = forecaster.ledger
    ledger_l1 = 0.0
    for t1 in range(1, T + 1):
        q = qs[t1 - 1]
        # The round's two quote scores, shared by the forecaster, the
        # adversary and stats.
        quote_scores = score_pair(rule, q)
        p, w = forecaster.predict(q, quote_scores)
        if adversarial:
            y, ledger_l1 = adversary_label(w.support, quote_scores, ledger, forecaster.cum_reg,
                                           ledger_l1, t1 - 1, gcfg)
            ys_out.append(y)
        else:
            y = ys[t1 - 1]
        ps.append(p)
        stats.record(p, q, y, rule, quote_scores[y], score_tables[y])
        forecaster.observe(q, y)
        if t1 in cp_set:
            cum = forecaster.cum_payoff
            trace.checkpoints.append(CheckpointMetrics(
                t=t1,
                calib_l1=stats.calibration_l1(),
                calibration_rate=stats.calibration_rate(),
                average_regret=stats.average_regret(),
                recalibration_rate=stats.recalibration_rate(delta),
                dist_to_target=dist_to_target(gcfg, PayoffVector(cum.cal / t1, cum.reg / t1))))

    trace.cum_payoff = forecaster.cum_payoff
    trace.stats = stats
    trace.wall_time = time.perf_counter() - t_start
    return trace


def fit_loglog_slope(points) -> tuple[float, float, float]:
    """Least-squares slope, intercept and R^2 of log(v) against log(T)."""
    pts = [(float(T), float(v)) for T, v in points]
    if len(pts) < 3:
        raise ValueError(f"need at least 3 points, got {len(pts)}")
    for T, v in pts:
        if v <= 0.0:
            raise ValueError(f"values must be positive to take logs, got {v}")
    x = np.log([T for T, _ in pts])
    y = np.log([v for _, v in pts])
    slope, intercept = np.polyfit(x, y, 1)
    resid = y - (slope * x + intercept)
    ss_res = float(resid @ resid)
    centered = y - y.mean()
    ss_tot = float(centered @ centered)
    r2 = 1.0 - ss_res / ss_tot if ss_tot > 0.0 else 1.0
    return float(slope), float(intercept), r2


@dataclass(frozen=True)
class SweepRow:
    T: int
    m: int
    calibration_rate: float
    calibration_rate_stderr: float
    average_regret: float
    average_regret_stderr: float
    recalibration_rate: float
    recalibration_rate_stderr: float


@dataclass
class SweepResult:
    rows: list
    slopes: dict


def _final_metrics(cfg: ExperimentConfig) -> dict:
    trace = run_experiment(cfg)
    final = trace.final
    return {
        "T": cfg.T,
        "m": trace.m,
        "calibration_rate": final.calibration_rate,
        "average_regret": final.average_regret,
        "recalibration_rate": final.recalibration_rate,
    }


def _worker_count(n_jobs: int) -> int:
    raw = os.environ.get("RECAL_THREADS", "")
    if raw:
        try:
            limit = int(raw)
        except ValueError:
            raise ConfigError(f"RECAL_THREADS must be an integer, got {raw!r}") from None
        if limit < 1:
            raise ConfigError(f"RECAL_THREADS must be >= 1, got {limit}")
    else:
        limit = os.cpu_count() or 1
    return max(1, min(limit, n_jobs))


def sweep(base: ExperimentConfig, T_grid, seeds) -> SweepResult:
    Ts = sorted({int(T) for T in T_grid})
    if not Ts:
        raise ConfigError("T_grid must be nonempty")
    if isinstance(seeds, int):
        if seeds < 1:
            raise ConfigError(f"need at least one seed, got {seeds}")
        seed_list = [base.seed + k for k in range(seeds)]
    else:
        seed_list = [int(s) for s in seeds]
        if not seed_list:
            raise ConfigError("seed list must be nonempty")

    jobs = [replace(base, T=T, seed=s) for T in Ts for s in seed_list]
    workers = _worker_count(len(jobs))
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_final_metrics, jobs))
    else:
        results = [_final_metrics(job) for job in jobs]

    by_T: dict[int, list[dict]] = {T: [] for T in Ts}
    for res in results:
        by_T[res["T"]].append(res)

    rows = []
    for T in Ts:
        group = by_T[T]
        row_kwargs = {"T": T, "m": group[0]["m"]}
        for key in ("calibration_rate", "average_regret", "recalibration_rate"):
            vals = np.array([g[key] for g in group])
            mean = float(vals.mean())
            stderr = float(vals.std(ddof=1) / math.sqrt(len(vals))) if len(vals) > 1 else 0.0
            row_kwargs[key] = mean
            row_kwargs[key + "_stderr"] = stderr
        rows.append(SweepRow(**row_kwargs))

    slopes = {}
    for key in ("calibration_rate", "average_regret", "recalibration_rate"):
        pts = [(row.T, getattr(row, key)) for row in rows if getattr(row, key) > 0.0]
        if len(pts) >= 3:
            slope, intercept, r2 = fit_loglog_slope(pts)
            slopes[key] = {"slope": slope, "intercept": intercept, "r_squared": r2}
        else:
            slopes[key] = None
    return SweepResult(rows=rows, slopes=slopes)
