"""Experiment harness: label streams, quote oracles, protocol loop, sweeps."""

from __future__ import annotations

import math
import numbers
import operator
import time
from array import array
from collections import namedtuple
from collections.abc import Iterable
from dataclasses import dataclass, field, replace

import numpy as np

from . import compiled
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
from .mw_recalibrator import MW_COUNTERS, lifted_dimension, mw_choose, mw_init, mw_update
from .recalibrator import ORACLE_COUNTERS, RecalibratorState
from .scoring import parse_rule, score_pair

EXPONENT_LO = 1.0 / 3.0
EXPONENT_HI = 2.0 / 5.0
EXPONENT_TOL = 1e-3
# Rounds per block of quotes and labels: run_experiment makes them a
# block at a time, so what it holds besides the Trace does not grow with T.
BLOCK_ROUNDS = 1024


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
        return operator.index(cfg.m)
    x = cfg.exponent
    if not (isinstance(x, numbers.Real) and not isinstance(x, bool)
            and EXPONENT_LO - EXPONENT_TOL <= x <= EXPONENT_HI + EXPONENT_TOL):
        raise ConfigError(f"exponent must be a number in [1/3, 2/5], got {x!r}")
    return math.ceil(cfg.T ** (1.0 - 2.0 * x))


def _number(kind: str, arg: str, ok, must: str) -> float:
    """arg as a float x with ok(x) true; otherwise ConfigError, saying
    what x must be."""
    try:
        x = float(arg)
    except ValueError:
        raise ConfigError(f"bad {kind} parameter {arg!r}") from None
    if not ok(x):
        raise ConfigError(f"{must}, got {x}")
    return x


def make_label_stream(spec: str, seed=None):
    """The label stream of spec, a function generate(n) -> (ys, pis): the
    labels of the next n rounds (int8) and the probabilities they were
    drawn with (float64), for the truth oracles.  None for
    adversarial_greedy, whose labels the round picks.

    The stream keeps its own position: iid draws continue its generator
    and a periodic pattern its phase, so consecutive calls give the
    labels of one call for all their rounds.
    """
    kind, _, arg = spec.partition(":")
    if kind in ("iid_bernoulli", "bernoulli"):
        pi = _number("bernoulli", arg, lambda x: 0.0 <= x <= 1.0,
                     "bernoulli parameter must be in [0, 1]")
        rng = np.random.default_rng(seed)
        return lambda n: ((rng.random(n) < pi).view(np.int8), np.full(n, pi))
    if kind == "periodic":
        if not arg or any(ch not in "01" for ch in arg):
            raise ConfigError(f"periodic pattern must be a nonempty 0/1 string, got {arg!r}")
        pattern, phase = np.array([int(ch) for ch in arg], dtype=np.int8), 0

        def periodic(n: int):
            nonlocal phase
            ys = pattern[(phase + np.arange(n)) % len(pattern)]
            phase = (phase + n) % len(pattern)
            return ys, ys.astype(np.float64)

        return periodic
    if kind == "adversarial_greedy":
        if arg:
            raise ConfigError("adversarial_greedy takes no parameter")
        return None
    raise ConfigError(f"unknown label stream {kind!r}")


def make_oracle(spec: str, seed=None):
    """The quote source of spec, a function quotes(n, ys, pis): the
    float64 quotes of n rounds whose labels and label probabilities are
    given.  Noise draws continue the source's generator."""
    kind, _, arg = spec.partition(":")
    if kind == "constant":
        c = _number(kind, arg, lambda x: 0.0 <= x <= 1.0, "constant quote must be in [0, 1]")
        return lambda n, ys, pis: np.full(n, c)
    if kind == "clairvoyant":
        beta = _number(kind, arg, lambda x: 0.0 <= x <= 0.5,
                       "clairvoyant shrinkage must be in [0, 0.5]")
        return lambda n, ys, pis: (1.0 - 2.0 * beta) * np.asarray(ys, dtype=float) + beta
    if kind == "truth":
        if arg:
            raise ConfigError("truth oracle takes no parameter")
        return lambda n, ys, pis: np.array(pis, dtype=float)
    if kind == "noisy_truth":
        sigma = _number(kind, arg, lambda x: 0.0 <= x < math.inf,
                        "noise level must be finite and nonnegative")
        rng = np.random.default_rng(seed)
        return lambda n, ys, pis: np.clip(np.asarray(pis, dtype=float)
                                          + rng.normal(0.0, sigma, size=n), 0.0, 1.0)
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

    The compiled round plays the same formula, operation for operation,
    in play_rounds of _round.c: a change here must be made there too.
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
    """The powers of two below T, then T."""
    return [1 << k for k in range((T - 1).bit_length())] + [T]


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
    """A run's rounds and checkpoints.

    q, p and y are typed columns: q and p are array('d'), 8 bytes a
    round each, and y an array('b'), 1 byte.  p holds each round's grid
    point, one of the game's grid floats.  round says which round played
    the run, "compiled" or "python", and oracle holds the counters that
    the forecaster's FORECASTERS entry names.
    """

    config: ExperimentConfig
    m: int
    q: array = field(default_factory=lambda: array("d"))
    p: array = field(default_factory=lambda: array("d"))
    y: array = field(default_factory=lambda: array("b"))
    checkpoints: list = field(default_factory=list)
    stats: BucketStats | None = None
    cum_payoff: PayoffVector | None = None
    wall_time: float = 0.0
    game: GameConfig | None = None
    round: str = "python"
    oracle: dict | None = None

    @property
    def final(self) -> CheckpointMetrics:
        return self.checkpoints[-1]


class _PassthroughForecaster(PayoffLedger):
    """Plays the grid point nearest to each quote.

    play keeps the play's support and quote_scores, the round's
    (score(q, 0), score(q, 1)), for update, which adds the round's
    payoff to the ledger.
    """

    def play(self, q: float, quote_scores):
        i = nearest_grid_index(q, self.cfg.m)
        self._support = support = self.cfg.points[i]
        self._quote_scores = quote_scores
        return i, support

    def update(self, y: int) -> None:
        self.cum_reg += add_payoff(self.cfg, self._support, self._quote_scores[y], y,
                                   self._cal_view)


class _MWForecaster(_PassthroughForecaster):
    """Plays mw_choose's support, samples a grid point from it by
    inverse CDF over the support in ascending order, and feeds the
    support to mw_update."""

    def __init__(self, cfg: GameConfig, T: int, rng):
        super().__init__(cfg, rng)
        self.state = mw_init(cfg, T)

    def play(self, q: float, quote_scores):
        self._support = support = mw_choose(self.state, q, quote_scores)
        self._quote_scores = quote_scores
        # a uniform every round, point masses included
        return support[0][0] if self._uniform() < support[0][1] else support[-1][0], support

    def update(self, y: int) -> None:
        super().update(y)
        mw_update(self.state, self._support, self._quote_scores[y], y)


# Every forecaster, by name: make(GameConfig, T, rng) builds it, mode is
# its compiled.Round mode (None: the Python round plays it), and
# Trace.oracle reports the attributes in names of counters(forecaster).
Forecaster = namedtuple("Forecaster", "make mode counters names")
FORECASTERS = {
    "approach": Forecaster(lambda g, T, rng: RecalibratorState(g, rng), compiled.APPROACH,
                           lambda f: f, ORACLE_COUNTERS),
    "mw": Forecaster(_MWForecaster, compiled.MW, operator.attrgetter("state"), MW_COUNTERS),
    "passthrough": Forecaster(lambda g, T, rng: _PassthroughForecaster(g), compiled.PASSTHROUGH,
                              None, ()),
}


def _checked(cfg: ExperimentConfig):
    """Every check of cfg, and what a run of it needs: its GameConfig,
    its label and quote sources, and the forecaster's seed sequence."""
    if not (_is_int(cfg.T) and cfg.T >= 1):
        raise ConfigError(f"T must be a positive integer, got {cfg.T!r}")
    for key in ("forecaster", "rule", "oracle", "labels"):
        if not isinstance(getattr(cfg, key), str):
            raise ConfigError(f"{key} must be a string, got {getattr(cfg, key)!r}")
    if cfg.forecaster not in FORECASTERS:
        raise ConfigError(f"unknown forecaster {cfg.forecaster!r}")
    if not (_is_int(cfg.seed) and cfg.seed >= 0):
        raise ConfigError(f"seed must be a nonnegative integer, got {cfg.seed!r}")
    try:
        gcfg = game_config(resolved_m(cfg), parse_rule(cfg.rule))
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    if cfg.forecaster == "mw" and cfg.T < math.log(lifted_dimension(gcfg.m)):
        raise ConfigError(f"mw needs T >= ln(2^(m+1)+1) = "
                          f"{math.log(lifted_dimension(gcfg.m)):.3f}, got T={cfg.T}")
    ss_labels, ss_oracle, ss_forecaster = np.random.SeedSequence(cfg.seed).spawn(3)
    labels_src = make_label_stream(cfg.labels, ss_labels)
    oracle_src = make_oracle(cfg.oracle, ss_oracle)
    if labels_src is None and cfg.oracle.partition(":")[0] != "constant":
        raise ConfigError(
            "adversarial_greedy labels are only defined against a constant oracle; "
            "other oracles would peek at labels chosen after their quotes")
    return gcfg, labels_src, oracle_src, ss_forecaster


class _PythonRound:
    """compiled.Round's run, checkpoint and store in Python: the round of
    a forecaster with no compiled mode, the fallback when the library
    does not load, and the test oracle.  It plays in place, so store has
    nothing to copy.  Round r writes the grid point it plays into ps[r];
    against the adversary it carries the ledger's l1 norm and writes each
    label into ys[r]."""

    def __init__(self, forecaster, stats: BucketStats, adversarial: bool):
        self.forecaster, self.stats, self.adversarial = forecaster, stats, adversarial
        self.l1 = 0.0

    def run(self, qs, ys, ps, lo: int, hi: int) -> None:
        f, cfg = self.forecaster, self.forecaster.cfg
        play, update, add, grid = f.play, f.update, self.stats.add, cfg.grid
        for r in range(lo, hi):
            q = qs[r]
            # The round's two quote scores, shared by the forecaster, the
            # adversary and stats.
            quote_scores = score_pair(cfg.rule, q)
            i, support = play(q, quote_scores)
            if self.adversarial:
                y, self.l1 = adversary_label(support, quote_scores, f.ledger, f.cum_reg,
                                             self.l1, r, cfg)
                ys[r] = y
            else:
                y = ys[r]
            ps[r] = grid[i]
            add(i, y, cfg.score1[i] if y else cfg.score0[i], quote_scores[y])
            update(y)

    def checkpoint(self, delta: float) -> tuple:
        """(calib_l1, calibration_rate, average_regret, recalibration_rate,
        dist_to_target) after the rounds played so far, with regret slack
        delta.  recal_checkpoint in _round.c computes the same floats in
        the same order of operations: a change here must be made there
        too."""
        t, cum = self.stats.T, self.forecaster.cum_payoff
        return (*self.stats.rates(delta),
                dist_to_target(self.forecaster.cfg, PayoffVector(cum.cal / t, cum.reg / t)))

    def store(self) -> None:
        """Nothing to copy: run played in place."""


def run_experiment(cfg: ExperimentConfig) -> Trace:
    t_start = time.perf_counter()
    gcfg, labels_src, oracle_src, ss_forecaster = _checked(cfg)
    rule, m = gcfg.rule, gcfg.m
    T = operator.index(cfg.T)
    adversarial = labels_src is None

    trace = Trace(config=cfg, m=m, game=gcfg)
    stats = BucketStats(m)
    delta = default_regret_slack(rule, m)
    schedule = iter(checkpoint_schedule(T))
    next_cp = next(schedule)
    rng = np.random.default_rng(ss_forecaster)

    entry = FORECASTERS[cfg.forecaster]
    forecaster = entry.make(gcfg, T, rng)
    lib = None if entry.mode is None else compiled.library()
    rounds = (_PythonRound(forecaster, stats, adversarial) if lib is None
              else compiled.Round(lib, entry.mode, forecaster, stats, adversarial=adversarial))
    qs_out, ps_out, ys_out = trace.q, trace.p, trace.y

    for lo in range(0, T, BLOCK_ROUNDS):
        n = min(BLOCK_ROUNDS, T - lo)
        # The blocks go in as bytes: array.frombytes takes a float64
        # buffer only as uint8.  The block's plays, and the adversary's
        # labels, start at 0 and the round writes them in place.
        if adversarial:
            # Only a constant oracle quotes without the labels.
            qs, ys = oracle_src(n, None, None), bytes(n)
        else:
            ys, pis = labels_src(n)
            qs = oracle_src(n, ys, pis)
        qs_out.frombytes(qs.view(np.uint8))
        ys_out.frombytes(ys)
        ps_out.frombytes(bytes(8 * n))
        t1 = lo
        while t1 < lo + n:
            stop = min(lo + n, next_cp or T)
            rounds.run(qs_out, ys_out, ps_out, t1, stop)
            t1 = stop
            if t1 == next_cp:
                trace.checkpoints.append(CheckpointMetrics(t1, *rounds.checkpoint(delta)))
                next_cp = next(schedule, 0)  # 0: no later round is a checkpoint

    rounds.store()
    trace.cum_payoff = forecaster.cum_payoff
    trace.stats = stats
    trace.round = "python" if lib is None else "compiled"
    if entry.names:
        trace.oracle = {name: getattr(entry.counters(forecaster), name) for name in entry.names}
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
    """A horizon's means and standard errors, in sweep.csv's column order."""

    T: int
    m: int
    calibration_rate: float
    average_regret: float
    recalibration_rate: float
    calibration_rate_stderr: float
    average_regret_stderr: float
    recalibration_rate_stderr: float


@dataclass
class SweepResult:
    """A sweep's rows and slopes, and its jobs: each run's T, seed, wall
    time, round and counters, ordered by (T, seed)."""

    rows: list
    slopes: dict
    jobs: list


def _final_metrics(cfg: ExperimentConfig) -> dict:
    trace = run_experiment(cfg)
    final = trace.final
    return {
        "T": cfg.T,
        "m": trace.m,
        "calibration_rate": final.calibration_rate,
        "average_regret": final.average_regret,
        "recalibration_rate": final.recalibration_rate,
        "wall_time_s": trace.wall_time,
        "round": trace.round,
        "oracle": trace.oracle,
    }


def _int_list(values, what: str) -> list:
    """values as a nonempty list of nonnegative Python ints; a string,
    a bool or a non-integer is refused, not coerced."""
    if isinstance(values, str) or not isinstance(values, Iterable):
        raise ConfigError(f"{what} must be a list of integers, got {values!r}")
    out = []
    for v in values:
        if not (_is_int(v) and v >= 0):
            raise ConfigError(f"{what} must hold nonnegative integers, got {v!r}")
        out.append(operator.index(v))
    if not out:
        raise ConfigError(f"{what} must be nonempty")
    return out


def sweep(base: ExperimentConfig, T_grid, seeds: int) -> SweepResult:
    """Run base at each horizon of T_grid with seeds seeds: seed,
    seed+1, ...  Every input is checked, once per distinct horizon,
    before any run starts."""
    Ts = sorted(set(_int_list(T_grid, "T_grid")))
    for T in Ts:
        _checked(replace(base, T=T))
    if not (_is_int(seeds) and seeds >= 1):
        raise ConfigError(f"seeds must be a positive count, got {seeds!r}")
    seed_list = [base.seed + k for k in range(seeds)]

    # In (T, seed) order, each horizon's runs are one slice of results,
    # in seed order.  _final_metrics is looked up at each call, so a
    # wrapper bound to it sees every job.
    jobs = [replace(base, T=T, seed=s) for T in Ts for s in seed_list]
    results = [_final_metrics(job) for job in jobs]

    rows = []
    for k, T in enumerate(Ts):
        group = results[k * seeds:(k + 1) * seeds]
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
    job_info = [{"T": job.T, "seed": job.seed, "wall_time_s": res["wall_time_s"],
                 "round": res["round"], "oracle": res["oracle"]}
                for job, res in zip(jobs, results)]
    return SweepResult(rows=rows, slopes=slopes, jobs=job_info)
