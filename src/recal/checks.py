"""Randomised checks of the identities the paper's guarantees rest on.

One function per property.  Each takes its sample size, and its seed
where it draws, and returns (ok, worst, detail): whether the property
held, the worst value seen and a one-line account.  `recal verify` runs
them at its sizes and the acceptance tests at theirs.  No check relies
on `assert`, so they hold under `python -O`.
"""

from __future__ import annotations

import itertools
import math

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
from .metrics import BucketStats, default_regret_slack
from .mw_recalibrator import dp_denominator, dp_weighted_loss, mw_init, mw_update
from .recalibrator import approach_with_cost
from .scoring import brier, log_clipped, regret_term, score


def _random_games(n: int, rng):
    """n games, alternately brier with m in 3..64 and log:0.05 with m in
    9..64, one GameConfig per (rule, m).  Draws m from rng per game."""
    variants = ((brier(), 3), (log_clipped(0.05), 9))
    cache = {}
    for k in range(n):
        rule, m_lo = variants[k % 2]
        m = int(rng.integers(m_lo, 65))
        cfg = cache.get((rule.kind, m))
        if cfg is None:
            cfg = cache[(rule.kind, m)] = game_config(m, rule)
        yield cfg


def _rounding_grid(n_q: int):
    """(rule, m, bound, q, p) for brier and log:0.05, m in 3..32 and q on
    n_q evenly spaced points of [0, 1]: p is the grid point nearest q and
    bound the rounding bound 2 L_s / m^2."""
    for rule in (brier(), log_clipped(0.05)):
        for m in range(3, 33):
            bound = 2.0 * rule.lipschitz / m**2
            for q in np.linspace(0.0, 1.0, n_q).tolist():
                yield rule, m, bound, q, nearest_grid_index(q, m) / m


def halfspace_response(n: int, seed: int):
    """The oracle's response satisfies <payoff, theta> <= 1/m + reg_threshold
    for both labels, for n random draws of theta in K, q, grid size and rule."""
    rng = np.random.default_rng(seed)
    violations = 0
    worst = math.inf
    witness = ""
    for cfg in _random_games(n, rng):
        theta = HalfspaceParam(rng.uniform(-1.0, 1.0, cfg.m + 1), float(rng.uniform()))
        q = float(rng.random())
        w, _ = approach_with_cost(cfg, theta, q)
        bound = 1.0 / cfg.m + cfg.reg_threshold
        for y in (0, 1):
            v = payoff_vector(cfg, w, q, y)
            slack = bound - (float(v.cal @ theta.a) + theta.b * v.reg)
            if slack < -1e-9:
                violations += 1
            if slack < worst:
                worst = slack
                witness = f"m={cfg.m} rule={cfg.rule.kind} q={q:.6f} y={y}"
    detail = f"{violations} violations over {2 * n} checks, worst slack {worst:.3e}"
    if violations:
        detail += f"; worst at {witness}"
    return violations == 0, worst, detail


def distance_dual(n: int, seed: int):
    """dist_to_target(v) == -cal_threshold - reg_threshold - dual_linear_min(v)
    for n random vectors with calibration l1 and regret both beyond their
    thresholds."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    for cfg in _random_games(n, rng):
        cal = rng.normal(size=cfg.m + 1)
        cal *= (cfg.cal_threshold + rng.exponential()) / np.abs(cal).sum()
        v = PayoffVector(cal, cfg.reg_threshold + rng.exponential())
        lhs = dist_to_target(cfg, v)
        rhs = -cfg.cal_threshold - cfg.reg_threshold - dual_linear_min(cfg, v)
        worst = max(worst, abs(lhs - rhs))
    ok = worst <= 1e-12
    return ok, worst, f"worst |primal - dual| = {worst:.3e} over {n} vectors (tol 1e-12)"


def rate_identity(n: int, seed: int):
    """The bucket-computed recalibration rate equals the expression built
    from the recalibration vector, on n random traces."""
    rng = np.random.default_rng(seed)
    rules = (brier(), log_clipped(0.05))
    worst = 0.0
    for k in range(n):
        rule = rules[k % 2]
        m = int(rng.integers(1, 17))
        stats = BucketStats(m)
        for _ in range(int(rng.integers(1, 301))):
            stats.record(int(rng.integers(0, m + 1)) / m, float(rng.random()),
                         int(rng.integers(0, 2)), rule)
        delta = default_regret_slack(rule, m)
        c, R = stats.recalibration_vector()
        rhs = max(0.0, float(np.abs(c).sum()) - 0.5 / m, R - delta / 2.0)
        worst = max(worst, abs(stats.recalibration_rate(delta) - rhs))
    ok = worst <= 1e-12
    return ok, worst, f"worst gap {worst:.3e} over {n} traces (tol 1e-12)"


def mw_dp(m_max: int, updates: int, probes: int, seed: int):
    """dp_denominator and dp_weighted_loss match enumeration over all
    2^(m+1)+1 lifted coordinates, for m in 2..m_max after `updates` random
    updates and at `probes` random plays.  Grid size m draws from seed + m."""
    worst = 0.0
    for m in range(2, m_max + 1):
        rng = np.random.default_rng(seed + m)
        rule = brier() if m % 2 == 0 else log_clipped(0.05)
        cfg = unchecked_game_config(m, rule)
        state = mw_init(cfg, 200)
        grid = np.asarray(cfg.grid)
        scores = (np.asarray(cfg.score0), np.asarray(cfg.score1))
        signs = np.array(list(itertools.product((1.0, -1.0), repeat=m + 1)))

        def play():
            x = rng.dirichlet(np.ones(m + 1))
            q = float(rng.random())
            y = int(rng.integers(0, 2))
            return x, q, y, x * (grid - y), float(x @ scores[y]) - score(rule, q, y)

        cal_sum = np.zeros(m + 1)
        reg_sum = 0.0
        for _ in range(updates):
            x, q, y, cal, reg = play()
            mw_update(state, enumerate(x.tolist()), score(rule, q, y), y)
            cal_sum += cal
            reg_sum += reg
        pattern = np.exp(state.eta * (signs @ cal_sum))
        reg_weight = math.exp(state.eta * reg_sum)
        den = reg_weight + float(pattern.sum())
        worst = max(worst, abs(dp_denominator(state) - den) / max(1.0, abs(den)))
        for _ in range(probes):
            x, q, y, cal, reg = play()
            loss = (float(pattern @ (signs @ cal)) + reg_weight * reg) / den
            got = dp_weighted_loss(state, x, q, y)
            worst = max(worst, abs(got - loss) / max(1.0, abs(loss)))
    ok = worst <= 1e-9
    return ok, worst, (f"worst relative error {worst:.3e} over m in 2..{m_max} "
                       f"after {updates} updates each (tol 1e-9)")


def nearest_grid_regret(n_q: int):
    """Playing the grid point nearest q keeps the per-label raw regret
    within 2 L_s / m^2.

    This per-label form is known to fail near the ends of [0, 1]: against
    a fixed unfavourable label, rounding costs O(L_s / m).  The form the
    guarantee uses averages over the label, and label_averaged_rounding
    checks that it holds.
    """
    violations = 0
    checks = 0
    worst = 0.0
    witness = ""
    for rule, m, bound, q, p in _rounding_grid(n_q):
        for y in (0, 1):
            r = regret_term(rule, p, q, y)
            checks += 1
            if r > bound:
                violations += 1
                if r - bound > worst:
                    worst = r - bound
                    witness = (f"m={m} rule={rule.kind} q={q:.6f} y={y}: "
                               f"regret {r:.4f} > {bound:.4f}")
    detail = f"{violations} violations over {checks} checks; worst excess {worst:.3e}"
    if witness:
        detail += f"; first worst at {witness}"
    return violations == 0, worst, detail


def label_averaged_rounding(n_q: int):
    """Playing the grid point nearest q keeps the label-averaged regret
    E_{y~Bern(q)}[S(p, y) - S(q, y)] within 2 L_s / m^2, on
    nearest_grid_regret's grid."""
    checks = 0
    worst = 0.0
    witness = ""
    for rule, m, bound, q, p in _rounding_grid(n_q):
        expected = (1.0 - q) * regret_term(rule, p, q, 0) + q * regret_term(rule, p, q, 1)
        checks += 1
        if expected / bound > worst:
            worst = expected / bound
            witness = f"m={m} rule={rule.kind} q={q:.6f}"
    detail = f"worst regret/bound {worst:.3f} over {checks} checks, at {witness}"
    return worst <= 1.0, worst, detail
