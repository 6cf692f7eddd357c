"""Slow, obviously-correct reference implementations used as test oracles.

Everything here is recomputed from first principles (dense enumeration,
direct formula transcription) with no shortcuts, so the package's
optimized code paths can be checked against independent math.  The
dense forecaster is exponential in m and only usable for m <= ~12.
The scalar MW pair scan (mw_choose_scan) is the loop-by-loop code that
the vectorised mw_choose replaced; the two must agree bit for bit.
ogd_step, f_value and extended_score are the textbook forms of the
recalibrator's update, its halfspace response and the rule's extension
to label distributions; only tests use them.
"""

from __future__ import annotations

import math
from itertools import product

import numpy as np

from recal.geometry import (
    GameConfig,
    HalfspaceParam,
    PayoffVector,
    nearest_grid_index,
    project_onto_K,
)
from recal.mw_recalibrator import MWState, _ratio_parts, _to_log_mode
from recal.recalibrator import RecalibratorState, ogd_learning_rate
from recal.scoring import ScoringRule, score


def round_half_up_index(p: float, m: int) -> int:
    """Nearest grid index to p with ties rounding up, clamped to [0, m]."""
    return min(m, max(0, math.floor(p * m + 0.5)))


def extended_score(rule: ScoringRule, p: float, q: float) -> float:
    """Expected loss of forecast p when the label is Bernoulli(q).

    Affine in q, which extends the rule from point labels to label
    distributions.
    """
    return (1.0 - q) * score(rule, p, 0) + q * score(rule, p, 1)


def f_value(cfg: GameConfig, theta: HalfspaceParam, q: float, i: int, y: int) -> float:
    """Halfspace response of grid point i against label y.

    f(i, y) = a_i * (i/m - y) + (b/lam) * (score(i/m, y) - score(q, y)),
    the inner product <payoff of a point mass at i, theta>.
    """
    if not 0 <= i <= cfg.m:
        raise ValueError(f"grid index {i} outside 0..{cfg.m}")
    score_y = cfg.score1 if y else cfg.score0
    sq = score(cfg.rule, q, y)
    return theta.a[i] * (cfg.grid[i] - y) + (theta.b / cfg.lam) * (score_y[i] - sq)


def ogd_step(state: RecalibratorState, observed_payoff: PayoffVector) -> HalfspaceParam:
    """One projected gradient-ascent step on the observed payoff.

    theta' = project_onto_K(theta + eta_t * payoff) with
    eta_t = D / (G * sqrt(t)); D and G come from the box geometry of K
    and the payoff norm bound.  Pure function of the state; the state's
    own observe() applies the identical update in place.
    """
    if state.t < 1:
        raise ValueError("round counter must be >= 1")
    eta = ogd_learning_rate(state.cfg.m, state.t)
    theta = state.theta
    raw = np.empty(state.cfg.m + 2)
    raw[:-1] = theta.a + eta * observed_payoff.cal
    raw[-1] = theta.b + eta * observed_payoff.reg
    return project_onto_K(raw)


def dense_loss_parts(cfg: GameConfig, x, q: float, y: int):
    """(calibration block, raw unscaled regret) for a dense grid distribution."""
    x = np.asarray(x, dtype=float)
    grid = np.asarray(cfg.grid)
    score_y = np.asarray(cfg.score1 if y else cfg.score0)
    cal = x * (grid - y)
    reg = float(x @ score_y) - score(cfg.rule, q, y)
    return cal, reg


def sign_rows(m: int) -> np.ndarray:
    """All 2^(m+1) sign patterns over the m+1 calibration coordinates."""
    return np.array(list(product((1.0, -1.0), repeat=m + 1)))


def lifted_max_reference(cal_avg, reg_avg: float) -> float:
    """Max lifted coordinate by explicit enumeration over all sign rows."""
    cal = np.asarray(cal_avg, dtype=float)
    signed_max = float((sign_rows(cal.size - 1) @ cal).max())
    return max(signed_max, reg_avg)


class DenseMW:
    """Multiplicative weights with one explicit float per lifted coordinate.

    Direct transcription of the defining update: the weight of every
    lifted coordinate is exp(eta * its cumulative loss), stored densely
    and refreshed with exact exponentials each round.
    """

    def __init__(self, cfg: GameConfig, T: int):
        self.cfg = cfg
        d = 2 ** (cfg.m + 1) + 1
        C = max(1.0, cfg.rule.lipschitz)
        self.eta = math.sqrt(math.log(d) / (4.0 * T * C * C))
        self.signs = sign_rows(cfg.m)
        self.weights = np.ones(d)

    def lifted_loss(self, x, q: float, y: int) -> np.ndarray:
        cal, reg = dense_loss_parts(self.cfg, x, q, y)
        return np.append(self.signs @ cal, reg)

    def denominator(self) -> float:
        return float(self.weights.sum())

    def weighted_loss(self, x, q: float, y: int) -> float:
        chi = self.weights / self.weights.sum()
        return float(chi @ self.lifted_loss(x, q, y))

    def update(self, x, q: float, y: int) -> None:
        self.weights = self.weights * np.exp(self.eta * self.lifted_loss(x, q, y))


def vertex_losses_scan(state: MWState, q: float, y: int):
    """dp_weighted_loss of every point mass for one label, scalar loops."""
    cfg = state.cfg
    grid = cfg.grid
    score_y = cfg.score1 if y else cfg.score0
    sq = score(cfg.rule, q, y)
    n = cfg.m + 1
    if not state.log_mode:
        A = [p + ng for p, ng in zip(state.pos, state.neg)]
        pre = [1.0] * n
        running = 1.0
        for k in range(n):
            pre[k] = running
            running *= A[k]
        if math.isinf(running):
            _to_log_mode(state)
        else:
            suf = [1.0] * n
            running2 = 1.0
            for k in range(n - 1, -1, -1):
                suf[k] = running2
                running2 *= A[k]
            den = state.reg + running
            return [
                ((grid[j] - y) * (state.pos[j] - state.neg[j]) * pre[j] * suf[j]
                 + state.reg * (score_y[j] - sq)) / den
                for j in range(n)
            ]
    rho, g_log = _ratio_parts(state)
    if g_log <= 0.0:
        g = math.exp(g_log)
        return [((grid[j] - y) * rho[j] + (score_y[j] - sq) * g) / (1.0 + g)
                for j in range(n)]
    ginv = math.exp(-g_log)
    return [((grid[j] - y) * rho[j] * ginv + (score_y[j] - sq)) / (ginv + 1.0)
            for j in range(n)]


def mw_choose_scan(state: MWState, q: float) -> np.ndarray:
    """Scalar O(m^2) pair scan: the test oracle for mw_choose.

    Both label losses are linear in x, so the minimum over the simplex
    of their max is attained at a vertex or at a two-vertex mixture
    that equalizes them; all O(m^2) such candidates are scanned
    exactly.  Ties keep the grid point nearest to q.
    """
    n = state.cfg.m + 1
    h0 = vertex_losses_scan(state, q, 0)
    h1 = vertex_losses_scan(state, q, 1)

    j_star = nearest_grid_index(q, state.cfg.m)
    best_val = max(h0[j_star], h1[j_star])
    best = (j_star, None, 0.0)
    for j in range(n):
        v = max(h0[j], h1[j])
        if v < best_val:
            best_val = v
            best = (j, None, 0.0)
    diff = [h0[j] - h1[j] for j in range(n)]
    for i in range(n):
        di = diff[i]
        if di == 0.0:
            continue
        for j in range(i + 1, n):
            dj = diff[j]
            if di * dj < 0.0:
                t = dj / (dj - di)
                v = t * h0[i] + (1.0 - t) * h0[j]
                if v < best_val:
                    best_val = v
                    best = (i, j, t)
    x = np.zeros(n)
    i, j, t = best
    if j is None:
        x[i] = 1.0
    else:
        x[i] = t
        x[j] = 1.0 - t
    return x
