"""The recalibration forecaster: halfspace oracle plus projected gradient ascent.

Each round the learner holds a halfspace parameter theta = (a, b) in
the box K.  The oracle turns theta and the black-box forecast q into a
distribution w on at most two consecutive grid points whose payoff
lands in the halfspace for both labels; gradient ascent on the
observed payoff then steers theta so the average payoff approaches the
target set at rate D*G/sqrt(T).
"""

from __future__ import annotations

import math

import numpy as np

from .geometry import (
    ForecastDistribution,
    GameConfig,
    HalfspaceParam,
    PayoffLedger,
    nearest_grid_index,
    point_mass,
)
from .scoring import score_pair

GRAD_NORM_BOUND = math.sqrt(2.0)

# Mixture weights degenerate below this; fall back to a point mass.
DEGENERATE_DELTA = 1e-12


class ProtocolError(RuntimeError):
    """predict/observe called out of turn or with mismatched inputs."""


def dual_set_diameter(m: int) -> float:
    """l2 diameter of the box K for grid resolution m."""
    return math.sqrt(4.0 * (m + 1) + 1.0)


def _approach(cfg, a, b, q, is_zero, quote_scores=None):
    """Shared oracle core over any indexable coefficient sequence a.

    quote_scores is the pair (score(q, 0), score(q, 1)) when the caller
    already has it.  Returns (distribution, number of scalar f
    evaluations).  The search keeps s(lo) >= 0 > s(hi) for
    s(i) = f(i,1) - f(i,0), which holds at the endpoints whenever
    neither endpoint already answers.  f(i, y) is evaluated inline as
    a_i * (i/m - y) + (b/lam) * (score(i/m, y) - score(q, y)).
    """
    m = cfg.m
    if is_zero:
        # Every w works when theta = 0; the nearest grid point costs
        # nothing in calibration and the least in regret.
        return point_mass(nearest_grid_index(q, m)), 0

    grid = cfg.grid
    s0_tab, s1_tab = cfg.score0, cfg.score1
    binv = b / cfg.lam
    sq0, sq1 = score_pair(cfg.rule, q) if quote_scores is None else quote_scores

    ai = a[0]
    f00 = ai * grid[0] + binv * (s0_tab[0] - sq0)
    f01 = ai * (grid[0] - 1.0) + binv * (s1_tab[0] - sq1)
    if not f00 <= 0.0:
        raise RuntimeError(f"oracle invariant f(0, 0) <= 0 violated: {f00}")
    if f01 <= 0.0:
        return point_mass(0), 2
    ai = a[m]
    fm0 = ai * grid[m] + binv * (s0_tab[m] - sq0)
    fm1 = ai * (grid[m] - 1.0) + binv * (s1_tab[m] - sq1)
    if not fm1 <= 0.0:
        raise RuntimeError(f"oracle invariant f(m, 1) <= 0 violated: {fm1}")
    if fm0 <= 0.0:
        return point_mass(m), 4

    lo, flo0, flo1 = 0, f00, f01
    hi, fhi0, fhi1 = m, fm0, fm1
    evals = 4
    while hi - lo > 1:
        mid = (lo + hi) // 2
        gi = grid[mid]
        ai = a[mid]
        g0 = ai * gi + binv * (s0_tab[mid] - sq0)
        g1 = ai * (gi - 1.0) + binv * (s1_tab[mid] - sq1)
        evals += 2
        if g1 >= g0:
            lo, flo0, flo1 = mid, g0, g1
        else:
            hi, fhi0, fhi1 = mid, g0, g1

    if flo0 <= 0.0 and flo1 <= 0.0:
        return point_mass(lo), evals
    if fhi0 <= 0.0 and fhi1 <= 0.0:
        return point_mass(hi), evals

    delta = flo0 - fhi0 - flo1 + fhi1
    if abs(delta) < DEGENERATE_DELTA:
        # Nearly collinear responses; keep the point with the smaller
        # worst-case response.
        if max(flo0, flo1) <= max(fhi0, fhi1):
            return point_mass(lo), evals
        return point_mass(hi), evals
    w_lo = (fhi1 - fhi0) / delta
    w_hi = (flo0 - flo1) / delta
    if w_lo <= 0.0:
        return point_mass(hi), evals
    if w_hi <= 0.0:
        return point_mass(lo), evals
    return ForecastDistribution.pair(lo, w_lo, w_hi), evals


def approach_with_cost(cfg: GameConfig, theta: HalfspaceParam, q: float):
    """approach() plus the number of scalar f evaluations it used."""
    if not 0.0 <= q <= 1.0:
        raise ValueError(f"forecast must lie in [0, 1], got {q}")
    if not (np.all(np.abs(theta.a) <= 1.0) and 0.0 <= theta.b <= 1.0):
        raise ValueError("theta must lie in K: |a_i| <= 1 and 0 <= b <= 1")
    is_zero = theta.b == 0.0 and not np.any(theta.a)
    return _approach(cfg, theta.a, theta.b, q, is_zero)


def approach(cfg: GameConfig, theta: HalfspaceParam, q: float) -> ForecastDistribution:
    """Distribution on at most two consecutive grid points whose payoff
    satisfies <payoff, theta> <= 1/m + b * reg_threshold for both labels."""
    return approach_with_cost(cfg, theta, q)[0]


class RecalibratorState(PayoffLedger):
    """Online state: theta in K, round counter, payoff ledger, rng.

    predict and observe must strictly alternate.  The cumulative payoff
    uses the expected distribution w_t, not the sampled point; realized
    calibration of the sampled stream is measured separately.  The
    state owns its generator's stream and uses one uniform per mixture
    round.
    """

    def __init__(self, cfg: GameConfig, rng):
        super().__init__(cfg, np.random.default_rng(rng))
        self.t = 1
        self._a = [0.0] * (cfg.m + 1)
        self._b = 0.0
        self._nnz = 0
        self._pending = None
        self._diameter = dual_set_diameter(cfg.m)

    @property
    def theta(self) -> HalfspaceParam:
        return HalfspaceParam(np.array(self._a), self._b)

    def predict(self, q: float, quote_scores=None):
        """Return (p, w): the sampled grid forecast and the distribution.

        quote_scores is the pair (score(q, 0), score(q, 1)) when the
        caller already has it; observe reuses it.
        """
        if self._pending is not None:
            raise ProtocolError("predict called twice without observe")
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"forecast must lie in [0, 1], got {q}")
        if quote_scores is None:
            quote_scores = score_pair(self.cfg.rule, q)
        is_zero = self._b == 0.0 and self._nnz == 0
        w, _ = _approach(self.cfg, self._a, self._b, q, is_zero, quote_scores)
        support = w.support
        if len(support) == 1:
            i = support[0][0]
        else:
            i = support[0][0] if self._uniform() < support[0][1] else support[1][0]
        self._pending = (q, w, quote_scores)
        return self.cfg.grid[i], w

    def observe(self, q: float, y: int) -> "RecalibratorState":
        """Absorb the label: accumulate the expected payoff and step theta.

        One walk over the support adds the payoff (the formula of
        geometry.add_payoff, term for term) and takes the projected
        gradient step on a.
        """
        if self._pending is None:
            raise ProtocolError("observe called without a pending predict")
        pending_q, w, quote_scores = self._pending
        if q != pending_q:
            raise ProtocolError(f"observe q={q} does not match pending predict q={pending_q}")
        if y not in (0, 1):
            raise ValueError(f"label must be 0 or 1, got {y}")
        self._pending = None

        cfg = self.cfg
        grid = cfg.grid
        score_y = cfg.score1 if y else cfg.score0
        sq = quote_scores[y]
        eta = self._diameter / (GRAD_NORM_BOUND * math.sqrt(self.t))
        cal = self._cal_view
        a = self._a
        reg = 0.0
        for i, wi in w.support:
            c = wi * (grid[i] - y)
            cal[i] += c
            reg += wi * (score_y[i] - sq)
            old = a[i]
            new = old + eta * c
            new = -1.0 if new < -1.0 else (1.0 if new > 1.0 else new)
            a[i] = new
            if old == 0.0:
                if new != 0.0:
                    self._nnz += 1
            elif new == 0.0:
                self._nnz -= 1
        reg /= cfg.lam
        self.cum_reg += reg
        new_b = self._b + eta * reg
        self._b = 0.0 if new_b < 0.0 else (1.0 if new_b > 1.0 else new_b)
        self.t += 1
        return self


def predict(state: RecalibratorState, q: float):
    return state.predict(q)


def observe(state: RecalibratorState, q: float, y: int) -> RecalibratorState:
    return state.observe(q, y)
