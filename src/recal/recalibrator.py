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
    PayoffVector,
    add_payoff,
    nearest_grid_index,
    point_mass,
    project_onto_K,
)
from .scoring import score

GRAD_NORM_BOUND = math.sqrt(2.0)

# Mixture weights degenerate below this; fall back to a point mass.
DEGENERATE_DELTA = 1e-12


class ProtocolError(RuntimeError):
    """predict/observe called out of turn or with mismatched inputs."""


def dual_set_diameter(m: int) -> float:
    """l2 diameter of the box K for grid resolution m."""
    return math.sqrt(4.0 * (m + 1) + 1.0)


def ogd_learning_rate(m: int, t: int) -> float:
    return dual_set_diameter(m) / (GRAD_NORM_BOUND * math.sqrt(t))


def _approach(cfg, a, b, q, is_zero):
    """Shared oracle core over any indexable coefficient sequence a.

    Returns (distribution, number of scalar f evaluations).  The search
    keeps s(lo) >= 0 > s(hi) for s(i) = f(i,1) - f(i,0), which holds at
    the endpoints whenever neither endpoint already answers.
    """
    m = cfg.m
    if is_zero:
        # Every w works when theta = 0; the nearest grid point costs
        # nothing in calibration and the least in regret.
        return point_mass(nearest_grid_index(q, m)), 0

    grid = cfg.grid
    s0_tab, s1_tab = cfg.score0, cfg.score1
    binv = b / cfg.lam
    sq0 = score(cfg.rule, q, 0)
    sq1 = score(cfg.rule, q, 1)
    evals = 0

    def F(i):
        nonlocal evals
        evals += 2
        gi = grid[i]
        ai = a[i]
        return (ai * gi + binv * (s0_tab[i] - sq0),
                ai * (gi - 1.0) + binv * (s1_tab[i] - sq1))

    f00, f01 = F(0)
    if not f00 <= 0.0:
        raise RuntimeError(f"oracle invariant f(0, 0) <= 0 violated: {f00}")
    if f01 <= 0.0:
        return point_mass(0), evals
    fm0, fm1 = F(m)
    if not fm1 <= 0.0:
        raise RuntimeError(f"oracle invariant f(m, 1) <= 0 violated: {fm1}")
    if fm0 <= 0.0:
        return point_mass(m), evals

    lo, flo0, flo1 = 0, f00, f01
    hi, fhi0, fhi1 = m, fm0, fm1
    while hi - lo > 1:
        mid = (lo + hi) // 2
        g0, g1 = F(mid)
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
    return ForecastDistribution(((lo, w_lo), (hi, w_hi))), evals


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


class RecalibratorState:
    """Online state: theta in K, round counter, cumulative payoff, rng.

    predict and observe must strictly alternate.  The cumulative payoff
    uses the expected distribution w_t, not the sampled point; realized
    calibration of the sampled stream is measured separately.
    """

    def __init__(self, cfg: GameConfig, rng):
        self.cfg = cfg
        self.t = 1
        self.rng = np.random.default_rng(rng)
        self._a = [0.0] * (cfg.m + 1)
        self._b = 0.0
        self._nnz = 0
        self._cum_cal = [0.0] * (cfg.m + 1)
        self._cum_reg = 0.0
        self._pending = None
        self._diameter = dual_set_diameter(cfg.m)

    @property
    def theta(self) -> HalfspaceParam:
        return HalfspaceParam(np.array(self._a), self._b)

    @property
    def cum_payoff(self) -> PayoffVector:
        return PayoffVector(np.array(self._cum_cal), self._cum_reg)

    def predict(self, q: float):
        """Return (p, w): the sampled grid forecast and the distribution."""
        if self._pending is not None:
            raise ProtocolError("predict called twice without observe")
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"forecast must lie in [0, 1], got {q}")
        is_zero = self._b == 0.0 and self._nnz == 0
        w, _ = _approach(self.cfg, self._a, self._b, q, is_zero)
        support = w.support
        if len(support) == 1:
            i = support[0][0]
        else:
            i = support[0][0] if self.rng.random() < support[0][1] else support[1][0]
        self._pending = (q, w)
        return self.cfg.grid[i], w

    def observe(self, q: float, y: int) -> "RecalibratorState":
        """Absorb the label: accumulate the expected payoff and step theta."""
        if self._pending is None:
            raise ProtocolError("observe called without a pending predict")
        pending_q, w = self._pending
        if q != pending_q:
            raise ProtocolError(f"observe q={q} does not match pending predict q={pending_q}")
        if y not in (0, 1):
            raise ValueError(f"label must be 0 or 1, got {y}")
        self._pending = None

        grid = self.cfg.grid
        eta = self._diameter / (GRAD_NORM_BOUND * math.sqrt(self.t))
        reg = add_payoff(self.cfg, w.support, q, y, self._cum_cal)
        a = self._a
        for i, wi in w.support:
            old = a[i]
            new = old + eta * (wi * (grid[i] - y))
            new = -1.0 if new < -1.0 else (1.0 if new > 1.0 else new)
            a[i] = new
            if old == 0.0:
                if new != 0.0:
                    self._nnz += 1
            elif new == 0.0:
                self._nnz -= 1
        self._cum_reg += reg
        new_b = self._b + eta * reg
        self._b = 0.0 if new_b < 0.0 else (1.0 if new_b > 1.0 else new_b)
        self.t += 1
        return self


def predict(state: RecalibratorState, q: float):
    return state.predict(q)


def observe(state: RecalibratorState, q: float, y: int) -> RecalibratorState:
    return state.observe(q, y)
