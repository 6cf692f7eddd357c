"""The recalibration forecaster: halfspace oracle plus projected gradient ascent.

Each round the learner holds a halfspace parameter theta = (a, b) in
the box K.  The oracle turns theta and the black-box forecast q into a
distribution w on at most two consecutive grid points whose payoff
lands in the halfspace for both labels; gradient ascent on the
observed payoff then steers theta so the average payoff approaches the
target set at rate D*G/sqrt(T).
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .geometry import (
    ForecastDistribution,
    GameConfig,
    HalfspaceParam,
    PayoffLedger,
    nearest_grid_index,
)
from .scoring import score_pair

GRAD_NORM_BOUND = math.sqrt(2.0)

# Mixture weights degenerate below this; fall back to a point mass.
DEGENERATE_DELTA = 1e-12

# The counts of RecalibratorState's oracle work, by attribute name.
ORACLE_COUNTERS = ("f_evals", "mixture_rounds", "endpoint_answers", "degenerate_fallbacks")


class ProtocolError(RuntimeError):
    """predict/observe called out of turn or with mismatched inputs."""


def dual_set_diameter(m: int) -> float:
    """l2 diameter of the box K for grid resolution m."""
    return math.sqrt(4.0 * (m + 1) + 1.0)


def approach_with_cost(cfg: GameConfig, theta: HalfspaceParam, q: float):
    """The halfspace response to theta at q, a distribution on at most two
    consecutive grid points whose payoff satisfies <payoff, theta> <=
    1/m + b * reg_threshold for both labels, and its f evaluation count.

    It runs the round's oracle: one play of a state at theta, whose
    counter gives the count (the play's sampled index is dropped)."""
    if not 0.0 <= q <= 1.0:
        raise ValueError(f"forecast must lie in [0, 1], got {q}")
    if np.shape(theta.a) != (cfg.m + 1,):
        raise ValueError(f"theta.a must have shape ({cfg.m + 1},), got {np.shape(theta.a)}")
    if not (np.all(np.abs(theta.a) <= 1.0) and 0.0 <= theta.b <= 1.0):
        raise ValueError("theta must lie in K: |a_i| <= 1 and 0 <= b <= 1")
    state = _state_at(cfg, theta.a, theta.b)
    _, support = state.play(q, score_pair(cfg.rule, q))
    return ForecastDistribution(support), state.f_evals


@functools.cache
def _unused_sampler():
    """The generator of the states that approach_with_cost plays once.
    Their sampled index is dropped, so they share one rather than seed
    their own, which would cost more than the play.  It is made on first
    use, not at import, so that a run, which never needs it, does not
    hold it."""
    return np.random.default_rng(0)


def _state_at(cfg: GameConfig, a, b: float) -> "RecalibratorState":
    """A fresh state whose theta is (a, b), unchecked."""
    state = RecalibratorState(cfg, _unused_sampler())
    state._a = np.asarray(a, dtype=float).tolist()
    state._b = float(b)
    state._nnz = len(state._a) - state._a.count(0.0)
    return state


class RecalibratorState(PayoffLedger):
    """Online state: theta in K, round counter, payoff ledger, rng.

    A round is play(q, quote_scores) then update(y): play runs the
    halfspace oracle at the current theta and samples a grid index from
    its answer, and update folds the label in.  The cumulative payoff
    uses the expected distribution w_t, not the sampled point; realized
    calibration of the sampled stream is measured separately.  The
    state owns its generator's stream and uses one uniform per mixture
    round.  predict and observe are the checked form of the same round.

    The oracle counts its work in plain ints: f_evals scalar f
    evaluations, mixture_rounds two-point answers, endpoint_answers
    rounds answered at grid point 0 or m before any bisection, and
    degenerate_fallbacks point masses played because the final pair's
    responses were nearly collinear (|delta| < DEGENERATE_DELTA).
    """

    def __init__(self, cfg: GameConfig, rng):
        super().__init__(cfg, np.random.default_rng(rng))
        self.t = 1
        self._a = [0.0] * (cfg.m + 1)
        self._b = 0.0
        self._nnz = 0
        self._pending_q = None
        self._diameter = dual_set_diameter(cfg.m)
        self.f_evals = 0
        self.mixture_rounds = 0
        self.endpoint_answers = 0
        self.degenerate_fallbacks = 0

    @property
    def theta(self) -> HalfspaceParam:
        return HalfspaceParam(np.array(self._a), self._b)

    def play(self, q: float, quote_scores):
        """Return (i, support): the sampled grid index and the oracle's
        answer as (index, weight) pairs, ascending.

        quote_scores is the pair (score(q, 0), score(q, 1)); update
        reuses it with the support.  The oracle keeps s(lo) >= 0 > s(hi)
        for s(i) = f(i,1) - f(i,0), which holds at the endpoints whenever
        neither endpoint already answers, and evaluates f(i, y) inline as
        a_i * (i/m - y) + (b/lam) * (score(i/m, y) - score(q, y)).
        """
        cfg = self.cfg
        m = cfg.m
        b = self._b
        self._quote_scores = quote_scores
        if b == 0.0 and self._nnz == 0:
            # Every w works when theta = 0; the nearest grid point costs
            # nothing in calibration and the least in regret.
            i = nearest_grid_index(q, m)
            self._support = support = cfg.points[i]
            return i, support

        grid = cfg.grid
        s0_tab, s1_tab = cfg.score0, cfg.score1
        binv = b / cfg.lam
        sq0, sq1 = quote_scores
        a = self._a

        ai = a[0]
        f00 = ai * grid[0] + binv * (s0_tab[0] - sq0)
        f01 = ai * (grid[0] - 1.0) + binv * (s1_tab[0] - sq1)
        if not f00 <= 0.0:
            raise RuntimeError(f"oracle invariant f(0, 0) <= 0 violated: {f00}")
        if f01 <= 0.0:
            self.f_evals += 2
            self.endpoint_answers += 1
            self._support = support = cfg.points[0]
            return 0, support
        ai = a[m]
        fm0 = ai * grid[m] + binv * (s0_tab[m] - sq0)
        fm1 = ai * (grid[m] - 1.0) + binv * (s1_tab[m] - sq1)
        if not fm1 <= 0.0:
            raise RuntimeError(f"oracle invariant f(m, 1) <= 0 violated: {fm1}")
        if fm0 <= 0.0:
            self.f_evals += 4
            self.endpoint_answers += 1
            self._support = support = cfg.points[m]
            return m, support

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
        self.f_evals += evals

        if flo0 <= 0.0 and flo1 <= 0.0:
            i = lo
        elif fhi0 <= 0.0 and fhi1 <= 0.0:
            i = hi
        else:
            delta = flo0 - fhi0 - flo1 + fhi1
            if abs(delta) < DEGENERATE_DELTA:
                # Nearly collinear responses; keep the point with the
                # smaller worst-case response.
                self.degenerate_fallbacks += 1
                i = lo if max(flo0, flo1) <= max(fhi0, fhi1) else hi
            else:
                w_lo = (fhi1 - fhi0) / delta
                w_hi = (flo0 - flo1) / delta
                if w_lo <= 0.0:
                    i = hi
                elif w_hi <= 0.0:
                    i = lo
                else:
                    if abs(w_lo + w_hi - 1.0) > 1e-12:
                        raise ValueError(f"weights sum to {w_lo + w_hi}, expected 1")
                    self.mixture_rounds += 1
                    self._support = support = ((lo, w_lo), (hi, w_hi))
                    return (lo if self._uniform() < w_lo else hi), support
        self._support = support = cfg.points[i]
        return i, support

    def update(self, y: int) -> None:
        """Absorb the label of the last play: accumulate the expected
        payoff and step theta.

        One walk over the support adds the payoff (the formula of
        geometry.add_payoff, term for term) and takes the projected
        gradient step on a.
        """
        cfg = self.cfg
        grid = cfg.grid
        score_y = cfg.score1 if y else cfg.score0
        sq = self._quote_scores[y]
        eta = self._diameter / (GRAD_NORM_BOUND * math.sqrt(self.t))
        cal = self._cal_view
        a = self._a
        reg = 0.0
        for i, wi in self._support:
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

    def predict(self, q: float):
        """Return (p, w): the sampled grid forecast and the distribution.

        The checked form of play: predict and observe must strictly
        alternate.
        """
        if self._pending_q is not None:
            raise ProtocolError("predict called twice without observe")
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"forecast must lie in [0, 1], got {q}")
        i, support = self.play(q, score_pair(self.cfg.rule, q))
        self._pending_q = q
        return self.cfg.grid[i], ForecastDistribution(support)

    def observe(self, q: float, y: int) -> "RecalibratorState":
        """The checked form of update: q must be the pending predict's."""
        if self._pending_q is None:
            raise ProtocolError("observe called without a pending predict")
        if q != self._pending_q:
            raise ProtocolError(f"observe q={q} does not match pending predict q={self._pending_q}")
        if not (isinstance(y, (int, np.integer)) and y in (0, 1)):
            raise ValueError(f"label must be an integer 0 or 1, got {y!r}")
        self._pending_q = None
        self.update(y)
        return self


def predict(state: RecalibratorState, q: float):
    return state.predict(q)


def observe(state: RecalibratorState, q: float, y: int) -> RecalibratorState:
    return state.observe(q, y)
