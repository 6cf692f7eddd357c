"""Vector payoffs, the target set, and the dual box of halfspace parameters.

Each round of the recalibration game produces an (m+2)-dimensional
payoff: m+1 calibration coordinates w_i * (i/m - y) and one scaled
regret coordinate.  The target set is the l1 ball of radius 1/m in the
calibration block crossed with the half-line of regret below a fixed
threshold; driving the average payoff into this set makes the output
stream calibrated and no-regret simultaneously.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .scoring import ScoringRule, score


def min_grid_resolution(rule: ScoringRule) -> int:
    """Smallest legal grid resolution for a rule, ceil(sqrt(4 * L_s))."""
    return math.ceil(math.sqrt(4.0 * rule.lipschitz))


def nearest_grid_index(p: float, m: int) -> int:
    """Index of the grid point i/m closest to p, rounding halves up."""
    i = int(math.floor(p * m + 0.5))
    return 0 if i < 0 else (m if i > m else i)


@dataclass(frozen=True)
class GameConfig:
    """Grid resolution, scoring rule, and derived game constants.

    lam is the payoff normalization max(1, L_s); the regret coordinate
    is stored divided by lam so every payoff coordinate has magnitude
    at most 1, and reg_threshold is scaled identically.  score0/score1
    cache score(i/m, y) over the grid for the per-round hot path.
    """

    m: int
    rule: ScoringRule
    lam: float
    cal_threshold: float
    reg_threshold: float
    grid: tuple[float, ...]
    score0: tuple[float, ...]
    score1: tuple[float, ...]


def unchecked_game_config(m: int, rule: ScoringRule) -> GameConfig:
    """GameConfig without the grid-resolution check.

    Only for diagnostics on grids too coarse for the approachability
    guarantee (the bookkeeping identities hold for any m >= 1).  The
    rule must still score the sure forecasts best on the grid:
    score(0, 0) and score(1, 1) are the minima of their tables, which
    the halfspace oracle's endpoint invariants rely on.
    """
    lam = max(1.0, rule.lipschitz)
    grid = tuple(i / m for i in range(m + 1))
    score0 = tuple(score(rule, g, 0) for g in grid)
    score1 = tuple(score(rule, g, 1) for g in grid)
    if score0[0] > min(score0) or score1[m] > min(score1):
        raise ValueError(
            f"rule {rule.kind!r} does not score the sure forecasts best on the "
            f"m={m} grid: score(0, 0) and score(1, 1) must be minimal")
    return GameConfig(
        m=m,
        rule=rule,
        lam=lam,
        cal_threshold=1.0 / m,
        reg_threshold=4.0 * rule.lipschitz / (lam * m * m),
        grid=grid,
        score0=score0,
        score1=score1,
    )


def game_config(m: int, rule: ScoringRule) -> GameConfig:
    m_min = min_grid_resolution(rule)
    if m < m_min:
        raise ValueError(f"m must be >= ceil(sqrt(4*L_s)) = {m_min}, got {m}")
    return unchecked_game_config(m, rule)


@dataclass(frozen=True)
class ForecastDistribution:
    """A distribution over grid indices with support size 1 or 2.

    Two-point supports must sit on consecutive indices (j, j+1); this
    is the only shape the halfspace oracle ever needs.
    """

    support: tuple[tuple[int, float], ...]

    def __post_init__(self):
        n = len(self.support)
        if n not in (1, 2):
            raise ValueError(f"support size must be 1 or 2, got {n}")
        total = 0.0
        for i, w in self.support:
            if w < 0.0:
                raise ValueError(f"negative weight {w} at index {i}")
            total += w
        if abs(total - 1.0) > 1e-12:
            raise ValueError(f"weights sum to {total}, expected 1")
        if n == 2 and self.support[1][0] != self.support[0][0] + 1:
            raise ValueError("two-point support must use consecutive indices")

    @classmethod
    def pair(cls, j: int, w_lo: float, w_hi: float) -> "ForecastDistribution":
        """The two-point distribution on (j, j+1), with the checks of
        __post_init__ written out for two points; the oracle's mixtures
        are built this way once per round."""
        if w_lo < 0.0:
            raise ValueError(f"negative weight {w_lo} at index {j}")
        if w_hi < 0.0:
            raise ValueError(f"negative weight {w_hi} at index {j + 1}")
        total = w_lo + w_hi
        if abs(total - 1.0) > 1e-12:
            raise ValueError(f"weights sum to {total}, expected 1")
        self = object.__new__(cls)
        object.__setattr__(self, "support", ((j, w_lo), (j + 1, w_hi)))
        return self

    def mean(self, m: int) -> float:
        return sum(w * i for i, w in self.support) / m


@functools.cache
def point_mass(i: int) -> ForecastDistribution:
    """The point mass at grid index i.  Built on first use and shared,
    which is safe because distributions are immutable."""
    return ForecastDistribution(((i, 1.0),))


@dataclass(frozen=True, eq=False)
class PayoffVector:
    """One round's payoff: calibration block plus scaled regret."""

    cal: np.ndarray
    reg: float

    def cal_l1(self) -> float:
        return float(np.abs(self.cal).sum())


def add_payoff(cfg: GameConfig, support, q: float, y: int, cal, sq=None) -> float:
    """Add the calibration block of one round's payoff into cal.

    support is a tuple of (index, weight) pairs; cal[i] grows by
    w_i * (i/m - y).  Returns the scaled regret coordinate
    sum_i w_i * (score(i/m, y) - score(q, y)) / lam.  sq is
    score(q, y) when the caller already has it.
    """
    grid = cfg.grid
    score_y = cfg.score1 if y else cfg.score0
    if sq is None:
        sq = score(cfg.rule, q, y)
    reg = 0.0
    for i, wi in support:
        cal[i] += wi * (grid[i] - y)
        reg += wi * (score_y[i] - sq)
    return reg / cfg.lam


def payoff_vector(cfg: GameConfig, w: ForecastDistribution, q: float, y: int) -> PayoffVector:
    """Payoff of playing w when the oracle said q and the label is y."""
    for i, _ in w.support:
        if not 0 <= i <= cfg.m:
            raise ValueError(f"support index {i} outside grid 0..{cfg.m}")
    cal = np.zeros(cfg.m + 1)
    reg = add_payoff(cfg, w.support, q, y, cal)
    return PayoffVector(cal, reg)


# Sampling uniforms drawn from the generator at a time.
UNIFORM_BLOCK = 256


class PayoffLedger:
    """A forecaster's payoff ledger, the sum of every round's expected
    payoff, and its sampler.

    The calibration block is an array that a round adds to through a
    view (Python floats, the same IEEE sums, at a fraction of numpy's
    per-item cost); ledger is a read-only view of it, which the greedy
    adversary reads without a copy, and cum_reg is the regret
    coordinate.  _uniform draws the forecaster's sampling uniforms
    UNIFORM_BLOCK at a time from rng, the same values one scalar draw
    each would give.
    """

    def __init__(self, cfg: GameConfig, rng=None):
        self.cfg = cfg
        self.rng = rng
        self._cum_cal = np.zeros(cfg.m + 1)
        self._cal_view = memoryview(self._cum_cal)
        self.ledger = self._cal_view.toreadonly()
        self.cum_reg = 0.0
        # Unused uniforms of the current block, the next one last.
        self._uniforms = []

    @property
    def cum_payoff(self) -> PayoffVector:
        return PayoffVector(self._cum_cal.copy(), self.cum_reg)

    def _uniform(self) -> float:
        uniforms = self._uniforms
        if not uniforms:
            uniforms = self._uniforms = self.rng.random(UNIFORM_BLOCK)[::-1].tolist()
        return uniforms.pop()


def dist_to_target(cfg: GameConfig, v: PayoffVector) -> float:
    """l1 distance from v to the target set.

    The target is a product set, so the distance decomposes into the
    calibration block's excess over the l1 ball plus the regret
    coordinate's excess over its threshold.
    """
    cal_excess = v.cal_l1() - cfg.cal_threshold
    reg_excess = v.reg - cfg.reg_threshold
    return max(0.0, cal_excess) + max(0.0, reg_excess)


def dual_linear_min(cfg: GameConfig, v: PayoffVector) -> float:
    """min over theta in K of <-v, theta>, in closed form.

    The box structure of K makes the optimizer explicit: a_i matches
    the sign of cal_i and b is 1 when reg > 0, else 0.  Used to
    property-test dist_to_target against its dual expression.
    """
    return -v.cal_l1() - max(0.0, v.reg)


@dataclass(frozen=True, eq=False)
class HalfspaceParam:
    """theta = (a, b) in the box K: |a_i| <= 1 and 0 <= b <= 1."""

    a: np.ndarray
    b: float

