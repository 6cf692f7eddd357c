"""Vector payoffs, the target set, and the dual box of halfspace parameters.

Each round of the recalibration game produces an (m+2)-dimensional
payoff: m+1 calibration coordinates w_i * (i/m - y) and one scaled
regret coordinate.  The target set is the l1 ball of radius 1/m in the
calibration block crossed with the half-line of regret below a fixed
threshold; driving the average payoff into this set makes the output
stream calibrated and no-regret simultaneously.
"""

from __future__ import annotations

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
    guarantee (the bookkeeping identities hold for any m >= 1).
    """
    lam = max(1.0, rule.lipschitz)
    grid = tuple(i / m for i in range(m + 1))
    return GameConfig(
        m=m,
        rule=rule,
        lam=lam,
        cal_threshold=1.0 / m,
        reg_threshold=4.0 * rule.lipschitz / (lam * m * m),
        grid=grid,
        score0=tuple(score(rule, g, 0) for g in grid),
        score1=tuple(score(rule, g, 1) for g in grid),
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

    def mean(self, m: int) -> float:
        return sum(w * i for i, w in self.support) / m


def point_mass(i: int) -> ForecastDistribution:
    return ForecastDistribution(((i, 1.0),))


@dataclass(frozen=True, eq=False)
class PayoffVector:
    """One round's payoff: calibration block plus scaled regret."""

    cal: np.ndarray
    reg: float

    def cal_l1(self) -> float:
        return float(np.abs(self.cal).sum())


def add_payoff(cfg: GameConfig, support, q: float, y: int, cal) -> float:
    """Add the calibration block of one round's payoff into cal.

    support is a tuple of (index, weight) pairs; cal[i] grows by
    w_i * (i/m - y).  Returns the scaled regret coordinate
    sum_i w_i * (score(i/m, y) - score(q, y)) / lam.
    """
    grid = cfg.grid
    score_y = cfg.score1 if y else cfg.score0
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


def project_onto_K(theta_raw: np.ndarray) -> HalfspaceParam:
    """Euclidean projection onto K: clamp a to [-1, 1] and b to [0, 1]."""
    raw = np.asarray(theta_raw, dtype=float)
    a = np.clip(raw[:-1], -1.0, 1.0)
    b = float(min(1.0, max(0.0, raw[-1])))
    return HalfspaceParam(a, b)
