"""Calibration error, average regret, and the combined recalibration rate.

Forecasts are bucketed at the grid points i/m (half-open intervals of
width 1/m centered on each grid point), so a forecaster that emits
grid values is assigned exactly.  All rates are per-round averages.
"""

from __future__ import annotations

import numpy as np

from .geometry import nearest_grid_index
from .scoring import ScoringRule, score


class BucketStats:
    """Per-bucket counts and label sums plus cumulative scores."""

    def __init__(self, m: int):
        if m < 1:
            raise ValueError(f"resolution must be >= 1, got {m}")
        self.m = m
        self.counts = [0] * (m + 1)
        self.label_sums = [0] * (m + 1)
        self.T = 0
        self.cum_forecaster_score = 0.0
        self.cum_oracle_score = 0.0

    def record(self, p: float, q: float, y: int, rule: ScoringRule,
               q_score=None, grid_scores=None) -> "BucketStats":
        """Absorb one round: bucket the forecast and accumulate scores.

        A caller that already has the scores may pass them: q_score is
        score(rule, q, y), and grid_scores is the table score(rule, i/m, y)
        over the grid (GameConfig.score0 or score1), valid only when p
        is a grid point.  They are the same floats the score calls give.
        """
        i = nearest_grid_index(p, self.m)
        self.counts[i] += 1
        self.label_sums[i] += y
        self.T += 1
        self.cum_forecaster_score += (score(rule, p, y) if grid_scores is None
                                      else grid_scores[i])
        self.cum_oracle_score += score(rule, q, y) if q_score is None else q_score
        return self

    def calibration_l1(self) -> float:
        """Raw l1 calibration error: bucket-weighted |i/m - label mean|."""
        if self.T == 0:
            raise ValueError("no rounds recorded")
        m = self.m
        total = 0.0
        for i in range(m + 1):
            n = self.counts[i]
            if n:
                total += abs(n * (i / m) - self.label_sums[i])
        return total / self.T

    def calibration_rate(self) -> float:
        """l1 calibration error minus the half-bucket slack, floored at 0."""
        return max(0.0, self.calibration_l1() - 0.5 / self.m)

    def average_regret(self) -> float:
        if self.T == 0:
            raise ValueError("no rounds recorded")
        return (self.cum_forecaster_score - self.cum_oracle_score) / self.T

    def recalibration_rate(self, delta: float) -> float:
        """max of 0, the calibration rate, and regret beyond delta/2."""
        return max(0.0, self.calibration_rate(), self.average_regret() - delta / 2.0)

    def recalibration_vector(self):
        """(c, R): per-bucket signed calibration gaps and average regret."""
        if self.T == 0:
            raise ValueError("no rounds recorded")
        m = self.m
        c = np.zeros(m + 1)
        for i in range(m + 1):
            n = self.counts[i]
            if n:
                c[i] = (n / self.T) * (i / m - self.label_sums[i] / n)
        return c, self.average_regret()


def default_regret_slack(rule: ScoringRule, m: int) -> float:
    """The regret tolerance delta = 4 * L_s / m**2 paired with resolution m."""
    return 4.0 * rule.lipschitz / (m * m)
