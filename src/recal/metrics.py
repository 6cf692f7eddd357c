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

    def add(self, i: int, y: int, forecast_score: float, quote_score: float) -> None:
        """Absorb one round by its grid index: bucket i gets label y,
        and the two scores of the round are accumulated."""
        self.counts[i] += 1
        self.label_sums[i] += y
        self.T += 1
        self.cum_forecaster_score += forecast_score
        self.cum_oracle_score += quote_score

    def record(self, p: float, q: float, y: int, rule: ScoringRule) -> "BucketStats":
        """Absorb one round by its forecast p: the checked form of add."""
        if not (isinstance(y, (int, np.integer)) and y in (0, 1)):
            raise ValueError(f"label must be an integer 0 or 1, got {y!r}")
        self.add(nearest_grid_index(p, self.m), y, score(rule, p, y), score(rule, q, y))
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

    def average_regret(self) -> float:
        if self.T == 0:
            raise ValueError("no rounds recorded")
        return (self.cum_forecaster_score - self.cum_oracle_score) / self.T

    def rates(self, delta: float) -> tuple[float, float, float, float]:
        """(l1 calibration error, calibration rate, average regret,
        recalibration rate), each O(m) sum taken once.

        The calibration rate is the l1 error minus the half-bucket slack,
        floored at 0; the recalibration rate is the max of 0, the
        calibration rate and the regret beyond delta/2.
        """
        l1 = self.calibration_l1()
        regret = self.average_regret()
        cal_rate = max(0.0, l1 - 0.5 / self.m)
        return l1, cal_rate, regret, max(0.0, cal_rate, regret - delta / 2.0)

    def recalibration_rate(self, delta: float) -> float:
        """max of 0, the calibration rate, and regret beyond delta/2."""
        return self.rates(delta)[3]

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
