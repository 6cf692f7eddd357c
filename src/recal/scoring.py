"""Strictly proper scoring rules for binary outcomes.

Two rules are provided: the Brier (quadratic) score and a clipped log
loss.  Plain log loss has an unbounded derivative near 0 and 1, so the
clipped variant clamps forecasts to [gamma, 1 - gamma] before
evaluation, which makes it Lipschitz with constant 1/gamma.  Both are
losses: lower is better.
"""

from __future__ import annotations

import math
from dataclasses import dataclass


@dataclass(frozen=True)
class ScoringRule:
    """A strictly proper loss S(p, y) with a cached Lipschitz constant.

    kind is "brier" or "log_clipped".  clip_gamma is only meaningful
    for log_clipped.
    """

    kind: str
    clip_gamma: float
    lipschitz: float

    def __post_init__(self):
        if self.kind not in ("brier", "log_clipped"):
            raise ValueError(f"unknown scoring rule kind: {self.kind!r}")
        if self.kind == "log_clipped" and not 0.0 < self.clip_gamma < 0.5:
            raise ValueError(f"clip gamma must lie in (0, 1/2), got {self.clip_gamma}")


def brier() -> ScoringRule:
    return ScoringRule("brier", 0.0, 2.0)


def log_clipped(gamma: float) -> ScoringRule:
    if not 0.0 < gamma < 0.5:
        raise ValueError(f"clip gamma must lie in (0, 1/2), got {gamma}")
    return ScoringRule("log_clipped", gamma, 1.0 / gamma)


def parse_rule(spec: str) -> ScoringRule:
    """Parse a rule selection string, "brier" or "log:<gamma>"."""
    if spec == "brier":
        return brier()
    if spec.startswith("log:"):
        try:
            gamma = float(spec[4:])
        except ValueError:
            raise ValueError(f"bad clip gamma in rule spec {spec!r}") from None
        return log_clipped(gamma)
    raise ValueError(f"unknown scoring rule {spec!r}, expected 'brier' or 'log:<gamma>'")


def score_pair(rule: ScoringRule, p: float) -> tuple[float, float]:
    """Losses (S(p, 0), S(p, 1)) of forecast p against both outcomes."""
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"forecast must lie in [0, 1], got {p}")
    if rule.kind == "brier":
        return p ** 2, (p - 1) ** 2
    g = rule.clip_gamma
    ph = g if p < g else (1.0 - g if p > 1.0 - g else p)
    return -math.log(1.0 - ph), -math.log(ph)


def score(rule: ScoringRule, p: float, y: int) -> float:
    """Loss of forecast p against outcome y."""
    if y not in (0, 1):
        raise ValueError(f"label must be 0 or 1, got {y}")
    return score_pair(rule, p)[1 if y else 0]


def regret_term(rule: ScoringRule, p: float, q: float, y: int) -> float:
    """Score difference score(p, y) - score(q, y).  May be negative."""
    return score(rule, p, y) - score(rule, q, y)
