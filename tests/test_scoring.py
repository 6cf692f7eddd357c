"""Scoring rules: frozen values, properness, parsing, and domain errors."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from recal.scoring import (
    ScoringRule,
    brier,
    lipschitz_constant,
    log_clipped,
    parse_rule,
    regret_term,
    score,
)

from .reference import extended_score

probs = st.floats(min_value=0.0, max_value=1.0, allow_nan=False)


# ---------------------------------------------------------------------------
# Frozen point values
# ---------------------------------------------------------------------------


def test_brier_midpoint():
    assert score(brier(), 0.5, 1) == 0.25


def test_brier_perfect():
    assert score(brier(), 1.0, 1) == 0.0


def test_log_clipped_at_zero_forecast():
    # -ln(1 - 0.01), gamma clamp active at p = 0
    assert score(log_clipped(0.01), 0.0, 0) == pytest.approx(0.01005033585350145, abs=1e-15)


def test_extended_score_bilinear_value():
    # 0.3 * (0.3-1)^2 + 0.7 * (0.3-0)^2
    assert extended_score(brier(), 0.3, 0.3) == pytest.approx(0.21, abs=1e-15)


def test_regret_term_values():
    assert regret_term(brier(), 0.3, 0.3, 1) == 0.0
    assert regret_term(brier(), 0.5, 0.2, 1) == pytest.approx(-0.39, abs=1e-15)
    assert regret_term(brier(), 0.5, 0.2, 0) == pytest.approx(0.21, abs=1e-15)


def test_lipschitz_constants():
    assert lipschitz_constant(brier()) == 2.0
    assert lipschitz_constant(log_clipped(0.1)) == 10.0
    assert lipschitz_constant(log_clipped(0.01)) == 100.0


# ---------------------------------------------------------------------------
# Properties
# ---------------------------------------------------------------------------


@settings(max_examples=200, derandomize=True)
@given(p=probs, q=probs)
def test_properness_brier(p, q):
    # expected loss under Bernoulli(q) is minimized at the truthful forecast
    assert extended_score(brier(), q, q) <= extended_score(brier(), p, q) + 1e-12


@settings(max_examples=200, derandomize=True)
@given(p=probs, q=probs)
def test_properness_log_clipped(p, q):
    rule = log_clipped(0.05)
    # truthful within the clip region; outside it the clamp is the minimizer
    q_eff = min(0.95, max(0.05, q))
    assert extended_score(rule, q_eff, q) <= extended_score(rule, p, q) + 1e-12


@settings(max_examples=200, derandomize=True)
@given(p1=probs, p2=probs, y=st.sampled_from([0, 1]))
def test_lipschitz_bound_holds(p1, p2, y):
    for rule in (brier(), log_clipped(0.05)):
        gap = abs(score(rule, p1, y) - score(rule, p2, y))
        assert gap <= lipschitz_constant(rule) * abs(p1 - p2) + 1e-12


@settings(max_examples=100, derandomize=True)
@given(p=probs, q=probs)
def test_extended_score_affine_in_q(p, q):
    rule = brier()
    lhs = extended_score(rule, p, q)
    rhs = (1.0 - q) * score(rule, p, 0) + q * score(rule, p, 1)
    assert lhs == rhs


def test_extended_score_degenerate_endpoints():
    for rule in (brier(), log_clipped(0.1)):
        assert extended_score(rule, 0.4, 0.0) == score(rule, 0.4, 0)
        assert extended_score(rule, 0.4, 1.0) == score(rule, 0.4, 1)


def test_log_clip_is_symmetric_clamp():
    rule = log_clipped(0.1)
    assert score(rule, 0.0, 1) == score(rule, 0.1, 1)
    assert score(rule, 1.0, 0) == score(rule, 0.9, 0)
    assert score(rule, 0.5, 1) == -math.log(0.5)


# ---------------------------------------------------------------------------
# Parsing and validation
# ---------------------------------------------------------------------------


def test_parse_rule_brier():
    assert parse_rule("brier") == brier()


def test_parse_rule_log():
    assert parse_rule("log:0.05") == log_clipped(0.05)


@pytest.mark.parametrize("bad", ["log:", "log:abc", "log", "quadratic", "", "brier:0.1"])
def test_parse_rule_rejects(bad):
    with pytest.raises(ValueError):
        parse_rule(bad)


@pytest.mark.parametrize("gamma", [0.0, 0.5, -0.1, 1.0])
def test_log_clipped_gamma_domain(gamma):
    with pytest.raises(ValueError):
        log_clipped(gamma)


def test_scoring_rule_kind_validated():
    with pytest.raises(ValueError):
        ScoringRule("hinge", 0.0, 1.0)


@pytest.mark.parametrize("p", [-0.1, 1.1, 2.0])
def test_score_rejects_out_of_range_forecast(p):
    with pytest.raises(ValueError):
        score(brier(), p, 1)


@pytest.mark.parametrize("y", [-1, 2, 0.5])
def test_score_rejects_bad_label(y):
    with pytest.raises(ValueError):
        score(brier(), 0.5, y)
