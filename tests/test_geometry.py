"""Payoff vectors, the target set, distances, and the dual identity."""

import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from recal.geometry import (
    ForecastDistribution,
    PayoffVector,
    dist_to_target,
    dual_linear_min,
    game_config,
    min_grid_resolution,
    nearest_grid_index,
    payoff_vector,
    point_mass,
    unchecked_game_config,
)
from recal.scoring import brier, log_clipped, score

from .reference import project_onto_K, round_half_up_index


# ---------------------------------------------------------------------------
# Grid resolution and bucketing
# ---------------------------------------------------------------------------


def test_config_rejects_rules_that_do_not_score_sure_forecasts_best(monkeypatch):
    import recal.geometry as geometry

    # the sure forecasts must be minimal in their tables: the oracle's
    # endpoint invariants f(0, 0) <= 0 and f(m, 1) <= 0 rest on it
    unchecked_game_config(4, brier())
    monkeypatch.setattr(geometry, "score", lambda rule, p, y: (p - 1 + y) ** 2)
    with pytest.raises(ValueError, match="sure forecasts"):
        unchecked_game_config(4, brier())
    monkeypatch.setattr(geometry, "score", lambda rule, p, y: (p - 0.5) ** 2)
    with pytest.raises(ValueError, match="sure forecasts"):
        game_config(8, brier())
    # a rule that ties the end of its table still passes
    monkeypatch.setattr(geometry, "score", lambda rule, p, y: 0.0)
    unchecked_game_config(4, brier())


def test_min_grid_resolution():
    assert min_grid_resolution(brier()) == 3
    assert min_grid_resolution(log_clipped(0.05)) == 9
    assert min_grid_resolution(log_clipped(0.01)) == 20


def test_nearest_grid_index_values():
    assert nearest_grid_index(0.5, 10) == 5
    assert nearest_grid_index(0.62, 10) == 6
    assert nearest_grid_index(0.0, 4) == 0
    assert nearest_grid_index(1.0, 4) == 4
    # half-up tie break
    assert nearest_grid_index(0.25, 2) == 1
    assert nearest_grid_index(0.05, 10) == 1


@settings(max_examples=300, derandomize=True)
@given(p=st.floats(min_value=0.0, max_value=1.0), m=st.integers(min_value=1, max_value=64))
def test_nearest_grid_index_matches_reference(p, m):
    assert nearest_grid_index(p, m) == round_half_up_index(p, m)


# ---------------------------------------------------------------------------
# Game config
# ---------------------------------------------------------------------------


def test_game_config_brier_constants():
    cfg = game_config(10, brier())
    assert cfg.lam == 2.0
    assert cfg.cal_threshold == pytest.approx(0.1, abs=0)
    assert cfg.reg_threshold == pytest.approx(0.04, abs=1e-15)
    assert cfg.grid == tuple(i / 10 for i in range(11))
    assert cfg.score0 == tuple(score(brier(), g, 0) for g in cfg.grid)
    assert cfg.score1 == tuple(score(brier(), g, 1) for g in cfg.grid)


def test_game_config_log_rule_lambda():
    cfg = game_config(16, log_clipped(0.05))
    assert cfg.lam == 20.0
    assert cfg.reg_threshold == pytest.approx(4.0 * 20.0 / (20.0 * 256.0), abs=1e-15)


def test_game_config_rejects_coarse_grid():
    with pytest.raises(ValueError):
        game_config(2, brier())
    with pytest.raises(ValueError):
        game_config(8, log_clipped(0.05))


def test_unchecked_game_config_allows_coarse_grid():
    cfg = unchecked_game_config(2, brier())
    assert cfg.m == 2
    assert cfg.grid == (0.0, 0.5, 1.0)


# ---------------------------------------------------------------------------
# Forecast distributions
# ---------------------------------------------------------------------------


def test_point_mass_support():
    w = point_mass(3)
    assert w.support == ((3, 1.0),)
    assert w.mean(10) == pytest.approx(0.3)


def test_two_point_mean():
    w = ForecastDistribution(((2, 0.25), (3, 0.75)))
    assert w.mean(10) == pytest.approx(0.275)


@pytest.mark.parametrize(
    "support",
    [
        (),
        ((0, 0.5), (1, 0.25), (2, 0.25)),
        ((0, -0.1), (1, 1.1)),
        ((0, 0.6), (1, 0.6)),
        ((0, 0.5), (2, 0.5)),
    ],
)
def test_forecast_distribution_rejects(support):
    with pytest.raises(ValueError):
        ForecastDistribution(support)


@pytest.mark.parametrize("j, w_lo, w_hi", [
    (2, 0.25, 0.75), (0, 0.0, 1.0), (5, 1.0, 0.0), (3, 0.5, 0.5 + 5e-13),
    (0, -0.1, 1.1), (4, 1.1, -0.1), (0, 0.6, 0.6), (1, 0.5, 0.5 - 2e-12),
])
def test_pair_makes_the_constructor_checks(j, w_lo, w_hi):
    support = ((j, w_lo), (j + 1, w_hi))
    try:
        expected = ForecastDistribution(support)
    except ValueError as exc:
        with pytest.raises(ValueError, match=re.escape(str(exc))):
            ForecastDistribution.pair(j, w_lo, w_hi)
    else:
        w = ForecastDistribution.pair(j, w_lo, w_hi)
        assert type(w) is ForecastDistribution
        assert w == expected and w.support == support


def test_point_masses_are_shared():
    assert point_mass(7) is point_mass(7)
    assert point_mass(7).support == ((7, 1.0),)


# ---------------------------------------------------------------------------
# Payoff vectors
# ---------------------------------------------------------------------------


def test_payoff_point_mass_midgrid():
    cfg = unchecked_game_config(2, brier())
    v = payoff_vector(cfg, point_mass(1), 0.5, 1)
    assert np.allclose(v.cal, [0.0, -0.5, 0.0])
    assert v.reg == 0.0


def test_payoff_perfect_prediction():
    cfg = unchecked_game_config(2, brier())
    v = payoff_vector(cfg, point_mass(2), 1.0, 1)
    assert np.all(v.cal == 0.0)
    assert v.reg == 0.0


def test_payoff_two_point_mixture():
    cfg = unchecked_game_config(2, brier())
    w = ForecastDistribution(((0, 0.5), (1, 0.5)))
    v = payoff_vector(cfg, w, 0.0, 0)
    assert np.allclose(v.cal, [0.0, 0.25, 0.0])
    assert v.reg == pytest.approx(0.0625, abs=1e-15)


def test_payoff_rejects_out_of_grid_support():
    cfg = unchecked_game_config(2, brier())
    with pytest.raises(ValueError):
        payoff_vector(cfg, point_mass(3), 0.5, 1)


def test_cal_l1():
    v = PayoffVector(np.array([0.3, -0.2, 0.0]), 0.1)
    assert v.cal_l1() == pytest.approx(0.5)


# ---------------------------------------------------------------------------
# Distance to the target set and its dual expression
# ---------------------------------------------------------------------------


def test_dist_inside_target_is_zero():
    cfg = game_config(10, brier())
    v = PayoffVector(np.zeros(11), 0.0)
    assert dist_to_target(cfg, v) == 0.0
    v = PayoffVector(np.full(11, 0.005), 0.03)
    assert dist_to_target(cfg, v) == 0.0


def test_dist_both_sides_active():
    cfg = game_config(10, brier())
    cal = np.zeros(11)
    cal[0], cal[1] = 0.2, -0.1
    v = PayoffVector(cal, 0.1)
    assert dist_to_target(cfg, v) == pytest.approx(0.26, abs=1e-15)


def test_dist_regret_side_inactive():
    cfg = game_config(10, brier())
    cal = np.zeros(11)
    cal[3] = 0.5
    v = PayoffVector(cal, -1.0)
    assert dist_to_target(cfg, v) == pytest.approx(0.5 - cfg.cal_threshold, abs=1e-15)


def test_dual_linear_min_values():
    cfg = unchecked_game_config(1, brier())
    assert dual_linear_min(cfg, PayoffVector(np.zeros(2), 0.0)) == 0.0
    v = PayoffVector(np.array([0.3, -0.2]), 0.5)
    assert dual_linear_min(cfg, v) == pytest.approx(-1.0, abs=1e-15)
    v = PayoffVector(np.array([0.3, -0.2]), -0.5)
    assert dual_linear_min(cfg, v) == pytest.approx(-0.5, abs=1e-15)


def test_dual_identity_on_random_vectors():
    # dist = -cal_threshold - reg_threshold - dual_linear_min whenever
    # both excesses are active
    rng = np.random.default_rng(7)
    cfg = game_config(8, brier())
    for _ in range(500):
        cal = rng.normal(size=9)
        l1 = np.abs(cal).sum()
        cal *= (cfg.cal_threshold + rng.exponential()) / l1
        reg = cfg.reg_threshold + rng.exponential()
        v = PayoffVector(cal, reg)
        lhs = dist_to_target(cfg, v)
        rhs = -cfg.cal_threshold - cfg.reg_threshold - dual_linear_min(cfg, v)
        assert abs(lhs - rhs) <= 1e-12


# ---------------------------------------------------------------------------
# Projection onto K
# ---------------------------------------------------------------------------


def test_project_clamps():
    theta = project_onto_K(np.array([1.5, -0.2, -0.4]))
    assert np.allclose(theta.a, [1.0, -0.2])
    assert theta.b == 0.0
    theta = project_onto_K(np.array([-3.0, 0.0, 2.0]))
    assert np.allclose(theta.a, [-1.0, 0.0])
    assert theta.b == 1.0


def test_project_identity_on_interior():
    raw = np.array([0.3, -0.7, 0.0, 0.5])
    theta = project_onto_K(raw)
    assert np.allclose(theta.a, raw[:-1])
    assert theta.b == 0.5


@settings(max_examples=200, derandomize=True)
@given(
    raw=st.lists(
        st.floats(min_value=-10, max_value=10, allow_nan=False), min_size=2, max_size=12
    )
)
def test_project_lands_in_K_and_is_idempotent(raw):
    theta = project_onto_K(np.array(raw))
    assert np.all(np.abs(theta.a) <= 1.0)
    assert 0.0 <= theta.b <= 1.0
    again = project_onto_K(np.append(theta.a, theta.b))
    assert np.array_equal(again.a, theta.a)
    assert again.b == theta.b
