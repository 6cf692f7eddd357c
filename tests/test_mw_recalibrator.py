"""Multiplicative-weights forecaster: DP identities, log mode, minimax play."""

import math
from dataclasses import replace

import numpy as np
import pytest
from scipy.optimize import linprog

from recal import harness, mw_recalibrator
from recal.geometry import game_config, unchecked_game_config
from recal.harness import ExperimentConfig, run_experiment
from recal.mw_recalibrator import (
    PAIR_BLOCK,
    MWState,
    _to_log_mode,
    dp_denominator,
    dp_weighted_loss,
    lifted_dimension,
    lifted_max_coordinate,
    mw_choose,
    mw_init,
    mw_update,
)
from recal.scoring import brier, log_clipped

from .reference import DenseMW, dense_loss_parts, lifted_max_reference, mw_choose_scan


def _one_hot(n: int, i: int) -> np.ndarray:
    x = np.zeros(n)
    x[i] = 1.0
    return x


# ---------------------------------------------------------------------------
# Initialization
# ---------------------------------------------------------------------------


def test_lifted_dimension():
    assert lifted_dimension(3) == 17
    assert lifted_dimension(8) == 513


def test_mw_init_frozen_learning_rate():
    cfg = game_config(3, brier())
    state = mw_init(cfg, 100)
    assert state.eta == pytest.approx(0.04208037951391521, abs=1e-15)
    assert state.pos == [1.0] * 4
    assert state.neg == [1.0] * 4
    assert state.reg == 1.0
    assert not state.log_mode


def test_mw_init_rejects_short_horizon():
    cfg = game_config(3, brier())
    with pytest.raises(ValueError):
        mw_init(cfg, 2)


# ---------------------------------------------------------------------------
# DP denominator and weighted loss
# ---------------------------------------------------------------------------


def test_fresh_denominator_counts_coordinates():
    assert dp_denominator(mw_init(game_config(3, brier()), 100)) == 17.0
    assert dp_denominator(mw_init(game_config(5, brier()), 100)) == 65.0


def test_fresh_weighted_loss_reduces_to_regret_over_d():
    # with uniform weights the +- sign patterns cancel the calibration
    # block, leaving reg / d
    cfg = game_config(3, brier())
    state = mw_init(cfg, 100)
    x = _one_hot(4, 3)
    r = -0.36  # score(1, 1) - score(0.4, 1)
    assert dp_weighted_loss(state, x, 0.4, 1) == pytest.approx(r / 17.0, abs=1e-15)


def test_zero_loss_update_is_identity():
    cfg = game_config(3, brier())
    state = mw_init(cfg, 100)
    x = _one_hot(4, 3)
    assert dp_weighted_loss(state, x, 1.0, 1) == 0.0
    mw_update(state, x, 1.0, 1)
    assert state.pos == [1.0] * 4
    assert state.neg == [1.0] * 4
    assert state.reg == 1.0
    assert state.t == 1
    assert dp_denominator(state) == 17.0


@pytest.mark.parametrize("m", [2, 3, 5, 8])
def test_dp_matches_dense_enumeration(m):
    rule = brier() if m % 2 == 0 else log_clipped(0.05)
    cfg = unchecked_game_config(m, rule)
    state = mw_init(cfg, 200)
    dense = DenseMW(cfg, 200)
    assert state.eta == pytest.approx(dense.eta, abs=1e-15)
    rng = np.random.default_rng(m)
    for step in range(60):
        x = rng.dirichlet(np.ones(m + 1))
        q = float(rng.random())
        y = int(rng.integers(0, 2))
        mw_update(state, x, q, y)
        dense.update(x, q, y)
        if step % 10 == 9:
            bf = dense.denominator()
            assert dp_denominator(state) == pytest.approx(bf, rel=1e-9)
            xp = rng.dirichlet(np.ones(m + 1))
            qp = float(rng.random())
            yp = int(rng.integers(0, 2))
            got = dp_weighted_loss(state, xp, qp, yp)
            want = dense.weighted_loss(xp, qp, yp)
            assert abs(got - want) <= 1e-9 * max(1.0, abs(want))


def test_updates_commute():
    cfg = game_config(4, brier())
    u1 = (np.array([0.5, 0.5, 0.0, 0.0, 0.0]), 0.3, 1)
    u2 = (np.array([0.0, 0.0, 0.2, 0.8, 0.0]), 0.7, 0)
    a = mw_init(cfg, 100)
    mw_update(a, *u1)
    mw_update(a, *u2)
    b = mw_init(cfg, 100)
    mw_update(b, *u2)
    mw_update(b, *u1)
    assert a.pos == pytest.approx(b.pos, rel=1e-12)
    assert a.neg == pytest.approx(b.neg, rel=1e-12)
    assert a.reg == pytest.approx(b.reg, rel=1e-12)


# ---------------------------------------------------------------------------
# Log-space fallback
# ---------------------------------------------------------------------------


def test_log_mode_agrees_with_linear_mode():
    cfg = game_config(4, brier())
    lin = mw_init(cfg, 200)
    logm = mw_init(cfg, 200)
    rng = np.random.default_rng(31)
    updates = [
        (rng.dirichlet(np.ones(5)), float(rng.random()), int(rng.integers(0, 2)))
        for _ in range(60)
    ]
    for u in updates[:30]:
        mw_update(lin, *u)
        mw_update(logm, *u)
    _to_log_mode(logm)
    for u in updates[30:]:
        mw_update(lin, *u)
        mw_update(logm, *u)
    assert not lin.log_mode
    assert logm.log_mode
    assert dp_denominator(logm) == pytest.approx(dp_denominator(lin), rel=1e-9)
    for _ in range(20):
        xp = rng.dirichlet(np.ones(5))
        qp = float(rng.random())
        yp = int(rng.integers(0, 2))
        a = dp_weighted_loss(lin, xp, qp, yp)
        b = dp_weighted_loss(logm, xp, qp, yp)
        assert abs(a - b) <= 1e-9 * max(1.0, abs(a))
        qc = float(rng.random())
        xa = mw_choose(lin, qc)
        xb = mw_choose(logm, qc)
        va = max(dp_weighted_loss(lin, xa, qc, 0), dp_weighted_loss(lin, xa, qc, 1))
        vb = max(dp_weighted_loss(lin, xb, qc, 0), dp_weighted_loss(lin, xb, qc, 1))
        assert abs(va - vb) <= 1e-9


def test_overflow_switches_to_log_mode_automatically():
    # eta far above any legal value drives the stored exponentials past
    # the float range within a few rounds
    cfg = unchecked_game_config(2, brier())
    state = MWState(cfg=cfg, eta=50.0, T=100, pos=[1.0] * 3, neg=[1.0] * 3)
    x = _one_hot(3, 0)
    for _ in range(30):
        mw_update(state, x, 1.0, 1)
    assert state.log_mode
    # five lifted coordinates are tied at the top (four sign patterns
    # with sigma_0 = -1, plus the regret coordinate), so the weighted
    # loss of a probe is their plain average
    got = dp_weighted_loss(state, x, 0.5, 1)
    assert got == pytest.approx((4.0 * 1.0 + 0.75) / 5.0, abs=1e-6)


# ---------------------------------------------------------------------------
# Minimax move selection
# ---------------------------------------------------------------------------


def test_choose_fresh_state_plays_nearest_grid_point():
    cfg = game_config(3, brier())
    state = mw_init(cfg, 100)
    x = mw_choose(state, 2.0 / 3.0)
    assert x[2] == 1.0
    assert x.sum() == 1.0
    for y in (0, 1):
        assert dp_weighted_loss(state, x, 2.0 / 3.0, y) <= 2.0 / (2.0 * 3.0) + 1e-12


def test_choose_regret_only_plays_nearest_grid_point():
    # weights concentrated on the regret coordinate reduce the game to
    # pure proper-scoring regret
    cfg = unchecked_game_config(2, brier())
    tiny = [1e-200] * 3
    state = MWState(cfg=cfg, eta=0.1, T=100, pos=list(tiny), neg=list(tiny), reg=1.0)
    for q, j in ((0.5, 1), (0.0, 0), (1.0, 2)):
        x = mw_choose(state, q)
        assert x[j] == 1.0


@pytest.mark.parametrize("m", [2, 3, 4, 5, 6])
def test_choose_matches_lp_minimax(m):
    rule = brier() if m % 2 == 0 else log_clipped(0.05)
    cfg = unchecked_game_config(m, rule)
    rng = np.random.default_rng(40 + m)
    state = mw_init(cfg, 150)
    for _ in range(20):
        mw_update(
            state,
            rng.dirichlet(np.ones(m + 1)),
            float(rng.random()),
            int(rng.integers(0, 2)),
        )
    n = m + 1
    for _ in range(10):
        q = float(rng.random())
        h0 = [dp_weighted_loss(state, _one_hot(n, j), q, 0) for j in range(n)]
        h1 = [dp_weighted_loss(state, _one_hot(n, j), q, 1) for j in range(n)]
        res = linprog(
            c=[0.0] * n + [1.0],
            A_ub=[h0 + [-1.0], h1 + [-1.0]],
            b_ub=[0.0, 0.0],
            A_eq=[[1.0] * n + [0.0]],
            b_eq=[1.0],
            bounds=[(0.0, None)] * n + [(None, None)],
            method="highs",
        )
        assert res.status == 0
        x = mw_choose(state, q)
        achieved = max(
            dp_weighted_loss(state, x, q, 0), dp_weighted_loss(state, x, q, 1)
        )
        assert achieved == pytest.approx(res.fun, abs=1e-9)


# ---------------------------------------------------------------------------
# Vectorised minimax scan against the scalar scan
# ---------------------------------------------------------------------------


def _clone(state: MWState) -> MWState:
    return replace(state, pos=list(state.pos), neg=list(state.neg))


def _assert_same_choice(state: MWState, q: float) -> None:
    fast, slow = _clone(state), _clone(state)
    x_fast = mw_choose(fast, q)
    x_slow = mw_choose_scan(slow, q)
    assert x_fast.tobytes() == x_slow.tobytes(), (state.cfg.m, q, x_fast, x_slow)
    assert fast.log_mode == slow.log_mode
    assert (fast.pos, fast.neg, fast.reg) == (slow.pos, slow.neg, slow.reg)


def _play(state: MWState, rounds: int, rng) -> None:
    for _ in range(rounds):
        x = mw_choose_scan(state, float(rng.random()))
        mw_update(state, x, float(rng.random()), int(rng.integers(0, 2)))


def _differential_states(cfg, rng):
    """Fresh, played, random-mixture, product-overflow and log-mode states."""
    n = cfg.m + 1
    yield mw_init(cfg, 200)  # all coordinates tied
    for rounds in (3, 25):
        state = mw_init(cfg, 200)
        _play(state, rounds, rng)
        yield state
    state = mw_init(cfg, 200)
    for _ in range(10):
        mw_update(state, rng.dirichlet(np.ones(n)), float(rng.random()),
                  int(rng.integers(0, 2)))
    yield state
    # every stored value in range, but their product overflows in choose
    yield MWState(cfg=cfg, eta=0.1, T=100, pos=[1e200] * n, neg=[1.0] * n)
    # a large eta drives the stored exponentials into log mode
    state = MWState(cfg=cfg, eta=5.0, T=100, pos=[1.0] * n, neg=[1.0] * n)
    _play(state, 10, rng)
    yield state
    while not state.log_mode:
        mw_update(state, _one_hot(n, 0), float(rng.random()), 1)
    yield state
    _play(state, 3, rng)
    yield state


def test_choose_matches_scalar_scan_bitwise():
    rng = np.random.default_rng(2024)
    draws = 0
    for m in range(1, 41):
        for rule in (brier(), log_clipped(0.05)):
            cfg = unchecked_game_config(m, rule)
            qs = [i / m for i in range(m + 1)] + rng.random(4).tolist()
            for state in _differential_states(cfg, rng):
                for q in qs:
                    _assert_same_choice(state, q)
                    draws += 1
    assert draws >= 10_000


def test_choose_matches_scalar_scan_above_block_threshold():
    m = 362
    assert m * (m + 1) // 2 > PAIR_BLOCK
    rng = np.random.default_rng(7)
    cfg = unchecked_game_config(m, brier())
    state = mw_init(cfg, 4096)
    assert state._pairs is None
    for q in (0.0, 0.5):
        _assert_same_choice(state, q)
    for _ in range(12):
        x = np.zeros(m + 1)
        i = int(rng.integers(0, m))
        x[i], x[i + 1] = 0.5, 0.5
        mw_update(state, x, float(rng.random()), int(rng.integers(0, 2)))
    for q in (0.0, 1.0, 100 / m, float(rng.random())):
        _assert_same_choice(state, q)


@pytest.mark.parametrize("block", [1, 5, 64])
def test_choose_row_blocks_match_scalar_scan(monkeypatch, block):
    monkeypatch.setattr(mw_recalibrator, "PAIR_BLOCK", block)
    rng = np.random.default_rng(block)
    for m in range(1, 21):
        cfg = unchecked_game_config(m, log_clipped(0.05) if m % 2 else brier())
        for state in _differential_states(cfg, rng):
            if m * (m + 1) // 2 > block:
                assert state._pairs is None
            for q in (0.0, 1.0, float(rng.random())):
                _assert_same_choice(state, q)


@pytest.mark.parametrize("labels, oracle", [
    ("periodic:0110", "clairvoyant:0.2"),
    ("iid_bernoulli:0.3", "noisy_truth:0.1"),
    ("adversarial_greedy", "constant:0.4"),
])
def test_mw_run_matches_scalar_scan_run(monkeypatch, labels, oracle):
    cfg = ExperimentConfig(T=300, forecaster="mw", m=12, labels=labels,
                           oracle=oracle, seed=5)
    fast = run_experiment(cfg)
    calls = []

    def scan(state, q):
        calls.append(q)
        return mw_choose_scan(state, q)

    # the binding _MWForecaster.predict looks up at call time
    monkeypatch.setattr(harness, "mw_choose", scan)
    slow = run_experiment(cfg)
    assert len(calls) == cfg.T
    assert fast.p == slow.p
    assert fast.y == slow.y
    assert fast.checkpoints == slow.checkpoints
    assert fast.cum_payoff.cal.tobytes() == slow.cum_payoff.cal.tobytes()
    assert fast.cum_payoff.reg == slow.cum_payoff.reg


def test_log_switch_from_underflowing_step_is_whole():
    # eta far above mw_init's drives reg from above 1/OVERFLOW_LIMIT to
    # 0.0 in one linear step; the switch must start from the values
    # before that step, or math.log(0.0) fails halfway through
    cfg = unchecked_game_config(4, log_clipped(0.05))
    eta = 80.0
    state = MWState(cfg=cfg, eta=eta, T=100, pos=[1.0] * 5, neg=[1.0] * 5)
    rng = np.random.default_rng(1)
    cum_cal = np.zeros(5)
    cum_reg = 0.0
    for _ in range(40):
        q = float(rng.random())
        y = int(rng.integers(0, 2))
        x = mw_choose(state, q)
        mw_update(state, x, q, y)
        cal, reg = dense_loss_parts(cfg, x, q, y)
        cum_cal += cal
        cum_reg += reg
    assert state.log_mode
    assert all(map(math.isfinite, state.pos + state.neg + [state.reg]))
    assert np.allclose(state.pos, eta * cum_cal, rtol=0.0, atol=1e-9)
    assert np.allclose(state.neg, -eta * cum_cal, rtol=0.0, atol=1e-9)
    assert state.reg == pytest.approx(eta * cum_reg, rel=0.0, abs=1e-9)


# ---------------------------------------------------------------------------
# Input checks
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("size", [3, 5])
def test_update_rejects_wrong_length(size):
    cfg = game_config(3, brier())
    state = mw_init(cfg, 100)
    x = np.full(size, 1.0 / size)
    with pytest.raises(ValueError, match="m\\+1 = 4"):
        mw_update(state, x, 0.3, 1)
    with pytest.raises(ValueError, match="m\\+1 = 4"):
        dp_weighted_loss(state, x, 0.3, 1)
    assert state.t == 0
    assert state.pos == [1.0] * 4 and state.neg == [1.0] * 4 and state.reg == 1.0


# ---------------------------------------------------------------------------
# Lifted max coordinate
# ---------------------------------------------------------------------------


def test_lifted_max_frozen_values():
    assert lifted_max_coordinate([0.1, -0.2], 0.05) == pytest.approx(0.3, abs=1e-15)
    assert lifted_max_coordinate([0.0, 0.0, 0.0], 0.4) == 0.4
    assert lifted_max_coordinate([0.0, 0.0], -0.5) == 0.0


def test_lifted_max_matches_enumeration():
    rng = np.random.default_rng(9)
    for _ in range(500):
        m = int(rng.integers(1, 9))
        cal = rng.normal(size=m + 1)
        reg = float(rng.normal())
        got = lifted_max_coordinate(cal, reg)
        assert abs(got - lifted_max_reference(cal, reg)) <= 1e-12
