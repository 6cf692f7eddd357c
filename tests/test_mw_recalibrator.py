"""Multiplicative-weights forecaster: DP identities, log weights, minimax play."""

import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from scipy.optimize import linprog

from recal import harness
from recal.geometry import game_config, nearest_grid_index, unchecked_game_config
from recal.harness import ExperimentConfig, run_experiment
from recal.mw_recalibrator import (
    MWState,
    dp_denominator,
    dp_weighted_loss,
    lifted_dimension,
    lifted_max_coordinate,
    mw_choose,
    mw_init,
    mw_update,
)
from recal.scoring import brier, log_clipped, score_pair

from .reference import (
    DenseMW,
    dense_loss_parts,
    lifted_max_reference,
    mw_choose_dense,
    mw_choose_scan,
    mw_choose_vector,
    mw_update_vector,
    scan_state,
    vertex_losses_scan,
)


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
    assert state.u.tolist() == [0.0] * 4
    assert state.r == 0.0
    assert state.rho.tolist() == [0.0] * 4
    assert state.log_a.tolist() == [math.log(2.0)] * 4


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
    mw_update_vector(state, x, 1.0, 1)
    assert state.u.tolist() == [0.0] * 4
    assert state.r == 0.0
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
        mw_update_vector(state, x, q, y)
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
    mw_update_vector(a, *u1)
    mw_update_vector(a, *u2)
    b = mw_init(cfg, 100)
    mw_update_vector(b, *u2)
    mw_update_vector(b, *u1)
    assert a.u.tolist() == pytest.approx(b.u.tolist(), rel=1e-12)
    assert a.r == pytest.approx(b.r, rel=1e-12)
    assert a.rho.tolist() == pytest.approx(b.rho.tolist(), rel=1e-12)
    assert a.log_a.tolist() == pytest.approx(b.log_a.tolist(), rel=1e-12)


@pytest.mark.parametrize("m", [2, 3, 5])
def test_dp_matches_dense_enumeration_at_large_eta(m):
    # eta = 3 drives the lifted weights across hundreds of orders of
    # magnitude within 60 updates, still inside the dense float range
    rule = brier() if m % 2 == 0 else log_clipped(0.05)
    cfg = unchecked_game_config(m, rule)
    state = MWState(cfg=cfg, eta=3.0, T=200)
    dense = DenseMW(cfg, 200)
    dense.eta = state.eta
    rng = np.random.default_rng(70 + m)
    for _ in range(60):
        q = float(rng.random())
        y = int(rng.integers(0, 2))
        x = mw_choose_vector(state, q)
        mw_update_vector(state, x, q, y)
        dense.update(x, q, y)
    assert dp_denominator(state) == pytest.approx(dense.denominator(), rel=1e-9)
    for _ in range(10):
        xp = rng.dirichlet(np.ones(m + 1))
        qp = float(rng.random())
        yp = int(rng.integers(0, 2))
        want = dense.weighted_loss(xp, qp, yp)
        got = dp_weighted_loss(state, xp, qp, yp)
        assert abs(got - want) <= 1e-9 * max(1.0, abs(want))


# ---------------------------------------------------------------------------
# Log weights
# ---------------------------------------------------------------------------


def test_log_mode_agrees_with_linear_mode():
    # The linear representation holds the lifted weights' factors
    # exp(+-u_k) and exp(r) themselves; the scan's dynamic program over
    # it must give the losses and the denominator the log weights give.
    cfg = game_config(4, brier())
    state = mw_init(cfg, 200)
    rng = np.random.default_rng(31)
    for _ in range(60):
        mw_update_vector(state, rng.dirichlet(np.ones(5)), float(rng.random()),
                  int(rng.integers(0, 2)))
    lin = scan_state(state, log_mode=False)
    assert not lin.log_mode
    den = lin.reg + math.prod(p + n for p, n in zip(lin.pos, lin.neg))
    assert dp_denominator(state) == pytest.approx(den, rel=1e-12)
    for _ in range(20):
        qc = float(rng.random())
        h = [np.array(vertex_losses_scan(lin, qc, y)) for y in (0, 1)]
        xp = rng.dirichlet(np.ones(5))
        for y in (0, 1):
            assert dp_weighted_loss(state, xp, qc, y) == pytest.approx(
                float(xp @ h[y]), rel=0.0, abs=1e-12)
        x = mw_choose_vector(state, qc)
        xs = mw_choose_scan(lin, qc)
        assert max(x @ h[0], x @ h[1]) == pytest.approx(max(xs @ h[0], xs @ h[1]),
                                                        rel=0.0, abs=1e-12)


def test_overflowing_weights_stay_exact():
    # eta far above any legal value drives the lifted weights past the
    # float range within a few rounds; their logs stay exact
    cfg = unchecked_game_config(2, brier())
    state = MWState(cfg=cfg, eta=50.0, T=100)
    x = _one_hot(3, 0)
    for _ in range(30):
        mw_update_vector(state, x, 1.0, 1)
    assert state.u.tolist() == [-1500.0, 0.0, 0.0]
    assert state.r == 1500.0
    assert state.rho.tolist() == [-1.0, 0.0, 0.0]
    assert state.log_a.tolist() == [1500.0, math.log(2.0), math.log(2.0)]
    assert dp_denominator(state) == math.inf
    # five lifted coordinates are tied at the top (four sign patterns
    # with sigma_0 = -1, plus the regret coordinate), so the weighted
    # loss of a probe is their plain average
    got = dp_weighted_loss(state, x, 0.5, 1)
    assert got == pytest.approx((4.0 * 1.0 + 0.75) / 5.0, abs=1e-12)


def _battery_runs():
    """(m, rule, seed) of the large-eta battery: 90 runs per eta."""
    for m in (1, 2, 3, 4, 6, 8, 12, 16, 32):
        for rule in (brier(), log_clipped(0.05)):
            for seed in range(5):
                yield m, rule, seed


def test_large_eta_runs_track_cumulative_losses():
    # 360 runs of 40 rounds with eta in {10, 20, 40, 80}, far above
    # mw_init's: after every update u and r equal eta times the
    # cumulative losses and every field is finite
    runs = 0
    for eta in (10.0, 20.0, 40.0, 80.0):
        for m, rule, seed in _battery_runs():
            cfg = unchecked_game_config(m, rule)
            state = MWState(cfg=cfg, eta=eta, T=100)
            rng = np.random.default_rng(seed)
            cum_cal = np.zeros(m + 1)
            cum_reg = 0.0
            for _ in range(40):
                q = float(rng.random())
                y = int(rng.integers(0, 2))
                x = mw_choose_vector(state, q)
                mw_update_vector(state, x, q, y)
                cal, reg = dense_loss_parts(cfg, x, q, y)
                cum_cal += cal
                cum_reg += reg
                assert np.abs(state.u - eta * cum_cal).max() <= 1e-9
                assert abs(state.r - eta * cum_reg) <= 1e-9
                fields = np.concatenate([state.u, state.rho, state.log_a, [state.r]])
                assert np.isfinite(fields).all()
            assert state.t == 40
            runs += 1
    assert runs == 360


# ---------------------------------------------------------------------------
# Minimax move selection
# ---------------------------------------------------------------------------


def test_choose_fresh_state_plays_nearest_grid_point():
    cfg = game_config(3, brier())
    state = mw_init(cfg, 100)
    x = mw_choose_vector(state, 2.0 / 3.0)
    assert x[2] == 1.0
    assert x.sum() == 1.0
    for y in (0, 1):
        assert dp_weighted_loss(state, x, 2.0 / 3.0, y) <= 2.0 / (2.0 * 3.0) + 1e-12


def test_choose_regret_only_plays_nearest_grid_point():
    # weights concentrated on the regret coordinate reduce the game to
    # pure proper-scoring regret
    cfg = unchecked_game_config(2, brier())
    state = MWState(cfg=cfg, eta=0.1, T=100, r=460.0)
    for q, j in ((0.5, 1), (0.0, 0), (1.0, 2)):
        x = mw_choose_vector(state, q)
        assert x[j] == 1.0


@pytest.mark.parametrize("m", [1, 2, 5, 16])
def test_choose_breaks_ties_to_nearest_grid_point(m):
    # with no weight on the regret coordinate and u = 0 every weighted
    # loss is exactly 0, so every play is optimal
    cfg = unchecked_game_config(m, brier())
    state = MWState(cfg=cfg, eta=0.1, T=100, r=-800.0)
    rng = np.random.default_rng(m)
    for q in [i / m for i in range(m + 1)] + rng.random(8).tolist():
        x = mw_choose_vector(state, q)
        assert x[nearest_grid_index(q, m)] == 1.0, (q, x)


@pytest.mark.parametrize("m", [2, 3, 4, 5, 6])
def test_choose_matches_lp_minimax(m):
    rule = brier() if m % 2 == 0 else log_clipped(0.05)
    cfg = unchecked_game_config(m, rule)
    rng = np.random.default_rng(40 + m)
    state = mw_init(cfg, 150)
    for _ in range(20):
        mw_update_vector(
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
        x = mw_choose_vector(state, q)
        achieved = max(
            dp_weighted_loss(state, x, q, 0), dp_weighted_loss(state, x, q, 1)
        )
        assert achieved == pytest.approx(res.fun, abs=1e-9)


@pytest.mark.parametrize("rule", [brier(), log_clipped(0.05)])
def test_choose_matches_lp_minimax_at_large_grid(rule):
    # m = 2^16 on a played state: the game value matches the LP optimum
    # over all 65,537 grid points, and mw_choose allocates O(m), not O(m^2)
    m = 2**16
    n = m + 1
    cfg = unchecked_game_config(m, rule)
    state = mw_init(cfg, 2**16)
    rng = np.random.default_rng(16)
    for step in range(40):
        q = float(rng.random())
        if step % 4 == 0:
            x = rng.dirichlet(np.ones(n))
        else:
            x = mw_choose_vector(state, q)
        mw_update_vector(state, x, q, int(rng.integers(0, 2)))
    legacy = scan_state(state)
    ones = np.ones(n)
    for q in (0.0, 0.5, float(rng.random())):
        h = [vertex_losses_scan(legacy, q, y) for y in (0, 1)]
        res = linprog(
            c=np.append(np.zeros(n), 1.0),
            A_ub=np.array([np.append(h[0], -1.0), np.append(h[1], -1.0)]),
            b_ub=[0.0, 0.0],
            A_eq=np.append(ones, 0.0).reshape(1, -1),
            b_eq=[1.0],
            bounds=[(0.0, None)] * n + [(None, None)],
            method="highs",
        )
        assert res.status == 0
        tracemalloc.start()
        x = mw_choose_vector(state, q)
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
        assert peak <= 64 * 8 * n
        assert max(x @ h[0], x @ h[1]) == pytest.approx(res.fun, rel=0.0, abs=1e-9)


# ---------------------------------------------------------------------------
# Exact dual minimax against the scalar pair scan
# ---------------------------------------------------------------------------


def _clone(state: MWState) -> MWState:
    return replace(state, u=state.u.copy())


def _assert_same_value(state: MWState, q: float) -> None:
    # The choice is a distribution whose game value max(x.h0, x.h1)
    # equals the pair scan's within 1e-12; where several plays are
    # optimal the two may pick different ones.  Choosing leaves the
    # state as it was.
    before = _clone(state)
    x = mw_choose_vector(state, q)
    legacy = scan_state(state)
    x_scan = mw_choose_scan(legacy, q)
    h = [np.array(vertex_losses_scan(legacy, q, y)) for y in (0, 1)]
    got = max(x @ h[0], x @ h[1])
    want = max(x_scan @ h[0], x_scan @ h[1])
    assert abs(got - want) <= 1e-12, (state.cfg.m, q, x, x_scan, got, want)
    assert (x >= 0.0).all() and abs(x.sum() - 1.0) <= 1e-15, x
    assert state.u.tobytes() == before.u.tobytes() and state.r == before.r


def _play(state: MWState, rounds: int, rng) -> None:
    for _ in range(rounds):
        x = mw_choose_vector(state, float(rng.random()))
        mw_update_vector(state, x, float(rng.random()), int(rng.integers(0, 2)))


def _differential_states(cfg, rng):
    """Fresh, played, random-mixture, huge-weight and large-eta states."""
    n = cfg.m + 1
    yield mw_init(cfg, 200)  # all coordinates tied
    for rounds in (3, 25):
        state = mw_init(cfg, 200)
        _play(state, rounds, rng)
        yield state
    state = mw_init(cfg, 200)
    for _ in range(10):
        mw_update_vector(state, rng.dirichlet(np.ones(n)), float(rng.random()),
                  int(rng.integers(0, 2)))
    yield state
    # every factor exp(u_k) near 1e200, so their product overflows
    yield MWState(cfg=cfg, eta=0.1, T=100, u=np.full(n, 460.5))
    # a large eta drives the lifted weights past the float range
    state = MWState(cfg=cfg, eta=5.0, T=100)
    _play(state, 10, rng)
    yield state
    while max(abs(state.r), np.abs(state.u).max()) < 700.0:
        mw_update_vector(state, _one_hot(n, 0), float(rng.random()), 1)
    yield state
    _play(state, 3, rng)
    yield state


def _differential_draws():
    """(state, q) over m = 1..40, both rules, every differential state."""
    rng = np.random.default_rng(2024)
    for m in range(1, 41):
        for rule in (brier(), log_clipped(0.05)):
            cfg = unchecked_game_config(m, rule)
            qs = [i / m for i in range(m + 1)] + rng.random(4).tolist()
            for state in _differential_states(cfg, rng):
                for q in qs:
                    yield state, q


def test_choose_matches_scalar_scan_game_value():
    draws = 0
    for state, q in _differential_draws():
        _assert_same_value(state, q)
        draws += 1
    assert draws >= 10_000


def _bits(play):
    return [(type(k), k, type(w), w.hex()) for k, w in play]


def test_choose_support_is_the_dense_plays_nonzero_entries():
    # The support the harness plays and updates on is exactly the dense
    # distribution's nonzero entries, as the dense mw_choose built it,
    # and stepping on it moves the state as mw_update on that x does.
    # The dense form could hold a -0.0 (a mixture weight that underflows
    # with the sign of d[j]); mw_choose now writes +0.0 there.
    draws = 0
    for state, q in _differential_draws():
        x = mw_choose_dense(state, q)
        idx = x.nonzero()[0]
        support = mw_choose(state, q)
        assert _bits(support) == _bits(zip(idx.tolist(), x[idx].tolist())), (q, x)
        assert np.array_equal(mw_choose_vector(state, q), x)
        y = draws % 2
        dense, step = _clone(state), _clone(state)
        mw_update_vector(dense, x, q, y)
        mw_update(step, support, score_pair(state.cfg.rule, q)[y], y)
        for field in ("u", "rho", "log_a"):
            assert getattr(step, field).tobytes() == getattr(dense, field).tobytes()
        assert step.r.hex() == dense.r.hex() and step.t == dense.t
        draws += 1
    assert draws >= 10_000


def test_choose_matches_scalar_scan_at_large_m():
    m = 362
    rng = np.random.default_rng(7)
    cfg = unchecked_game_config(m, brier())
    state = mw_init(cfg, 4096)
    for q in (0.0, 0.5):
        _assert_same_value(state, q)
    for _ in range(12):
        x = np.zeros(m + 1)
        i = int(rng.integers(0, m))
        x[i], x[i + 1] = 0.5, 0.5
        mw_update_vector(state, x, float(rng.random()), int(rng.integers(0, 2)))
    for q in (0.0, 1.0, 100 / m, float(rng.random())):
        _assert_same_value(state, q)


@pytest.mark.parametrize("labels, oracle", [
    ("periodic:0110", "clairvoyant:0.2"),
    ("iid_bernoulli:0.3", "noisy_truth:0.1"),
    ("adversarial_greedy", "constant:0.4"),
])
def test_mw_run_matches_scalar_scan_run(monkeypatch, labels, oracle):
    # Every round of a run, the play's game value equals the pair
    # scan's on the same state; the run itself is the unchecked run.
    cfg = ExperimentConfig(T=300, forecaster="mw", m=12, labels=labels,
                           oracle=oracle, seed=5)
    fast = run_experiment(cfg)
    calls = []

    def checked(state, q):
        calls.append(q)
        _assert_same_value(state, q)
        return mw_choose(state, q)

    # the binding _MWForecaster.predict looks up at call time
    monkeypatch.setattr(harness, "mw_choose", checked)
    slow = run_experiment(cfg)
    assert len(calls) == cfg.T
    assert fast.p == slow.p
    assert fast.y == slow.y
    assert fast.checkpoints == slow.checkpoints


# ---------------------------------------------------------------------------
# Input checks
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("size", [3, 5])
def test_update_rejects_wrong_length(size):
    cfg = game_config(3, brier())
    state = mw_init(cfg, 100)
    x = np.full(size, 1.0 / size)
    with pytest.raises(ValueError, match="m\\+1 = 4"):
        mw_update_vector(state, x, 0.3, 1)
    with pytest.raises(ValueError, match="m\\+1 = 4"):
        dp_weighted_loss(state, x, 0.3, 1)
    assert state.t == 0
    assert state.u.tolist() == [0.0] * 4 and state.r == 0.0


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
