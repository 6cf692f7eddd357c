"""Halfspace oracle, OGD updates, and the predict/observe protocol."""

import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import recal

from recal.geometry import (
    UNIFORM_BLOCK,
    HalfspaceParam,
    PayoffLedger,
    PayoffVector,
    add_payoff,
    game_config,
    payoff_vector,
    unchecked_game_config,
)
from recal.metrics import BucketStats
from recal.recalibrator import (
    DEGENERATE_DELTA,
    ProtocolError,
    RecalibratorState,
    _state_at,
    approach_with_cost,
    dual_set_diameter,
    observe,
    predict,
)
from recal.scoring import brier, log_clipped, score, score_pair

from .reference import (
    ScalarRecalibratorState,
    approach,
    approach_scan,
    f_value,
    oracle,
    ogd_learning_rate,
    ogd_step,
    point_mass,
)


def _random_theta(rng, m: int) -> HalfspaceParam:
    return HalfspaceParam(rng.uniform(-1.0, 1.0, m + 1), float(rng.uniform(0.0, 1.0)))


def _inner(theta: HalfspaceParam, v) -> float:
    return float(theta.a @ v.cal) + theta.b * v.reg


# ---------------------------------------------------------------------------
# OGD constants
# ---------------------------------------------------------------------------


def test_dual_set_diameter():
    assert dual_set_diameter(8) == pytest.approx(6.082762530298219, abs=1e-15)
    assert dual_set_diameter(1) == pytest.approx(3.0, abs=1e-15)


def test_ogd_learning_rate():
    assert ogd_learning_rate(8, 4) == pytest.approx(
        math.sqrt(37.0) / (math.sqrt(2.0) * 2.0), abs=1e-15
    )


# ---------------------------------------------------------------------------
# f_value
# ---------------------------------------------------------------------------


def test_f_value_regret_only_halfspace():
    cfg = unchecked_game_config(2, brier())
    theta = HalfspaceParam(np.zeros(3), 1.0)
    assert f_value(cfg, theta, 0.5, 1, 0) == pytest.approx(0.0, abs=1e-15)
    assert f_value(cfg, theta, 0.5, 1, 1) == pytest.approx(0.0, abs=1e-15)
    assert f_value(cfg, theta, 0.5, 0, 0) == pytest.approx(-0.125, abs=1e-15)
    assert f_value(cfg, theta, 0.5, 0, 1) == pytest.approx(0.375, abs=1e-15)


def test_f_value_zero_halfspace():
    cfg = unchecked_game_config(2, brier())
    theta = HalfspaceParam(np.zeros(3), 0.0)
    for i in range(3):
        for y in (0, 1):
            assert f_value(cfg, theta, 0.3, i, y) == 0.0


def test_f_value_rejects_bad_index():
    cfg = unchecked_game_config(2, brier())
    theta = HalfspaceParam(np.zeros(3), 0.0)
    with pytest.raises(ValueError):
        f_value(cfg, theta, 0.3, 3, 0)


def test_f_value_is_point_mass_inner_product():
    rng = np.random.default_rng(3)
    cfg = game_config(7, brier())
    for _ in range(200):
        theta = _random_theta(rng, 7)
        q = float(rng.random())
        i = int(rng.integers(0, 8))
        y = int(rng.integers(0, 2))
        v = payoff_vector(cfg, point_mass(i), q, y)
        assert f_value(cfg, theta, q, i, y) == pytest.approx(_inner(theta, v), abs=1e-12)


# ---------------------------------------------------------------------------
# approach: frozen cases
# ---------------------------------------------------------------------------


def test_approach_endpoint_in_closed_quadrant():
    cfg = unchecked_game_config(2, brier())
    theta = HalfspaceParam(np.zeros(3), 1.0)
    w = approach(cfg, theta, 0.5)
    assert w.support == ((1, 1.0),)


def test_approach_two_point_mixture():
    for rule in (brier(), log_clipped(0.05)):
        cfg = unchecked_game_config(2, rule)
        theta = HalfspaceParam(np.array([-1.0, 1.0, 1.0]), 0.0)
        w = approach(cfg, theta, 0.3)
        assert w.support == ((0, 0.5), (1, 0.5))
        for y in (0, 1):
            v = payoff_vector(cfg, w, 0.3, y)
            assert _inner(theta, v) == pytest.approx(0.25, abs=1e-15)
            assert _inner(theta, v) <= 1.0 / cfg.m


def test_approach_zero_halfspace_rounds_q():
    cfg = game_config(10, brier())
    theta = HalfspaceParam(np.zeros(11), 0.0)
    w, evals = approach_with_cost(cfg, theta, 0.62)
    assert w.support == ((6, 1.0),)
    assert evals == 0


def test_approach_rejects_bad_q():
    cfg = game_config(10, brier())
    theta = HalfspaceParam(np.zeros(11), 0.0)
    with pytest.raises(ValueError):
        approach(cfg, theta, 1.5)


@pytest.mark.parametrize("a0, b", [
    (0.0, -1.0), (0.0, 1.5), (1.5, 0.5), (-1.0 - 1e-12, 0.5), (math.nan, 0.5), (0.0, math.nan),
])
def test_approach_rejects_theta_outside_K(a0, b):
    cfg = game_config(10, brier())
    a = np.zeros(11)
    a[3] = a0
    theta = HalfspaceParam(a, b)
    with pytest.raises(ValueError, match="theta must lie in K"):
        approach(cfg, theta, 0.4)
    with pytest.raises(ValueError, match="theta must lie in K"):
        approach_with_cost(cfg, theta, 0.4)


def test_approach_accepts_the_faces_of_K():
    cfg = game_config(4, brier())
    theta = HalfspaceParam(np.array([-1.0, 1.0, -1.0, 1.0, 1.0]), 1.0)
    approach(cfg, theta, 0.4)
    approach(cfg, HalfspaceParam(np.zeros(5), 0.0), 0.4)


def test_oracle_endpoint_invariants_raise():
    # b < 0 flips the sign of the regret term, so f(0, 0) > 0; the core
    # below the boundary check must refuse instead of bisecting
    cfg = game_config(4, brier())
    with pytest.raises(RuntimeError, match=r"f\(0, 0\)"):
        oracle(cfg, [0.0] * 5, -1.0, 0.5)
    # at q = 0, f(0, 0) = 0 holds but f(m, 1) = -b/lam > 0
    with pytest.raises(RuntimeError, match=r"f\(m, 1\)"):
        oracle(cfg, [-1.0, 0.0, 0.0, 0.0, 0.0], -1.0, 0.0)


_OPTIMIZED_CHECKS = """
import sys
import numpy as np
from recal.geometry import HalfspaceParam, game_config
from recal.harness import ConfigError, make_label_stream, make_oracle
from recal.metrics import BucketStats
from recal.recalibrator import RecalibratorState, _state_at, approach_with_cost
from recal.scoring import brier, score_pair

assert not __debug__ and sys.flags.optimize
cfg = game_config(4, brier())
state = RecalibratorState(cfg, 0)
state.predict(0.5)
for call, exc in (
    (lambda: approach_with_cost(cfg, HalfspaceParam(np.zeros(5), -1.0), 0.5), ValueError),
    (lambda: _state_at(cfg, [0.0] * 5, -1.0).play(0.5, score_pair(cfg.rule, 0.5)),
     RuntimeError),
    (lambda: BucketStats(4).record(0.5, 0.5, 2, cfg.rule), ValueError),
    (lambda: state.observe(0.5, 2), ValueError),
    (lambda: make_label_stream("periodic:012"), ConfigError),
    (lambda: make_oracle("noisy_truth:inf"), ConfigError),
    (lambda: make_oracle("constant:nan"), ConfigError),
):
    try:
        call()
    except exc:
        continue
    sys.exit(f"no {exc.__name__} under -O")
"""


def test_invariants_hold_under_python_O():
    env = dict(os.environ)
    src = str(Path(recal.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-O", "-c", _OPTIMIZED_CHECKS],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stdout + proc.stderr


# ---------------------------------------------------------------------------
# approach: guarantee and cost properties
# ---------------------------------------------------------------------------


def test_halfspace_guarantee_random_sample():
    rng = np.random.default_rng(11)
    for _ in range(2000):
        rule = brier() if rng.random() < 0.5 else log_clipped(0.05)
        lo = 3 if rule.kind == "brier" else 9
        m = int(rng.integers(lo, 33))
        cfg = game_config(m, rule)
        theta = _random_theta(rng, m)
        q = float(rng.random())
        w = approach(cfg, theta, q)
        bound = cfg.cal_threshold + cfg.reg_threshold
        for y in (0, 1):
            v = payoff_vector(cfg, w, q, y)
            assert _inner(theta, v) <= bound + 1e-9


def test_eval_budget_random_sample():
    rng = np.random.default_rng(12)
    for _ in range(500):
        m = int(rng.integers(3, 4097))
        cfg = game_config(m, brier())
        theta = _random_theta(rng, m)
        _, evals = approach_with_cost(cfg, theta, float(rng.random()))
        assert evals <= 2 * math.ceil(math.log2(m)) + 4


# ---------------------------------------------------------------------------
# ogd_step
# ---------------------------------------------------------------------------


def test_ogd_step_zero_payoff_is_fixed_point():
    cfg = game_config(4, brier())
    state = RecalibratorState(cfg, 0)
    theta = ogd_step(state, payoff_vector(cfg, point_mass(0), 0.0, 0))
    assert np.all(theta.a == 0.0)
    assert theta.b == 0.0


def test_ogd_step_single_coordinate():
    # from theta = 0 with cal = (1, 0, ...), reg = 0 at learning rate eta,
    # the step moves a_0 to min(1, eta)
    cfg = game_config(4, brier())
    state = RecalibratorState(cfg, 0)
    v = PayoffVector(np.array([1.0, 0.0, 0.0, 0.0, 0.0]), 0.0)
    theta = ogd_step(state, v)
    eta = ogd_learning_rate(4, 1)
    assert theta.a[0] == pytest.approx(min(1.0, eta), abs=1e-15)
    assert np.all(theta.a[1:] == 0.0)
    assert theta.b == 0.0


def test_ogd_step_lands_in_K():
    rng = np.random.default_rng(4)
    cfg = game_config(6, brier())
    state = RecalibratorState(cfg, 0)
    for _ in range(100):
        v = PayoffVector(rng.normal(scale=5.0, size=7), float(rng.normal(scale=5.0)))
        theta = ogd_step(state, v)
        assert np.all(np.abs(theta.a) <= 1.0)
        assert 0.0 <= theta.b <= 1.0


# ---------------------------------------------------------------------------
# Online state: protocol, bookkeeping, and the sparse fast path
# ---------------------------------------------------------------------------


def test_predict_first_round_rounds_q():
    cfg = game_config(10, brier())
    state = RecalibratorState(cfg, 0)
    p, w = state.predict(0.62)
    assert p == 0.6
    assert w.support == ((6, 1.0),)


def test_single_round_cum_payoff():
    cfg = unchecked_game_config(2, brier())
    state = RecalibratorState(cfg, 0)
    p, w = state.predict(0.5)
    assert (p, w.support) == (0.5, ((1, 1.0),))
    state.observe(0.5, 1)
    v = state.cum_payoff
    assert np.allclose(v.cal, [0.0, -0.5, 0.0])
    assert v.reg == 0.0


def test_protocol_errors():
    cfg = game_config(4, brier())
    state = RecalibratorState(cfg, 0)
    with pytest.raises(ProtocolError):
        state.observe(0.5, 1)
    state.predict(0.5)
    with pytest.raises(ProtocolError):
        state.predict(0.5)
    with pytest.raises(ProtocolError):
        state.observe(0.4, 1)
    with pytest.raises(ValueError):
        state.observe(0.5, 2)
    state.observe(0.5, 1)
    with pytest.raises(ValueError):
        state.predict(-0.1)


def test_module_level_wrappers():
    cfg = game_config(4, brier())
    state = RecalibratorState(cfg, 0)
    p, w = predict(state, 0.5)
    assert p in cfg.grid
    assert w.support
    assert observe(state, 0.5, 1) is state


def test_sampling_is_deterministic_given_seed():
    cfg = game_config(8, brier())
    runs = []
    for _ in range(2):
        rng = np.random.default_rng(123)
        state = RecalibratorState(cfg, 99)
        ps = []
        for _ in range(200):
            q = float(rng.random())
            p, _ = state.predict(q)
            ps.append(p)
            state.observe(q, int(rng.integers(0, 2)))
        runs.append(ps)
    assert runs[0] == runs[1]


@pytest.mark.parametrize("rule,m", [(brier(), 8), (log_clipped(0.05), 9)])
def test_observe_matches_pure_ogd_step(rule, m):
    # the in-place sparse update must reproduce ogd_step/payoff_vector
    # float for float
    cfg = game_config(m, rule)
    rng = np.random.default_rng(21)
    state = RecalibratorState(cfg, 5)
    cum_cal = np.zeros(m + 1)
    cum_reg = 0.0
    for _ in range(300):
        q = float(rng.random())
        y = int(rng.integers(0, 2))
        theta_before = state.theta
        _, w = state.predict(q)
        w_slow = approach(cfg, theta_before, q)
        assert w_slow.support == w.support
        v = payoff_vector(cfg, w, q, y)
        theta_next = ogd_step(state, v)
        state.observe(q, y)
        assert np.array_equal(state.theta.a, theta_next.a)
        assert state.theta.b == theta_next.b
        cum_cal += v.cal
        cum_reg += v.reg
    assert np.array_equal(state.cum_payoff.cal, cum_cal)
    assert state.cum_payoff.reg == pytest.approx(cum_reg, abs=1e-12)


def test_perfect_grid_oracle_has_zero_regret_contribution():
    cfg = game_config(4, brier())
    state = RecalibratorState(cfg, 0)
    rng = np.random.default_rng(6)
    for _ in range(50):
        q = float(rng.integers(0, 5)) / 4.0
        p, w = state.predict(q)
        if w.support[0][0] / 4.0 == q and len(w.support) == 1:
            v = payoff_vector(cfg, w, q, 1)
            assert v.reg == 0.0
        state.observe(q, int(rng.integers(0, 2)))


# ---------------------------------------------------------------------------
# The fused round against the unfused reference
# ---------------------------------------------------------------------------


def _scan_draws(rng, cfg):
    """(a, b, q, is_zero) draws for one config: random theta at scales
    down to where mixtures degenerate, zero theta, one-hot theta and
    quotes on the grid and at its ends."""
    m = cfg.m
    for _ in range(75):
        scale = (1.0, 1.0, 1e-3, 1e-11, 1e-13, 1e-15)[int(rng.integers(0, 6))]
        a = (scale * rng.uniform(-1.0, 1.0, m + 1)).tolist()
        b = scale * float(rng.uniform(0.0, 1.0))
        kind = rng.random()
        if kind < 0.05:
            a, b = [0.0] * (m + 1), 0.0
        elif kind < 0.15:
            a = [0.0] * (m + 1)
            a[int(rng.integers(0, m + 1))] = float(rng.choice([-1.0, 1.0]))
        elif kind < 0.2:
            b = 0.0
        u = rng.random()
        q = float(rng.integers(0, m + 1)) / m if u < 0.2 else (
            float(rng.integers(0, 2)) if u < 0.3 else float(rng.random()))
        yield a, b, q, b == 0.0 and not any(a)


def test_oracle_matches_scan_bitwise():
    rng = np.random.default_rng(31)
    cases = {"zero": 0, "endpoint": 0, "interior": 0, "mixture": 0}
    n = 0
    for rule in (brier(), log_clipped(0.05)):
        for m in list(range(1, 71)) + [1024]:
            cfg = unchecked_game_config(m, rule)
            for a, b, q, is_zero in _scan_draws(rng, cfg):
                w, evals = oracle(cfg, a, b, q)
                w_ref, evals_ref = approach_scan(cfg, a, b, q, is_zero)
                assert (w.support, evals) == (w_ref.support, evals_ref), (m, rule, q)
                # == on floats would pass -0.0 for 0.0; compare the bits too
                assert repr(w.support) == repr(w_ref.support)
                n += 1
                if evals == 0:
                    cases["zero"] += 1
                elif len(w.support) == 2:
                    cases["mixture"] += 1
                elif evals <= 4:
                    cases["endpoint"] += 1
                else:
                    cases["interior"] += 1
    assert n >= 10_000
    assert min(cases.values()) >= 100, cases


def test_oracle_matches_scan_on_degenerate_mixtures():
    # a = (-1/2, 0, ..., 0, -eps at k, +eps ...): the bisection ends on
    # (k, k+1) with |delta| ~ 2 eps, below DEGENERATE_DELTA, so both
    # oracles fall back to a point mass instead of dividing by delta
    for rule in (brier(), log_clipped(0.05)):
        for m in (9, 33, 64, 1024):
            cfg = unchecked_game_config(m, rule)
            for k in (1, m // 3, m - 2):
                a = [0.0] * (m + 1)
                a[0] = -0.5
                a[k] = -1e-14
                a[k + 1:] = [1e-13] * (m - k)
                w, evals = oracle(cfg, a, 0.0, 0.5)
                w_ref, evals_ref = approach_scan(cfg, a, 0.0, 0.5, False)
                assert (w.support, evals) == (w_ref.support, evals_ref)
                state = _state_at(cfg, a, 0.0)
                state.play(0.5, score_pair(rule, 0.5))
                assert (state.degenerate_fallbacks, state.mixture_rounds) == (1, 0)
                assert len(w.support) == 1 and w.support[0][0] in (k, k + 1)
                f_lo0, f_lo1 = a[k] * cfg.grid[k], a[k] * (cfg.grid[k] - 1.0)
                f_hi0, f_hi1 = a[k + 1] * cfg.grid[k + 1], a[k + 1] * (cfg.grid[k + 1] - 1.0)
                assert abs(f_lo0 - f_hi0 - f_lo1 + f_hi1) < DEGENERATE_DELTA


def test_oracle_counters_match_the_scan():
    # one play per state: each counter reads 0 or 1, or the scan's count
    rng = np.random.default_rng(32)
    seen = {"endpoint_answers": 0, "mixture_rounds": 0}
    for rule in (brier(), log_clipped(0.05)):
        for m in (2, 3, 17, 64, 1024):
            cfg = unchecked_game_config(m, rule)
            for a, b, q, is_zero in _scan_draws(rng, cfg):
                state = _state_at(cfg, a, b)
                _, support = state.play(q, score_pair(rule, q))
                w_ref, evals_ref = approach_scan(cfg, a, b, q, is_zero)
                assert state.f_evals == evals_ref
                assert state.mixture_rounds == (len(w_ref.support) == 2)
                # with m >= 2 the bisection takes a step, so only an
                # endpoint answer costs 2 or 4 evaluations
                assert state.endpoint_answers == (evals_ref in (2, 4))
                for key in seen:
                    seen[key] += getattr(state, key)
    assert min(seen.values()) >= 50, seen


def _play_pair(cfg, T, seed):
    """Play RecalibratorState through the round loop's calls (play with
    shared quote scores, BucketStats.add, update) and
    ScalarRecalibratorState through the checked ones."""
    rng = np.random.default_rng(seed)
    fast, slow = RecalibratorState(cfg, seed), ScalarRecalibratorState(cfg, seed)
    fast_stats, slow_stats = BucketStats(cfg.m), BucketStats(cfg.m)
    tables = (cfg.score0, cfg.score1)
    mixtures = 0
    for t in range(T):
        y = int(rng.random() < 0.5)
        q = float(rng.random()) if t % 3 == 0 else 0.2 + 0.6 * y
        quote_scores = score_pair(cfg.rule, q)
        i, support = fast.play(q, quote_scores)
        p_ref, w_ref = slow.predict(q)
        assert (cfg.grid[i], support) == (p_ref, w_ref.support), t
        mixtures += len(support) == 2
        fast_stats.add(i, y, tables[y][i], quote_scores[y])
        slow_stats.record(p_ref, q, y, cfg.rule)
        fast.update(y)
        slow.observe(q, y)
        assert fast._a == slow._a and fast._b == slow._b and fast._nnz == slow._nnz
    return fast, slow, fast_stats, slow_stats, mixtures


@pytest.mark.parametrize("rule,m", [(brier(), 64), (log_clipped(0.05), 33)])
def test_state_matches_scalar_reference(rule, m):
    cfg = game_config(m, rule)
    fast, slow, fast_stats, slow_stats, mixtures = _play_pair(cfg, 2000, 17)
    assert mixtures > 2 * UNIFORM_BLOCK  # crosses block boundaries
    assert np.array_equal(fast.theta.a, slow.theta.a) and fast.theta.b == slow.theta.b
    v, v_ref = fast.cum_payoff, slow.cum_payoff
    assert np.array_equal(v.cal, v_ref.cal) and v.reg == v_ref.reg
    assert fast.t == slow.t
    for field in ("counts", "label_sums", "T", "cum_forecaster_score", "cum_oracle_score"):
        assert getattr(fast_stats, field) == getattr(slow_stats, field), field


def test_fused_observe_matches_add_payoff_bitwise():
    # observe's single support walk must add exactly add_payoff's terms
    for rule, m in ((brier(), 16), (log_clipped(0.1), 17)):
        cfg = game_config(m, rule)
        state = RecalibratorState(cfg, 3)
        cal = np.zeros(m + 1)
        reg = 0.0
        rng = np.random.default_rng(8)
        for _ in range(1000):
            q = float(rng.random())
            y = int(rng.integers(0, 2))
            _, w = state.predict(q)
            reg += add_payoff(cfg, w.support, score(rule, q, y), y, cal)
            state.observe(q, y)
            assert state.cum_payoff.reg == reg
        assert np.array_equal(state.cum_payoff.cal, cal)


def test_block_uniforms_equal_scalar_draws():
    # three blocks' worth of the ledger's draws, so two block boundaries
    # and the first draw of a fresh block are covered
    n = 2 * UNIFORM_BLOCK + 1
    blocked = PayoffLedger(game_config(8, brier()), np.random.default_rng(99))
    draws = [blocked._uniform() for _ in range(n)]
    scalar = np.random.default_rng(99)
    assert draws == [scalar.random() for _ in range(n)]
