"""Experiment harness: configs, sources, adversary, runs, slopes, sweeps."""

import hashlib
import math
from types import SimpleNamespace

import numpy as np
import pytest

from recal.cli import _trace_csv_text
from recal.geometry import (
    ForecastDistribution,
    PayoffVector,
    dist_to_target,
    game_config,
    point_mass,
)
from recal.harness import (
    ConfigError,
    ExperimentConfig,
    adversary_label,
    checkpoint_schedule,
    fit_loglog_slope,
    make_label_stream,
    make_oracle,
    resolved_m,
    run_experiment,
    sweep,
)
from recal.mw_recalibrator import lifted_dimension, lifted_max_coordinate
from recal.recalibrator import dual_set_diameter
from recal.scoring import brier, score


# ---------------------------------------------------------------------------
# Config resolution
# ---------------------------------------------------------------------------


def test_resolved_m_fixed():
    assert resolved_m(ExperimentConfig(T=100, m=8)) == 8


def test_resolved_m_from_exponent():
    assert resolved_m(ExperimentConfig(T=1024, exponent=1.0 / 3.0)) == 11
    assert resolved_m(ExperimentConfig(T=4096, exponent=0.4)) == 6


def test_resolved_m_exponent_tolerance():
    # a hair outside [1/3, 2/5] is accepted, more than 1e-3 is not
    assert resolved_m(ExperimentConfig(T=1024, exponent=1.0 / 3.0 - 5e-4)) >= 1
    with pytest.raises(ConfigError):
        resolved_m(ExperimentConfig(T=1024, exponent=1.0 / 3.0 - 2e-3))
    with pytest.raises(ConfigError):
        resolved_m(ExperimentConfig(T=1024, exponent=0.5))


def test_resolved_m_exactly_one_of_m_and_exponent():
    with pytest.raises(ConfigError):
        resolved_m(ExperimentConfig(T=100))
    with pytest.raises(ConfigError):
        resolved_m(ExperimentConfig(T=100, m=8, exponent=1.0 / 3.0))
    with pytest.raises(ConfigError):
        resolved_m(ExperimentConfig(T=100, m=0))


# ---------------------------------------------------------------------------
# Label streams
# ---------------------------------------------------------------------------


def test_bernoulli_labels_deterministic():
    a = make_label_stream("iid_bernoulli:0.5", seed=7).generate(100)
    b = make_label_stream("iid_bernoulli:0.5", seed=7).generate(100)
    assert a == b
    assert set(a) <= {0, 1}


def test_bernoulli_alias():
    a = make_label_stream("bernoulli:0.3", seed=7)
    assert a.kind == "iid_bernoulli"
    assert a.param == 0.3


def test_bernoulli_degenerate():
    assert make_label_stream("iid_bernoulli:0", seed=0).generate(50) == [0] * 50
    assert make_label_stream("iid_bernoulli:1", seed=0).generate(50) == [1] * 50


def test_periodic_labels():
    src = make_label_stream("periodic:01")
    assert src.generate(5) == [0, 1, 0, 1, 0]
    assert src.pi_schedule(3) == [0.0, 1.0, 0.0]
    assert make_label_stream("periodic:0110").generate(6) == [0, 1, 1, 0, 0, 1]


def test_adversarial_defers_labels():
    src = make_label_stream("adversarial_greedy")
    assert src.is_adversarial
    assert src.generate(10) is None
    assert src.pi_schedule(10) is None


@pytest.mark.parametrize(
    "spec",
    ["iid_bernoulli:1.5", "iid_bernoulli:x", "periodic:", "periodic:012",
     "adversarial_greedy:3", "weather"],
)
def test_label_stream_rejects(spec):
    with pytest.raises(ConfigError):
        make_label_stream(spec)


# ---------------------------------------------------------------------------
# Oracles
# ---------------------------------------------------------------------------


def test_clairvoyant_oracle_shrinks_labels():
    src = make_oracle("clairvoyant:0.2")
    assert src.quotes(3, [1, 0, 1], None) == [0.8, 0.2, 0.8]
    perfect = make_oracle("clairvoyant:0")
    assert perfect.quotes(3, [1, 0, 1], None) == [1.0, 0.0, 1.0]


def test_constant_oracle():
    assert make_oracle("constant:0.5").quotes(4, None, None) == [0.5] * 4


def test_truth_oracle_echoes_schedule():
    src = make_oracle("truth")
    assert src.quotes(3, [0, 1, 0], [0.3, 0.3, 0.3]) == [0.3, 0.3, 0.3]


def test_noisy_truth_oracle():
    silent = make_oracle("noisy_truth:0", seed=1)
    assert silent.quotes(3, None, [0.3, 0.9, 0.5]) == [0.3, 0.9, 0.5]
    noisy = make_oracle("noisy_truth:10", seed=1)
    qs = noisy.quotes(200, None, [0.5] * 200)
    assert all(0.0 <= q <= 1.0 for q in qs)
    assert qs != [0.5] * 200


@pytest.mark.parametrize(
    "spec", ["clairvoyant:0.6", "clairvoyant:-0.1", "constant:2", "noisy_truth:-1",
             "truth:0.5", "oracle_of_delphi"],
)
def test_oracle_rejects(spec):
    with pytest.raises(ConfigError):
        make_oracle(spec)


# ---------------------------------------------------------------------------
# Greedy adversary
# ---------------------------------------------------------------------------


def test_adversary_frozen_example():
    cfg = game_config(4, brier())
    zero = PayoffVector(np.zeros(5), 0.0)
    assert adversary_label(point_mass(0), None, 0.0, zero, 0, cfg) == 1


def test_adversary_tie_breaks_to_one():
    # point mass at the exact middle of a symmetric game: both labels
    # produce the same distance
    cfg = game_config(4, brier())
    zero = PayoffVector(np.zeros(5), 0.0)
    assert adversary_label(point_mass(2), None, 0.5, zero, 0, cfg) == 1


def _plays(rng, m):
    """One play of every shape a forecaster hands the adversary."""
    i = int(rng.integers(0, m - 1))
    j = int(rng.integers(i + 2, m + 1))
    k = int(rng.integers(0, m + 1))
    t = float(rng.uniform(0.05, 0.95))
    return [point_mass(k),
            ForecastDistribution(((i, t), (i + 1, 1.0 - t))),
            SimpleNamespace(support=((k, 1.0),)),              # passthrough's one-hot
            SimpleNamespace(support=((i, t), (j, 1.0 - t)))]   # mw's non-adjacent pair


def test_adversary_is_argmax():
    rng = np.random.default_rng(23)
    cfg = game_config(6, brier())
    grid = np.asarray(cfg.grid)
    for _ in range(100):
        for w in _plays(rng, 6):
            q = float(rng.random())
            cum = PayoffVector(rng.normal(scale=0.2, size=7), float(rng.normal(scale=0.1)))
            t = int(rng.integers(0, 50))
            y = adversary_label(w, None, q, cum, t, cfg)
            x = np.zeros(7)
            for i, wi in w.support:
                x[i] = wi
            dists = {}
            for lab in (0, 1):
                score_y = np.asarray(cfg.score1 if lab else cfg.score0)
                cal = cum.cal + x * (grid - lab)
                reg = cum.reg + (x @ score_y - score(cfg.rule, q, lab)) / cfg.lam
                dists[lab] = dist_to_target(cfg, PayoffVector(cal / (t + 1), reg / (t + 1)))
            assert dists[y] >= dists[1 - y] - 1e-12


# ---------------------------------------------------------------------------
# Checkpoints
# ---------------------------------------------------------------------------


def test_checkpoint_schedule():
    assert checkpoint_schedule(1) == [1]
    assert checkpoint_schedule(16) == [1, 2, 4, 8, 16]
    assert checkpoint_schedule(20) == [1, 2, 4, 8, 16, 20]


# ---------------------------------------------------------------------------
# run_experiment
# ---------------------------------------------------------------------------


def _cfg(**kw) -> ExperimentConfig:
    base = dict(T=128, m=4, forecaster="approach", rule="brier",
                oracle="clairvoyant:0.2", labels="iid_bernoulli:0.5", seed=3)
    base.update(kw)
    return ExperimentConfig(**base)


def test_run_is_deterministic():
    a = run_experiment(_cfg())
    b = run_experiment(_cfg())
    assert a.q == b.q
    assert a.p == b.p
    assert a.y == b.y
    assert a.checkpoints == b.checkpoints


def test_run_seed_changes_draws():
    a = run_experiment(_cfg())
    b = run_experiment(_cfg(seed=4))
    assert a.y != b.y


def test_checkpoints_follow_schedule():
    trace = run_experiment(_cfg(T=20))
    assert [c.t for c in trace.checkpoints] == [1, 2, 4, 8, 16, 20]
    assert trace.final is trace.checkpoints[-1]


@pytest.mark.parametrize("kw, digest", [
    (dict(T=1024, m=8, forecaster="approach", rule="brier", oracle="clairvoyant:0.2",
          labels="iid_bernoulli:0.5", seed=7),
     "601e0b5579352c10c7dc05ce2234d32736c722ba9321a7ed462b98c82a45f38a"),
    (dict(T=512, m=16, forecaster="approach", rule="log:0.1", oracle="constant:0.5",
          labels="adversarial_greedy", seed=3),
     "5e4a2d21f3c59b931b8ac5d5f3557f489c06e1a347069b011fc345e52ec4c42c"),
    (dict(T=512, m=16, forecaster="passthrough", rule="log:0.1", oracle="constant:0.5",
          labels="adversarial_greedy", seed=3),
     "ef9f5e582c76890717f29310086085cf28a39ef48cdf57dc5c5898106d2d84f3"),
    (dict(T=512, m=8, forecaster="passthrough", rule="brier", oracle="noisy_truth:0.1",
          labels="periodic:0110", seed=5),
     "2b66e821a69b3eec5ef626ab4c281378547b6022fc517c92d5a4b8984f2f2f84"),
])
def test_trace_bytes_are_pinned(kw, digest):
    # approach and passthrough traces must not move by a single bit
    text = _trace_csv_text(run_experiment(ExperimentConfig(**kw)))
    assert hashlib.sha256(text.encode()).hexdigest() == digest


def test_passthrough_truth_on_grid_has_zero_regret():
    cfg = _cfg(forecaster="passthrough", oracle="truth", labels="iid_bernoulli:0.5",
               m=4, T=64)
    trace = run_experiment(cfg)
    assert trace.p == [0.5] * 64
    assert trace.final.average_regret == 0.0


@pytest.mark.parametrize(
    "kw",
    [dict(T=0), dict(forecaster="magic"), dict(seed=-1), dict(m=0),
     dict(m=2), dict(labels="adversarial_greedy", oracle="clairvoyant:0.2"),
     dict(labels="adversarial_greedy", oracle="truth"),
     dict(forecaster="mw", T=6, m=8)],
)
def test_run_rejects_bad_configs(kw):
    with pytest.raises(ConfigError):
        run_experiment(_cfg(**kw))


def test_adversarial_run_records_labels_and_respects_bound():
    cfg = _cfg(labels="adversarial_greedy", oracle="constant:0.5", T=256, m=4)
    trace = run_experiment(cfg)
    assert len(trace.y) == 256
    assert set(trace.y) <= {0, 1}
    bound = dual_set_diameter(4) * math.sqrt(2.0) / math.sqrt(256.0)
    assert trace.final.dist_to_target <= bound


def test_stochastic_run_respects_bound():
    trace = run_experiment(_cfg(T=256))
    bound = dual_set_diameter(4) * math.sqrt(2.0) / math.sqrt(256.0)
    assert trace.final.dist_to_target <= bound


def test_mw_run_respects_lifted_bound():
    cfg = _cfg(forecaster="mw", T=256, m=4)
    trace = run_experiment(cfg)
    lam = 2.0
    cal_avg = trace.cum_payoff.cal / 256.0
    raw_reg_avg = trace.cum_payoff.reg * lam / 256.0
    d = lifted_dimension(4)
    bound = max(1.0, 2.0) * (1.0 / 8.0 + 4.0 * math.sqrt(math.log(d) / 256.0))
    assert lifted_max_coordinate(cal_avg, raw_reg_avg) <= bound


def test_mw_adversarial_run_respects_lifted_bound():
    cfg = _cfg(forecaster="mw", labels="adversarial_greedy", oracle="constant:0.5",
               T=256, m=4)
    trace = run_experiment(cfg)
    cal_avg = trace.cum_payoff.cal / 256.0
    raw_reg_avg = trace.cum_payoff.reg * 2.0 / 256.0
    bound = 2.0 * (1.0 / 8.0 + 4.0 * math.sqrt(math.log(lifted_dimension(4)) / 256.0))
    assert lifted_max_coordinate(cal_avg, raw_reg_avg) <= bound


def test_expected_and_realized_calibration_agree_statistically():
    # sampled-bucket calibration tracks the expected-payoff ledger within
    # a generous sqrt(log/T) envelope
    trace = run_experiment(_cfg(T=4096, m=8, seed=11))
    c, _ = trace.stats.recalibration_vector()
    expected = trace.cum_payoff.cal / 4096.0
    envelope = 5.0 * math.sqrt(math.log(9.0 / 0.01) / 4096.0)
    assert np.all(np.abs(c - expected) <= envelope)


# ---------------------------------------------------------------------------
# Slope fitting
# ---------------------------------------------------------------------------


def test_fit_exact_power_law():
    pts = [(T, 3.0 * T ** -0.5) for T in (16, 64, 256, 1024)]
    slope, intercept, r2 = fit_loglog_slope(pts)
    assert slope == pytest.approx(-0.5, abs=1e-12)
    assert intercept == pytest.approx(math.log(3.0), abs=1e-12)
    assert r2 == pytest.approx(1.0, abs=1e-12)


def test_fit_constant_values():
    slope, _, r2 = fit_loglog_slope([(10, 2.0), (100, 2.0), (1000, 2.0)])
    assert slope == pytest.approx(0.0, abs=1e-12)
    assert r2 == 1.0


def test_fit_third_root_grid():
    pts = [(2 ** k, (2 ** k) ** (-1.0 / 3.0)) for k in range(10, 17)]
    slope, _, _ = fit_loglog_slope(pts)
    assert slope == pytest.approx(-1.0 / 3.0, abs=1e-12)


def test_fit_rejects_bad_inputs():
    with pytest.raises(ValueError):
        fit_loglog_slope([(10, 1.0), (20, 0.5)])
    with pytest.raises(ValueError):
        fit_loglog_slope([(10, 1.0), (20, 0.5), (30, 0.0)])


# ---------------------------------------------------------------------------
# Sweeps
# ---------------------------------------------------------------------------


def test_sweep_aggregates_match_manual_runs(monkeypatch):
    monkeypatch.setenv("RECAL_THREADS", "1")
    base = _cfg(T=1)
    result = sweep(base, [64, 32, 64], seeds=3)
    assert [row.T for row in result.rows] == [32, 64]
    row = result.rows[1]
    finals = []
    for k in range(3):
        trace = run_experiment(_cfg(T=64, seed=3 + k))
        finals.append(trace.final.recalibration_rate)
    finals = np.array(finals)
    assert row.recalibration_rate == pytest.approx(float(finals.mean()), abs=1e-12)
    assert row.recalibration_rate_stderr == pytest.approx(
        float(finals.std(ddof=1) / math.sqrt(3)), abs=1e-12
    )
    assert row.m == 4


def test_sweep_explicit_seed_list(monkeypatch):
    monkeypatch.setenv("RECAL_THREADS", "1")
    result = sweep(_cfg(T=1), [32], seeds=[5, 9])
    trace5 = run_experiment(_cfg(T=32, seed=5))
    trace9 = run_experiment(_cfg(T=32, seed=9))
    want = 0.5 * (trace5.final.recalibration_rate + trace9.final.recalibration_rate)
    assert result.rows[0].recalibration_rate == pytest.approx(want, abs=1e-12)


def test_sweep_slopes_on_synthetic_decay(monkeypatch):
    monkeypatch.setenv("RECAL_THREADS", "1")
    base = _cfg(T=1, exponent=1.0 / 3.0, m=None, seed=0)
    result = sweep(base, [256, 1024, 4096], seeds=4)
    rec = result.slopes["recalibration_rate"]
    if rec is not None:
        assert rec["slope"] < 0.0
    assert set(result.slopes) == {
        "calibration_rate", "average_regret", "recalibration_rate"
    }


def test_sweep_rejects_bad_inputs(monkeypatch):
    monkeypatch.delenv("RECAL_THREADS", raising=False)
    with pytest.raises(ConfigError):
        sweep(_cfg(), [], seeds=3)
    with pytest.raises(ConfigError):
        sweep(_cfg(), [32], seeds=0)
    with pytest.raises(ConfigError):
        sweep(_cfg(), [32], seeds=[])
    monkeypatch.setenv("RECAL_THREADS", "zero")
    with pytest.raises(ConfigError):
        sweep(_cfg(), [32], seeds=1)
    monkeypatch.setenv("RECAL_THREADS", "0")
    with pytest.raises(ConfigError):
        sweep(_cfg(), [32], seeds=1)
