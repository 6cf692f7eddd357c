"""End-to-end guarantee checks at full scale.

Each test exercises one numbered guarantee at its stated sample size,
tolerance, and runtime limit, and prints a single PASS/FAIL line.
Criterion 8 checks a per-label pointwise regret bound that the nearest
grid point does not satisfy (it holds only on average over the label
distribution); the test states the bound faithfully and is expected to
fail.  See the repository notes for the analysis.
"""

import math
import time

import numpy as np

import recal.cli as cli
from recal.geometry import (
    HalfspaceParam,
    PayoffVector,
    dist_to_target,
    dual_linear_min,
    game_config,
    nearest_grid_index,
    payoff_vector,
    unchecked_game_config,
)
from recal.harness import ExperimentConfig, run_experiment, sweep
from recal.metrics import BucketStats, default_regret_slack
from recal.mw_recalibrator import (
    dp_denominator,
    dp_weighted_loss,
    lifted_dimension,
    lifted_max_coordinate,
    mw_init,
    mw_update,
)
from recal.recalibrator import approach_with_cost, dual_set_diameter
from recal.scoring import brier, log_clipped, regret_term, score

G = math.sqrt(2.0)


def _report(n: int, ok: bool, detail: str) -> None:
    print(f"[criterion {n:02d}] {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"criterion {n}: {detail}"


def _per_run_bound(m: int, T: int) -> float:
    return dual_set_diameter(m) * G / math.sqrt(T)


def test_criterion_01_halfspace_oracle_inequality():
    t0 = time.perf_counter()
    n = 100_000
    rng = np.random.default_rng(1)
    variants = (("brier", brier(), 3), ("log:0.05", log_clipped(0.05), 9))
    cfg_cache = {}
    violations = 0
    worst_slack = math.inf
    for k in range(n):
        name, rule, m_lo = variants[k % 2]
        m = int(rng.integers(m_lo, 65))
        cfg = cfg_cache.get((name, m))
        if cfg is None:
            cfg = cfg_cache.setdefault((name, m), game_config(m, rule))
        theta = HalfspaceParam(rng.uniform(-1.0, 1.0, m + 1), float(rng.uniform()))
        q = float(rng.random())
        w, _ = approach_with_cost(cfg, theta, q)
        bound = 1.0 / m + cfg.reg_threshold
        for y in (0, 1):
            v = payoff_vector(cfg, w, q, y)
            slack = bound - (float(v.cal @ theta.a) + theta.b * v.reg)
            worst_slack = min(worst_slack, slack)
            if slack < -1e-9:
                violations += 1
    elapsed = time.perf_counter() - t0
    ok = violations == 0 and elapsed < 30.0
    _report(1, ok, f"{violations} violations over {2 * n} checks, "
                   f"worst slack {worst_slack:.3e}, {elapsed:.1f}s (< 30s)")


def test_criterion_02_oracle_evaluation_budget():
    # every m in 3..2048 exhaustively, plus the band edges around each
    # power of two up to 2^16 where the binary-search depth changes
    ms = list(range(3, 2049))
    for k in range(11, 17):
        ms += [2**k - 1, 2**k, 2**k + 1]
    rng = np.random.default_rng(2)
    rule = brier()
    violations = 0
    worst = ""
    checks = 0
    for m in ms:
        cfg = game_config(m, rule)
        budget = 2 * math.ceil(math.log2(m)) + 4
        thetas = [HalfspaceParam(rng.uniform(-1.0, 1.0, m + 1), float(rng.uniform()))
                  for _ in range(3)]
        thetas.append(HalfspaceParam(np.zeros(m + 1), 0.0))
        for theta in thetas:
            for q in (float(rng.random()), 0.0):
                _, evals = approach_with_cost(cfg, theta, q)
                checks += 1
                if evals > budget:
                    violations += 1
                    worst = f" (m={m}: {evals} > {budget})"
    ok = violations == 0
    _report(2, ok, f"{violations} budget violations over {checks} calls, "
                   f"m up to 2^16{worst}")


def test_criterion_03_distance_dual_identity():
    n = 10_000
    rng = np.random.default_rng(3)
    variants = ((brier(), 3), (log_clipped(0.05), 9))
    cfg_cache = {}
    worst = 0.0
    for k in range(n):
        rule, m_lo = variants[k % 2]
        m = int(rng.integers(m_lo, 65))
        cfg = cfg_cache.get((rule.kind, m))
        if cfg is None:
            cfg = cfg_cache.setdefault((rule.kind, m), game_config(m, rule))
        cal = rng.normal(size=m + 1)
        cal *= (cfg.cal_threshold + rng.exponential()) / np.abs(cal).sum()
        v = PayoffVector(cal, cfg.reg_threshold + rng.exponential())
        lhs = dist_to_target(cfg, v)
        rhs = -cfg.cal_threshold - cfg.reg_threshold - dual_linear_min(cfg, v)
        worst = max(worst, abs(lhs - rhs))
    ok = worst <= 1e-12
    _report(3, ok, f"worst |primal - dual| = {worst:.3e} over {n} vectors (tol 1e-12)")


def test_criterion_04_rate_bucket_identity():
    n = 1000
    rng = np.random.default_rng(4)
    rules = (brier(), log_clipped(0.05))
    worst = 0.0
    for k in range(n):
        rule = rules[k % 2]
        m = int(rng.integers(1, 17))
        stats = BucketStats(m)
        for _ in range(int(rng.integers(1, 301))):
            stats.record(int(rng.integers(0, m + 1)) / m, float(rng.random()),
                         int(rng.integers(0, 2)), rule)
        delta = default_regret_slack(rule, m)
        c, R = stats.recalibration_vector()
        rhs = max(0.0, float(np.abs(c).sum()) - 0.5 / m, R - delta / 2.0)
        worst = max(worst, abs(stats.recalibration_rate(delta) - rhs))
    ok = worst <= 1e-12
    _report(4, ok, f"worst gap {worst:.3e} over {n} traces (tol 1e-12)")


def test_criterion_05_per_run_approachability_battery():
    # A T-round run is the prefix of a longer run with the same seed
    # (test_shorter_run_is_a_prefix), so the 2^10 and 2^12 runs are read
    # off the checkpoints of one 2^14 run.
    t0 = time.perf_counter()
    label_modes = ("iid_bernoulli:0.5", "periodic:01", "adversarial_greedy")
    worst_ratio = 0.0
    runs = 0
    violations = 0
    for labels in label_modes:
        oracle = "constant:0.5" if labels == "adversarial_greedy" else "clairvoyant:0.2"
        for m in (4, 8, 16):
            for seed in range(10):
                cfg = ExperimentConfig(T=2**14, m=m, forecaster="approach",
                                       oracle=oracle, labels=labels, seed=seed)
                at = {c.t: c for c in run_experiment(cfg).checkpoints}
                for T in (2**10, 2**12, 2**14):
                    bound = _per_run_bound(m, T)
                    d = at[T].dist_to_target
                    runs += 1
                    worst_ratio = max(worst_ratio, d / bound)
                    if d > bound:
                        violations += 1
    elapsed = time.perf_counter() - t0
    ok = violations == 0 and elapsed < 120.0
    _report(5, ok, f"{violations} violations over {runs} runs read from {runs // 3} "
                   f"plays of 2^14 rounds, worst dist/bound "
                   f"{worst_ratio:.3e}, {elapsed:.1f}s (< 2min)")


def test_early_headroom_is_measured():
    # Criterion 05's grids reach the target set before 2^10 rounds, so it
    # reads dist_to_target = 0 throughout.  At m = 64 and 256 the early
    # checkpoints still have distance left to measure against the bound.
    readings = []
    for labels in ("iid_bernoulli:0.5", "periodic:01", "adversarial_greedy"):
        oracle = "constant:0.5" if labels == "adversarial_greedy" else "clairvoyant:0.2"
        for m in (64, 256):
            cfg = ExperimentConfig(T=2**8, m=m, forecaster="approach",
                                   oracle=oracle, labels=labels, seed=0)
            for c in run_experiment(cfg).checkpoints:
                readings.append(c.dist_to_target / _per_run_bound(m, c.t))
    assert len(readings) == 6 * 9
    assert max(readings) <= 1.0
    assert max(readings) > 0.0


def test_criterion_06_recalibration_slope_at_one_third():
    t0 = time.perf_counter()
    base = ExperimentConfig(T=1, forecaster="approach", exponent=1.0 / 3.0,
                            oracle="clairvoyant:0.2", labels="iid_bernoulli:0.5",
                            seed=200)
    result = sweep(base, [2**k for k in range(10, 18)], seeds=20)
    info = result.slopes["recalibration_rate"]
    elapsed = time.perf_counter() - t0
    slope = info["slope"] if info else math.nan
    ok = info is not None and -0.50 <= slope <= -0.20 and elapsed < 300.0
    _report(6, ok, f"recalibration-rate slope {slope:.4f} in [-0.50, -0.20], "
                   f"{elapsed:.1f}s (< 5min)")


def test_criterion_07_tradeoff_endpoint_two_fifths():
    base = ExperimentConfig(T=1, forecaster="approach", exponent=0.4,
                            oracle="clairvoyant:0.2", labels="iid_bernoulli:0.5",
                            seed=0)
    result = sweep(base, [2**k for k in range(10, 18)], seeds=20)
    violations = 0
    worst = ""
    for row in result.rows:
        reg_bound = 4.0 * 2.0 / row.m**2 / 2.0 + _per_run_bound(row.m, row.T)
        cal_bound = _per_run_bound(row.m, row.T)
        if row.average_regret > reg_bound or row.calibration_rate > cal_bound:
            violations += 1
            worst = (f" (T={row.T}: regret {row.average_regret:.4f} vs "
                     f"{reg_bound:.4f}, calib {row.calibration_rate:.4f} vs "
                     f"{cal_bound:.4f})")
    ok = violations == 0
    _report(7, ok, f"{violations} bound violations over {len(result.rows)} "
                   f"grid points at x = 2/5{worst}")


def test_criterion_08_nearest_grid_pointwise_regret():
    violations = 0
    worst_excess = 0.0
    witness = ""
    checks = 0
    for rule in (brier(), log_clipped(0.05)):
        for m in range(3, 33):
            bound = 2.0 * rule.lipschitz / m**2
            for q in np.linspace(0.0, 1.0, 1000):
                q = float(q)
                p = nearest_grid_index(q, m) / m
                for y in (0, 1):
                    r = regret_term(rule, p, q, y)
                    checks += 1
                    if r > bound:
                        violations += 1
                        if r - bound > worst_excess:
                            worst_excess = r - bound
                            witness = (f"m={m} rule={rule.kind} q={q:.6f} y={y}: "
                                       f"regret {r:.4f} > {bound:.4f}")
    ok = violations == 0
    _report(8, ok, f"{violations} violations over {checks} checks; "
                   f"worst excess {worst_excess:.3e}"
                   + (f"; first worst at {witness}" if witness else ""))


def test_label_averaged_rounding_bound():
    # criterion 08's grid with the label averaged out: the expected
    # regret of rounding q to the grid, for y ~ Bernoulli(q), stays
    # within 2 * L_s / m^2 (the per-label form above does not)
    from .reference import extended_score

    worst = 0.0
    for rule in (brier(), log_clipped(0.05)):
        for m in range(3, 33):
            bound = 2.0 * rule.lipschitz / m**2
            for q in np.linspace(0.0, 1.0, 1000):
                q = float(q)
                p = nearest_grid_index(q, m) / m
                regret = extended_score(rule, p, q) - extended_score(rule, q, q)
                worst = max(worst, regret / bound)
    assert worst <= 1.0, f"worst expected regret / bound {worst:.4f}"


def test_criterion_09_mw_dp_matches_enumeration():
    from .reference import DenseMW

    worst = 0.0
    for m in range(2, 11):
        rule = brier() if m % 2 == 0 else log_clipped(0.05)
        cfg = unchecked_game_config(m, rule)
        state = mw_init(cfg, 200)
        dense = DenseMW(cfg, 200)
        rng = np.random.default_rng(900 + m)
        for _ in range(100):
            x = rng.dirichlet(np.ones(m + 1))
            q = float(rng.random())
            y = int(rng.integers(0, 2))
            mw_update(state, x, q, y)
            dense.update(x, q, y)
        bf_den = dense.denominator()
        worst = max(worst, abs(dp_denominator(state) - bf_den) / max(1.0, abs(bf_den)))
        for _ in range(5):
            xp = rng.dirichlet(np.ones(m + 1))
            qp = float(rng.random())
            yp = int(rng.integers(0, 2))
            bf = dense.weighted_loss(xp, qp, yp)
            got = dp_weighted_loss(state, xp, qp, yp)
            worst = max(worst, abs(got - bf) / max(1.0, abs(bf)))
    ok = worst <= 1e-9
    _report(9, ok, f"worst relative error {worst:.3e} over m in 2..10 "
                   f"after 100 updates each (tol 1e-9)")


def test_criterion_10_mw_end_to_end_guarantee():
    m, T = 8, 4096
    lam = 2.0
    d = lifted_dimension(m)
    bound = max(1.0, lam) * (1.0 / (2.0 * m) + 4.0 * math.sqrt(math.log(d) / T))
    violations = 0
    worst = 0.0
    runs = 0
    for labels in ("iid_bernoulli:0.5", "periodic:0110"):
        for seed in range(10):
            cfg = ExperimentConfig(T=T, m=m, forecaster="mw",
                                   oracle="clairvoyant:0.2", labels=labels,
                                   seed=seed)
            trace = run_experiment(cfg)
            cal_avg = trace.cum_payoff.cal / T
            raw_reg_avg = trace.cum_payoff.reg * lam / T
            val = lifted_max_coordinate(cal_avg, raw_reg_avg)
            runs += 1
            worst = max(worst, val)
            if val > bound:
                violations += 1
    ok = violations == 0
    _report(10, ok, f"{violations} violations over {runs} runs; worst lifted "
                    f"max {worst:.4f} <= bound {bound:.4f}")


def test_criterion_11_lifted_max_identity():
    from .reference import lifted_max_reference

    n = 10_000
    rng = np.random.default_rng(11)
    worst = 0.0
    for _ in range(n):
        m = int(rng.integers(1, 11))
        cal = rng.normal(size=m + 1)
        reg = float(rng.normal())
        worst = max(worst, abs(lifted_max_coordinate(cal, reg)
                               - lifted_max_reference(cal, reg)))
    ok = worst <= 1e-12
    _report(11, ok, f"worst |fast - enumerated| = {worst:.3e} over {n} inputs "
                    f"(tol 1e-12)")


def test_criterion_12_run_determinism(tmp_path):
    argv = ["run", "--T", "512", "--m", "8", "--seed", "7"]
    a, b = tmp_path / "a", tmp_path / "b"
    assert cli.main(argv + ["--out", str(a)]) == 0
    assert cli.main(argv + ["--out", str(b)]) == 0
    bytes_a = (a / "trace.csv").read_bytes()
    bytes_b = (b / "trace.csv").read_bytes()
    ok = bytes_a == bytes_b and len(bytes_a) > 0
    _report(12, ok, f"two runs, {len(bytes_a)} bytes each, byte-identical={bytes_a == bytes_b}")
