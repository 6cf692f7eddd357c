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
from recal import checks
from recal.geometry import HalfspaceParam, game_config
from recal.harness import ExperimentConfig, run_experiment, sweep
from recal.mw_recalibrator import lifted_dimension
from recal.recalibrator import approach_with_cost, dual_set_diameter
from recal.scoring import brier

from .reference import lifted_max_coordinate

G = math.sqrt(2.0)


def _report(n: int, ok: bool, detail: str) -> None:
    print(f"[criterion {n:02d}] {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"criterion {n}: {detail}"


def _per_run_bound(m: int, T: int) -> float:
    return dual_set_diameter(m) * G / math.sqrt(T)


def test_criterion_01_halfspace_oracle_inequality():
    t0 = time.perf_counter()
    ok, _, detail = checks.halfspace_response(100_000, seed=1)
    elapsed = time.perf_counter() - t0
    _report(1, ok and elapsed < 30.0, f"{detail}, {elapsed:.1f}s (< 30s)")


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
    ok, _, detail = checks.distance_dual(10_000, seed=3)
    _report(3, ok, detail)


def test_criterion_04_rate_bucket_identity():
    ok, _, detail = checks.rate_identity(1000, seed=4)
    _report(4, ok, detail)


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
    ok, _, detail = checks.nearest_grid_regret(1000)
    _report(8, ok, detail)


def test_label_averaged_rounding_bound():
    # criterion 08's grid with the label averaged out: the expected
    # regret of rounding q to the grid, for y ~ Bernoulli(q), stays
    # within 2 * L_s / m^2 (the per-label form above does not)
    ok, _, detail = checks.label_averaged_rounding(1000)
    assert ok, detail


def test_criterion_09_mw_dp_matches_enumeration():
    ok, _, detail = checks.mw_dp(m_max=10, updates=100, probes=5, seed=900)
    _report(9, ok, detail)


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
