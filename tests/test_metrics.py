"""Bucketed calibration error, average regret, and the combined rate."""

import numpy as np
import pytest

from recal.metrics import BucketStats, default_regret_slack
from recal.scoring import brier, log_clipped


def _record_rounds(stats, rounds, rule=brier()):
    for p, q, y in rounds:
        stats.record(p, q, y, rule)
    return stats


# ---------------------------------------------------------------------------
# Recording and bucketing
# ---------------------------------------------------------------------------


def test_record_buckets_by_nearest_grid_point():
    stats = BucketStats(10)
    stats.record(0.5, 0.5, 1, brier())
    stats.record(0.62, 0.5, 0, brier())
    assert stats.counts[5] == 1
    assert stats.counts[6] == 1
    assert stats.T == 2


def test_record_refuses_a_label_that_is_not_an_integer():
    stats = _record_rounds(BucketStats(4), [(0.5, 0.5, 1), (0.25, 0.5, 0)])
    before = repr(vars(stats))
    for y in (1.0, np.True_, np.float64(1.0), 0.0, "1", None):
        with pytest.raises(ValueError, match="integer 0 or 1"):
            stats.record(0.5, 0.5, y, brier())
        assert repr(vars(stats)) == before, y
    # bools and numpy integers are integer labels
    for y in (True, np.int64(1), np.int8(0)):
        stats.record(0.75, 0.5, y, brier())
    assert stats.counts == [0, 1, 1, 3, 0]
    assert stats.label_sums == [0, 0, 1, 2, 0]
    assert stats.T == 5


def test_resolution_validated():
    with pytest.raises(ValueError):
        BucketStats(0)


def test_empty_stats_raise():
    stats = BucketStats(4)
    for fn in (stats.calibration_l1, lambda: stats.rates(0.0), stats.average_regret,
               stats.recalibration_vector):
        with pytest.raises(ValueError):
            fn()


# ---------------------------------------------------------------------------
# Frozen values
# ---------------------------------------------------------------------------


def test_calibration_rate_balanced_bucket():
    stats = _record_rounds(BucketStats(2), [(0.5, 0.5, y) for y in (0, 1, 0, 1)])
    assert stats.rates(0.0)[1] == 0.0


def test_calibration_rate_one_sided_bucket():
    stats = _record_rounds(BucketStats(2), [(0.5, 0.5, 1)] * 4)
    assert stats.calibration_l1() == pytest.approx(0.5, abs=1e-15)
    assert stats.rates(0.0)[1] == pytest.approx(0.25, abs=1e-15)


def test_calibration_rate_single_perfect_round():
    stats = _record_rounds(BucketStats(2), [(1.0, 1.0, 1)])
    assert stats.rates(0.0)[1] == 0.0


def test_average_regret_values():
    stats = _record_rounds(BucketStats(2), [(0.5, 0.5, 1)])
    assert stats.average_regret() == 0.0
    stats = _record_rounds(BucketStats(2), [(0.5, 0.2, 1)])
    assert stats.average_regret() == pytest.approx(-0.39, abs=1e-15)


def test_average_regret_is_scale_invariant_in_T():
    rounds = [(0.5, 0.2, 1), (0.0, 0.3, 0), (1.0, 0.9, 1)]
    one = _record_rounds(BucketStats(4), rounds)
    two = _record_rounds(BucketStats(4), rounds * 2)
    assert two.average_regret() == pytest.approx(one.average_regret(), abs=1e-15)


def test_recalibration_rate_is_max_of_parts():
    stats = _record_rounds(BucketStats(2), [(0.5, 0.5, 1)] * 4)
    # calibration_rate = 0.25; regret = 0 here, so any delta keeps the max at 0.25
    assert stats.recalibration_rate(0.1) == pytest.approx(0.25, abs=1e-15)


def test_negative_regret_never_reduces_rate():
    stats = _record_rounds(BucketStats(2), [(0.0, 0.5, 0)] * 4)
    assert stats.average_regret() < 0.0
    assert stats.recalibration_rate(0.0) == stats.rates(0.0)[1]


def test_recalibration_vector_frozen():
    stats = _record_rounds(BucketStats(2), [(0.5, 0.5, 1)] * 4)
    c, R = stats.recalibration_vector()
    assert np.allclose(c, [0.0, -0.5, 0.0])
    assert R == 0.0


def test_recalibration_vector_calibrated_is_zero():
    stats = _record_rounds(BucketStats(2), [(0.5, 0.5, y) for y in (0, 1, 0, 1)])
    c, _ = stats.recalibration_vector()
    assert np.all(c == 0.0)


def test_default_regret_slack():
    assert default_regret_slack(brier(), 8) == pytest.approx(0.125, abs=1e-15)
    assert default_regret_slack(log_clipped(0.05), 10) == pytest.approx(0.8, abs=1e-15)


# ---------------------------------------------------------------------------
# Identities and merge
# ---------------------------------------------------------------------------


def test_rate_matches_vector_expression_on_random_traces():
    rng = np.random.default_rng(17)
    for k in range(200):
        rule = brier() if k % 2 == 0 else log_clipped(0.05)
        m = int(rng.integers(1, 17))
        stats = BucketStats(m)
        for _ in range(int(rng.integers(1, 200))):
            stats.record(
                int(rng.integers(0, m + 1)) / m,
                float(rng.random()),
                int(rng.integers(0, 2)),
                rule,
            )
        delta = default_regret_slack(rule, m)
        c, R = stats.recalibration_vector()
        rhs = max(0.0, float(np.abs(c).sum()) - 0.5 / m, R - delta / 2.0)
        assert stats.recalibration_rate(delta) == pytest.approx(rhs, abs=1e-12)
        assert stats.calibration_l1() == pytest.approx(float(np.abs(c).sum()), abs=1e-12)
