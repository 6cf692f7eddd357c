"""Experiment harness: configs, sources, adversary, runs, slopes, sweeps."""

import hashlib
import json
import math
import os
import subprocess
import sys
import tracemalloc
from collections import Counter
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from recal import compiled, harness
from recal.cli import _trace_blocks
from recal.cli import main as cli_main
from recal.geometry import (
    ForecastDistribution,
    PayoffLedger,
    PayoffVector,
    dist_to_target,
    game_config,
)
from recal.harness import (
    ConfigError,
    ExperimentConfig,
    checkpoint_schedule,
    fit_loglog_slope,
    make_label_stream,
    make_oracle,
    resolved_m,
    run_experiment,
    sweep,
)
from recal.metrics import BucketStats, default_regret_slack
from recal.mw_recalibrator import lifted_dimension
from recal.recalibrator import RecalibratorState, approach_with_cost, dual_set_diameter
from recal.scoring import brier, score, score_pair

from .reference import (
    adversary_label_payoff,
    adversary_label_scan,
    lifted_max_coordinate,
    point_mass,
)


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


def _labels(block) -> list:
    """An int8 label block's values, once its type is checked."""
    assert isinstance(block, np.ndarray) and block.dtype == np.int8, block
    return block.tolist()


def _bits(block) -> list:
    """A float64 block's values, bit for bit, once its type is checked."""
    assert isinstance(block, np.ndarray) and block.dtype == np.float64, block
    return [v.hex() for v in block.tolist()]


def _hex(values) -> list:
    return [float(v).hex() for v in values]


def test_bernoulli_labels_deterministic():
    a = make_label_stream("iid_bernoulli:0.5", seed=7)(100)[0]
    b = make_label_stream("iid_bernoulli:0.5", seed=7)(100)[0]
    assert _labels(a) == _labels(b)
    assert set(_labels(a)) <= {0, 1}


def test_bernoulli_alias():
    # bernoulli:pi is iid_bernoulli:pi: the same labels at one seed, and
    # pi as every round's probability, across uneven blocks.
    alias = make_label_stream("bernoulli:0.3", seed=7)
    src = make_label_stream("iid_bernoulli:0.3", seed=7)
    for n in (1, 5, 1023, 2):
        (alias_ys, alias_pis), (ys, pis) = alias(n), src(n)
        assert _labels(alias_ys) == _labels(ys)
        assert _bits(alias_pis) == _bits(pis) == _hex([0.3] * n)


def test_bernoulli_degenerate():
    assert _labels(make_label_stream("iid_bernoulli:0", seed=0)(50)[0]) == [0] * 50
    assert _labels(make_label_stream("iid_bernoulli:1", seed=0)(50)[0]) == [1] * 50


def test_periodic_labels():
    ys, pis = make_label_stream("periodic:01")(5)
    assert _labels(ys) == [0, 1, 0, 1, 0]
    assert _bits(pis) == _hex([0.0, 1.0, 0.0, 1.0, 0.0])
    assert _labels(make_label_stream("periodic:0110")(6)[0]) == [0, 1, 1, 0, 0, 1]


def test_label_streams_keep_their_position():
    # A stream continues where its last call stopped: uneven
    # consecutive calls give the labels and label probabilities of one
    # call for all their rounds.  adversarial_greedy has no stream, as
    # the round picks its labels.
    for spec in ("periodic:1", "periodic:011", "iid_bernoulli:0.3"):
        for sizes in ((2, 5, 1), (1, 1023, 2)):
            src = make_label_stream(spec, seed=5)
            ys, pis = [], []
            for n in sizes:
                block_ys, block_pis = src(n)
                assert len(block_ys) == len(block_pis) == n
                ys += _labels(block_ys)
                pis += _bits(block_pis)
            whole_ys, whole_pis = make_label_stream(spec, seed=5)(sum(sizes))
            assert (ys, pis) == (_labels(whole_ys), _bits(whole_pis)), (spec, sizes)
    assert make_label_stream("adversarial_greedy") is None


@pytest.mark.parametrize("spec, oracle", [
    ("iid_bernoulli:0.3", "noisy_truth:0.1"), ("periodic:0110", "clairvoyant:0.2"),
    ("periodic:011", "truth"), ("periodic:1", "constant:0.4"),
])
def test_blocks_are_typed_columns(spec, oracle):
    # A label stream gives n int8 labels and n float64 probabilities and
    # a quote source n float64 quotes, each a C-contiguous numpy array,
    # which run_experiment appends to the trace as bytes.  A periodic
    # pattern's phase carries across blocks whose sizes are not
    # multiples of its length.
    labels_src, oracle_src = make_label_stream(spec, seed=3), make_oracle(oracle, seed=4)
    ys_all = []
    for n in (0, 1, 5, 2, 1024, 7):
        ys, pis = labels_src(n)
        qs = oracle_src(n, ys, pis)
        for block, dtype in ((ys, np.int8), (pis, np.float64), (qs, np.float64)):
            assert isinstance(block, np.ndarray) and block.dtype == dtype
            assert block.shape == (n,) and block.flags.c_contiguous
        ys_all += ys.tolist()
    if spec.startswith("periodic:"):
        pattern = [int(ch) for ch in spec.partition(":")[2]]
        assert ys_all == [pattern[t % len(pattern)] for t in range(len(ys_all))]


@pytest.mark.parametrize("labels, oracle, generators", [
    ("adversarial_greedy", "constant:0.5", 0), ("periodic:01", "clairvoyant:0.2", 0),
    ("periodic:01", "noisy_truth:0.1", 1), ("iid_bernoulli:0.5", "truth", 1),
    ("iid_bernoulli:0.5", "noisy_truth:0.1", 2),
])
def test_only_sources_that_draw_build_a_generator(monkeypatch, labels, oracle, generators):
    # iid labels and noisy_truth quotes draw; the other sources build no
    # generator, and the seed sequence still gives each source its own.
    made = []
    default_rng = np.random.default_rng
    monkeypatch.setattr(np.random, "default_rng", lambda *a: made.append(a) or default_rng(*a))
    harness._checked(_cfg(T=8, m=4, labels=labels, oracle=oracle, seed=3))
    assert len(made) == generators
    # each generator is built from its source's child of SeedSequence(3):
    # child 0 for the labels, child 1 for the oracle
    children = [0] * labels.startswith("iid") + [1] * oracle.startswith("noisy_truth")
    assert [(ss.entropy, ss.spawn_key) for ss, in made] == [(3, (k,)) for k in children]


@pytest.mark.parametrize(
    "spec",
    ["iid_bernoulli:1.5", "iid_bernoulli:x", "iid_bernoulli:nan", "bernoulli:", "periodic:",
     "periodic:012", "adversarial_greedy:3", "weather"],
)
def test_label_stream_rejects(spec):
    with pytest.raises(ConfigError):
        make_label_stream(spec)


# ---------------------------------------------------------------------------
# Oracles
# ---------------------------------------------------------------------------


def test_clairvoyant_oracle_shrinks_labels():
    labels = np.array([1, 0, 1], dtype=np.int8)
    src = make_oracle("clairvoyant:0.2")
    assert _bits(src(3, labels, None)) == _hex([0.8, 0.2, 0.8])
    perfect = make_oracle("clairvoyant:0")
    assert _bits(perfect(3, labels, None)) == _hex([1.0, 0.0, 1.0])


def test_constant_oracle():
    assert _bits(make_oracle("constant:0.5")(4, None, None)) == _hex([0.5] * 4)


def test_truth_oracle_echoes_schedule():
    src = make_oracle("truth")
    pis = np.array([0.3, 0.3, 0.3])
    assert _bits(src(3, np.array([0, 1, 0], dtype=np.int8), pis)) == _hex(pis)


def test_noisy_truth_oracle():
    silent = make_oracle("noisy_truth:0", seed=1)
    assert _bits(silent(3, None, np.array([0.3, 0.9, 0.5]))) == _hex([0.3, 0.9, 0.5])
    noisy = make_oracle("noisy_truth:10", seed=1)
    qs = noisy(200, None, np.full(200, 0.5))
    assert all(0.0 <= q <= 1.0 for q in qs)
    assert _bits(qs) != _hex([0.5] * 200)


@pytest.mark.parametrize(
    "spec", ["clairvoyant:0.6", "clairvoyant:-0.1", "constant:2", "noisy_truth:-1",
             "truth:0.5", "oracle_of_delphi", "noisy_truth:nan", "noisy_truth:inf",
             "constant:nan", "constant:", "clairvoyant:nan"],
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
    assert adversary_label_payoff(point_mass(0), None, 0.0, zero, 0, cfg) == 1


def test_adversary_tie_breaks_to_one():
    # point mass at the exact middle of a symmetric game: both labels
    # produce the same distance
    cfg = game_config(4, brier())
    zero = PayoffVector(np.zeros(5), 0.0)
    assert adversary_label_payoff(point_mass(2), None, 0.5, zero, 0, cfg) == 1


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
            y = adversary_label_payoff(w, None, q, cum, t, cfg)
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


def _dense_distances(cfg, support, q, cum, t):
    """Both labels' next-step distances, from a dense payoff vector."""
    grid = np.asarray(cfg.grid)
    x = np.zeros(cfg.m + 1)
    for i, wi in support:
        x[i] = wi
    dists = []
    for lab in (0, 1):
        score_y = np.asarray(cfg.score1 if lab else cfg.score0)
        cal = cum.cal + x * (grid - lab)
        reg = cum.reg + (x @ score_y - score(cfg.rule, q, lab)) / cfg.lam
        dists.append(dist_to_target(cfg, PayoffVector(cal / (t + 1), reg / (t + 1))))
    return dists


@pytest.mark.parametrize("forecaster, m", [
    ("approach", 4), ("approach", 16), ("approach", 256), ("approach", 1024),
    ("passthrough", 4), ("passthrough", 16), ("passthrough", 256), ("passthrough", 1024),
    ("mw", 4), ("mw", 16), ("mw", 256), ("mw", 1024),
])
def test_running_l1_adversary_matches_scan(monkeypatch, forecaster, m):
    # Replays whole adversarial runs.  Every round, the running l1 the
    # loop carries equals the live ledger's l1, and the label equals the
    # copy-and-sum scan's wherever the scan's two distances differ by
    # more than 1e-12 (closer ties may break either way).  q is the
    # constant quote of the run being played.  The Python round plays
    # these runs, so that the adversary checked is harness's.
    monkeypatch.setattr(compiled, "library", lambda: None)
    fast = harness.adversary_label
    seen = {"rounds": 0, "flips": 0}

    def checked(support, quote_scores, cal, reg, l1, t, cfg):
        cum = PayoffVector(np.array(cal), reg)
        exact = float(np.abs(cum.cal).sum())
        assert abs(l1 - exact) <= 1e-12 * max(1.0, exact), (t, l1, exact)
        y, seen["l1"] = fast(support, quote_scores, cal, reg, l1, t, cfg)
        y_ref = adversary_label_scan(SimpleNamespace(support=support), None, q, cum, t, cfg)
        seen["rounds"] += 1
        if y != y_ref:
            seen["flips"] += 1
            d0, d1 = _dense_distances(cfg, support, q, cum, t)
            assert abs(d1 - d0) <= 1e-12, (t, d0, d1)
        return y, seen["l1"]

    monkeypatch.setattr(harness, "adversary_label", checked)
    rules = ["brier"] + (["log:0.1"] if m >= 16 else [])
    # mw at m = 1024 needs T >= ln(2^1025 + 1), about 711
    T = {256: 256, 1024: 720}.get(m, 1024) if forecaster == "mw" else 1024
    for rule in rules:
        for seed, q in ((0, 0.5), (1, 0.3)):
            cfg = ExperimentConfig(T=T, m=m, forecaster=forecaster, rule=rule,
                                   oracle=f"constant:{q}", labels="adversarial_greedy",
                                   seed=seed)
            exact = run_experiment(cfg).cum_payoff.cal_l1()
            assert abs(seen["l1"] - exact) <= 1e-12 * max(1.0, exact)
    assert seen["rounds"] == 2 * len(rules) * T
    assert seen["flips"] <= seen["rounds"] // 100


def test_adversary_rejects_bad_ledger_and_round():
    cfg = game_config(4, brier())
    with pytest.raises(ValueError, match="m\\+1"):
        adversary_label_payoff(point_mass(0), None, 0.5, PayoffVector(np.zeros(4), 0.0), 0, cfg)
    with pytest.raises(ValueError, match="nonnegative"):
        adversary_label_payoff(point_mass(0), None, 0.5, PayoffVector(np.zeros(5), 0.0), -1, cfg)


@pytest.mark.parametrize("forecaster", ["approach", "passthrough", "mw"])
def test_adversarial_run_snapshots_ledger_only_at_checkpoints(monkeypatch, forecaster):
    # The adversary reads the live ledger.  The Python round takes the m+1
    # copy for each checkpoint and for the final trace; the compiled round
    # computes its checkpoints from its own state and takes the copy once,
    # for the final trace.
    owner = RecalibratorState if forecaster == "approach" else PayoffLedger
    snapshot = owner.cum_payoff.fget
    reads = []

    def counted(self):
        reads.append(self)
        return snapshot(self)

    monkeypatch.setattr(owner, "cum_payoff", property(counted))
    cfg = _cfg(forecaster=forecaster, labels="adversarial_greedy", oracle="constant:0.5",
               T=300, m=8)
    for lib in (compiled.library(), None):
        reads.clear()
        with monkeypatch.context() as mp:
            mp.setattr(compiled, "library", lambda: lib)
            trace = run_experiment(cfg)
        assert trace.round == ("python" if lib is None else "compiled")
        assert len(trace.checkpoints) == len(checkpoint_schedule(300))
        assert len(reads) == (1 if lib is not None else len(trace.checkpoints) + 1)


_TRACED_RUNS = """
import json, sys
sys.path.insert(0, sys.argv[1])
from layers import Tracer
from recal import compiled, harness
tracer = Tracer()
tracer.install()
T = int(sys.argv[2])
compiled.library = lambda: None  # the Python round, whose adversary and MW calls are seen
harness.run_experiment(harness.ExperimentConfig(
    T=T, m=8, labels="adversarial_greedy", oracle="constant:0.5", seed=3))
harness.run_experiment(harness.ExperimentConfig(
    T=T, m=8, forecaster="mw", labels="periodic:0110", seed=3))
print(json.dumps(tracer.calls))
"""


def test_bench_tracer_sees_adversary_and_mw_calls():
    # bench/layers.py wraps functions by their public names from outside
    # the package, so the names the round loop calls must be those: one
    # adversary call per adversarial round, one MW choose and update per
    # mw round.  Run apart because the wrappers stay installed.  Both runs
    # take the Python round: the compiled round's adversary and MW calls
    # have no Python name to wrap.
    root = Path(harness.__file__).resolve().parents[2]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(root / "src"), env.get("PYTHONPATH")]))
    T = 64
    proc = subprocess.run([sys.executable, "-c", _TRACED_RUNS, str(root / "bench"), str(T)],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    calls = json.loads(proc.stdout.splitlines()[-1])
    for span in ("harness.adversary", "mw_recalibrator.choose", "mw_recalibrator.update"):
        assert calls.get(span, 0) == T, (span, calls)


def test_adversarial_run_at_large_grid():
    m, T = 2**16, 256
    trace = run_experiment(_cfg(labels="adversarial_greedy", oracle="constant:0.5", T=T, m=m))
    assert len(trace.y) == T
    assert trace.final.dist_to_target <= dual_set_diameter(m) * math.sqrt(2.0) / math.sqrt(T)


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


@pytest.mark.parametrize("forecaster", sorted(harness.FORECASTERS))
@pytest.mark.parametrize("int_type", [np.int64, np.int32, np.int16])
def test_numpy_integers_run_as_python_ints(forecaster, int_type):
    # _checked accepts numpy integers for T, m and seed; the run they
    # give is the Python-int run, byte for byte, checkpoints included.
    want = run_experiment(_cfg(T=100, m=8, seed=3, forecaster=forecaster))
    got = run_experiment(_cfg(T=int_type(100), m=int_type(8), seed=int_type(3),
                              forecaster=forecaster))
    assert (got.q.tobytes(), got.p.tobytes(), got.y.tobytes()) == \
        (want.q.tobytes(), want.p.tobytes(), want.y.tobytes())
    assert repr(got.checkpoints) == repr(want.checkpoints)
    assert got.m == want.m and type(got.m) is int


def test_run_seed_changes_draws():
    a = run_experiment(_cfg())
    b = run_experiment(_cfg(seed=4))
    assert a.y != b.y


@pytest.mark.parametrize("labels, oracle", [
    ("iid_bernoulli:0.5", "clairvoyant:0.2"),
    ("periodic:01", "clairvoyant:0.2"),
    ("adversarial_greedy", "constant:0.5"),
])
def test_shorter_run_is_a_prefix(labels, oracle):
    # Criterion 05 reads its 2^10 and 2^12 runs off the checkpoints of
    # one 2^14 run, which holds because a run is a prefix of a longer one.
    long = run_experiment(_cfg(T=2**14, m=16, labels=labels, oracle=oracle))
    for T in (2**10, 2**12):
        short = run_experiment(_cfg(T=T, m=16, labels=labels, oracle=oracle))
        assert short.checkpoints == long.checkpoints[:len(short.checkpoints)]
        assert short.final.t == T
        assert short.p == long.p[:T] and short.y == long.y[:T]


BLOCK_KINDS = [(labels, oracle)
               for labels in ("iid_bernoulli:0.3", "periodic:1", "periodic:011", "periodic:0110")
               for oracle in ("truth", "noisy_truth:0.1", "clairvoyant:0.2", "constant:0.4")
               ] + [("adversarial_greedy", "constant:0.5")]


@pytest.mark.parametrize("labels, oracle", BLOCK_KINDS)
def test_blocks_reproduce_whole_T_generation(monkeypatch, labels, oracle):
    # run_experiment makes quotes and labels BLOCK_ROUNDS rounds at a time;
    # whole-T generation, one call of each source for all T rounds, is its
    # oracle: the same q bits, labels, forecasts and checkpoints.  A block
    # of 3 rounds also moves every periodic pattern's phase.
    for B in (harness.BLOCK_ROUNDS, 3):
        for T in (1, B - 1, B, B + 1, 3 * B + 7):
            cfg = _cfg(T=T, m=8, labels=labels, oracle=oracle, seed=21)
            monkeypatch.setattr(harness, "BLOCK_ROUNDS", B)
            blocks = run_experiment(cfg)
            monkeypatch.setattr(harness, "BLOCK_ROUNDS", T)
            whole = run_experiment(cfg)
            _, labels_src, oracle_src, _ = harness._checked(cfg)
            ys, pis = (None, None) if labels_src is None else labels_src(T)
            qs = oracle_src(T, ys, pis)
            assert [q.hex() for q in blocks.q] == _bits(qs), (B, T)
            assert [q.hex() for q in whole.q] == _bits(qs), (B, T)
            if ys is not None:
                assert list(blocks.y) == _labels(ys), (B, T)
            assert blocks.y == whole.y and blocks.p == whole.p, (B, T)
            assert repr(blocks.checkpoints) == repr(whole.checkpoints), (B, T)


def test_run_memory_grows_by_the_typed_columns():
    # A run holds q as array('d') and y as array('b'), 8 and 1 bytes a
    # round, and p as a list of pointers into the grid, 8 bytes and the
    # list's slack; quotes and labels are made a block at a time, so
    # nothing else grows with T.  Whole-T lists of quotes and labels as
    # Python objects would hold 49-64 bytes a round.  tracemalloc makes an
    # approach round about 20x slower, hence the short horizons; a first
    # run keeps one-off allocations (lazy imports, tables) out of both
    # peaks.
    run_experiment(ExperimentConfig(T=2**11, m=8, seed=0))
    peaks = {}
    for T in (2**11, 2**14):
        cfg = ExperimentConfig(T=T, m=8, forecaster="approach", oracle="clairvoyant:0.2",
                               labels="iid_bernoulli:0.5", seed=1)
        tracemalloc.start()
        try:
            trace = run_experiment(cfg)
            peaks[T] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(trace.p) == T
        del trace
    per_round = (peaks[2**14] - peaks[2**11]) / (2**14 - 2**11)
    assert per_round <= 20.0, (per_round, peaks)


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
    # nearly every round a two-point mixture (1,999 of 2,048)
    (dict(T=2048, m=64, forecaster="approach", rule="brier", oracle="clairvoyant:0.2",
          labels="iid_bernoulli:0.5", seed=11),
     "964f53894e717896de9ca0f2e9be3ef915dc0c559b700a85e7348f292d44a9f6"),
    # ten bisection steps a round
    (dict(T=1024, m=1024, forecaster="approach", rule="log:0.05", oracle="noisy_truth:0.1",
          labels="iid_bernoulli:0.3", seed=13),
     "70161802805d30a516084bbe2e90d7b101bfb575808eabf761c1c19a24880d3f"),
    # the MW baseline's log weights and exact dual minimax
    (dict(T=512, m=8, forecaster="mw", rule="brier", oracle="clairvoyant:0.2",
          labels="periodic:0110", seed=5),
     "d0518c9ebf436f8025e0916b006a266be62e9547f778183956fe15f660bc5045"),
])
def test_trace_bytes_are_pinned(kw, digest):
    # traces must not move by a single bit
    text = "".join(_trace_blocks(run_experiment(ExperimentConfig(**kw)), "csv"))
    assert hashlib.sha256(text.encode()).hexdigest() == digest


@pytest.mark.parametrize("kw, digest", [
    (dict(T=512, m=16, forecaster="passthrough", rule="log:0.1", oracle="constant:0.5",
          labels="adversarial_greedy", seed=3),
     "a8c91fc398c9c0cc76716a355b923218ae15e170010c17e0362fa67a9d9d8c61"),
    (dict(T=512, m=8, forecaster="mw", rule="brier", oracle="clairvoyant:0.2",
          labels="periodic:0110", seed=5),
     "1de81337df9203de93684b5939e988f365f6376692d5eb58865edb7fc2c36fa3"),
])
def test_trace_json_bytes_are_pinned(kw, digest):
    # the JSON spelling of two CSV pins above, as the indented encoder wrote it
    text = "".join(_trace_blocks(run_experiment(ExperimentConfig(**kw)), "json"))
    assert hashlib.sha256(text.encode()).hexdigest() == digest


def test_sweep_rows_are_pinned(tmp_path):
    code = cli_main(["sweep", "--T-grid", "32,64,128,256", "--exponent", "0.3333333333333333",
                     "--seeds", "3", "--seed", "2", "--oracle", "noisy_truth:0.2",
                     "--out", str(tmp_path)])
    assert code == 0
    assert (hashlib.sha256((tmp_path / "sweep.csv").read_bytes()).hexdigest()
            == "0e38391e9d0805d5612459f36d97d40a895ec4fef817f513e15d635c03708587")


def _calls(cfg: ExperimentConfig) -> Counter:
    """(caller, callee) counts of the Python calls that run_experiment(cfg) makes."""
    calls = Counter()

    def profile(frame, event, arg):
        if event == "call":
            calls[frame.f_back.f_code.co_name, frame.f_code.co_name] += 1

    sys.setprofile(profile)
    try:
        run_experiment(cfg)
    finally:
        sys.setprofile(None)
    return calls


def test_an_approach_round_is_flat(monkeypatch):
    # the Python round's run calls score_pair, play, BucketStats.add and
    # update, and from play only the sampler (mixture rounds) and
    # nearest_grid_index (theta = 0, the first round): no call builds a
    # distribution object
    T = 256
    with monkeypatch.context() as mp:
        mp.setattr(compiled, "library", lambda: None)
        calls = _calls(_cfg(T=T, m=64))
    assert {k for k, n in calls.items() if n >= T and k[0] == "run"} == {
        ("run", f) for f in ("score_pair", "play", "add", "update")}
    inner = {k: n for k, n in calls.items() if k[0] in ("play", "update", "add")}
    assert set(inner) == {("play", "_uniform"), ("play", "nearest_grid_index")}, inner
    assert inner["play", "nearest_grid_index"] < 5
    # the compiled round, where it loads, makes none of those calls a round
    if compiled.library() is not None:
        calls = _calls(_cfg(T=T, m=64))
        for f in ("play", "add", "update"):
            assert calls["run", f] == 0, f
        assert calls["run_experiment", "score_pair"] + calls["run", "score_pair"] < T / 8


def _public_replay(cfg: ExperimentConfig):
    """run_experiment's approach run replayed through the checked public
    calls: predict/observe, BucketStats.record with the score calls,
    adversary_label for adversarial labels, the rates written out from
    calibration_l1 and average_regret, and approach_with_cost at each
    round's theta, whose counts are summed."""
    gcfg, labels_src, oracle_src, ss_forecaster = harness._checked(cfg)
    m, rule, T = gcfg.m, gcfg.rule, cfg.T
    ys, pis = (None, None) if labels_src is None else labels_src(T)
    # Python floats and ints, as run_experiment's round reads them
    qs = oracle_src(T, ys, pis).tolist()
    ys = None if ys is None else ys.tolist()
    state = RecalibratorState(gcfg, np.random.default_rng(ss_forecaster))
    stats = BucketStats(m)
    delta = default_regret_slack(rule, m)
    cps = set(checkpoint_schedule(T))
    ps, ys_out, checkpoints = [], [], []
    l1 = 0.0
    evals = 0
    for t1, q in enumerate(qs, 1):
        w_ref, n = approach_with_cost(gcfg, state.theta, q)
        evals += n
        p, w = state.predict(q)
        assert w == w_ref
        if ys is None:
            y, l1 = harness.adversary_label(w.support, score_pair(rule, q), state.ledger,
                                            state.cum_reg, l1, t1 - 1, gcfg)
        else:
            y = ys[t1 - 1]
        stats.record(p, q, y, rule)
        state.observe(q, y)
        ps.append(p)
        ys_out.append(y)
        if t1 in cps:
            calib, regret = stats.calibration_l1(), stats.average_regret()
            cal_rate = max(0.0, calib - 0.5 / m)
            cum = state.cum_payoff
            checkpoints.append(harness.CheckpointMetrics(
                t1, calib, cal_rate, regret, max(0.0, cal_rate, regret - delta / 2.0),
                dist_to_target(gcfg, PayoffVector(cum.cal / t1, cum.reg / t1))))
    return ps, ys_out, checkpoints, state, stats, evals


@pytest.mark.parametrize("m", [3, 64, 1024])
@pytest.mark.parametrize("labels, oracle", [
    ("iid_bernoulli:0.5", "clairvoyant:0.2"),
    ("periodic:0110", "noisy_truth:0.1"),
    ("adversarial_greedy", "constant:0.5"),
])
def test_public_path_replays_the_run(m, labels, oracle):
    # the loop's play/update by grid index and the checked wrappers are
    # one code path: the replay matches the run bit for bit
    cfg = _cfg(T=600, m=m, labels=labels, oracle=oracle, seed=9)
    trace = run_experiment(cfg)
    ps, ys, checkpoints, state, stats, evals = _public_replay(cfg)
    assert list(trace.p) == ps and list(trace.y) == ys
    assert repr(trace.checkpoints) == repr(checkpoints)
    assert trace.cum_payoff.cal.tobytes() == state.cum_payoff.cal.tobytes()
    assert repr(trace.cum_payoff.reg) == repr(state.cum_payoff.reg)
    for key in ("counts", "label_sums", "T", "cum_forecaster_score", "cum_oracle_score"):
        assert repr(getattr(trace.stats, key)) == repr(getattr(stats, key)), key
    assert state.f_evals == evals > 0
    assert state.mixture_rounds > 0


def test_passthrough_truth_on_grid_has_zero_regret():
    cfg = _cfg(forecaster="passthrough", oracle="truth", labels="iid_bernoulli:0.5",
               m=4, T=64)
    trace = run_experiment(cfg)
    assert list(trace.p) == [0.5] * 64
    assert trace.final.average_regret == 0.0


@pytest.mark.parametrize(
    "kw",
    [dict(T=0), dict(forecaster="magic"), dict(seed=-1), dict(m=0),
     dict(m=2), dict(labels="adversarial_greedy", oracle="clairvoyant:0.2"),
     dict(labels="adversarial_greedy", oracle="truth"),
     dict(labels="adversarial_greedy", oracle="noisy_truth:0.1"),
     dict(forecaster="mw", T=6, m=8), dict(T=10.5), dict(T=True), dict(m=8.0),
     dict(seed=1.5), dict(seed=True), dict(oracle="noisy_truth:nan"),
     dict(rule=None), dict(oracle=None), dict(labels=3),
     dict(m=None, exponent="0.35")],
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


def test_sweep_aggregates_match_manual_runs():
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


def test_sweep_slopes_on_synthetic_decay():
    base = _cfg(T=1, exponent=1.0 / 3.0, m=None, seed=0)
    result = sweep(base, [256, 1024, 4096], seeds=4)
    rec = result.slopes["recalibration_rate"]
    if rec is not None:
        assert rec["slope"] < 0.0
    assert set(result.slopes) == {
        "calibration_rate", "average_regret", "recalibration_rate"
    }


def test_a_sweep_plays_each_job_once(monkeypatch):
    # the jobs run in (T, seed) order in this process, each through the
    # module's _final_metrics, so a wrapper bound there sees every job once
    played = []
    final_metrics = harness._final_metrics

    def logged(cfg):
        played.append((os.getpid(), cfg.T, cfg.seed))
        return final_metrics(cfg)

    monkeypatch.setattr(harness, "_final_metrics", logged)
    result = sweep(_cfg(T=1), [128, 32, 64], seeds=3)
    assert played == [(os.getpid(), T, seed) for T in (32, 64, 128) for seed in (3, 4, 5)]
    assert [(job["T"], job["seed"]) for job in result.jobs] == [
        (T, seed) for _, T, seed in played]


def test_sweep_rejects_bad_inputs():
    with pytest.raises(ConfigError):
        sweep(_cfg(), [], seeds=3)
    with pytest.raises(ConfigError):
        sweep(_cfg(), [32], seeds=0)
    # entries are checked, not truncated by int()
    for T_grid in ([32.5], [True]):
        with pytest.raises(ConfigError):
            sweep(_cfg(), T_grid, seeds=1)
    # seeds is a count: a list, even of integers, is refused
    for seeds in (True, "12", -1, [], [0.5], [5, 9]):
        with pytest.raises(ConfigError):
            sweep(_cfg(), [32], seeds=seeds)


def test_sweep_checks_every_horizon_before_any_job(monkeypatch):
    # m = ceil(4^(1/3)) = 2 is below Brier's least grid, 3; the sweep must
    # refuse before a job runs, not when the sweep reaches T = 4
    calls = []
    final_metrics = harness._final_metrics

    def counted(cfg):
        calls.append(cfg.T)
        return final_metrics(cfg)

    monkeypatch.setattr(harness, "_final_metrics", counted)
    base = _cfg(m=None, exponent=1.0 / 3.0)
    with pytest.raises(ConfigError, match="m must be >="):
        sweep(base, [64, 4, 128], seeds=2)
    assert calls == []
