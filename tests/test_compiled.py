"""The compiled round against the Python round, and its loader."""

import dataclasses
import json
import os
import shutil
import subprocess
import sys
from array import array
from pathlib import Path

import pytest

from recal import compiled, harness
from recal.cli import main as cli_main
from recal.geometry import UNIFORM_BLOCK, min_grid_resolution
from recal.harness import ExperimentConfig, run_experiment
from recal.recalibrator import ORACLE_COUNTERS
from recal.scoring import parse_rule

needs_cc = pytest.mark.skipif(shutil.which("cc") is None, reason="no C compiler on PATH")
PAIRS = [("iid_bernoulli:0.5", "clairvoyant:0.2"), ("periodic:0110", "truth"),
         ("iid_bernoulli:0.3", "noisy_truth:0.1"), ("periodic:011", "constant:0.37")]
LEDGER = ("cum_reg", "_uniforms")
STATE = ("_a", "_b", "_nnz", "t") + LEDGER + ORACLE_COUNTERS
STATS = ("counts", "label_sums", "T", "cum_forecaster_score", "cum_oracle_score")
QUOTES = (0.5, 0.3, 0.37, 0.0, 1.0)


def _run(monkeypatch, cfg, fn):
    """run_experiment(cfg) with the compiled round fn (None: the Python
    round), and the run's forecaster."""
    kept = []

    def keeping(cls):
        class Kept(cls):
            def __init__(self, *args):
                super().__init__(*args)
                kept.append(self)
        return Kept

    with monkeypatch.context() as mp:
        mp.setattr(compiled, "library", lambda: fn)
        for name in ("RecalibratorState", "_PassthroughForecaster"):
            mp.setattr(harness, name, keeping(getattr(harness, name)))
        trace = run_experiment(cfg)
    return trace, kept[0]


def _assert_same_run(a, b):
    (ta, sa), (tb, sb) = a, b
    assert (ta.q.tobytes(), ta.p, ta.y.tobytes()) == (tb.q.tobytes(), tb.p, tb.y.tobytes())
    assert repr(ta.checkpoints) == repr(tb.checkpoints)
    assert ta.cum_payoff.cal.tobytes() == tb.cum_payoff.cal.tobytes()
    assert repr(ta.cum_payoff.reg) == repr(tb.cum_payoff.reg)
    for key in STATS:
        assert repr(getattr(ta.stats, key)) == repr(getattr(tb.stats, key)), key
    for key in STATE if ta.config.forecaster == "approach" else LEDGER:
        assert repr(getattr(sa, key)) == repr(getattr(sb, key)), key
    assert ta.oracle == tb.oracle
    # the same uniforms were drawn from the forecaster's generator
    if sa.rng is not None or sb.rng is not None:
        assert sa.rng.random() == sb.rng.random()


@needs_cc
@pytest.mark.parametrize("rule", ["brier", "log:0.1", "log:0.05"])
@pytest.mark.parametrize("labels, oracle", PAIRS)
def test_compiled_round_matches_the_python_round(monkeypatch, rule, labels, oracle):
    # m below the rule's least grid is left out
    fn = compiled.library()
    assert fn is not None, "a C compiler is on PATH but the compiled round did not load"
    mixtures = []
    for m in (3, 8, 64, 256, 1024):
        if m < min_grid_resolution(parse_rule(rule)):
            continue
        for seed in (0, 1):
            cfg = ExperimentConfig(T=3000, m=m, rule=rule, oracle=oracle, labels=labels,
                                   seed=seed)
            fast = _run(monkeypatch, cfg, fn)
            slow = _run(monkeypatch, cfg, None)
            assert (fast[0].round, slow[0].round) == ("compiled", "python")
            _assert_same_run(fast, slow)
            mixtures.append(slow[1].mixture_rounds)
            if rule == "brier" and oracle.startswith("noisy_truth"):
                # gcc's builtin pow(q, 2.0) is q*q, which differs in the
                # last bit on some of these quotes: -fno-builtin is tested
                assert any(q ** 2 != q * q for q in fast[0].q)
    # truth quotes of periodic labels are the labels, which never mix;
    # elsewhere some run draws more than one block of uniforms
    assert max(mixtures) > UNIFORM_BLOCK or oracle == "truth", mixtures


@needs_cc
@pytest.mark.parametrize("rule", ["brier", "log:0.1", "log:0.05"])
@pytest.mark.parametrize("forecaster", ["approach", "passthrough"])
def test_compiled_adversarial_round_matches_the_python_round(monkeypatch, forecaster, rule):
    # the greedy adversary reads the live ledger each round and the
    # compiled round writes its labels into the trace; m below the
    # rule's least grid is left out
    fn = compiled.library()
    assert fn is not None, "a C compiler is on PATH but the compiled round did not load"
    mixtures, moving, labels = [], 0, set()
    for m in (3, 8, 64, 256, 1024):
        if m < min_grid_resolution(parse_rule(rule)):
            continue
        for q in QUOTES:
            for seed in (0, 1):
                cfg = ExperimentConfig(T=3000, m=m, rule=rule, forecaster=forecaster,
                                       oracle=f"constant:{q}", labels="adversarial_greedy",
                                       seed=seed)
                fast = _run(monkeypatch, cfg, fn)
                slow = _run(monkeypatch, cfg, None)
                assert (fast[0].round, slow[0].round) == ("compiled", "python")
                _assert_same_run(fast, slow)
                mixtures.append(getattr(slow[1], "mixture_rounds", 0))
                moving += len(set(slow[0].y)) == 2
                labels |= set(slow[0].y)
    if forecaster == "approach":
        # labels that never change would leave the adversary's choice
        # untested
        assert moving == len(mixtures), (moving, len(mixtures))
        assert max(mixtures) > UNIFORM_BLOCK, mixtures
    else:
        # a fixed play drives one ledger entry one way, so each run's
        # label is constant; across the quotes it takes both values
        assert labels == {0, 1}, labels


@needs_cc
@pytest.mark.parametrize("forecaster", ["approach", "passthrough"])
def test_compiled_adversarial_round_matches_at_the_largest_grid(monkeypatch, forecaster):
    cfg = ExperimentConfig(T=256, m=2**16, forecaster=forecaster, oracle="constant:0.5",
                           labels="adversarial_greedy")
    fast = _run(monkeypatch, cfg, compiled.library())
    slow = _run(monkeypatch, cfg, None)
    assert (fast[0].round, slow[0].round) == ("compiled", "python")
    _assert_same_run(fast, slow)


@needs_cc
@pytest.mark.parametrize("table, i, message", [
    ("score0", 0, r"oracle invariant f\(0, 0\) <= 0 violated: "),
    ("score1", -1, r"oracle invariant f\(m, 1\) <= 0 violated: "),
])
def test_a_failed_invariant_raises_the_python_rounds_error(monkeypatch, table, i, message):
    # a score table whose sure forecast is not the best breaks the
    # oracle's endpoint invariant once b > 0; both rounds stop at the
    # same round with the same error
    game_config = harness.game_config

    def broken(m, rule):
        cfg = game_config(m, rule)
        scores = list(getattr(cfg, table))
        scores[i] = 10.0
        return dataclasses.replace(cfg, **{table: tuple(scores)})

    monkeypatch.setattr(harness, "game_config", broken)
    for labels, oracle in (("periodic:0110", "truth"), ("adversarial_greedy", "constant:0.37")):
        cfg = ExperimentConfig(T=2000, m=8, labels=labels, oracle=oracle)
        errors = []
        for fn in (compiled.library(), None):
            with pytest.raises(RuntimeError, match=message) as info:
                _run(monkeypatch, cfg, fn)
            errors.append(str(info.value))
        assert errors[0] == errors[1]


def test_without_a_compiler_the_python_round_writes_the_same_bytes(tmp_path, monkeypatch):
    fallback = compiled.load(str(tmp_path / "cache"), cc="no-such-compiler-recal")
    assert fallback is None
    argv = ["run", "--T", "3000", "--m", "16", "--oracle", "noisy_truth:0.1",
            "--labels", "iid_bernoulli:0.4", "--seed", "5"]
    outs = {}
    for name, fn in (("python", fallback), ("compiled", compiled.library())):
        if name == "compiled" and fn is None:
            continue  # no compiler here either: the default run is the fallback's
        with monkeypatch.context() as mp:
            mp.setattr(compiled, "library", lambda: fn)
            assert cli_main(argv + ["--out", str(tmp_path / name)]) == 0
        outs[name] = (tmp_path / name / "trace.csv").read_bytes()
        summary = json.loads((tmp_path / name / "summary.json").read_text())
        assert summary["round"] == name
        assert set(summary["oracle"]) == set(ORACLE_COUNTERS)
        outs[name, "oracle"] = summary["oracle"]
    assert outs["python", "oracle"]["mixture_rounds"] > 0
    if "compiled" in outs:
        assert outs["python"] == outs["compiled"]
        assert outs["python", "oracle"] == outs["compiled", "oracle"]


def test_summary_names_the_round_and_counts_only_approach_runs(tmp_path, monkeypatch):
    # mw always takes the Python round; approach, adversarial too, and
    # passthrough take the compiled one where it loads
    fn = compiled.library()
    for library in ((fn, None) if fn is not None else (None,)):
        for forecaster, labels in (("approach", "adversarial_greedy"),
                                   ("passthrough", "bernoulli:0.5"), ("mw", "bernoulli:0.5")):
            out = tmp_path / f"{forecaster}-{library is None}"
            oracle = "constant:0.5" if labels == "adversarial_greedy" else "clairvoyant:0.2"
            with monkeypatch.context() as mp:
                mp.setattr(compiled, "library", lambda: library)
                assert cli_main(["run", "--T", "64", "--m", "4", "--forecaster", forecaster,
                                 "--labels", labels, "--oracle", oracle,
                                 "--out", str(out)]) == 0
            summary = json.loads((out / "summary.json").read_text())
            expected = "python" if library is None or forecaster == "mw" else "compiled"
            assert summary["round"] == expected, (forecaster, library)
            assert ("oracle" in summary) == (forecaster == "approach")


@pytest.mark.parametrize("forecaster", harness.FORECASTERS)
def test_a_sweep_loads_the_library_before_its_pool_forks_only_for_compiled_forecasters(
        monkeypatch, forecaster):
    # the parent's calls are counted; forked workers count in their own copy
    calls = []
    library = compiled.library
    monkeypatch.setattr(compiled, "library", lambda: calls.append(1) or library())
    monkeypatch.setenv("RECAL_THREADS", "2")
    harness.sweep(ExperimentConfig(T=8, m=4, forecaster=forecaster), [8, 16, 32], 2)
    assert len(calls) == (forecaster in harness.COMPILED_FORECASTERS), forecaster


_BUILD = """
import sys
sys.path.insert(0, sys.argv[1])
from recal import compiled
print(compiled.load(sys.argv[2]) is not None)
"""


@needs_cc
def test_two_processes_building_at_once_leave_one_library(tmp_path):
    src = str(Path(compiled.__file__).resolve().parents[1])
    cache = tmp_path / "cache"
    procs = [subprocess.Popen([sys.executable, "-c", _BUILD, src, str(cache)],
                              stdout=subprocess.PIPE, text=True) for _ in range(2)]
    assert [p.communicate()[0].strip() for p in procs] == ["True", "True"]
    assert [p.returncode for p in procs] == [0, 0]
    files = os.listdir(cache)
    assert len(files) == 1 and files[0].endswith(".so"), files
    assert compiled.load(str(cache)) is not None


@needs_cc
def test_the_c_source_builds_without_warnings(tmp_path):
    proc = subprocess.run(["cc", *compiled.FLAGS, "-Wall", "-Wextra", "-Werror",
                           "-o", str(tmp_path / "round.so"), compiled.SOURCE],
                          capture_output=True, text=True)
    assert proc.returncode == 0 and not proc.stderr, proc.stderr


@needs_cc
def test_approach_round_refuses_columns_it_would_overrun():
    gcfg = harness._checked(ExperimentConfig(T=8, m=8))[0]
    state, stats = harness.RecalibratorState(gcfg, 0), harness.BucketStats(8)
    kernel = compiled.Round(compiled.library(), state, stats, learn=True, adversarial=False)
    qs, ys, out = array("d", [0.5] * 4), array("b", [1] * 4), array("i", [0] * 4)
    with pytest.raises(ValueError):
        kernel.run(qs, ys, 0, 5, out, 0)
    with pytest.raises(ValueError):
        kernel.run(qs, ys, 2, 4, out, 3)
    with pytest.raises(TypeError):
        kernel.run(array("f", [0.5] * 4), ys, 0, 4, out, 0)
    kernel.run(qs, ys, 0, 4, out, 0)
    kernel.store()
    assert stats.T == 4 and state.t == 5 and stats.counts[4] >= 1


@needs_cc
def test_round_refuses_a_mode_that_does_not_fit_its_forecaster():
    gcfg = harness._checked(ExperimentConfig(T=8, m=8))[0]
    fn = compiled.library()
    state, stats = harness.RecalibratorState(gcfg, 0), harness.BucketStats(8)
    with pytest.raises(TypeError):
        compiled.Round(fn, state, stats, learn=False, adversarial=False)
    with pytest.raises(TypeError):
        compiled.Round(fn, harness._PassthroughForecaster(gcfg), stats, learn=True,
                       adversarial=False)
    # the adversary's running l1 norm starts from a fresh ledger
    stats.add(4, 1, gcfg.score1[4], 0.25)
    with pytest.raises(ValueError):
        compiled.Round(fn, state, stats, learn=True, adversarial=True)
