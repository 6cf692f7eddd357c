"""The compiled round against the Python round, and its loader."""

import dataclasses
import json
import os
import shutil
import subprocess
import sys
from array import array
from pathlib import Path

import numpy as np
import pytest

from recal import compiled, harness
from recal.cli import main as cli_main
from recal.geometry import UNIFORM_BLOCK, PayoffLedger, min_grid_resolution
from recal.harness import ExperimentConfig, run_experiment
from recal.metrics import default_regret_slack
from recal.mw_recalibrator import MW_COUNTERS
from recal.recalibrator import ORACLE_COUNTERS
from recal.scoring import parse_rule

needs_cc = pytest.mark.skipif(shutil.which("cc") is None, reason="no C compiler on PATH")
PAIRS = [("iid_bernoulli:0.5", "clairvoyant:0.2"), ("periodic:0110", "truth"),
         ("iid_bernoulli:0.3", "noisy_truth:0.1"), ("periodic:011", "constant:0.37")]
MW_PAIRS = [("periodic:0110", "clairvoyant:0.2"), ("iid_bernoulli:0.3", "noisy_truth:0.1"),
            ("adversarial_greedy", "constant:0.4")]
LEDGER = ("cum_reg", "_uniforms")
STATE = ("_a", "_b", "_nnz", "t") + LEDGER + ORACLE_COUNTERS
MW_STATE = ("r", "t") + MW_COUNTERS
STATS = ("counts", "label_sums", "T", "cum_forecaster_score", "cum_oracle_score")
QUOTES = (0.5, 0.3, 0.37, 0.0, 1.0)


def _run(monkeypatch, cfg, fn):
    """run_experiment(cfg) with the compiled round fn (None: the Python
    round), and the run's forecaster."""
    kept = []
    entry = harness.FORECASTERS[cfg.forecaster]

    def keeping(*args):
        kept.append(entry.make(*args))
        return kept[-1]

    with monkeypatch.context() as mp:
        mp.setattr(compiled, "library", lambda: fn)
        mp.setitem(harness.FORECASTERS, cfg.forecaster, entry._replace(make=keeping))
        trace = run_experiment(cfg)
    return trace, kept[0]


def _assert_same_run(a, b):
    (ta, sa), (tb, sb) = a, b
    assert ta.p.typecode == tb.p.typecode == "d"
    assert ((ta.q.tobytes(), ta.p.tobytes(), ta.y.tobytes())
            == (tb.q.tobytes(), tb.p.tobytes(), tb.y.tobytes()))
    assert repr(ta.checkpoints) == repr(tb.checkpoints)
    assert ta.cum_payoff.cal.tobytes() == tb.cum_payoff.cal.tobytes()
    assert repr(ta.cum_payoff.reg) == repr(tb.cum_payoff.reg)
    for key in STATS:
        assert repr(getattr(ta.stats, key)) == repr(getattr(tb.stats, key)), key
    for key in STATE if ta.config.forecaster == "approach" else LEDGER:
        assert repr(getattr(sa, key)) == repr(getattr(sb, key)), key
    if ta.config.forecaster == "mw":
        for key in ("u", "rho", "log_a"):
            assert getattr(sa, key).tobytes() == getattr(sb, key).tobytes(), key
        for key in MW_STATE:
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
@pytest.mark.parametrize("forecaster, T, m, q", [
    pytest.param("approach", 256, 2**16, 0.5, id="approach"),
    pytest.param("passthrough", 256, 2**16, 0.5, id="passthrough"),
    # the largest grid that Tier-1 runs mw at; mw at 2^16 needs T >= 45,427
    pytest.param("mw", 720, 1024, 0.4, id="mw"),
])
def test_compiled_adversarial_round_matches_at_the_largest_grid(monkeypatch, forecaster, T, m, q):
    cfg = ExperimentConfig(T=T, m=m, forecaster=forecaster, oracle=f"constant:{q}",
                           labels="adversarial_greedy")
    fast = _run(monkeypatch, cfg, compiled.library())
    slow = _run(monkeypatch, cfg, None)
    assert (fast[0].round, slow[0].round) == ("compiled", "python")
    _assert_same_run(fast, slow)


@needs_cc
@pytest.mark.parametrize("rule", ["brier", "log:0.1", "log:0.05"])
def test_compiled_mw_round_matches_the_python_round(monkeypatch, rule):
    # _shares sums m+1 log weights in numpy's pairwise order, and these m
    # take each of its branches: below 8 entries, exactly 8, a tail after
    # the 8-wide blocks, exactly 128 and the split above 128; m below the
    # rule's least grid is left out
    fn = compiled.library()
    assert fn is not None, "a C compiler is on PATH but the compiled round did not load"
    mixtures, steps = [], []
    for m in (3, 6, 7, 8, 31, 32, 127, 128, 129, 300):
        if m < min_grid_resolution(parse_rule(rule)):
            continue
        for labels, oracle in MW_PAIRS:
            for seed in (0, 1):
                cfg = ExperimentConfig(T=3000, m=m, rule=rule, forecaster="mw", oracle=oracle,
                                       labels=labels, seed=seed)
                fast = _run(monkeypatch, cfg, fn)
                slow = _run(monkeypatch, cfg, None)
                assert (fast[0].round, slow[0].round) == ("compiled", "python")
                _assert_same_run(fast, slow)
                mixtures.append(slow[1].mixture_rounds)
                steps.append(slow[1].choose_steps)
    # some play mixes two grid points, and some round crosses more than
    # one pair of lines
    assert max(mixtures) > 0, mixtures
    assert max(steps) > 3000, steps


@needs_cc
@pytest.mark.parametrize("forecaster", ["approach", "passthrough"])
@pytest.mark.parametrize("labels, oracle", [("iid_bernoulli:0.3", "noisy_truth:0.1"),
                                            ("adversarial_greedy", "constant:0.37")])
def test_compiled_checkpoints_match_at_the_pairwise_sum_thresholds(monkeypatch, forecaster,
                                                                   labels, oracle):
    # recal_checkpoint sums the m+1 terms |cal_i / t| in numpy's pairwise
    # order: m+1 = 8 is its first 8-wide block, 128 its largest plain
    # block and 129 its first split.  T is not a power of two, so the last
    # checkpoint divides inexactly.
    fn = compiled.library()
    assert fn is not None, "a C compiler is on PATH but the compiled round did not load"
    for m in (7, 127, 128):
        cfg = ExperimentConfig(T=3000, m=m, forecaster=forecaster, labels=labels,
                               oracle=oracle, seed=m)
        fast, slow = _run(monkeypatch, cfg, fn)[0], _run(monkeypatch, cfg, None)[0]
        assert (fast.round, slow.round) == ("compiled", "python")
        assert repr(fast.checkpoints) == repr(slow.checkpoints)


def _built_states(m: int):
    """(name, t, cal, reg, counts, label_sums, scores) of hand-built
    states of an m grid after t rounds."""
    rng = np.random.default_rng(m)
    counts, label_sums = [0] * (m + 1), [0] * (m + 1)
    counts[m // 3], label_sums[m // 3] = 1, 1
    cal = np.zeros(m + 1)
    cal[m // 3] = m // 3 / m - 1.0
    yield "one round", 1, cal, 0.125, counts, label_sums, (0.5, 0.25)
    for t in (7, 3001):
        counts, label_sums = [0] * (m + 1), [0] * (m + 1)
        counts[m // 2], label_sums[m // 2] = t, t // 3
        cal = rng.normal(scale=t / m, size=m + 1)
        yield "one bucket", t, cal, 0.01 * t, counts, label_sums, (0.3 * t, 0.2 * t)
    counts = rng.multinomial(1001, np.full(m + 1, 1.0 / (m + 1))).tolist()
    label_sums = [int(rng.integers(0, n + 1)) for n in counts]
    cal = rng.normal(scale=1001 / m, size=m + 1)
    cal[::3] = -0.0
    cal[1::5] = 0.0
    yield "signed zeros", 1001, cal, -3.0, counts, label_sums, (10.0, 10.0)


@needs_cc
@pytest.mark.parametrize("m", [3, 7, 127, 128, 300])
def test_compiled_checkpoint_matches_the_python_checkpoint_on_built_states(m):
    # Round.checkpoint and _PythonRound.checkpoint read one hand-built
    # ledger and BucketStats; the floats must agree bit for bit
    gcfg = harness._checked(ExperimentConfig(T=8, m=m))[0]
    delta = default_regret_slack(gcfg.rule, m)
    fn = compiled.library()
    for name, t, cal, reg, counts, label_sums, scores in _built_states(m):
        ledger, stats = PayoffLedger(gcfg), harness.BucketStats(m)
        ledger._cum_cal[:] = cal
        ledger.cum_reg = reg
        stats.counts, stats.label_sums, stats.T = counts, label_sums, t
        stats.cum_forecaster_score, stats.cum_oracle_score = scores
        fast = compiled.Round(fn, compiled.PASSTHROUGH, ledger, stats, adversarial=False)
        slow = harness._PythonRound(ledger, stats, False)
        assert repr(list(fast.checkpoint(delta))) == repr(list(slow.checkpoint(delta))), name
    # no rounds, no rates: the Python round's error
    stats = harness.BucketStats(m)
    fast = compiled.Round(fn, compiled.PASSTHROUGH, PayoffLedger(gcfg), stats, adversarial=False)
    for rounds in (fast, harness._PythonRound(PayoffLedger(gcfg), stats, False)):
        with pytest.raises(ValueError, match="no rounds recorded"):
            rounds.checkpoint(delta)


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


def test_without_its_c_source_the_loader_gives_the_python_round(tmp_path, monkeypatch):
    # a built package that lacks _round.c runs, on the fallback
    monkeypatch.setattr(compiled, "SOURCE", str(tmp_path / "_round.c"))
    assert compiled.load(str(tmp_path / "cache")) is None
    monkeypatch.setattr(compiled, "library", lambda: compiled.load(str(tmp_path / "cache")))
    assert run_experiment(ExperimentConfig(T=64, m=4)).round == "python"


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


def test_summary_names_the_round_and_counts_approach_and_mw_runs(tmp_path, monkeypatch):
    # every forecaster, adversarial approach too, takes the compiled round
    # where it loads; approach writes its oracle counters and mw its
    # mw_choose counters
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
            expected = "python" if library is None else "compiled"
            assert summary["round"] == expected, (forecaster, library)
            counters = harness.FORECASTERS[forecaster].names
            assert set(summary.get("oracle", ())) == set(counters), forecaster


def test_a_sweep_loads_the_library_only_for_a_compiled_forecaster(monkeypatch):
    # Each library() call notes its pid.  A sweep of a compiled forecaster
    # loads the library in the calling process and plays every job in C;
    # a forecaster with no compiled mode never needs the library.
    calls = []
    library = compiled.library
    monkeypatch.setattr(compiled, "library", lambda: calls.append(os.getpid()) or library())
    monkeypatch.setitem(harness.FORECASTERS, "last_point",
                        harness.Forecaster(lambda g, T, rng: _LastPoint(g), None, ()))
    for forecaster in harness.FORECASTERS:
        calls.clear()
        result = harness.sweep(ExperimentConfig(T=8, m=4, forecaster=forecaster), [8, 16, 32], 2)
        rounds = {job["round"] for job in result.jobs}
        if forecaster == "last_point":
            assert (calls, rounds) == ([], {"python"})
        else:
            assert calls and set(calls) == {os.getpid()}, forecaster
            assert rounds == {"python" if library() is None else "compiled"}, forecaster


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
    kernel = compiled.Round(compiled.library(), compiled.APPROACH, state, stats,
                            adversarial=False)
    qs, ys, ps = array("d", [0.5] * 4), array("b", [1] * 4), array("d", [-1.0] * 4)
    for bad in [(qs, ys, ps, 0, 5), (qs, ys, ps, 3, 2), (qs, ys, ps, -1, 2),
                (qs, ys, array("d", [-1.0] * 3), 0, 4), (qs, ys, array("d"), 2, 4)]:
        with pytest.raises(ValueError):
            kernel.run(*bad)
    for bad in [(array("f", [0.5] * 4), ys, ps), (qs, array("B", [1] * 4), ps),
                (qs, ys, array("i", [0] * 4)), (qs, ys, array("f", [0.0] * 4))]:
        with pytest.raises(TypeError):
            kernel.run(*bad, 0, 4)
    # nothing was played or written
    kernel.store()
    assert stats.T == 0 and state.t == 1 and list(ps) == [-1.0] * 4
    kernel.run(qs, ys, ps, 0, 4)
    kernel.store()
    assert stats.T == 4 and state.t == 5 and stats.counts[4] >= 1
    # the grid points played, each as often as stats counted it
    assert sorted(ps) == [gcfg.grid[i] for i in range(9) for _ in range(stats.counts[i])]


@needs_cc
def test_round_refuses_a_mode_that_does_not_fit_its_forecaster():
    gcfg = harness._checked(ExperimentConfig(T=8, m=8))[0]
    fn = compiled.library()
    state, stats = harness.RecalibratorState(gcfg, 0), harness.BucketStats(8)
    # a mode that _round.c does not have, checked by a raise that holds
    # under python -O
    for mode in (3, -1, None, "approach"):
        with pytest.raises(ValueError, match="no compiled mode"):
            compiled.Round(fn, mode, state, stats, adversarial=False)
    # the adversary's running l1 norm starts from a fresh ledger
    stats.add(4, 1, gcfg.score1[4], 0.25)
    with pytest.raises(ValueError):
        compiled.Round(fn, compiled.APPROACH, state, stats, adversarial=True)


class _LastPoint(PayoffLedger):
    """A passthrough subclass that plays grid point m whatever the quote."""

    def play(self, q, quote_scores):
        m = self.cfg.m
        self._support, self._quote_scores = self.cfg.points[m], quote_scores
        return m, self._support


@needs_cc
@pytest.mark.parametrize("labels", ["iid_bernoulli:0.5", "adversarial_greedy"])
def test_a_forecaster_without_a_compiled_mode_plays_its_own_rounds_in_python(monkeypatch,
                                                                             labels):
    # The table's mode, not the class, picks the round: a PayoffLedger
    # subclass with no mode is played by its own play, never as
    # passthrough (which would play the grid point nearest 0.3, index 2).
    assert compiled.library() is not None, "a C compiler is on PATH but the library did not load"
    cfg = ExperimentConfig(T=300, m=8, oracle="constant:0.3", labels=labels)
    for name in harness.FORECASTERS:
        assert run_experiment(dataclasses.replace(cfg, forecaster=name)).round == "compiled"
    monkeypatch.setitem(harness.FORECASTERS, "last_point",
                        harness.Forecaster(lambda g, T, rng: _LastPoint(g), None, ()))
    trace = run_experiment(dataclasses.replace(cfg, forecaster="last_point"))
    assert trace.round == "python"
    assert list(trace.p) == [1.0] * cfg.T
    assert trace.oracle is None
    assert trace.stats.counts == [0] * 8 + [cfg.T]
