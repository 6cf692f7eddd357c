"""The compiled round: _round.c, built on first use and loaded through
ctypes.

load(cache_dir, cc) compiles _round.c with cc into cache_dir, under a
name keyed by the crc32 of the source and the flags, unless it is there
already, and gives a Library of its two functions, or None when the
source or the compiler is missing or the build or the load fails.  library() is
load() into the package's __pycache__ with cc, memoized per process.
Round binds a forecaster in the mode that its caller names, and its
BucketStats, to the library, whose recal_round then plays their rounds,
the greedy adversary's included, and whose recal_checkpoint computes
their checkpoint metrics, bit for bit as the Python round does.
"""

from __future__ import annotations

import ctypes
import functools
import os
import zlib
from collections import namedtuple

import numpy as np

from .geometry import UNIFORM_BLOCK
from .mw_recalibrator import MW_COUNTERS
from .recalibrator import GRAD_NORM_BOUND, ORACLE_COUNTERS
from .scoring import score_pair

SOURCE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "_round.c")
CACHE_DIR = os.path.join(os.path.dirname(SOURCE), "__pycache__")
# No builtins: gcc folds pow(x, 2.0) into x*x, which differs from
# Python's p ** 2 in the last bit; no contraction: a fused multiply-add
# rounds once where Python rounds twice.
FLAGS = ("-O2", "-fno-builtin", "-ffp-contract=off", "-fPIC", "-shared")
# recal_round's stop code for a round that needs the next block of
# uniforms; any other nonzero code is a failed oracle invariant.
NEED_UNIFORMS = 1
# The forecaster modes of _round.c.
PASSTHROUGH, APPROACH, MW = 0, 1, 2

_i64, _f64, _ptr = ctypes.c_int64, ctypes.c_double, ctypes.c_void_p
# The library's two exports, as ctypes functions.
Library = namedtuple("Library", "round checkpoint")


class _Round(ctypes.Structure):
    """struct recal_round of _round.c, field for field."""

    _fields_ = [
        ("mode", _i64), ("adversarial", _i64), ("m", _i64), ("log_rule", _i64),
        ("gamma", _f64), ("lam", _f64), ("cal_threshold", _f64), ("reg_threshold", _f64),
        ("diameter", _f64), ("grad_norm_bound", _f64),
        ("grid", _ptr), ("score0", _ptr), ("score1", _ptr),
        ("cal", _ptr), ("cum_reg", _f64), ("l1", _f64),
        ("a", _ptr), ("b", _f64),
        ("t", _i64), ("nnz", _i64),
        *((name, _i64) for name in ORACLE_COUNTERS),
        ("u", _ptr), ("rho", _ptr), ("log_a", _ptr), ("r", _f64), ("eta", _f64), ("h", _ptr),
        ("choose_steps", _i64),
        ("uniforms", _ptr), ("next_uniform", _i64), ("n_uniforms", _i64),
        ("counts", _ptr), ("label_sums", _ptr), ("rounds", _i64),
        ("cum_forecaster_score", _f64), ("cum_oracle_score", _f64),
        ("stop", _i64),
    ]


def load(cache_dir: str = CACHE_DIR, cc: str = "cc"):
    """The Library of _round.c, built into cache_dir with cc if it is
    not there yet, or None.  A build writes a temporary file and renames
    it, so processes that build at once each leave a whole library."""
    try:
        with open(SOURCE, "rb") as fh:
            key = zlib.crc32(" ".join((cc,) + FLAGS).encode(), zlib.crc32(fh.read()))
    except OSError:  # a package built without its C source
        return None
    path = os.path.join(cache_dir, f"_round.{key:08x}.so")
    if not os.path.exists(path):
        # Imported here: a run that finds the library built loads neither.
        import subprocess
        import tempfile

        tmp = None
        try:
            os.makedirs(cache_dir, exist_ok=True)
            fd, tmp = tempfile.mkstemp(dir=cache_dir, prefix=".tmp.", suffix=".so")
            os.close(fd)
            subprocess.run([cc, *FLAGS, "-o", tmp, SOURCE], check=True,
                           stdin=subprocess.DEVNULL, capture_output=True)
            os.replace(tmp, path)
        except (OSError, subprocess.SubprocessError):
            if tmp is not None and os.path.exists(tmp):
                os.unlink(tmp)
            return None
    try:
        cdll = ctypes.CDLL(path)
        lib = Library(cdll.recal_round, cdll.recal_checkpoint)
    except (OSError, AttributeError):
        return None
    lib.round.argtypes = (ctypes.POINTER(_Round), _i64, _ptr, _ptr, _ptr)
    lib.round.restype = _i64
    lib.checkpoint.argtypes = (ctypes.POINTER(_Round), _f64, _ptr, _ptr)
    lib.checkpoint.restype = None
    return lib


@functools.cache
def library():
    """load() with its defaults, once per process."""
    return load()


class Round:
    """A forecaster and a BucketStats whose rounds the compiled library
    plays.

    The caller names the mode, from harness.FORECASTERS: APPROACH plays
    a RecalibratorState, MW a forecaster whose state is an MWState, and
    PASSTHROUGH a PayoffLedger at theta 0; any other mode is refused.
    With adversarial the greedy adversary picks each label and the
    function writes it into the label column; it carries the ledger's
    running l1 norm from 0, so the ledger must be fresh.  The constructor
    copies an approach state into arrays that the function updates in
    place; the payoff ledger and an MWState's u, rho and log_a it updates
    where they lie.  checkpoint reads the metrics off that state, and
    store copies the rest back, in O(m), once the run is over, so that
    between run and store the two objects are stale.  The uniforms
    come from the forecaster's own generator, UNIFORM_BLOCK at a time, as
    its _uniform draws them.
    """

    def __init__(self, lib: Library, mode, forecaster, stats, *, adversarial: bool):
        if mode not in (PASSTHROUGH, APPROACH, MW):
            raise ValueError(f"no compiled mode {mode!r}")
        if adversarial and stats.T:
            raise ValueError("the adversary's running l1 norm starts at a fresh ledger")
        cfg, rule = forecaster.cfg, forecaster.cfg.rule
        self._lib, self._forecaster, self._stats, self._mode = lib, forecaster, stats, mode
        # The struct holds raw pointers into these arrays, which live as
        # long as self.
        self._tables = grid, score0, score1 = [np.array(t) for t in
                                               (cfg.grid, cfg.score0, cfg.score1)]
        self._counts = np.array(stats.counts, dtype=np.int64)
        self._label_sums = np.array(stats.label_sums, dtype=np.int64)
        self._uniforms = np.zeros(UNIFORM_BLOCK)
        # recal_checkpoint's scratch, m+1 doubles, then its five outputs; and both addresses
        self._checkpoint = work = np.empty(cfg.m + 6)
        self._checkpoint_addrs = work.ctypes.data, work.ctypes.data + 8 * (cfg.m + 1)
        left = forecaster._uniforms[::-1]
        self._uniforms[:len(left)] = left
        self._s = _Round(
            mode=mode, adversarial=adversarial, m=cfg.m,
            log_rule=rule.kind == "log_clipped", gamma=rule.clip_gamma, lam=cfg.lam,
            cal_threshold=cfg.cal_threshold, reg_threshold=cfg.reg_threshold,
            grad_norm_bound=GRAD_NORM_BOUND,
            grid=grid.ctypes.data, score0=score0.ctypes.data, score1=score1.ctypes.data,
            cal=forecaster._cum_cal.ctypes.data, cum_reg=forecaster.cum_reg, l1=0.0,
            uniforms=self._uniforms.ctypes.data, next_uniform=0, n_uniforms=len(left),
            counts=self._counts.ctypes.data, label_sums=self._label_sums.ctypes.data,
            rounds=stats.T, cum_forecaster_score=stats.cum_forecaster_score,
            cum_oracle_score=stats.cum_oracle_score)
        # the struct's fields that store copies back into shared, by name
        s, shared, names = self._s, forecaster, ()
        if mode == APPROACH:
            names = ("t",) + ORACLE_COUNTERS
            self._a = np.array(forecaster._a, dtype=float)
            s.a, s.b, s.diameter = self._a.ctypes.data, forecaster._b, forecaster._diameter
            s.nnz = forecaster._nnz
        elif mode == MW:
            shared, names = forecaster.state, ("r", "t") + MW_COUNTERS
            self._h = np.empty(2 * (cfg.m + 1))  # mw_choose's two lines
            s.u, s.rho, s.log_a = (v.ctypes.data for v in (shared.u, shared.rho, shared.log_a))
            s.eta, s.h = shared.eta, self._h.ctypes.data
        self._shared = shared, names
        for name in names:
            setattr(s, name, getattr(shared, name))
        self._ref = ctypes.byref(self._s)

    def run(self, qs, ys, ps, lo: int, hi: int) -> None:
        """Play rounds lo..hi-1 of the quote, label and play columns qs, ys
        and ps (an array('d'), an array('b') and an array('d')): round r
        reads qs[r], writes the grid point it plays into ps[r] and, in an
        adversarial run, its label into ys[r].  The columns are checked
        here because the function writes into their memory."""
        if (qs.typecode, ys.typecode, ps.typecode) != ("d", "b", "d"):
            raise TypeError("qs, ys and ps must be array('d'), array('b') and array('d')")
        if not 0 <= lo <= hi <= min(len(qs), len(ys), len(ps)):
            raise ValueError(f"rounds {lo}..{hi} do not fit the columns")
        fn, ref, s = self._lib.round, self._ref, self._s
        q_addr, y_addr, p_addr = qs.buffer_info()[0], ys.buffer_info()[0], ps.buffer_info()[0]
        while lo < hi:
            lo += fn(ref, hi - lo, q_addr + 8 * lo, y_addr + lo, p_addr + 8 * lo)
            if s.stop == NEED_UNIFORMS:
                self._uniforms[:] = self._forecaster.rng.random(UNIFORM_BLOCK)
                s.next_uniform, s.n_uniforms = 0, UNIFORM_BLOCK
            elif s.stop:
                # The Python round raises the invariant's own error.
                self.store()
                self._forecaster.play(qs[lo], score_pair(self._forecaster.cfg.rule, qs[lo]))
                raise RuntimeError(f"the compiled round stopped at round {lo + 1}, "
                                   "which the Python round plays")

    def checkpoint(self, delta: float) -> list:
        """(calib_l1, calibration_rate, average_regret, recalibration_rate,
        dist_to_target) after the rounds played so far, with regret slack
        delta: what _PythonRound.checkpoint gives, bit for bit, with no
        store."""
        if not self._s.rounds:
            raise ValueError("no rounds recorded")
        self._lib.checkpoint(self._ref, delta, *self._checkpoint_addrs)
        return self._checkpoint[-5:].tolist()

    def store(self) -> None:
        """Copy the played state back into the forecaster and the
        BucketStats, once the run is over or before the Python round
        replays a round that the compiled one stopped at."""
        s, forecaster, stats = self._s, self._forecaster, self._stats
        forecaster.cum_reg = s.cum_reg
        forecaster._uniforms = self._uniforms[s.next_uniform:s.n_uniforms][::-1].tolist()
        if self._mode == APPROACH:
            forecaster._a = self._a.tolist()
            forecaster._b, forecaster._nnz = s.b, s.nnz
        shared, names = self._shared
        for name in names:
            setattr(shared, name, getattr(s, name))
        stats.counts = self._counts.tolist()
        stats.label_sums = self._label_sums.tolist()
        stats.T = s.rounds
        stats.cum_forecaster_score = s.cum_forecaster_score
        stats.cum_oracle_score = s.cum_oracle_score
