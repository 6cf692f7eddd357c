"""Per-layer timing from outside the program.

`Tracer.install` replaces the public functions and methods of each
`recal` module with wrappers that record calls and self time (a span's
duration minus the spans it contains).  Nothing under `src/` knows about
it.  A function is wrapped wherever a loaded `recal` module binds it, so
`recal.cli` and `recal.harness`, which import names like `run_experiment`
and `dist_to_target`, call the wrapper too.  A name the code no longer
has is skipped and its layer reads zero.

In a sweep the pool forks after `install`, so workers inherit the
wrappers; each job's spans are appended as one JSON line to a file in
`jobs_dir`, which the parent reads back after the sweep.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import time
from collections import defaultdict

# (module, attribute, span).  A dotted attribute is a method or property
# of a class.  recalibrator.snapshot is the copy of the dual state that
# run_experiment hands the greedy adversary each round.
TARGETS = (
    ("recal.recalibrator", "RecalibratorState.predict", "recalibrator.predict"),
    ("recal.recalibrator", "RecalibratorState.observe", "recalibrator.observe"),
    ("recal.recalibrator", "RecalibratorState.theta", "recalibrator.snapshot"),
    ("recal.recalibrator", "RecalibratorState.cum_payoff", "recalibrator.snapshot"),
    ("recal.metrics", "BucketStats.record", "metrics.record"),
    ("recal.metrics", "BucketStats.calibration_l1", "metrics.checkpoint"),
    ("recal.metrics", "BucketStats.calibration_rate", "metrics.checkpoint"),
    ("recal.metrics", "BucketStats.average_regret", "metrics.checkpoint"),
    ("recal.metrics", "BucketStats.recalibration_rate", "metrics.checkpoint"),
    ("recal.harness", "adversary_label", "harness.adversary"),
    ("recal.harness", "_adversary_label_dense", "harness.adversary"),
    ("recal.geometry", "dist_to_target", "geometry.dist_to_target"),
    ("recal.mw_recalibrator", "mw_choose", "mw_recalibrator.choose"),
    ("recal.mw_recalibrator", "mw_update", "mw_recalibrator.update"),
    ("recal.harness", "LabelSource.generate", "harness.labels"),
    ("recal.harness", "LabelSource.pi_schedule", "harness.labels"),
    ("recal.harness", "OracleSource.quotes", "harness.quotes"),
    ("recal.harness", "run_experiment", "harness.run_experiment"),
    ("recal.harness", "sweep", "harness.sweep"),
)
JOB_FUNCTION = ("recal.harness", "_final_metrics")


class Tracer:
    """Calls, self seconds and a few result counters per span name."""

    def __init__(self):
        self.reset()

    def reset(self):
        self.stack = []
        self.self_s = defaultdict(float)
        self.calls = defaultdict(int)
        self.counts = defaultdict(int)

    def snapshot(self) -> dict:
        return {"self_s": dict(self.self_s), "calls": dict(self.calls),
                "counts": dict(self.counts)}

    def merge(self, snap: dict) -> None:
        for key, target in (("self_s", self.self_s), ("calls", self.calls),
                            ("counts", self.counts)):
            for name, v in snap[key].items():
                target[name] += v

    def wrap(self, name: str, fn, on_result=None):
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = self.stack
            children = [0.0]
            stack.append(children)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stack.pop()
                self.self_s[name] += dt - children[0]
                self.calls[name] += 1
                if stack:
                    stack[-1][0] += dt
            if on_result is not None:
                on_result(self.counts, result)
            return result

        return wrapper

    def install(self, jobs_dir: str | None = None) -> None:
        for module, attr, span in TARGETS:
            owner = sys.modules[module]
            *cls, fname = attr.split(".")
            if cls:
                owner = getattr(owner, cls[0], None)
            fn = getattr(owner, fname, None)
            if fn is None:
                continue
            if isinstance(fn, property):
                setattr(owner, fname, property(self.wrap(span, fn.fget)))
                continue
            wrapped = self.wrap(span, fn, ON_RESULT.get(span))
            if cls:
                setattr(owner, fname, wrapped)
            else:
                _rebind(fn, wrapped)
        if jobs_dir is not None:
            module, fname = JOB_FUNCTION
            fn = getattr(sys.modules[module], fname, None)
            if fn is not None:
                _rebind(fn, self._job_wrapper(fn, jobs_dir))

    def _job_wrapper(self, fn, jobs_dir: str):
        """Run one sweep job with fresh spans and append them to a file."""

        traced = self.wrap("harness.sweep.job", fn)

        @functools.wraps(fn)
        def job(*args, **kwargs):
            saved = (self.stack, self.self_s, self.calls, self.counts)
            self.reset()
            t0 = time.perf_counter()
            try:
                return traced(*args, **kwargs)
            finally:
                record = self.snapshot()
                record["job_s"] = time.perf_counter() - t0
                record["pid"] = os.getpid()
                path = os.path.join(jobs_dir, f"jobs.{os.getpid()}.jsonl")
                with open(path, "a") as fh:
                    fh.write(json.dumps(record) + "\n")
                self.stack, self.self_s, self.calls, self.counts = saved

        return job


def _count_predict(counts, result) -> None:
    counts["recalibrator.predict.mixture"] += len(result[1].support) == 2


def _count_run(counts, trace) -> None:
    counts["rounds"] += len(trace.p)
    counts["checkpoints"] += len(trace.checkpoints)


ON_RESULT = {"recalibrator.predict": _count_predict,
             "harness.run_experiment": _count_run}


def _rebind(fn, wrapped) -> None:
    """Point every loaded recal module's binding of fn at wrapped."""
    for name, module in list(sys.modules.items()):
        if name == "recal" or name.startswith("recal."):
            for attr, value in list(vars(module).items()):
                if value is fn:
                    setattr(module, attr, wrapped)


def read_jobs(jobs_dir: str) -> list:
    jobs = []
    for fname in sorted(os.listdir(jobs_dir)):
        if fname.startswith("jobs."):
            with open(os.path.join(jobs_dir, fname)) as fh:
                jobs.extend(json.loads(line) for line in fh)
    return jobs
