"""One benchmark sample, in a fresh interpreter.

    python3 bench/worker.py '<json spec>'

Mode "setup" imports `recal.cli` and resolves the workload's configs
without playing a round.  Mode "sample" runs the workload through
`recal.cli.main`, times it, checks what it wrote and prints one JSON
object as the last line of standard output.  With "traced" set, the
per-layer wrappers of layers.py are installed first.
"""

from __future__ import annotations

import json
import os
import resource
import shutil
import statistics
import sys
import time

import checks
import workloads
from layers import Tracer, read_jobs

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
# Span self times must add up to the time measured around them within
# 1%, plus the wrapper's own entry and exit on each sweep job.
SPAN_TOLERANCE = 0.01
JOB_WRAPPER_S = 1e-5
# Spans reported as self microseconds per call and as a call count.
PER_CALL = ("recalibrator.predict", "recalibrator.observe", "recalibrator.snapshot",
            "metrics.record", "harness.adversary", "geometry.dist_to_target",
            "mw_recalibrator.choose", "mw_recalibrator.update")


def _setup(wl) -> None:
    import recal.cli as cli
    from recal.geometry import game_config
    from recal.harness import ExperimentConfig, resolved_m
    from recal.mw_recalibrator import mw_init
    from recal.scoring import parse_rule

    parser = cli.build_parser()
    if wl.sweep is not None:
        parser.parse_args(list(wl.sweep.argv))
        rule = parse_rule(wl.sweep.rule)
        for T in wl.sweep.T_grid:
            game_config(resolved_m(ExperimentConfig(T=T, exponent=wl.sweep.exponent)), rule)
        return
    for call in wl.calls:
        parser.parse_args(list(call.argv))
        gcfg = game_config(resolved_m(ExperimentConfig(T=call.T, m=call.m)),
                           parse_rule(call.rule))
        if call.forecaster == "mw":
            mw_init(gcfg, call.T)


def _timed(fn, log):
    def wrapper(*args, **kwargs):
        t0 = time.perf_counter()
        result = fn(*args, **kwargs)
        log.append((time.perf_counter() - t0, result))
        return result
    return wrapper


def _layer_metrics(snap: dict, jobs: list, sweep_s: float) -> dict:
    """Per-layer values of one traced repetition, from summed span totals."""
    self_s, calls, counts = snap["self_s"], snap["calls"], snap["counts"]
    out = {}
    for span in PER_CALL:
        n = calls.get(span, 0)
        out[f"{span}.us"] = 1e6 * self_s.get(span, 0.0) / n if n else 0.0
        out[f"{span}.calls"] = n
    predicts = calls.get("recalibrator.predict", 0)
    checkpoints = counts.get("checkpoints", 0)
    rounds = counts.get("rounds", 0)
    out.update({
        "recalibrator.predict.mixture_share": (
            counts.get("recalibrator.predict.mixture", 0) / predicts if predicts else 0.0),
        "metrics.checkpoint.us": (1e6 * self_s.get("metrics.checkpoint", 0.0) / checkpoints
                                  if checkpoints else 0.0),
        "harness.labels.s": self_s.get("harness.labels", 0.0),
        "harness.quotes.s": self_s.get("harness.quotes", 0.0),
        "harness.run_experiment.self_us_per_round": (
            1e6 * self_s.get("harness.run_experiment", 0.0) / rounds if rounds else 0.0),
    })
    job_s = sorted(j["job_s"] for j in jobs)
    workers = len({j["pid"] for j in jobs})
    out.update({
        "harness.sweep.jobs": len(jobs),
        "harness.sweep.job_s.p50": statistics.median(job_s) if job_s else 0.0,
        "harness.sweep.job_s.max": job_s[-1] if job_s else 0.0,
        "harness.sweep.worker_busy_share": (sum(job_s) / (workers * sweep_s)
                                            if workers else 0.0),
        "harness.sweep.pool_overhead_s": (sweep_s - sum(job_s) / workers
                                          if workers else 0.0),
    })
    return out


def _rep(cli, argvs, compute, tracer, jobs_dir) -> dict:
    """Run the workload's command lines once; time them and the compute."""
    compute.clear()
    if tracer is not None:
        tracer.reset()
        if jobs_dir is not None:
            shutil.rmtree(jobs_dir, ignore_errors=True)
            os.makedirs(jobs_dir)
    run_s = 0.0
    codes = []
    for argv in argvs:
        t0 = time.perf_counter()
        codes.append(cli.main(list(argv)))
        run_s += time.perf_counter() - t0
    rep = {"run_s": run_s, "compute_s": sum(dt for dt, _ in compute), "codes": codes}
    if tracer is not None:
        rep["snap"] = tracer.snapshot()
        rep["jobs"] = read_jobs(jobs_dir) if jobs_dir is not None else []
    return rep


def _traced_result(wl, rep: dict, infos: list, fails: list) -> dict:
    """Per-layer values and the span accounting check of one traced rep."""
    jobs, snap, compute_s = rep["jobs"], rep["snap"], rep["compute_s"]
    if jobs:
        spanned = sum(sum(j["self_s"].values()) for j in jobs)
        outer = sum(j["job_s"] for j in jobs)
    else:
        spanned, outer = sum(snap["self_s"].values()), compute_s
    residual = abs(spanned - outer) / outer if outer > 0 else 0.0
    if abs(spanned - outer) > SPAN_TOLERANCE * outer + JOB_WRAPPER_S * len(jobs):
        fails.append(f"span self times miss the traced time by {residual:.2%}")
    total = Tracer()
    total.merge(snap)
    for j in jobs:
        total.merge(j)
    layers = _layer_metrics(total.snapshot(), jobs,
                            compute_s if wl.sweep is not None else 0.0)
    layers["cli.self_s"] = rep["run_s"] - compute_s
    layers["cli.trace_bytes"] = sum(i.get("bytes", 0) for i in infos)
    shares = ({k: v / compute_s for k, v in snap["self_s"].items()}
              if wl.sweep is None and compute_s > 0 else {})
    return {"layers": layers, "shares": shares, "span_residual": residual,
            "traced_run_s": rep["run_s"]}


def _sample(wl, spec: dict) -> dict:
    """Run the workload spec["reps"] times in this process and check the
    last run's outputs."""
    import recal.cli as cli

    tracer = jobs_dir = None
    if spec["traced"]:
        tracer = Tracer()
        if wl.sweep is not None:
            jobs_dir = os.path.join(spec["out"], "jobs")
        tracer.install(jobs_dir)
    compute = []
    entry = "sweep" if wl.sweep is not None else "run_experiment"
    setattr(cli, entry, _timed(getattr(cli, entry), compute))
    argvs = [wl.sweep.argv] if wl.sweep is not None else [c.argv for c in wl.calls]

    reps = [_rep(cli, argvs, compute, tracer, jobs_dir) for _ in range(spec["reps"])]
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if wl.sweep is not None:
        peak_kb += resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss

    fails = [f"exit code {rc}" for rep in reps for rc in rep["codes"] if rc != 0]
    infos = []
    if not fails:
        if wl.sweep is not None:
            f, info = checks.check_sweep(wl.sweep, os.path.join(spec["out"], "0"))
            fails += f
            infos.append(info)
        else:
            if len(compute) != len(wl.calls):
                fails.append("run_experiment was not called once per run")
            for k, call in enumerate(wl.calls):
                trace = compute[k][1] if k < len(compute) else None
                f, info = checks.check_run(call, os.path.join(spec["out"], str(k)), trace)
                fails += f
                infos.append(info)
    compute.clear()

    result = {"reps": [[r["run_s"], r["compute_s"]] for r in reps], "rounds": wl.rounds,
              "peak_rss_mb": peak_kb / 1024.0, "fails": fails, "outputs": infos}
    if tracer is not None:
        fastest = min(reps, key=lambda r: r["run_s"])
        result.update(_traced_result(wl, fastest, infos, fails))
    return result


def main() -> int:
    spec = json.loads(sys.argv[1])
    if spec.get("cpu") is not None:
        os.sched_setaffinity(0, {spec["cpu"]})
    sys.path.insert(0, SRC)
    wl = workloads.build(spec["workload"], spec["seed"], spec["out"], spec["shift"])
    if spec["mode"] == "setup":
        _setup(wl)
        return 0
    print(json.dumps(_sample(wl, spec)))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
