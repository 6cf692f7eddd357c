"""The recal benchmark: one workload, measured for a fixed time.

    python3 bench/run.py --workload run_stochastic --seed 200 --seconds 30 --trace 0

Run from the root of a source checkout; the program is imported from
`src/`, so nothing is installed.  Each sample is a fresh interpreter
(bench/worker.py) that runs the workload's `recal` command lines REPS
times through `recal.cli.main` and checks what they wrote.  A set-up
child runs before each sample.  Samples continue until --seconds have
passed.  Human-readable lines come first; the last line of standard
output is one JSON object: `correct`, `attempted`, `failed` and
`metrics` (the end-to-end metrics with --trace 0, the per-layer
metrics with --trace 1, where every other sample is traced).  See
bench/README.md for what each metric means and which layer moves it.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time

import workloads

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
WORK = os.path.join(ROOT, ".bench_work")
DEADLINE_S = 170.0  # a run must end within 180 s
MIN_SAMPLES = 3
REPS = 16  # short repetitions, so some fall between neighbours' bursts
CPUS = sorted(os.sched_getaffinity(0))
TINY_SHIFT = 6

END_TO_END = (("setup_s", "s"), ("run_s", "s"), ("rounds_per_s", "1/s"),
              ("peak_rss_mb", "MB"), ("pass_rate", "share"))
PER_LAYER_UNITS = {
    "recalibrator.predict.us": "us/call",
    "recalibrator.predict.calls": "count",
    "recalibrator.predict.mixture_share": "share",
    "recalibrator.observe.us": "us/call",
    "recalibrator.observe.calls": "count",
    "recalibrator.snapshot.us": "us/call",
    "recalibrator.snapshot.calls": "count",
    "metrics.record.us": "us/call",
    "metrics.record.calls": "count",
    "metrics.checkpoint.us": "us/checkpoint",
    "harness.adversary.us": "us/call",
    "harness.adversary.calls": "count",
    "geometry.dist_to_target.us": "us/call",
    "geometry.dist_to_target.calls": "count",
    "mw_recalibrator.choose.us": "us/call",
    "mw_recalibrator.choose.calls": "count",
    "mw_recalibrator.update.us": "us/call",
    "mw_recalibrator.update.calls": "count",
    "harness.labels.s": "s",
    "harness.quotes.s": "s",
    "harness.run_experiment.self_us_per_round": "us/round",
    "cli.self_s": "s",
    "cli.trace_bytes": "bytes",
    "harness.sweep.jobs": "count",
    "harness.sweep.job_s.p50": "s",
    "harness.sweep.job_s.max": "s",
    "harness.sweep.worker_busy_share": "share",
    "harness.sweep.pool_overhead_s": "s",
    "trace.overhead_s": "s",
    "trace.overhead_share": "share",
}


class ChildFailed(RuntimeError):
    pass


def _child(spec: dict, env: dict, deadline: float) -> tuple[float, str]:
    """Run worker.py with spec; return (wall seconds, stdout).

    The child gets its own process group, so a timeout also ends the
    sweep's pool workers.
    """
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise ChildFailed("out of time")
    t0 = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, os.path.join(BENCH, "worker.py"), json.dumps(spec)],
        cwd=ROOT, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True, start_new_session=True)
    try:
        out, err = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise ChildFailed(f"{spec['mode']} child timed out") from None
    wall = time.perf_counter() - t0
    if proc.returncode != 0:
        raise ChildFailed(f"{spec['mode']} child exited {proc.returncode}: "
                          f"{err.strip().splitlines()[-1:] or ''}")
    return wall, out


def _percentile_text(values: list) -> str:
    """The highest of p99/p95/p90/p75 with at least ten samples beyond it."""
    n = len(values)
    for p in (99, 95, 90, 75):
        if n * (100 - p) / 100 >= 10:
            q = statistics.quantiles(values, n=100, method="inclusive")[p - 1]
            return f", p{p} {q:.4f}"
    return ", no percentile with ten samples beyond it"


def measure(name: str, seed: int, seconds: float, traced: bool, tiny: bool) -> dict:
    deadline = time.monotonic() + DEADLINE_S
    shift = TINY_SHIFT if tiny else 0
    os.makedirs(WORK, exist_ok=True)
    tmp = tempfile.mkdtemp(dir=WORK, prefix=f"{name}.")
    wl = workloads.build(name, seed, tmp, shift)
    env = dict(os.environ, PYTHONHASHSEED="0", **wl.env)
    reps = 1 if tiny else REPS

    def spec(mode, k, traced_sample=False):
        out = os.path.join(tmp, f"{mode}{k}")
        os.makedirs(out)
        return {"mode": mode, "workload": name, "seed": seed, "out": out,
                "shift": shift, "traced": traced_sample, "reps": reps}

    try:
        _child(spec("setup", "warm"), env, deadline)  # fills the bytecode cache
        setup, samples, failures = [], [], []
        min_samples = 2 if tiny else MIN_SAMPLES
        t_start = time.perf_counter()
        k = 0
        while True:
            # A set-up child before each sample spreads both over the run.
            setup.append(_child(spec("setup", k), env, deadline)[0])
            traced_sample = traced and k % 2 == 0
            sample_spec = spec("sample", k, traced_sample)
            if wl.sweep is None:
                # Neighbours slow each CPU independently; alternating the
                # CPU lets the fastest sample find a quiet one.
                sample_spec["cpu"] = CPUS[(k // 2 if traced else k) % len(CPUS)]
            t0 = time.perf_counter()
            try:
                wall, out = _child(sample_spec, env, deadline)
                res = json.loads(out.strip().splitlines()[-1])
            except (ChildFailed, ValueError, IndexError) as exc:
                res = {"fails": [str(exc)]}
                wall = time.perf_counter() - t0
            res["traced"] = traced_sample
            samples.append(res)
            shutil.rmtree(os.path.join(tmp, f"sample{k}"), ignore_errors=True)
            k += 1
            elapsed = time.perf_counter() - t_start
            if k >= min_samples and elapsed + wall > seconds:
                break
            if time.monotonic() + 2 * wall > deadline:
                break
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    # Identical inputs must give identical bytes: compare each sample's
    # output digests with the first complete sample's.
    ref = next((s["outputs"] for s in samples if s.get("outputs")), None)
    for s in samples:
        if ref and s.get("outputs") and [o["sha256"] for o in s["outputs"]] != \
                [o["sha256"] for o in ref]:
            s["fails"].append("output differs from the first sample with the same seed")
        if s["fails"]:
            failures.append(s["fails"])
    return {"setup": setup, "samples": samples, "failures": failures, "ref": ref}


def report(name: str, seed: int, traced: bool, m: dict) -> dict:
    """Print the human-readable report and return the result object.

    Times are noisy because other tenants of the machine slow a varying
    share of each second by up to 1.6x (see README.md), so run_s and
    rounds_per_s are the run's fastest repetition.  The median and, when
    there are enough repetitions, a tail percentile are printed beside
    them.
    """
    samples = [s for s in m["samples"] if "reps" in s]
    attempted = len(m["samples"])
    failed = len(m["failures"])
    plain = [s for s in samples if not s["traced"]]
    if not plain:
        raise ChildFailed(f"no sample of {name} completed: {m['failures'][:1]}")
    lines = [f"workload {name} seed {seed}: {attempted} samples, {failed} failed, "
             f"error_rate {failed / attempted:.4f}"]
    for fails in m["failures"][:5]:
        lines.append(f"  FAIL: {'; '.join(fails)[:300]}")
    for k, o in enumerate(m["ref"] or []):
        extra = f" headroom {o['headroom']:.4f}" if "headroom" in o else ""
        slopes = f" slopes {o['slopes']}" if "slopes" in o else ""
        lines.append(f"  output {k}: sha256 {o['sha256']} {o['bytes']} bytes{extra}{slopes}")

    run_s = [r[0] for s in plain for r in s["reps"]]
    rounds = plain[0]["rounds"]
    compute_s = min(r[1] for s in plain for r in s["reps"])
    metrics = {}
    if not traced:
        values = {
            "setup_s": (statistics.median(m["setup"]),
                        f"median of {len(m['setup'])}, min {min(m['setup']):.4f}"),
            "run_s": (min(run_s), f"fastest of {len(run_s)} in {len(plain)} processes, "
                      f"median {statistics.median(run_s):.4f}{_percentile_text(run_s)}"),
            "rounds_per_s": (rounds / compute_s, f"fastest of {len(run_s)}, {rounds} rounds"),
            "peak_rss_mb": (statistics.median(s["peak_rss_mb"] for s in plain),
                            f"median of {len(plain)}"),
            "pass_rate": ((attempted - failed) / attempted,
                          f"{attempted - failed} of {attempted} samples"),
        }
        for key, unit in END_TO_END:
            value, how = values[key]
            lines.append(f"  {key} = {value:.6g} {unit} ({how})")
            metrics[key] = {"value": value, "unit": unit}
        lines.append(f"  {1e6 / values['rounds_per_s'][0]:.3f} us/round in the fastest "
                     "repetition's run_experiment or sweep")
    else:
        traced_s = [s for s in samples if s["traced"]]
        if not traced_s:
            raise ChildFailed(f"no traced sample of {name} completed")
        best = min(traced_s, key=lambda s: s["traced_run_s"])
        for key, unit in PER_LAYER_UNITS.items():
            if not key.startswith("trace."):
                metrics[key] = {"value": best["layers"][key], "unit": unit}
        overhead = best["traced_run_s"] - min(run_s)
        metrics["trace.overhead_s"] = {"value": overhead, "unit": "s"}
        metrics["trace.overhead_share"] = {"value": overhead / min(run_s), "unit": "share"}
        lines.append(f"  fastest traced run of {len(traced_s)} processes against fastest "
                     f"untraced of {len(plain)}: tracing adds {overhead:.4f} s "
                     f"({overhead / min(run_s):.1%})")
        residual = max(s["span_residual"] for s in traced_s)
        lines.append(f"  span self times add up to the traced compute time within "
                     f"{residual:.2e} (tolerance 1e-2)")
        if best["shares"]:
            top = sorted(best["shares"].items(), key=lambda kv: -kv[1])
            lines.append("  self-time share of run_experiment: " + ", ".join(
                f"{k} {v:.1%}" for k, v in top if v >= 0.005))
        for key, value in metrics.items():
            lines.append(f"  {key} = {value['value']:.6g} {value['unit']}")
    print("\n".join(lines))
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, default=200)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="divide every horizon by 64 (self-test only)")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    if not os.path.isfile(os.path.join(ROOT, "src", "recal", "cli.py")):
        print(f"error: no recal sources under {os.path.join(ROOT, 'src')}; "
              "run from the root of a recal checkout", file=sys.stderr)
        return 2
    try:
        m = measure(args.workload, args.seed, args.seconds, bool(args.trace), args.tiny)
        result = report(args.workload, args.seed, bool(args.trace), m)
    except ChildFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
