"""The four benchmark workloads, as `recal` command lines built from a seed.

Each workload is one or more CLI calls.  The benchmark seed becomes the
CLI `--seed`; everything else is fixed, so one seed always gives the
same inputs and, because `recal run` is deterministic, the same output
bytes.  `shift` divides the horizons by 2**shift (the sweep's by at
most 2); the self-test uses it to run each workload in under a second.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field

SWEEP_EXPONENT = "0.3333333333333333"
SWEEP_SEEDS = 8
SWEEP_THREADS = "2"


@dataclass(frozen=True)
class Call:
    """One `recal` invocation and what the checks need to know about it."""

    argv: tuple
    forecaster: str
    T: int
    m: int
    rule: str
    fmt: str


@dataclass(frozen=True)
class Sweep:
    argv: tuple
    T_grid: tuple
    seeds: int
    exponent: float
    rule: str


@dataclass(frozen=True)
class Workload:
    calls: tuple = ()
    sweep: Sweep | None = None
    env: dict = field(default_factory=dict)

    @property
    def rounds(self) -> int:
        if self.sweep is not None:
            return sum(self.sweep.T_grid) * self.sweep.seeds
        return sum(c.T for c in self.calls)


def _run(out, seed, *, forecaster, T, m, rule, oracle, labels, fmt) -> Call:
    argv = ("run", "--forecaster", forecaster, "--T", str(T), "--m", str(m),
            "--rule", rule, "--oracle", oracle, "--labels", labels,
            "--format", fmt, "--seed", str(seed), "--out", out)
    return Call(argv, forecaster, T, m, rule, fmt)


def build(name: str, seed: int, out_dir: str, shift: int = 0) -> Workload:
    """The workload `name` for benchmark seed `seed`, writing under out_dir."""
    out = [os.path.join(out_dir, str(k)) for k in range(2)]
    if name == "run_stochastic":
        return Workload(calls=(
            _run(out[0], seed, forecaster="approach", T=16384 >> shift, m=64,
                 rule="brier", oracle="clairvoyant:0.2",
                 labels="iid_bernoulli:0.5", fmt="csv"),))
    if name == "run_adversarial":
        common = dict(m=256, rule="log:0.1", oracle="constant:0.5",
                      labels="adversarial_greedy", fmt="json")
        return Workload(calls=(
            _run(out[0], seed, forecaster="approach", T=2048 >> shift, **common),
            _run(out[1], seed, forecaster="passthrough", T=1024 >> shift, **common)))
    if name == "run_mw":
        return Workload(calls=(
            _run(out[0], seed, forecaster="mw", T=2048 >> shift, m=32,
                 rule="brier", oracle="clairvoyant:0.2",
                 labels="periodic:0110", fmt="csv"),))
    if name == "sweep":
        # m = ceil(T^(1/3)) must stay >= 3, the least grid the Brier rule allows.
        T_grid = tuple(2 ** k >> min(shift, 1) for k in range(5, 12))
        argv = ("sweep", "--forecaster", "approach",
                "--T-grid", ",".join(map(str, T_grid)),
                "--seeds", str(SWEEP_SEEDS), "--exponent", SWEEP_EXPONENT,
                "--rule", "brier", "--oracle", "clairvoyant:0.2",
                "--labels", "iid_bernoulli:0.5", "--format", "csv",
                "--seed", str(seed), "--out", out[0])
        return Workload(sweep=Sweep(argv, T_grid, SWEEP_SEEDS,
                                    float(SWEEP_EXPONENT), "brier"),
                        env={"RECAL_THREADS": SWEEP_THREADS})
    raise ValueError(f"unknown workload {name!r}")


NAMES = ("run_stochastic", "run_adversarial", "run_mw", "sweep")
