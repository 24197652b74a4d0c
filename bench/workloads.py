"""The benchmark's workloads and the operation each one repeats.

Every operation drives the package only through ``causalfair.cli.main``, in
this process, one call after another. The package sees only a generated
config file whose ``simulation.seed`` is the benchmark's ``--seed`` (or, for
a workload with several datasets, a fixed offset of it).
"""

from __future__ import annotations

import contextlib
import copy
import io
import os
import time
from dataclasses import dataclass, field


SEED_STRIDE = 100_000


@dataclass(frozen=True)
class Workload:
    """Why each workload was chosen is recorded in BENCHMARK.json and README.md."""

    name: str
    overrides: dict  # config blocks merged over the package's shipped defaults
    staged: bool = False
    # Inputs drawn per run. More than one keeps a run's median from resting on
    # a single sample; every dataset runs at least twice.
    datasets: int = 1

    def seeds(self, seed: int) -> list[int]:
        """Simulation seeds of one run: ``seed`` itself, then offsets of it."""
        return [seed + j * SEED_STRIDE for j in range(self.datasets)]

    def config(self, seed: int) -> dict:
        config = copy.deepcopy(self.overrides)
        config.setdefault("simulation", {})["seed"] = seed
        return config

    def stages(self, config_path: str, out: str) -> list[tuple[str, list[str]]]:
        """(label, argv) of each ``cli.main`` call in one operation."""
        base = ["--config", config_path]
        if not self.staged:
            return [("run", [*base, "--out", out, "run"])]
        sim = os.path.join(out, "simulate")
        tables = ["--mass", os.path.join(sim, "mass.csv"), "--cf", os.path.join(sim, "cf.csv")]
        policy = ["--policy", os.path.join(out, "optimize", "policy.csv")]
        return [
            ("simulate", [*base, "--out", sim, "simulate"]),
            ("optimize", [*base, "--out", os.path.join(out, "optimize"), "optimize", *tables]),
            ("audit", [*base, "--out", os.path.join(out, "audit"), "audit", *tables, *policy]),
            ("markov", [*base, "--out", os.path.join(out, "markov"), "markov", *tables, *policy]),
            ("beta-check", [*base, "beta-check", "--mu0", "0.6", "--mu1", "0.4", "--v", "10"]),
        ]


WORKLOADS = {
    w.name: w
    for w in (
        Workload("paper-default", {}, datasets=2),
        Workload("fine-bins", {"simulation": {"bin_width": 0.5}}),
        Workload(
            "staged-tables",
            {"simulation": {"n": 1000000}, "policy": {"kind": "PSF"}},
            staged=True,
            datasets=2,
        ),
    )
}


@dataclass
class Solve:
    """One ``solve_fair`` call made by the CLI, kept for verification."""

    dist: object
    spec: object
    lam: float
    b: float
    result: object


@dataclass
class Op:
    wall: float = 0.0
    cpu: float = 0.0
    codes: dict = field(default_factory=dict)
    stdout: dict = field(default_factory=dict)
    solves: list = field(default_factory=list)
    error: str | None = None


@contextlib.contextmanager
def capturing_solves(solves: list):
    """Pass every ``cli.solve_fair`` call through, keeping its inputs and result.

    The capture reads no clock; it is on in traced and untraced operations
    alike, so the tracing overhead excludes it.
    """
    from causalfair import cli

    original = cli.solve_fair

    def capture(dist, spec, lam, b, **kwargs):
        result = original(dist, spec, lam=lam, b=b, **kwargs)
        solves.append(Solve(dist, spec, lam, b, result))
        return result

    cli.solve_fair = capture
    try:
        yield
    finally:
        cli.solve_fair = original


def run_op(stages) -> Op:
    """Run the stages in order; the timed region is the ``cli.main`` calls."""
    from causalfair import cli

    op = Op()
    with capturing_solves(op.solves):
        wall0, cpu0 = time.perf_counter(), time.process_time()
        try:
            for label, argv in stages:
                buf = io.StringIO()
                with contextlib.redirect_stdout(buf):
                    op.codes[label] = cli.main(argv)
                op.stdout[label] = buf.getvalue()
        except Exception as exc:  # an operation that raises counts as failed
            op.error = f"{type(exc).__name__}: {exc}"
        op.wall = time.perf_counter() - wall0
        op.cpu = time.process_time() - cpu0
    return op
