"""Spans around the package's layer boundaries, recorded from outside the package.

``instrumented(tracer)`` replaces each public function at the name its caller
looks up (``causalfair.cli.solve_fair``, ``causalfair.fairness.solve``, ...)
with a wrapper that records a span, and puts the originals back on exit. The
package itself is not edited. ``layer_metrics`` turns the spans of one
operation into the per-layer metrics named in ``PER_LAYER``.
"""

from __future__ import annotations

import contextlib
import functools
import os
import time
from collections import defaultdict
from dataclasses import dataclass, field

import numpy as np
from causalfair.fairness import KINDS

# Inclusive time of every span with this name, reported as "<name>_s".
TIMED_SPANS = (
    "scm.draw_worlds",
    "scm.add_counterfactuals",
    "dist.discretize",
    "dist.build_distribution",
    "dist.write_tables",
    "dist.load_tables",
    "dist.from_table",
    *(f"fairness.solve_fair.{kind}" for kind in KINDS),
    "fairness.rows",
    "fairness.residual_report",
    "linprog.solve",
    "pareto.frontier",
    "pareto.dominance_gap",
    "pareto.evaluate_policy",
    "markov.analyze",
    "markov.check_pi_fair_structure",
    "betafair.prop4_check",
    "cli.load_config",
    "cli.write",
    "cli.read_policy_csv",
    "cli.validate_summary",
)

# Per-layer metrics of one traced operation, in the order they are reported.
PER_LAYER = (
    *(f"{name}_s" for name in TIMED_SPANS),
    "dist.discretize_calls",
    "dist.bytes_written",
    "dist.bytes_read",
    "fairness.rows_calls",
    "fairness.cpp_feasible_ratio",
    "fairness.cpp_lattice_points",
    "linprog.solve_calls",
    "linprog.solve_call_s.p50",
    "linprog.solve_call_s.p90",
    "linprog.infeasible_calls",
    "linprog.rows_max",
    "linprog.cols",
    "linprog.rank_max",
    "pareto.frontier_calls",
    "cli.bytes_written",
    "cli.self_s",
    "trace.top_level_coverage",
)

# Counters that a deterministic program repeats exactly for one seed.
EXACT_COUNTERS = (
    "dist.discretize_calls",
    "dist.bytes_written",
    "dist.bytes_read",
    "fairness.rows_calls",
    "fairness.cpp_feasible_ratio",
    "fairness.cpp_lattice_points",
    "linprog.solve_calls",
    "linprog.infeasible_calls",
    "linprog.rows_max",
    "linprog.cols",
    "linprog.rank_max",
    "pareto.frontier_calls",
    "cli.bytes_written",
)


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None  # index of the enclosing span in Tracer.spans
    run_id: int
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Keeps spans in memory; the caller writes them out when the run ends."""

    def __init__(self):
        self.spans: list[Span] = []
        self.run_id = 0
        self._stack: list[int] = []

    def wrap(self, fn, name, after=None):
        """Wrap ``fn`` so each call records a span.

        ``name`` is a string or a function of the call's arguments. ``after``
        runs once the span has ended, as ``after(span, args, kwargs, result)``,
        so the counters it records cost no time inside the span.
        """

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            label = name(*args, **kwargs) if callable(name) else name
            span = Span(label, 0.0, 0.0, self._stack[-1] if self._stack else None, self.run_id)
            self._stack.append(len(self.spans))
            self.spans.append(span)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
            if after is not None:
                after(span, args, kwargs, result)
            return result

        return traced


def _file_bytes(span, args, kwargs, result):
    paths = [a for a in (*args, *kwargs.values()) if isinstance(a, (str, os.PathLike))]
    span.attrs["bytes"] = sum(os.path.getsize(p) for p in paths if os.path.isfile(p))


def _lp_shape(span, args, kwargs, result):
    lp = args[0]
    rows = np.vstack([lp.eq_rows[0], lp.ub_rows[0]])
    span.attrs.update(
        rows=int(rows.shape[0]),
        cols=int(len(lp.objective)),
        rank=int(np.linalg.matrix_rank(rows)) if rows.shape[0] else 0,
        status=result.status,
    )


def _solve_fair_name(dist, spec, *args, **kwargs):
    return f"fairness.solve_fair.{spec.kind}"


def _targets():
    """(module, attribute, span name, after-hook) for every wrapped function."""
    from causalfair import cli, dist, fairness, markov, pareto, scm

    return [
        (cli, "main", "cli.main", None),
        (cli, "load_config", "cli.load_config", None),
        (cli, "validate_summary", "cli.validate_summary", None),
        (cli, "write_policy_csv", "cli.write", _file_bytes),
        (cli, "write_frontier_csv", "cli.write", _file_bytes),
        (cli, "write_transitions_csv", "cli.write", _file_bytes),
        (cli, "_write_json", "cli.write", _file_bytes),
        (cli, "read_policy_csv", "cli.read_policy_csv", None),
        (cli, "solve_fair", _solve_fair_name, None),
        (cli, "residual_report", "fairness.residual_report", None),
        (cli, "frontier", "pareto.frontier", None),
        (cli, "dominance_gap", "pareto.dominance_gap", None),
        (cli, "evaluate_policy", "pareto.evaluate_policy", None),
        (cli, "prop4_check", "betafair.prop4_check", None),
        (scm, "draw_worlds", "scm.draw_worlds", None),
        (scm, "add_counterfactuals", "scm.add_counterfactuals", None),
        (dist, "discretize", "dist.discretize", None),
        (dist, "build_distribution", "dist.build_distribution", None),
        (dist, "write_tables", "dist.write_tables", _file_bytes),
        (dist, "load_tables", "dist.load_tables", _file_bytes),
        (dist, "from_table", "dist.from_table", None),
        (fairness, "solve", "linprog.solve", _lp_shape),
        (fairness, "ceo_rows", "fairness.rows", None),
        (fairness, "cpf_rows", "fairness.rows", None),
        (fairness, "psf_rows", "fairness.rows", None),
        (fairness, "eo_rows", "fairness.rows", None),
        (fairness, "cpp_rows", "fairness.rows", None),
        (pareto, "frontier", "pareto.frontier", None),
        (pareto, "evaluate_policy", "pareto.evaluate_policy", None),
        (markov, "analyze", "markov.analyze", None),
        (markov, "check_pi_fair_structure", "markov.check_pi_fair_structure", None),
    ]


@contextlib.contextmanager
def instrumented(tracer: Tracer):
    """Route the package's layer calls through ``tracer`` for the block."""
    saved = []
    try:
        for module, attr, name, after in _targets():
            original = getattr(module, attr, None)
            if original is None:  # a later change removed it: its metrics read 0
                continue
            saved.append((module, attr, original))
            setattr(module, attr, tracer.wrap(original, name, after))
        yield tracer
    finally:
        for module, attr, original in reversed(saved):
            setattr(module, attr, original)


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of it that its children cover."""
    children = defaultdict(list)
    for span in spans:
        if span.parent is not None:
            children[span.parent].append((span.start, span.end))
    out = []
    for index, span in enumerate(spans):
        covered = 0.0
        reach = span.start
        for start, end in sorted(children[index]):
            start, end = max(start, reach), min(end, span.end)
            if end > start:
                covered += end - start
                reach = end
        out.append(span.duration - covered)
    return out


def layer_metrics(spans: list[Span], run_id: int, wall: float) -> dict:
    """Per-layer metrics of the operation ``run_id``, which took ``wall`` seconds."""
    selfs = self_times(spans)
    mine = [i for i, s in enumerate(spans) if s.run_id == run_id]
    by_name = defaultdict(list)
    for i in mine:
        by_name[spans[i].name].append(i)

    def total(name):
        return float(sum(spans[i].duration for i in by_name[name]))

    def attr_sum(name, key):
        return sum(spans[i].attrs.get(key, 0) for i in by_name[name])

    lps = [spans[i] for i in by_name["linprog.solve"]]
    lp_times = [s.duration for s in lps]
    cpp = [s for s in lps if s.parent is not None and spans[s.parent].name == "fairness.solve_fair.CPP"]
    cpp_feasible = sum(s.attrs["status"] == "Optimal" for s in cpp)

    metrics = {f"{name}_s": total(name) for name in TIMED_SPANS}
    metrics.update(
        {
            "dist.discretize_calls": len(by_name["dist.discretize"]),
            "dist.bytes_written": attr_sum("dist.write_tables", "bytes"),
            "dist.bytes_read": attr_sum("dist.load_tables", "bytes"),
            "fairness.rows_calls": len(by_name["fairness.rows"]),
            "fairness.cpp_feasible_ratio": cpp_feasible / len(cpp) if cpp else 0.0,
            "fairness.cpp_lattice_points": len(cpp),
            "linprog.solve_calls": len(lps),
            "linprog.solve_call_s.p50": float(np.percentile(lp_times, 50)) if lps else 0.0,
            "linprog.solve_call_s.p90": float(np.percentile(lp_times, 90)) if lps else 0.0,
            "linprog.infeasible_calls": sum(s.attrs["status"] == "Infeasible" for s in lps),
            "linprog.rows_max": max((s.attrs["rows"] for s in lps), default=0),
            "linprog.cols": max((s.attrs["cols"] for s in lps), default=0),
            "linprog.rank_max": max((s.attrs["rank"] for s in lps), default=0),
            "pareto.frontier_calls": len(by_name["pareto.frontier"]),
            "cli.bytes_written": attr_sum("cli.write", "bytes"),
            "cli.self_s": float(sum(selfs[i] for i in by_name["cli.main"])),
            "trace.top_level_coverage": sum(spans[i].duration for i in mine if spans[i].parent is None)
            / wall,
        }
    )
    return metrics
