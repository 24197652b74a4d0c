"""Structural causal models with path-specific counterfactual sampling.

The sampler draws exogenous noise once per (seed, node) stream, evaluates the
structural equations in topological order, and then re-propagates the group
intervention only along edges belonging to a designated path collection,
reusing the same noise. Streams are counter-based (Philox), so results do not
depend on evaluation order or thread count.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import CycleError, MissingConstantError, UnknownNodeError

__all__ = [
    "CausalDag",
    "Equation",
    "Scm",
    "PathSet",
    "WorldSample",
    "validate_and_order",
    "all_paths",
    "draw_worlds",
    "evaluate_worlds",
    "add_counterfactuals",
    "counterfactual_covariates",
    "potential_outcomes",
    "admissions_scm",
    "ADMISSIONS_CONSTANT_NAMES",
]


@dataclass(frozen=True)
class CausalDag:
    """A DAG given by an ordered node list and a parent map."""

    nodes: tuple
    parents: dict

    def edges(self):
        return {(p, v) for v in self.nodes for p in self.parents.get(v, ())}


def validate_and_order(dag: CausalDag) -> CausalDag:
    """Return ``dag`` with nodes re-sorted topologically.

    The sort is stable: among nodes with no ordering constraint, the input
    order is preserved. Raises ``CycleError`` on a directed cycle and
    ``UnknownNodeError`` on dangling parent references or self-loops.
    """
    nodes = list(dag.nodes)
    if len(set(nodes)) != len(nodes):
        raise UnknownNodeError("duplicate node identifiers")
    known = set(nodes)
    for v, ps in dag.parents.items():
        if v not in known:
            raise UnknownNodeError(f"parent map references unknown node {v!r}")
        for p in ps:
            if p not in known:
                raise UnknownNodeError(f"{v!r} has unknown parent {p!r}")
            if p == v:
                raise UnknownNodeError(f"self-loop at {v!r}")

    # Kahn's algorithm, repeatedly taking the earliest ready node in input
    # order so that incomparable nodes keep their relative positions.
    remaining = dict.fromkeys(nodes)
    placed = set()
    order = []
    while remaining:
        ready = next(
            (v for v in remaining if all(p in placed for p in dag.parents.get(v, ()))),
            None,
        )
        if ready is None:
            raise CycleError(f"directed cycle among {sorted(remaining)}")
        order.append(ready)
        placed.add(ready)
        del remaining[ready]
    return CausalDag(nodes=tuple(order), parents={v: tuple(dag.parents.get(v, ())) for v in order})


@dataclass(frozen=True)
class Equation:
    """A structural equation drawn from a small closed set of forms.

    Forms:
      - ``group-threshold``: indicator ``1 if u <= threshold else 0``
      - ``linear``: ``intercept + sum(coeffs[p] * parent_p) + noise_scale * u``
      - ``linear-interaction``: linear plus ``sum(c * p1 * p2)`` terms
      - ``logistic-threshold``: ``1{u <= logit^-1(intercept + sum(coeffs) +
        decision_coeff * delta)}``
      - ``decision``: placeholder for the policy node; never evaluated here
    """

    form: str
    threshold: float = 0.0
    intercept: float = 0.0
    coeffs: dict = field(default_factory=dict)
    interactions: tuple = ()
    noise_scale: float = 1.0
    decision_coeff: float = 0.0

    def evaluate(self, parent_values: dict, u: np.ndarray, delta: float | None = None) -> np.ndarray:
        if self.form == "group-threshold":
            return (u <= self.threshold).astype(np.int64)
        if self.form in ("linear", "linear-interaction"):
            out = np.full_like(u, self.intercept, dtype=np.float64)
            for p, c in self.coeffs.items():
                out += c * np.asarray(parent_values[p], dtype=np.float64)
            if self.form == "linear-interaction":
                for p1, p2, c in self.interactions:
                    out += c * np.asarray(parent_values[p1], dtype=np.float64) * np.asarray(
                        parent_values[p2], dtype=np.float64
                    )
            return out + self.noise_scale * u
        if self.form == "logistic-threshold":
            z = np.full_like(u, self.intercept, dtype=np.float64)
            for p, c in self.coeffs.items():
                z += c * np.asarray(parent_values[p], dtype=np.float64)
            if delta is not None:
                z += self.decision_coeff * delta
            prob = 1.0 / (1.0 + np.exp(-z))
            return (u <= prob).astype(np.int64)
        raise ValueError(f"equation form {self.form!r} cannot be evaluated")


@dataclass(frozen=True)
class Scm:
    """A causal DAG plus structural equations and exogenous specs."""

    dag: CausalDag
    equations: dict
    exogenous: dict  # node -> "uniform-0-1" | "standard-normal"
    group_node: str
    decision_node: str
    decision_parents: tuple
    outcome_node: str
    groups: tuple = ("a0", "a1")

    def __post_init__(self):
        object.__setattr__(self, "dag", validate_and_order(self.dag))
        for v in self.dag.nodes:
            if v not in self.equations:
                raise UnknownNodeError(f"no equation for node {v!r}")
            if v not in self.exogenous:
                raise UnknownNodeError(f"no exogenous spec for node {v!r}")

    @property
    def sampled_nodes(self):
        """Nodes evaluated during sampling: everything upstream of the decision."""
        skip = {self.decision_node, self.outcome_node}
        return tuple(v for v in self.dag.nodes if v not in skip)


@dataclass(frozen=True)
class PathSet:
    """A collection of group-to-decision paths, stored as node sequences."""

    paths: tuple

    def edge_set(self, dag: CausalDag) -> frozenset:
        edges = dag.edges()
        on_path = set()
        for path in self.paths:
            for pair in zip(path, path[1:]):
                if pair not in edges:
                    raise UnknownNodeError(f"path step {pair!r} is not a DAG edge")
                on_path.add(pair)
        return frozenset(on_path)


def all_paths(scm: Scm) -> PathSet:
    """Every directed path from the group node to the decision node."""
    children = {v: [] for v in scm.dag.nodes}
    for (p, v) in scm.dag.edges():
        children[p].append(v)
    found = []
    stack = [(scm.group_node, (scm.group_node,))]
    while stack:
        node, path = stack.pop()
        if node == scm.decision_node:
            found.append(path)
            continue
        for child in sorted(children[node]):
            stack.append((child, path + (child,)))
    return PathSet(paths=tuple(sorted(found)))


@dataclass
class WorldSample:
    """Vectorized factual and counterfactual draws.

    Each field maps node names to length-``n`` arrays; ``counterfactual`` is
    keyed first by the target group value.
    """

    n: int
    exogenous: dict
    factual: dict
    counterfactual: dict


def _node_stream(seed: int, node_index: int) -> np.random.Generator:
    # One Philox stream per (seed, node); the draw index is the position in
    # the stream, so the (seed, node, draw) triple fully determines the value.
    key = (int(seed) << 32) ^ node_index
    return np.random.Generator(np.random.Philox(key=key))


def _sample_exogenous(scm: Scm, n: int, seed: int) -> dict:
    out = {}
    for idx, node in enumerate(scm.dag.nodes):
        gen = _node_stream(seed, idx)
        kind = scm.exogenous[node]
        if kind == "uniform-0-1":
            out[node] = gen.uniform(0.0, 1.0, size=n)
        elif kind == "standard-normal":
            out[node] = gen.standard_normal(n)
        else:
            raise ValueError(f"unknown exogenous kind {kind!r}")
    return out


def _factual_pass(scm: Scm, exo: dict) -> dict:
    values = {}
    for node in scm.sampled_nodes:
        eq = scm.equations[node]
        parent_vals = {p: values[p] for p in scm.dag.parents.get(node, ())}
        values[node] = eq.evaluate(parent_vals, exo[node])
    return values


def _barred_pass(scm: Scm, exo: dict, factual: dict, on_path: frozenset, target: int, n: int) -> dict:
    barred = {}
    for node in scm.sampled_nodes:
        if node == scm.group_node:
            barred[node] = np.full(n, target, dtype=np.int64)
            continue
        dagger = {}
        for parent in scm.dag.parents.get(node, ()):
            if (parent, node) in on_path:
                dagger[parent] = barred[parent]
            else:
                dagger[parent] = factual[parent]
        barred[node] = scm.equations[node].evaluate(dagger, exo[node])
    return barred


def draw_worlds(scm: Scm, pi: PathSet, targets, n: int, seed: int) -> WorldSample:
    """Sample ``n`` worlds and their path-specific counterfactuals.

    The factual pass evaluates all pre-decision equations; for each target
    group value the barred pass propagates the intervention only along edges
    lying on some path in ``pi``, reusing the same exogenous draws.
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    return evaluate_worlds(scm, pi, targets, _sample_exogenous(scm, n, seed))


def evaluate_worlds(scm: Scm, pi: PathSet, targets, exogenous: dict) -> WorldSample:
    """Like ``draw_worlds`` but with caller-supplied exogenous arrays."""
    for t in targets:
        if not 0 <= t < len(scm.groups):
            raise ValueError(f"target {t} outside group range")
    n = len(next(iter(exogenous.values())))
    exo = {node: np.asarray(exogenous[node], dtype=np.float64) for node in scm.dag.nodes}
    factual = _factual_pass(scm, exo)
    sample = WorldSample(n=n, exogenous=exo, factual=factual, counterfactual={})
    add_counterfactuals(scm, sample, pi, targets)
    return sample


def add_counterfactuals(scm: Scm, sample: WorldSample, pi: PathSet, targets) -> None:
    """Compute barred values for each target, overwriting existing ones."""
    on_path = pi.edge_set(scm.dag)
    for target in targets:
        sample.counterfactual[target] = _barred_pass(
            scm, sample.exogenous, sample.factual, on_path, target, sample.n
        )


def counterfactual_covariates(scm: Scm, sample: WorldSample, pi: PathSet, target: int) -> dict:
    """The counterfactual covariate vector for one target group value.

    This is the barred value of each decision parent: the group component is
    the target value itself, and downstream covariates reflect propagation
    along the paths in ``pi``. (It is the covariate analog of the barred
    pass, not the decision node's mixed factual/barred input rule; the
    fairness constraints compare decisions against this vector.)
    """
    barred = sample.counterfactual[target]
    return {parent: barred[parent] for parent in scm.decision_parents}


def potential_outcomes(scm: Scm, sample: WorldSample):
    """Evaluate the outcome equation under decision 0 and 1, same noise."""
    eq = scm.equations[scm.outcome_node]
    u = sample.exogenous[scm.outcome_node]
    parents = {
        p: sample.factual[p]
        for p in scm.dag.parents.get(scm.outcome_node, ())
        if p != scm.decision_node
    }
    y0 = eq.evaluate(parents, u, delta=0.0)
    y1 = eq.evaluate(parents, u, delta=1.0)
    return y0, y1


ADMISSIONS_CONSTANT_NAMES = (
    "mu_A",
    "beta_E_0",
    "beta_E_A",
    "beta_M_0",
    "beta_M_E",
    "beta_T_0",
    "beta_T_E",
    "beta_T_M",
    "beta_T_B",
    "beta_T_u",
    "beta_Y_0",
    "beta_Y_D",
)

_ADMISSIONS_DEFAULTS = {
    "mu_A": 1.0 / 3.0,
    "beta_E_0": 1.0,
    "beta_E_A": -1.0,
    "beta_M_0": 0.0,
    "beta_M_E": 1.0,
    "beta_T_0": 50.0,
    "beta_T_E": 4.0,
    "beta_T_M": 4.0,
    "beta_T_B": 1.0,
    "beta_T_u": 7.0,
    "beta_Y_0": -0.5,
    "beta_Y_D": 0.5,
}


def admissions_scm(constants: dict | None = None) -> Scm:
    """The built-in college-admissions model.

    With an empty or omitted map the default constants are used; a non-empty
    map must supply every constant name (``ADMISSIONS_CONSTANT_NAMES``).
    """
    if not constants:
        c = dict(_ADMISSIONS_DEFAULTS)
    else:
        missing = set(ADMISSIONS_CONSTANT_NAMES) - set(constants)
        if missing:
            raise MissingConstantError(missing)
        c = {k: float(constants[k]) for k in ADMISSIONS_CONSTANT_NAMES}

    dag = CausalDag(
        nodes=("A", "E", "M", "T", "D", "Y"),
        parents={
            "A": (),
            "E": ("A",),
            "M": ("E",),
            "T": ("E", "M"),
            "D": ("A", "T"),
            "Y": ("M", "D"),
        },
    )
    equations = {
        "A": Equation(form="group-threshold", threshold=c["mu_A"]),
        "E": Equation(form="linear", intercept=c["beta_E_0"], coeffs={"A": c["beta_E_A"]}),
        "M": Equation(form="linear", intercept=c["beta_M_0"], coeffs={"E": c["beta_M_E"]}),
        "T": Equation(
            form="linear-interaction",
            intercept=c["beta_T_0"],
            coeffs={"E": c["beta_T_E"], "M": c["beta_T_M"]},
            interactions=(("E", "M", c["beta_T_B"]),),
            noise_scale=c["beta_T_u"],
        ),
        "D": Equation(form="decision"),
        "Y": Equation(
            form="logistic-threshold",
            intercept=c["beta_Y_0"],
            coeffs={"M": 1.0},
            decision_coeff=c["beta_Y_D"],
        ),
    }
    exogenous = {
        "A": "uniform-0-1",
        "E": "standard-normal",
        "M": "standard-normal",
        "T": "standard-normal",
        "D": "uniform-0-1",
        "Y": "uniform-0-1",
    }
    return Scm(
        dag=dag,
        equations=equations,
        exogenous=exogenous,
        group_node="A",
        decision_node="D",
        decision_parents=("A", "T"),
        outcome_node="Y",
        groups=("a0", "a1"),
    )
