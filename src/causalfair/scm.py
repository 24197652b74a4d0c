"""Structural causal models with path-specific counterfactual sampling.

The sampler draws exogenous noise once per (seed, node) stream, evaluates the
structural equations in topological order, and then re-propagates the group
intervention only along edges belonging to a designated path collection,
reusing the same noise. Streams are counter-based (Philox), so results do not
depend on evaluation order or thread count.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, CycleError, MissingConstantError, UnknownNodeError

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


_FORMS = ("group-threshold", "linear", "linear-interaction", "logistic-threshold", "decision")
_EXOGENOUS_KINDS = ("uniform-0-1", "standard-normal")


@dataclass(frozen=True)
class Equation:
    """A structural equation drawn from a small closed set of forms.

    With the linear predictor ``z = intercept + sum(coeffs[p] * parent_p)``
    plus, on ``linear-interaction`` only, ``sum(c * p1 * p2)`` over
    ``interactions``, the forms are:
      - ``group-threshold``: indicator ``1 if u <= threshold else 0``
      - ``linear``, ``linear-interaction``: ``z + noise_scale * u``
      - ``logistic-threshold``: ``1{u <= logit^-1(z + decision_coeff * delta)}``
      - ``decision``: placeholder for the policy node; never evaluated here
    """

    form: str
    threshold: float = 0.0
    intercept: float = 0.0
    coeffs: dict = field(default_factory=dict)
    interactions: tuple = ()
    noise_scale: float = 1.0
    decision_coeff: float = 0.0

    def __post_init__(self):
        if self.form not in _FORMS:
            raise ConfigError(f"unknown equation form {self.form!r}; expected one of {_FORMS}")
        if self.interactions and self.form != "linear-interaction":
            raise ConfigError(f"interactions need the linear-interaction form, not {self.form!r}")

    def evaluate(self, parent_values: dict, u: np.ndarray, delta: float | None = None) -> np.ndarray:
        if self.form == "group-threshold":
            return (u <= self.threshold).astype(np.int64)
        z = np.full_like(u, self.intercept, dtype=np.float64)
        for p, c in self.coeffs.items():
            z += c * np.asarray(parent_values[p], dtype=np.float64)
        for p1, p2, c in self.interactions:
            z += c * np.asarray(parent_values[p1], dtype=np.float64) * np.asarray(
                parent_values[p2], dtype=np.float64
            )
        if self.form != "logistic-threshold":
            return z + self.noise_scale * u
        if delta is not None:
            z += self.decision_coeff * delta
        return (u <= 1.0 / (1.0 + np.exp(-z))).astype(np.int64)


@dataclass(frozen=True)
class Scm:
    """A causal DAG plus structural equations and exogenous specs.

    The group node's ``group-threshold`` form makes the groups 0 and 1. A
    malformed model raises ``ConfigError``, or ``UnknownNodeError`` for a name.
    """

    dag: CausalDag
    equations: dict
    exogenous: dict  # node -> one of _EXOGENOUS_KINDS
    group_node: str
    decision_node: str
    decision_parents: tuple
    outcome_node: str

    def __post_init__(self):
        object.__setattr__(self, "dag", validate_and_order(self.dag))
        for name in (self.group_node, self.decision_node, self.outcome_node):
            if name not in self.dag.nodes:
                raise UnknownNodeError(f"role node {name!r} is not in the DAG")
        if self.decision_node == self.outcome_node:
            raise ConfigError("the decision and outcome nodes must differ")
        sampled = set(self.sampled_nodes)
        for v in self.dag.nodes:
            if v not in self.equations or v not in self.exogenous:
                raise UnknownNodeError(f"no equation or no exogenous spec for node {v!r}")
            if self.exogenous[v] not in _EXOGENOUS_KINDS:
                raise ConfigError(f"node {v!r}: unknown exogenous kind {self.exogenous[v]!r}")
            eq, parents = self.equations[v], set(self.dag.parents[v])
            if (eq.form == "decision") != (v == self.decision_node):
                raise ConfigError(f"node {v!r}: the decision node, and only it, uses the decision form")
            if v in sampled and not parents <= sampled:
                raise ConfigError(f"node {v!r} precedes the decision but has it or the outcome as parent")
            # The decision enters an equation only through decision_coeff.
            for p in (*eq.coeffs, *(p for term in eq.interactions for p in term[:2])):
                if p not in parents - {self.decision_node}:
                    raise UnknownNodeError(f"equation of {v!r} reads {p!r}, not a non-decision parent")
        for p in (self.group_node, *self.decision_parents):
            if p not in sampled:
                raise UnknownNodeError(f"group or decision parent {p!r} is not sampled before the decision")
        if self.equations[self.group_node].form != "group-threshold":
            raise ConfigError(f"group node {self.group_node!r} must use the group-threshold form")

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
    """Noise for every node but the decision, which is never evaluated; each
    node keeps the stream of its index in ``dag.nodes``."""
    out = {}
    for idx, node in enumerate(scm.dag.nodes):
        if node == scm.decision_node:
            continue
        gen = _node_stream(seed, idx)
        if scm.exogenous[node] == "uniform-0-1":
            out[node] = gen.uniform(0.0, 1.0, size=n)
        else:
            out[node] = gen.standard_normal(n)
    return out


def _propagate(scm: Scm, exo: dict, on_path, factual: dict | None = None, target=None) -> dict:
    """Evaluate the sampled nodes in order on the noise ``exo``. A parent
    passes its value from this pass along an edge in ``on_path``, else its
    ``factual`` value; a ``target`` sets the group node. With every DAG edge
    on the path and no target, this is the factual pass."""
    values = {}
    for node in scm.sampled_nodes:
        if node == scm.group_node and target is not None:
            values[node] = np.full(len(exo[node]), target, dtype=np.int64)
            continue
        parents = {
            p: values[p] if (p, node) in on_path else factual[p] for p in scm.dag.parents[node]
        }
        values[node] = scm.equations[node].evaluate(parents, exo[node])
    return values


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
    """Like ``draw_worlds`` but with caller-supplied exogenous arrays, one per
    node other than the decision node."""
    for t in targets:
        if t not in (0, 1):
            raise ValueError(f"target {t} outside group range")
    nodes = [v for v in scm.dag.nodes if v != scm.decision_node]
    exo = {node: np.asarray(exogenous[node], dtype=np.float64) for node in nodes}
    n = len(exo[scm.group_node])
    factual = _propagate(scm, exo, scm.dag.edges())
    sample = WorldSample(n=n, exogenous=exo, factual=factual, counterfactual={})
    add_counterfactuals(scm, sample, pi, targets)
    return sample


def add_counterfactuals(scm: Scm, sample: WorldSample, pi: PathSet, targets) -> None:
    """Compute barred values for each target, overwriting existing ones."""
    on_path = pi.edge_set(scm.dag)
    for target in targets:
        sample.counterfactual[target] = _propagate(
            scm, sample.exogenous, on_path, sample.factual, target
        )


def potential_outcomes(scm: Scm, sample: WorldSample):
    """Evaluate the outcome equation under decision 0 and 1, same noise.

    The equation reads only non-decision parents, which are all sampled.
    """
    eq = scm.equations[scm.outcome_node]
    u = sample.exogenous[scm.outcome_node]
    return eq.evaluate(sample.factual, u, delta=0.0), eq.evaluate(sample.factual, u, delta=1.0)


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
ADMISSIONS_CONSTANT_NAMES = tuple(_ADMISSIONS_DEFAULTS)


def admissions_scm(constants: dict | None = None) -> Scm:
    """The built-in college-admissions model.

    With an empty or omitted map the default constants are used; a non-empty
    map must supply every constant name (``ADMISSIONS_CONSTANT_NAMES``), and
    a name that is not one of them raises ``ConfigError``.
    """
    if not constants:
        c = dict(_ADMISSIONS_DEFAULTS)
    else:
        unknown = [k for k in constants if k not in ADMISSIONS_CONSTANT_NAMES]
        if unknown:
            raise ConfigError(f"unknown scm constant {unknown[0]!r}")
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
    )
