"""Compile fairness definitions into linear constraint rows and optimize.

Every definition reduces to equality rows that are linear in the policy
vector d. Rows are assembled from joint masses (conditioning denominators are
multiplied through), so a degenerate cell contributes a zero row rather than
a division by a vanishing probability, and the constant policy d = b has
residuals at the level of float rounding on every row.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np

from .dist import FiniteJointDistribution, utility_table
from .linprog import LinearProgram, solve
from .pareto import Policy

__all__ = [
    "FairnessSpec",
    "FairPolicyResult",
    "ConstraintRows",
    "budget_row",
    "ceo_rows",
    "cpf_rows",
    "psf_rows",
    "cpp_rows",
    "eo_rows",
    "solve_fair",
    "residual_report",
    "KINDS",
]

KINDS = ("none", "CF", "PSF", "CEO", "CPF", "CPP", "EO")

_CPP_FEAS_TOL = 1e-7


@dataclass
class FairnessSpec:
    """Which definition to enforce, plus its knobs.

    ``omega`` reduces covariates to strata for CPF/PSF: "constant" pools
    everything, "identity" keeps each support point its own stratum, and a
    callable maps a support index to a hashable stratum label. ``grid_step``
    controls the search lattice for CPP. ``status_quo`` picks the realized
    outcome used by EO ("always-treat" or "never-treat").
    """

    kind: str = "none"
    omega: object = None
    grid_step: float = 0.01
    status_quo: str = "always-treat"

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown fairness kind {self.kind!r}")
        if self.kind == "CPP" and not 0 < self.grid_step <= 1:
            raise ValueError("grid_step must lie in (0, 1]")
        if self.omega is None:
            self.omega = "constant" if self.kind == "CPF" else "identity"


@dataclass
class FairPolicyResult:
    policy: Policy | None
    objective: float
    status: str  # "Optimal" | "NoFeasiblePolicy"
    residuals: dict  # constraint-set name -> max abs violation
    skipped: dict = field(default_factory=dict)  # constraint-set name -> count
    grid_point: tuple | None = None


@dataclass
class ConstraintRows:
    name: str
    a: np.ndarray  # (m, n)
    rhs: np.ndarray  # (m,)
    labels: tuple = ()
    skipped: int = 0


def _omega_labels(dist: FiniteJointDistribution, omega) -> np.ndarray:
    if omega == "constant" or omega is None:
        return np.zeros(dist.n, dtype=np.int64)
    if omega == "identity":
        return np.arange(dist.n, dtype=np.int64)
    labels = [omega(i) for i in range(dist.n)]
    _, codes = np.unique(np.asarray(labels, dtype=object), return_inverse=True)
    return codes


def _collect(name, rows, rhs, labels, skipped):
    n = rows[0].shape[0] if rows else 0
    a = np.array(rows) if rows else np.zeros((0, n))
    return ConstraintRows(
        name=name,
        a=a,
        rhs=np.array(rhs, dtype=np.float64),
        labels=tuple(labels),
        skipped=skipped,
    )


def budget_row(dist: FiniteJointDistribution, b: float):
    """Inequality row: expected admission mass at most b."""
    if not 0 < b < 1:
        raise ValueError("b must lie in (0, 1)")
    return dist.mass.copy(), float(b)


def _independence_rows(name, dist, joint):
    """Rows forcing E[d | A=a, S=s] = E[d | S=s] for strata columns of joint.

    ``joint`` is (n, m) with column s holding Pr(X = x_i, S = s). Each (a, s)
    cell yields the cleared-denominator row
    sum_i d_i (Pr(x_i, a, s) Pr(s) - Pr(x_i, s) Pr(a, s)) = 0.
    """
    rows, rhs, labels = [], [], []
    skipped = 0
    for s in range(joint.shape[1]):
        m_s = joint[:, s]
        t_s = m_s.sum()
        if t_s <= 0:
            skipped += len(np.unique(dist.group))
            continue
        for a in sorted(set(int(g) for g in dist.group)):
            m_as = m_s * (dist.group == a)
            t_as = m_as.sum()
            if t_as <= 0 or t_as >= t_s:
                # Group absent from the stratum, or the stratum is pure:
                # the row is identically zero either way.
                skipped += 1
                continue
            rows.append(m_as * t_s - m_s * t_as)
            rhs.append(0.0)
            labels.append((a, s))
    return _collect(name, rows, rhs, labels, skipped)


def ceo_rows(dist: FiniteJointDistribution) -> ConstraintRows:
    """Equal admission rates across groups within each Y(1) level."""
    return _independence_rows("CEO", dist, dist.y1_joint())


def eo_rows(dist: FiniteJointDistribution, status_quo: str = "always-treat") -> ConstraintRows:
    """As ``ceo_rows`` but conditioning on the realized outcome under a
    reference policy: always-treat realizes Y(1), never-treat realizes Y(0)."""
    if status_quo == "always-treat":
        joint = dist.y1_joint()
    elif status_quo == "never-treat":
        joint = dist.y0_joint()
    else:
        raise ValueError(f"unknown status quo {status_quo!r}")
    rows = _independence_rows("EO", dist, joint)
    rows.name = "EO"
    return rows


def cpf_rows(dist: FiniteJointDistribution, omega="constant") -> ConstraintRows:
    """Equal admission rates across groups within each (Y(0), Y(1), w) cell."""
    w = _omega_labels(dist, omega)
    k = dist.outcome_mass.shape[1]
    n_w = int(w.max()) + 1
    columns = []
    for j0 in range(k):
        for j1 in range(k):
            for lbl in range(n_w):
                columns.append(dist.outcome_mass[:, j0, j1] * (w == lbl))
    joint = np.stack(columns, axis=1)
    rows = _independence_rows("CPF", dist, joint)
    rows.name = "CPF"
    return rows


def psf_rows(dist: FiniteJointDistribution, omega="identity") -> ConstraintRows:
    """Factual and path-specific counterfactual admission rates agree per
    stratum: sum_i d_i Pr(X=x_i, W=w) = sum_i d_i Pr(X_cf(a')=x_i, W=w)."""
    w = _omega_labels(dist, omega)
    n_w = int(w.max()) + 1
    rows, rhs, labels = [], [], []
    skipped = 0
    for aprime in sorted(dist.cf_mass):
        cf = dist.cf_mass[aprime]
        for lbl in range(n_w):
            sel = w == lbl
            factual = np.where(sel, dist.mass, 0.0)
            counter = cf[sel].sum(axis=0)
            row = factual - counter
            if np.max(np.abs(row)) <= 0:
                skipped += 1
                continue
            rows.append(row)
            rhs.append(0.0)
            labels.append((aprime, lbl))
    return _collect("PSF", rows, rhs, labels, skipped)


def cpp_rows(dist: FiniteJointDistribution, C) -> ConstraintRows:
    """Rows forcing Pr(Y(1)=y | A=a, D=0) = C_y for every group.

    Linear form: sum_i d_i (C_y Pr(a, x_i) - Pr(y, a, x_i))
    = C_y sum_i Pr(a, x_i) - sum_i Pr(y, a, x_i).
    """
    C = np.asarray(C, dtype=np.float64)
    k = dist.outcome_mass.shape[1]
    if C.shape != (k,) or abs(C.sum() - 1.0) > 1e-9 or C.min() < -1e-12:
        raise ValueError("C must be a probability vector over outcomes")
    y1j = dist.y1_joint()
    rows, rhs, labels = [], [], []
    for a in sorted(set(int(g) for g in dist.group)):
        in_a = dist.group == a
        m_a = dist.mass * in_a
        for j in range(k):
            m_ay = y1j[:, j] * in_a
            rows.append(C[j] * m_a - m_ay)
            rhs.append(C[j] * m_a.sum() - m_ay.sum())
            labels.append((a, j))
    return _collect("CPP", rows, rhs, labels, 0)


def _cpp_grid(k: int, step: float):
    """Lattice points of the probability simplex over k outcomes."""
    m = int(round(1.0 / step))
    points = []
    for combo in itertools.combinations_with_replacement(range(k), m):
        counts = np.bincount(np.array(combo), minlength=k)
        points.append(tuple(counts / m))
    return sorted(points)


def constraint_sets(dist, spec: FairnessSpec):
    if spec.kind in ("none", "CPP"):
        return []
    if spec.kind == "CEO":
        return [ceo_rows(dist)]
    if spec.kind == "CPF":
        return [cpf_rows(dist, spec.omega)]
    if spec.kind in ("CF", "PSF"):
        rows = psf_rows(dist, spec.omega)
        rows.name = spec.kind
        return [rows]
    if spec.kind == "EO":
        return [eo_rows(dist, spec.status_quo)]
    raise ValueError(spec.kind)


def _max_residual(rows: ConstraintRows, d: np.ndarray) -> float:
    if rows.a.shape[0] == 0:
        return 0.0
    return float(np.max(np.abs(rows.a @ d - rows.rhs)))


def solve_fair(
    dist: FiniteJointDistribution,
    spec: FairnessSpec,
    lam: float,
    b: float,
    tol: float = 1e-9,
) -> FairPolicyResult:
    """Maximize expected utility subject to the budget and a fairness kind.

    All kinds except CPP are a single LP. CPP sweeps a lattice over the
    admissible rejected-outcome profiles, solves one LP per lattice point,
    and keeps the feasible solution with the largest objective; ties go to
    the lexicographically smallest lattice point (the sweep visits points in
    that order and only strict improvements replace the incumbent).
    """
    util = utility_table(dist, lam)
    c = util.u * dist.mass
    p_row, b_val = budget_row(dist, b)

    def run_lp(eq_sets):
        if eq_sets:
            a_eq = np.vstack([s.a for s in eq_sets if s.a.shape[0]]) if any(
                s.a.shape[0] for s in eq_sets
            ) else None
            b_eq = (
                np.concatenate([s.rhs for s in eq_sets if s.a.shape[0]])
                if a_eq is not None
                else None
            )
        else:
            a_eq = b_eq = None
        lp = LinearProgram(
            objective=c,
            eq_rows=(a_eq, b_eq),
            ub_rows=(p_row[None, :], np.array([b_val])),
        )
        return solve(lp, tol=tol)

    if spec.kind != "CPP":
        sets = constraint_sets(dist, spec)
        sol = run_lp(sets)
        if sol.status != "Optimal":
            return FairPolicyResult(
                policy=None,
                objective=float("nan"),
                status="NoFeasiblePolicy",
                residuals={},
                skipped={s.name: s.skipped for s in sets},
            )
        d = sol.values
        residuals = {s.name: _max_residual(s, d) for s in sets}
        residuals["budget"] = max(0.0, float(p_row @ d - b_val))
        return FairPolicyResult(
            policy=Policy(d=d),
            objective=sol.objective,
            status="Optimal",
            residuals=residuals,
            skipped={s.name: s.skipped for s in sets},
        )

    grid = _cpp_grid(dist.outcome_mass.shape[1], spec.grid_step)

    best = None
    for C in grid:  # grid order is lexicographic
        rows = cpp_rows(dist, C)
        sol = run_lp([rows])
        if sol.status != "Optimal" or sol.phase1_residual > _CPP_FEAS_TOL:
            continue
        if best is None or sol.objective > best[2].objective:
            best = (C, rows, sol)
    if best is None:
        return FairPolicyResult(
            policy=None,
            objective=float("nan"),
            status="NoFeasiblePolicy",
            residuals={},
        )
    C, rows, sol = best
    d = sol.values
    return FairPolicyResult(
        policy=Policy(d=d),
        objective=sol.objective,
        status="Optimal",
        residuals={
            "CPP": _max_residual(rows, d),
            "budget": max(0.0, float(p_row @ d - b_val)),
        },
        skipped={"CPP": 0},
        grid_point=tuple(C),
    )


def residual_report(dist: FiniteJointDistribution, policy: Policy, b: float, omega="constant"):
    """Max violation of each constraint family at a given policy.

    Returns a list of dicts, one per definition, shaped for JSON output.
    PSF/CF residuals use whatever counterfactual masses the distribution
    carries (so the path collection is the one used to build it).
    """
    d = policy.d
    sets = [
        ceo_rows(dist),
        cpf_rows(dist, omega),
        psf_rows(dist, "identity"),
        eo_rows(dist),
    ]
    report = []
    for s in sets:
        report.append(
            {
                "definition": s.name,
                "rows": int(s.a.shape[0]),
                "max_residual": _max_residual(s, d),
                "skipped_cells": int(s.skipped),
            }
        )
    p_row, b_val = budget_row(dist, b)
    report.append(
        {
            "definition": "budget",
            "rows": 1,
            "max_residual": max(0.0, float(p_row @ d - b_val)),
            "skipped_cells": 0,
        }
    )
    return report

