"""Compile fairness definitions into linear constraint rows and optimize.

Every definition reduces to equality rows that are linear in the policy
vector d. Rows are assembled from joint masses (conditioning denominators are
multiplied through), so a degenerate cell contributes a zero row rather than
a division by a vanishing probability, and the constant policy d = b has
residuals at the level of float rounding on every row.

A family emits one row per independent condition. The group rows of an
independence stratum (CEO, EO, CPF) sum to zero, and so do a group's two
outcome rows under CPP, so the last of each such set is implied by the
others and left out; the feasible set is the one the full set of rows defines.

CF and PSF are always solved on the counterfactual swap chain, whatever the
swap structure (see ``solve_fair``): a fair policy is constant on each
recurrent class and the absorption-weighted mix of those values on transient
states, so the LP runs over one variable per class instead of one per
support point, and its policy is checked against the original rows. EO
conditions on Y(1), the outcome realized under the always-treat reference
policy, and ``omega`` strata apply to CPF only.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import markov
from .dist import _SUM_TOL, FiniteJointDistribution, transition_matrix, utility_table
from .errors import EmptyInputError, SolverError
from .linprog import CHECK_TOL, LinearProgram, solve
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
    "lattice_divisions",
    "solve_fair",
    "residual_report",
    "KINDS",
]

KINDS = ("none", "CF", "PSF", "CEO", "CPF", "CPP", "EO")


@dataclass
class FairnessSpec:
    """Which definition to enforce, plus its knobs.

    ``omega`` reduces covariates to strata for CPF, and for CPF only:
    "constant" (the default) pools everything and "identity" keeps each
    support point its own stratum. Any other kind given an omega raises
    ``ValueError``. ``grid_step`` is the spacing of the search lattice for
    CPP; 1/grid_step must be an integer (within 1e-9 relative), so the
    lattice reaches both ends, (0, 1) and (1, 0).
    """

    kind: str = "none"
    omega: str | None = None
    grid_step: float = 0.01

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown fairness kind {self.kind!r}")
        if self.kind == "CPP" and lattice_divisions(self.grid_step) is None:
            raise ValueError("grid_step must lie in (0, 1] and 1/grid_step must be an integer")
        if self.omega is not None and self.kind != "CPF":
            raise ValueError(f"omega applies to CPF only, not to {self.kind}")
        if self.kind == "CPF" and self.omega is None:
            self.omega = "constant"
        if self.omega not in (None, "constant", "identity"):
            raise ValueError(f"unknown omega {self.omega!r}")


@dataclass
class FairPolicyResult:
    policy: Policy | None
    objective: float
    status: str  # "Optimal" | "NoFeasiblePolicy"
    residuals: dict  # constraint-set name -> max abs violation
    grid_point: tuple | None = None
    chain: markov.ChainAnalysis | None = None  # the swap chain a CF/PSF solve analyzed


@dataclass
class ConstraintRows:
    name: str
    a: np.ndarray  # (m, n)
    rhs: np.ndarray  # (m,)
    skipped: int = 0


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
    A cell whose group is absent from the stratum, or is all of it, has an
    identically zero row and counts as skipped. The rows of the groups
    present in a stratum sum to zero, so the last present group's row is
    implied by the others and left out: G - 1 rows for G present groups.
    Rows are ordered by stratum, then group.
    """
    # Contiguous, so every sum below rounds as a per-cell loop's sum does.
    m_s = np.ascontiguousarray(joint.T)  # (m, n)
    in_a = dist.group == np.unique(dist.group)[:, None]  # (G, n)
    m_as = m_s[:, None, :] * in_a  # (m, G, n)
    t_s = m_s.sum(axis=1)
    t_as = m_as.sum(axis=2)
    present = t_as > 0
    live = present & (t_as < t_s[:, None])
    last_present = present & (np.cumsum(present[:, ::-1], axis=1)[:, ::-1] == 1)
    a = (m_as * t_s[:, None, None] - m_s[:, None, :] * t_as[:, :, None])[live & ~last_present]
    return ConstraintRows(name, a, np.zeros(len(a)), skipped=int((~live).sum()))


def ceo_rows(dist: FiniteJointDistribution) -> ConstraintRows:
    """Equal admission rates across groups within each Y(1) level."""
    return _independence_rows("CEO", dist, dist.y1_joint())


def eo_rows(dist: FiniteJointDistribution) -> ConstraintRows:
    """As ``ceo_rows`` but conditioning on the outcome realized under the
    always-treat reference policy, which is Y(1)."""
    return _independence_rows("EO", dist, dist.y1_joint())


def cpf_rows(dist: FiniteJointDistribution, omega="constant") -> ConstraintRows:
    """Equal admission rates across groups within each (Y(0), Y(1), w) cell."""
    if omega not in ("constant", "identity"):
        raise ValueError(f"unknown omega {omega!r}")
    w = np.arange(dist.n) if omega == "identity" else np.zeros(dist.n, dtype=np.int64)
    in_w = w[:, None] == np.arange(w.max() + 1)  # (n, n_w)
    # Strata columns ordered by y0, then y1, then w.
    joint = (dist.outcome_mass[:, :, :, None] * in_w[:, None, None, :]).reshape(dist.n, -1)
    return _independence_rows("CPF", dist, joint)


def psf_rows(dist: FiniteJointDistribution, name="PSF") -> ConstraintRows:
    """Factual and path-specific counterfactual admission rates agree with
    each support point its own stratum: for each swap a' and point i,
    sum_j d_j (mass_i [i = j] - Pr(X = x_i, X_cf(a') = x_j)) = 0, the row
    mass_i (e_i - P_a'[i, :]). Rows are ordered by a', then point.

    ``name`` labels the family: CF is these rows on the distribution whose
    counterfactuals follow every path. A distribution without counterfactual
    masses raises ``EmptyInputError``. A row whose largest entry is at most
    the mass tolerance ``_SUM_TOL`` is rounding noise (a reloaded own-group
    swap, say) and counts as skipped. ``solve_fair`` carries these rows into
    the swap chain's absorption space and checks its policy against them.
    """
    if not dist.cf_mass:
        raise EmptyInputError(f"{name} rows need counterfactual masses; the distribution has none")
    a = np.vstack([np.diag(dist.mass) - dist.cf_mass[ap] for ap in sorted(dist.cf_mass)])
    noise = np.abs(a).max(axis=1) <= _SUM_TOL
    return ConstraintRows(name, a[~noise], np.zeros(int((~noise).sum())), int(noise.sum()))


def cpp_rows(dist: FiniteJointDistribution, C) -> ConstraintRows:
    """Rows forcing Pr(Y(1)=y | A=a, D=0) = C_y for every group, C = (C_0, C_1).

    Linear form: sum_i d_i (C_y Pr(a, x_i) - Pr(y, a, x_i))
    = C_y sum_i Pr(a, x_i) - sum_i Pr(y, a, x_i).
    As C_0 + C_1 = 1 and Pr(0, a, x_i) + Pr(1, a, x_i) = Pr(a, x_i), a
    group's y = 1 row is minus its y = 0 row and left out: one row per
    group, the y = 0 row, ordered by group.
    """
    C = np.asarray(C, dtype=np.float64)
    if C.shape != (2,) or abs(C.sum() - 1.0) > 1e-9 or C.min() < -1e-12:
        raise ValueError("C must be a probability pair (C_0, C_1)")
    in_a = dist.group == np.unique(dist.group)[:, None]  # (G, n)
    m_a = dist.mass * in_a
    m_a0 = dist.y1_joint()[:, 0] * in_a
    return ConstraintRows("CPP", C[0] * m_a - m_a0, C[0] * m_a.sum(axis=1) - m_a0.sum(axis=1))


def lattice_divisions(step) -> int | None:
    """The integer m = 1/step, for a lattice step in (0, 1] whose reciprocal
    is an integer within 1e-9 relative; None for any other step."""
    if not 0 < step <= 1:
        return None
    m = round(1.0 / step)
    return m if abs(1.0 / step - m) <= 1e-9 * m else None


def _cpp_grid(step: float):
    """Lattice points (C_0, C_1) of the probability pairs, ascending in C_0."""
    m = lattice_divisions(step)
    return [(j / m, (m - j) / m) for j in range(m + 1)]


def constraint_sets(dist, spec: FairnessSpec):
    if spec.kind in ("none", "CPP"):
        return []
    if spec.kind == "CEO":
        return [ceo_rows(dist)]
    if spec.kind == "CPF":
        return [cpf_rows(dist, spec.omega)]
    if spec.kind in ("CF", "PSF"):
        return [psf_rows(dist, spec.kind)]
    if spec.kind == "EO":
        return [eo_rows(dist)]
    raise ValueError(spec.kind)


def _max_residual(rows: ConstraintRows, d: np.ndarray) -> float:
    return float(np.abs(rows.a @ d - rows.rhs).max(initial=0.0))


def _swap_chain(dist: FiniteJointDistribution) -> markov.ChainAnalysis:
    """``markov.analyze`` of the averaged swap chain P, whose absorption
    columns A must meet P A = A, as the true A does for any swaps: a wrong A
    would give a feasible but wrong policy that the row check cannot see."""
    chain = markov.analyze([transition_matrix(dist, a) for a in sorted(dist.cf_mass)])
    drift = float(np.abs(chain.P @ chain.absorption - chain.absorption).max(initial=0.0))
    if not drift <= CHECK_TOL:
        raise SolverError(f"swap chain basis violates its constraints: max |P A - A| = {drift:.3g}")
    return chain


def solve_fair(
    dist: FiniteJointDistribution, spec: FairnessSpec, lam: float, b: float
) -> FairPolicyResult:
    """Maximize expected utility subject to the budget and a fairness kind.

    CEO, CPF, EO and none are one LP over d with every constraint row. CPP
    sweeps a lattice over the rejected applicants' Y(1) rates (C_0, C_1),
    solves one LP per lattice point, and keeps the feasible solution with
    the largest objective; ties go to the lexicographically smallest point
    (visited first; only strict improvements replace the incumbent).

    CF and PSF solve over z in [0, 1]^K with d = A z, A (n, K) the
    absorption columns of the averaged swap chain P: maximize (c A) z
    subject to (R A) z = 0 and (mass A) z <= b for R the ``psf_rows``; a
    row of R A whose largest entry is at most ``_SUM_TOL`` is rounding noise
    and dropped. This is exact for any swaps. Every row of R is mass_i (e_i - P_a'[i, :]) with
    mass_i > 0, so d meets all rows iff P_a' d = d for each a'. That implies
    P d = d, and every solution of P d = d is A z; A z is in [0, 1]^n iff z
    is in [0, 1]^K, as each row of A is a distribution over the classes and
    each class has a row of its own. So the feasible set is exactly
    {A z : z in [0, 1]^K, R A z = 0}.

    The policy is checked against the original rows and the budget, and A
    against P A = A; a violation above ``linprog.CHECK_TOL`` raises
    ``SolverError``. The result carries a CF/PSF solve's chain analysis, so
    a caller need not analyze the same chain again.
    """
    c = utility_table(dist, lam).u * dist.mass
    p_row, b_val = budget_row(dist, b)
    if spec.kind == "CPP":
        candidates = ((C, [cpp_rows(dist, C)]) for C in _cpp_grid(spec.grid_step))
    else:
        candidates = [(None, constraint_sets(dist, spec))]
    chain = _swap_chain(dist) if spec.kind in ("CF", "PSF") else None
    basis = None if chain is None else chain.absorption
    c_lp, p_lp = (c, p_row) if basis is None else (c @ basis, p_row @ basis)

    best = None
    for C, sets in candidates:
        a_eq = np.vstack([s.a for s in sets]) if sets else None
        b_eq = np.concatenate([s.rhs for s in sets]) if sets else None
        if basis is not None:  # the rows in z, less those left at rounding noise
            a_eq = a_eq @ basis
            live = np.abs(a_eq).max(axis=1, initial=0.0) > _SUM_TOL
            a_eq, b_eq = a_eq[live], b_eq[live]
        sol = solve(LinearProgram(objective=c_lp, eq_rows=(a_eq, b_eq), ub_rows=(p_lp, [b_val])))
        if sol.status == "Optimal" and (best is None or sol.objective > best[2].objective):
            best = (C, sets, sol)
    if best is None:
        return FairPolicyResult(None, float("nan"), "NoFeasiblePolicy", residuals={}, chain=chain)

    C, sets, sol = best
    d = sol.values if basis is None else basis @ sol.values
    residuals = {s.name: _max_residual(s, d) for s in sets}
    residuals["budget"] = max(0.0, float(p_row @ d - b_val))
    violation = max(residuals.values())
    if not violation <= CHECK_TOL:
        raise SolverError(f"fair policy violates its constraints by {violation:.3g}")
    return FairPolicyResult(
        policy=Policy(d=d),
        objective=float(c @ d),
        status="Optimal",
        residuals=residuals,
        grid_point=None if C is None else tuple(C),
        chain=chain,
    )


def residual_report(dist: FiniteJointDistribution, policy: Policy, b: float, omega="constant"):
    """Max violation of each constraint family at a given policy.

    Returns a list of dicts, one per definition, shaped for JSON output.
    PSF/CF residuals use whatever counterfactual masses the distribution
    carries (so the path collection is the one used to build it); a
    distribution without them has no PSF entry.
    """
    d = policy.d
    sets = [
        ceo_rows(dist),
        cpf_rows(dist, omega),
        *([psf_rows(dist)] if dist.cf_mass else []),
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
