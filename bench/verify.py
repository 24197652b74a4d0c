"""Output checks run after each timed operation, outside the timed region.

Each check returns a list of problems; an empty list means the outputs hold
the paper's claims at the tolerances below. The checks use scipy's HiGHS and
scipy's strongly-connected components, not the package's own solver or
chain analysis, so a defect there cannot vouch for itself.
"""

from __future__ import annotations

import hashlib
import json
import os

import numpy as np

POLICY_TOL = 1e-6  # CF/PSF policy structure and d = b
MIN_GAP = 1e-3  # exact dominance gap that the package's sweep must detect
DOMINANCE_TOL = 1e-9  # exact gap that counts as strict dominance
OBJECTIVE_TOL = 1e-7  # package objective against an independent HiGHS solve
# HiGHS's default 1e-7 feasibility tolerances let it trade row violations of
# ~4e-8 on the mass-scaled CF rows for objective gains of ~3e-5 (seed 200023),
# so the reference solve runs at HiGHS's tightest tolerances.
HIGHS_OPTIONS = {"primal_feasibility_tolerance": 1e-10, "dual_feasibility_tolerance": 1e-10}
CHAIN_TOL = 1e-9  # transition probability that counts as an edge
DOMINATED_KINDS = ("CEO", "CPF", "CPP")
CAUSAL_KINDS = ("CF", "PSF")


def chain_structure(dist):
    """Recurrent classes of the averaged counterfactual chain, and each
    state's absorption probabilities into them (one column per class)."""
    from scipy.sparse import csr_matrix
    from scipy.sparse.csgraph import connected_components

    P = np.mean([dist.cf_mass[a] / dist.mass[:, None] for a in sorted(dist.cf_mass)], axis=0)
    edges = csr_matrix(P > CHAIN_TOL)
    n_comp, label = connected_components(edges, directed=True, connection="strong")
    src, dst = edges.nonzero()
    leaks = np.zeros(n_comp, dtype=bool)
    leaks[label[src][label[src] != label[dst]]] = True
    classes = [np.flatnonzero(label == c) for c in np.flatnonzero(~leaks)]
    absorption = np.zeros((dist.n, len(classes)))
    for k, members in enumerate(classes):
        absorption[members, k] = 1.0
    transient = np.flatnonzero(np.isin(label, np.flatnonzero(leaks)))
    if transient.size:
        Q = P[np.ix_(transient, transient)]
        R = np.stack([P[np.ix_(transient, members)].sum(axis=1) for members in classes], axis=1)
        absorption[transient] = np.linalg.solve(np.eye(transient.size) - Q, R)
    return classes, absorption


def check_causal_policy(kind, d, b, classes, absorption):
    """A CF/PSF-fair policy is constant on each recurrent class of the
    counterfactual chain and absorption-weighted on transient states. With a
    single recurrent class that constant is the budget itself: d = b."""
    d = np.asarray(d, dtype=np.float64)
    means = np.array([d[members].mean() for members in classes])
    spread = max(float(np.max(np.abs(d[m] - mu))) for m, mu in zip(classes, means))
    deviation = max(spread, float(np.max(np.abs(d - absorption @ means))))
    off_budget = float(np.max(np.abs(d - b)))
    problems = []
    if not deviation <= POLICY_TOL:
        problems.append(f"{kind}: policy is {deviation:.3g} from class-constant form")
    if len(classes) == 1 and not off_budget <= POLICY_TOL:
        problems.append(f"{kind}: policy is {off_budget:.3g} from d = b")
    return problems


def exact_dominance(dist, d, b):
    """Largest t such that some budget-feasible policy gains at least t in both
    diversity and graduation over policy ``d`` (by HiGHS), and whether ``d``
    already has the most diversity or graduation the budget allows, where no
    policy can gain in both."""
    from scipy.optimize import linprog

    from causalfair.dist import utility_table

    d = np.asarray(d, dtype=np.float64)
    div = dist.mass * (dist.group == 1)
    grad = dist.mass * utility_table(dist, 0.0).r
    n = dist.n
    rows = np.zeros((3, n + 1))  # variables: the policy d', then t
    rows[0, :n], rows[1, :n], rows[2, :n] = -div, -grad, dist.mass
    rows[:2, n] = 1.0
    maximize_t = np.zeros(n + 1)
    maximize_t[n] = -1.0
    res = linprog(
        maximize_t,
        A_ub=rows,
        b_ub=[-(div @ d), -(grad @ d), b],
        bounds=[(0.0, 1.0)] * n + [(None, None)],
        method="highs",
        options=HIGHS_OPTIONS,
    )
    best_grad = linprog(-grad, A_ub=dist.mass[None, :], b_ub=[b], bounds=(0.0, 1.0), method="highs",
                        options=HIGHS_OPTIONS)
    if res.status != 0 or best_grad.status != 0:
        raise RuntimeError(f"HiGHS dominance LP: {res.message} / {best_grad.message}")
    at_boundary = (
        min(b, div.sum()) - div @ d <= DOMINANCE_TOL or -best_grad.fun - grad @ d <= DOMINANCE_TOL
    )
    return -float(res.fun), bool(at_boundary)


def check_dominated(kind, gap, exact, at_boundary):
    """The paper's strong-dominance claim for a policy whose exact gap is
    ``exact``, and the package's sweep ``gap`` against it.

    The claim needs room to improve: a policy with the most diversity or
    graduation the budget allows cannot be strictly dominated. The sweep
    searches threshold policies only, so its gap is a lower bound on the exact
    one; it may miss a dominance smaller than ``MIN_GAP``."""
    problems = []
    if not (exact > DOMINANCE_TOL or at_boundary):
        problems.append(f"{kind}: policy is not strongly dominated (exact gap {exact:.3g})")
    if gap is None:
        if not exact < MIN_GAP:
            problems.append(f"{kind}: no dominance gap reported, exact gap is {exact:.3g}")
    elif not (all(g > 0 for g in gap) and min(gap) <= exact + DOMINANCE_TOL):  # also rejects NaN
        problems.append(f"{kind}: dominance gap {gap} not in (0, exact gap {exact:.3g}]")
    return problems


def highs_objective(dist, spec, lam, b, grid_point=None):
    """Optimum of the same LP rows the package builds, solved by HiGHS."""
    from scipy.optimize import linprog

    from causalfair import fairness
    from causalfair.dist import utility_table

    if spec.kind == "CPP":
        sets = [fairness.cpp_rows(dist, grid_point)]
    else:
        sets = fairness.constraint_sets(dist, spec)
    sets = [s for s in sets if s.a.shape[0]]
    c = utility_table(dist, lam).u * dist.mass
    res = linprog(
        -c,
        A_eq=np.vstack([s.a for s in sets]) if sets else None,
        b_eq=np.concatenate([s.rhs for s in sets]) if sets else None,
        A_ub=dist.mass[None, :],
        b_ub=[b],
        bounds=(0.0, 1.0),
        method="highs",
        options=HIGHS_OPTIONS,
    )
    if res.status != 0:
        return None
    return -float(res.fun)


def check_objective(kind, objective, reference):
    if reference is None:
        return [f"{kind}: HiGHS finds no optimum"]
    if not abs(objective - reference) <= OBJECTIVE_TOL:  # also rejects NaN
        return [f"{kind}: objective {objective!r} differs from HiGHS {reference!r}"]
    return []


def check_solve(solve, objective):
    """Checks on one captured ``solve_fair`` call whose reported objective is
    ``objective``: the HiGHS optimum and, for CF/PSF, the policy's form."""
    kind = solve.spec.kind
    result = solve.result
    if result.status != "Optimal":
        return [f"{kind}: status {result.status}"]
    reference = highs_objective(solve.dist, solve.spec, solve.lam, solve.b, result.grid_point)
    problems = check_objective(kind, objective, reference)
    if kind in CAUSAL_KINDS:
        classes, absorption = chain_structure(solve.dist)
        problems += check_causal_policy(kind, result.policy.d, solve.b, classes, absorption)
    return problems


def check_schema(summary, schema_path):
    import jsonschema

    with open(schema_path) as fh:
        schema = json.load(fh)
    try:
        jsonschema.validate(summary, schema)
    except jsonschema.ValidationError as exc:
        return [f"summary.json: {exc.message}"]
    return []


def verify_run(op, out_dir, schema_path):
    """Outputs of ``causalfair run``."""
    with open(os.path.join(out_dir, "summary.json")) as fh:
        summary = json.load(fh)
    problems = check_schema(summary, schema_path)
    definitions = summary["definitions"]
    solved = {s.spec.kind for s in op.solves}
    problems += [f"{kind}: not solved" for kind in definitions if kind not in solved]
    for solve in op.solves:
        kind = solve.spec.kind
        entry = definitions[kind]
        problems += check_solve(solve, entry.get("objective", float("nan")))
        if kind in DOMINATED_KINDS and solve.result.status == "Optimal":
            exact = exact_dominance(solve.dist, solve.result.policy.d, solve.b)
            problems += check_dominated(kind, entry.get("dominance_gap"), *exact)
    return problems


def verify_staged(op, out_dir):
    """Outputs of simulate → optimize → audit → markov → beta-check."""
    problems = []
    optimized = json.loads(op.stdout["optimize"])
    if len(op.solves) != 1 or optimized.get("status") != "Optimal":
        return [f"optimize: {optimized}"]
    (solve,) = op.solves
    problems += check_solve(solve, optimized["objective"])
    written = np.loadtxt(
        os.path.join(out_dir, "optimize", "policy.csv"), delimiter=",", skiprows=1, usecols=2, ndmin=1
    )
    if not np.array_equal(written, solve.result.policy.d):
        problems.append("optimize: policy.csv differs from the solved policy")
    audit = json.loads(op.stdout["audit"])
    exact = exact_dominance(solve.dist, solve.result.policy.d, solve.b)
    problems += check_dominated("audit", audit["dominance_gap"], *exact)
    markov = json.loads(op.stdout["markov"])
    if not markov["max_policy_deviation"] <= POLICY_TOL:
        problems.append(f"markov: policy deviation {markov['max_policy_deviation']:.3g}")
    beta = json.loads(op.stdout["beta-check"])
    if not beta["all_positive"]:
        problems.append(f"beta-check: minimum gap {beta['min_gap']}")
    return problems


def tree_digest(directory):
    """SHA-256 of every file under ``directory``, keyed by relative path."""
    digests = {}
    for base, _, files in os.walk(directory):
        for name in files:
            path = os.path.join(base, name)
            with open(path, "rb") as fh:
                digests[os.path.relpath(path, directory)] = hashlib.sha256(fh.read()).hexdigest()
    return digests
