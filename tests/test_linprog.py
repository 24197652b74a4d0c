import itertools
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import linprog as scipy_linprog

from causalfair import cli, fairness, linprog
from causalfair.dist import from_table, utility_table
from causalfair.fairness import KINDS, FairnessSpec, budget_row, constraint_sets, solve_fair
from causalfair.errors import SolverError
from causalfair.linprog import _PIVOT_TOL, CHECK_TOL, LinearProgram, LpSolution, _run_simplex, solve


def brute_force_box(lp, step=0.05):
    """Grid search over the box; returns the best feasible objective."""
    n = len(lp.objective)
    a_eq, b_eq = lp.eq_rows
    a_ub, b_ub = lp.ub_rows
    axes = []
    for lo, hi in lp.bounds:
        axes.append(np.arange(lo, hi + step / 2, step))
    best = -np.inf
    for point in itertools.product(*axes):
        x = np.array(point)
        if len(b_eq) and np.max(np.abs(a_eq @ x - b_eq)) > 1e-9:
            continue
        if len(b_ub) and np.max(a_ub @ x - b_ub) > 1e-9:
            continue
        best = max(best, float(lp.objective @ x))
    return best


class TestBasics:
    def test_box_maximum(self):
        sol = solve(LinearProgram(objective=np.array([1.0])))
        assert sol.status == "Optimal"
        assert sol.values[0] == pytest.approx(1.0, abs=1e-12)

    def test_box_minimum(self):
        sol = solve(LinearProgram(objective=np.array([-1.0])))
        assert sol.status == "Optimal"
        assert sol.values[0] == pytest.approx(0.0, abs=1e-12)

    def test_vertex_solution(self):
        # max 0.5 d1 - 0.5 d2 with 0.5 d1 + 0.5 d2 <= 0.3 on [0,1]^2:
        # optimum at d = (0.6, 0), value 0.3.
        lp = LinearProgram(
            objective=np.array([0.5, -0.5]),
            ub_rows=(np.array([[0.5, 0.5]]), np.array([0.3])),
        )
        sol = solve(lp)
        assert sol.status == "Optimal"
        np.testing.assert_allclose(sol.values, [0.6, 0.0], atol=1e-9)
        assert sol.objective == pytest.approx(0.3, abs=1e-9)

    def test_equality_pins_value(self):
        lp = LinearProgram(
            objective=np.array([1.0, 1.0]),
            eq_rows=(np.array([[1.0, 1.0]]), np.array([0.5])),
        )
        sol = solve(lp)
        assert sol.status == "Optimal"
        assert sol.values.sum() == pytest.approx(0.5, abs=1e-9)
        assert sol.objective == pytest.approx(0.5, abs=1e-9)

    def test_infeasible_equalities(self):
        lp = LinearProgram(
            objective=np.array([1.0]),
            eq_rows=(np.array([[1.0], [1.0]]), np.array([0.2, 0.8])),
        )
        sol = solve(lp)
        assert sol.status == "Infeasible"
        assert sol.phase1_residual > 1e-9

    def test_infeasible_bound_conflict(self):
        # Equality demands x = 2 but the box caps x at 1.
        lp = LinearProgram(
            objective=np.array([1.0]),
            eq_rows=(np.array([[1.0]]), np.array([2.0])),
        )
        assert solve(lp).status == "Infeasible"

    def test_nonstandard_bounds(self):
        lp = LinearProgram(
            objective=np.array([1.0, -1.0]),
            bounds=np.array([[-2.0, 3.0], [0.5, 4.0]]),
        )
        sol = solve(lp)
        np.testing.assert_allclose(sol.values, [3.0, 0.5], atol=1e-9)

    def test_negative_rhs_inequality(self):
        # -x <= -0.4 means x >= 0.4; minimizing x should stop there.
        lp = LinearProgram(
            objective=np.array([-1.0]),
            ub_rows=(np.array([[-1.0]]), np.array([-0.4])),
        )
        sol = solve(lp)
        assert sol.status == "Optimal"
        assert sol.values[0] == pytest.approx(0.4, abs=1e-9)

    def test_redundant_equalities_ok(self):
        # Duplicated rows make the constraint block rank deficient.
        lp = LinearProgram(
            objective=np.array([1.0, 0.0]),
            eq_rows=(np.array([[1.0, 1.0], [1.0, 1.0], [2.0, 2.0]]), np.array([0.6, 0.6, 1.2])),
        )
        sol = solve(lp)
        assert sol.status == "Optimal"
        assert sol.objective == pytest.approx(0.6, abs=1e-9)

    def test_zero_objective(self):
        lp = LinearProgram(objective=np.zeros(3))
        sol = solve(lp)
        assert sol.status == "Optimal"
        assert sol.objective == 0.0

    def test_bad_tol(self):
        with pytest.raises(ValueError):
            solve(LinearProgram(objective=np.array([1.0])), tol=0.0)

    def test_infinite_ratio_step_raises(self):
        # Boxed programs cannot be unbounded, so an entering column with no
        # blocking row or bound is a numerical breakdown, not a status.
        T = np.array([[1.0, 0.0]])
        lo, hi = np.zeros(2), np.full(2, np.inf)
        with pytest.raises(SolverError):
            _run_simplex(T, lo.copy(), lo, hi, np.array([0.0, 1.0]), np.array([0]), 1e-9)


class TestAgainstGridSearch:
    def test_random_instances(self):
        # Independent oracle: exhaustive 0.05-grid over the unit box. For
        # LPs with inequality rows only, the grid lower-bounds the optimum
        # and the LP can beat it by at most the grid resolution effect, so
        # we check lp >= grid - tol and lp <= grid + 0.05 * ||c||_1.
        rng = np.random.default_rng(123)
        for _ in range(30):
            n = int(rng.integers(2, 4))
            c = rng.uniform(-1, 1, n)
            n_ub = int(rng.integers(1, 3))
            a = rng.uniform(0, 1, (n_ub, n))
            b = rng.uniform(0.3, float(n), n_ub)
            lp = LinearProgram(objective=c, ub_rows=(a, b))
            sol = solve(lp)
            assert sol.status == "Optimal"
            grid = brute_force_box(lp)
            assert sol.objective >= grid - 1e-9
            assert sol.objective <= grid + 0.05 * np.abs(c).sum() + 1e-9

    def test_feasibility_of_solutions(self):
        rng = np.random.default_rng(7)
        for _ in range(30):
            n = int(rng.integers(2, 6))
            c = rng.uniform(-1, 1, n)
            a = rng.uniform(0, 1, (2, n))
            b = rng.uniform(0.5, float(n), 2)
            sol = solve(LinearProgram(objective=c, ub_rows=(a, b)))
            assert sol.status == "Optimal"
            x = sol.values
            assert np.all(x >= -1e-9) and np.all(x <= 1 + 1e-9)
            assert np.max(a @ x - b) <= 1e-8


class TestConstantPolicyFeasibility:
    def test_balanced_equalities_have_zero_residual(self):
        # Rows built so that x = 0.5 * ones satisfies them exactly; the
        # phase-1 residual at the optimum must be exactly zero.
        rng = np.random.default_rng(42)
        n = 20
        w = rng.uniform(0, 1, n)
        w /= w.sum()
        # One balanced equality: sum(w_i x_i) = 0.5 * sum(w_i)
        a_eq = w[None, :]
        b_eq = np.array([0.5 * w.sum()])
        lp = LinearProgram(objective=rng.uniform(-1, 1, n), eq_rows=(a_eq, b_eq))
        sol = solve(lp)
        assert sol.status == "Optimal"
        assert sol.phase1_residual <= 1e-12


@st.composite
def small_lps(draw):
    """LPs with integer data and half-integer right-hand sides.

    Small integer data keeps infeasible instances far from feasible
    compared with solver tolerances, so the status cannot hinge on them.
    Bounds may be negative, wider than one or fixed; right-hand sides of
    half the rows are taken at a point of the box so that equality
    systems are feasible often enough.
    """
    n = draw(st.integers(1, 5))
    ints = st.integers(-4, 4)
    lo = np.array(draw(st.lists(st.integers(-3, 2), min_size=n, max_size=n)), dtype=float)
    width = np.array(draw(st.lists(st.integers(0, 3), min_size=n, max_size=n)), dtype=float)
    point = lo + width * np.array(draw(st.lists(st.sampled_from([0.0, 0.5, 1.0]), min_size=n, max_size=n)))
    c = np.array(draw(st.lists(ints, min_size=n, max_size=n)), dtype=float)

    def block(max_rows, slack):
        m = draw(st.integers(0, max_rows))
        a = np.array(draw(st.lists(st.lists(ints, min_size=n, max_size=n), min_size=m, max_size=m)),
                     dtype=float).reshape(m, n)
        free = np.array(draw(st.lists(st.integers(-8, 8), min_size=m, max_size=m)), dtype=float) / 2
        at_point = np.array(draw(st.lists(st.booleans(), min_size=m, max_size=m)), dtype=bool)
        return a, np.where(at_point, a @ point + slack, free)

    a_eq, b_eq = block(3, 0.0)
    a_ub, b_ub = block(3, draw(st.sampled_from([0.0, 0.5])))
    bounds = np.column_stack([lo, lo + width])
    return LinearProgram(objective=c, eq_rows=(a_eq, b_eq), ub_rows=(a_ub, b_ub), bounds=bounds)


class TestAgainstHighs:
    @settings(max_examples=300, deadline=None)
    @given(small_lps())
    def test_status_and_objective_match(self, lp):
        a_eq, b_eq = lp.eq_rows
        a_ub, b_ub = lp.ub_rows
        ref = scipy_linprog(
            -lp.objective,
            A_ub=a_ub if len(b_ub) else None,
            b_ub=b_ub if len(b_ub) else None,
            A_eq=a_eq if len(b_eq) else None,
            b_eq=b_eq if len(b_eq) else None,
            bounds=lp.bounds,
            method="highs",
            options={"primal_feasibility_tolerance": 1e-10, "dual_feasibility_tolerance": 1e-10},
        )
        assert ref.status in (0, 2)  # optimal or infeasible; the box rules out unbounded
        sol = solve(lp)
        assert sol.status == ("Optimal" if ref.status == 0 else "Infeasible")
        if ref.status == 0:
            assert sol.objective == pytest.approx(-ref.fun, abs=1e-9)
            x = sol.values
            assert np.all(x >= lp.bounds[:, 0] - CHECK_TOL)
            assert np.all(x <= lp.bounds[:, 1] + CHECK_TOL)
            assert np.abs(a_eq @ x - b_eq).max(initial=0.0) <= CHECK_TOL
            assert (a_ub @ x - b_ub).max(initial=0.0) <= CHECK_TOL


@st.composite
def small_distributions(draw):
    """Two groups, a few score bins, every (Y(0), Y(1)) cell; random masses and
    row-stochastic counterfactual transitions."""
    n_bins = draw(st.integers(1, 4))
    weights = st.floats(0.05, 1.0)
    rows = [
        (g, k, y0, y1, draw(weights))
        for g in (0, 1)
        for k in range(n_bins)
        for y0 in (0, 1)
        for y1 in (0, 1)
    ]
    dist = from_table(rows)
    dist.cf_mass = {}
    for aprime in (0, 1):
        flat = draw(st.lists(weights, min_size=dist.n * dist.n, max_size=dist.n * dist.n))
        mat = np.array(flat).reshape(dist.n, dist.n)
        dist.cf_mass[aprime] = mat / mat.sum(axis=1, keepdims=True) * dist.mass[:, None]
    dist.validate()
    return dist


class TestConstantPolicyProperty:
    @settings(max_examples=40, deadline=None)
    @given(small_distributions(), st.floats(0.1, 0.9), st.floats(0.0, 1.0))
    def test_constant_policy_feasible_and_below_optimum(self, dist, b, lam):
        # CPP is left out: d = b meets its rows only when every group has the
        # same Y(1) distribution, which random masses almost never give.
        d = np.full(dist.n, b)
        p_row, b_val = budget_row(dist, b)
        assert p_row @ d <= b_val + 1e-12
        value = float(utility_table(dist, lam).u * dist.mass @ d)
        for kind in KINDS:
            if kind == "CPP":
                continue
            spec = FairnessSpec(kind=kind)
            for rows in constraint_sets(dist, spec):
                assert np.abs(rows.a @ d - rows.rhs).max(initial=0.0) <= 1e-12
            res = solve_fair(dist, spec, lam=lam, b=b)
            assert res.status == "Optimal"
            assert value <= res.objective + 1e-9


def _reference_run_simplex(T, x, lo, hi, c, basis, tol):
    """The simplex loop with one bound flip per pass, which ``_run_simplex``
    replaced by applying each run of flips in one array pass."""
    m, ncols = T.shape
    span = hi - lo
    movable = span > 0
    bland = False
    degenerate_run = 0
    bland_after = 5 * (m + ncols)
    max_iter = 100 * (m + ncols) + 1000
    direction = np.where(x >= hi, -1.0, 1.0)
    red = None

    for _ in range(max_iter):
        if red is None:
            red = np.where(movable, c - c[basis] @ T, 0.0)
            red[basis] = 0.0
        rate = red * direction
        candidates = np.flatnonzero(rate > tol)
        if len(candidates) == 0:
            return
        col = int(candidates[0] if bland else candidates[np.argmax(rate[candidates])])
        alpha = T[:, col] * direction[col]
        xb = x[basis]
        with np.errstate(divide="ignore", invalid="ignore"):
            r = np.minimum(
                np.where(alpha > _PIVOT_TOL, np.maximum(xb - lo[basis], 0.0) / alpha, np.inf),
                np.where(alpha < -_PIVOT_TOL, np.maximum(hi[basis] - xb, 0.0) / -alpha, np.inf),
            )
        r_min = r.min(initial=np.inf)
        step = min(r_min, span[col])
        if np.isinf(step):
            raise SolverError("simplex ratio test found no bound")
        if step <= tol:
            degenerate_run += 1
            bland = bland or degenerate_run > bland_after
        else:
            degenerate_run = 0
        x[basis] = xb - step * alpha
        if span[col] <= r_min:
            x[col] = hi[col] if direction[col] > 0 else lo[col]
            direction[col] = -direction[col]
            continue
        x[col] += direction[col] * step
        ties = np.flatnonzero(r <= r_min + 1e-15)
        row = int(ties[np.argmin(basis[ties]) if bland else np.argmax(np.abs(alpha[ties]))])
        leaving = basis[row]
        x[leaving] = lo[leaving] if alpha[row] > 0 else hi[leaving]
        direction[leaving] = 1.0 if alpha[row] > 0 else -1.0
        linprog._pivot(T, basis, row, col)
        red = None
    raise SolverError("simplex iteration limit reached")


def _outcome(lp, run_simplex):
    """Status, values, objective and phase-1 residual of ``solve`` as bytes,
    or its error, with ``run_simplex`` as the simplex loop; and the tableau,
    the values of every variable (slacks too) and the basis after each run
    of that loop."""
    states = []

    def traced(T, x, lo, hi, c, basis, tol):
        try:
            run_simplex(T, x, lo, hi, c, basis, tol)
        finally:
            states.append((T.tobytes(), x.tobytes(), basis.tobytes()))

    with mock.patch.object(linprog, "_run_simplex", traced):
        try:
            sol = solve(lp)
        except SolverError as exc:
            return ("SolverError", str(exc)), states
    result = (
        sol.status,
        sol.values.tobytes(),
        np.float64(sol.objective).tobytes(),
        np.float64(sol.phase1_residual).tobytes(),
    )
    return result, states


def assert_same_as_reference(lp):
    result, states = _outcome(lp, _run_simplex)
    expected, expected_states = _outcome(lp, _reference_run_simplex)
    assert result == expected
    assert states == expected_states


@st.composite
def wide_box_lps(draw):
    """Many columns over one to four rows, so most entering columns reach
    their other bound before any row blocks them: long runs of bound flips.

    Integer objectives tie many rates, so the order in which tied columns
    enter matters. Some columns are fixed, some have a span below the
    solver tolerance (a degenerate flip), some bounds are negative or wider
    than one, and equality rows send the solve through phase 1.
    """
    n = draw(st.integers(1, 200))
    m = draw(st.integers(1, 4))
    m_eq = draw(st.integers(0, m))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    c = rng.integers(-3, 6, n).astype(float) if draw(st.booleans()) else rng.uniform(-1, 2, n)
    lo = np.where(rng.random(n) < 0.2, rng.integers(-2, 1, n), 0.0).astype(float)
    width = rng.choice([0.0, 1e-10, 0.5, 1.0, 2.0], n, p=[0.1, 0.02, 0.3, 0.3, 0.28])
    a = rng.uniform(0.0, 1.0, (m, n)) * (rng.random((m, n)) < draw(st.sampled_from([0.3, 1.0])))
    if draw(st.booleans()):
        a[:, rng.random(n) < 0.3] *= -1
    # The right-hand side is the rows at a random point of the box, which
    # keeps equalities feasible and leaves inequalities room to flip into.
    point = lo + width * rng.random(n)
    rhs = a @ point + np.concatenate([np.zeros(m_eq), rng.uniform(0, 0.5 * n, m - m_eq)])
    if draw(st.integers(0, 4)) == 0:  # out of reach of the box: infeasible
        rhs[:m_eq] += 3 * n
    return LinearProgram(
        objective=c,
        eq_rows=(a[:m_eq], rhs[:m_eq]),
        ub_rows=(a[m_eq:], rhs[m_eq:]),
        bounds=np.column_stack([lo, lo + width]),
    )


class TestAgainstOneFlipPerPass:
    """The solver applies each run of bound flips in one array pass; its
    results must equal, bit for bit, those of the loop that made one flip
    per pass."""

    @settings(max_examples=300, deadline=None)
    @given(small_lps())
    def test_small_lps(self, lp):
        assert_same_as_reference(lp)

    @settings(max_examples=150, deadline=None)
    @given(wide_box_lps())
    def test_wide_box_lps(self, lp):
        assert_same_as_reference(lp)

    def test_cpp_lattice(self, monkeypatch):
        config = cli.load_config(None, {("simulation", "seed"): 1, ("simulation", "bin_width"): 1.0})
        d_pi, _ = cli.simulate(config)
        pol = config["policy"]
        lps = []
        monkeypatch.setattr(fairness, "solve", lambda lp: lps.append(lp) or solve(lp))
        solve_fair(d_pi, cli._spec_for("CPP", pol), lam=pol["lam"], b=pol["b"])
        assert len(lps) == 101
        for lp in lps:
            assert_same_as_reference(lp)
