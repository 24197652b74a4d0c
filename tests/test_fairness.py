import itertools
import json

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from causalfair import cli, fairness, linprog, markov
from causalfair.dist import from_table, load_tables, utility_table, write_tables
from causalfair.errors import EmptyInputError, SolverError
from causalfair.fairness import (
    FairnessSpec,
    _cpp_grid,
    budget_row,
    ceo_rows,
    cpf_rows,
    cpp_rows,
    eo_rows,
    psf_rows,
    residual_report,
    solve_fair,
)
from causalfair.pareto import Policy


def two_point_uniform():
    return from_table([(0, 1, 0, 0, 0.5), (1, 2, 1, 1, 0.5)])


def random_dist(rng, n_bins=4, with_cf=True):
    """Small random distribution with consistent counterfactual tables."""
    rows = []
    for g in (0, 1):
        for b in range(n_bins):
            for y0 in (0, 1):
                for y1 in (0, 1):
                    if y0 <= y1:  # keep outcomes monotone for realism
                        rows.append((g, b, y0, y1, rng.uniform(0.1, 1.0)))
    dist = from_table(rows)
    if with_cf:
        cf = {}
        for aprime in (0, 1):
            mat = rng.uniform(0.01, 1.0, (dist.n, dist.n))
            mat /= mat.sum(axis=1, keepdims=True)
            cf[aprime] = mat * dist.mass[:, None]
        dist.cf_mass = cf
        dist.validate()
    return dist


def _reference_independence_rows(dist, joint):
    """Per-cell independence rows: one for every (stratum, group) cell whose
    row is not identically zero, the implied last group's row included.
    Returns (a, rhs, skipped)."""
    rows = []
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
                skipped += 1
                continue
            rows.append(m_as * t_s - m_s * t_as)
    return np.array(rows).reshape(-1, dist.n), np.zeros(len(rows)), skipped


def _reference_cpf_joint(dist, omega):
    """CPF strata columns, one (Y(0), Y(1), w) cell at a time."""
    w = np.arange(dist.n) if omega == "identity" else np.zeros(dist.n, dtype=np.int64)
    k = dist.outcome_mass.shape[1]
    columns = []
    for j0 in range(k):
        for j1 in range(k):
            for lbl in range(int(w.max()) + 1):
                columns.append(dist.outcome_mass[:, j0, j1] * (w == lbl))
    return np.stack(columns, axis=1)


def _reference_cpp_grid(k, step):
    """The lattice over the k-outcome probability simplex that ``_cpp_grid``
    replaced, kept as its oracle for k = 2."""
    m = round(1 / step)
    points = []
    for combo in itertools.combinations_with_replacement(range(k), m):
        counts = np.bincount(np.array(combo), minlength=k)
        points.append(tuple(counts / m))
    return sorted(points)


def _reference_cpp_rows(dist, C):
    """Per-cell CPP rows: one for every (group, outcome), the implied last
    outcome's row included. Returns (a, rhs)."""
    k = dist.outcome_mass.shape[1]
    y1j = dist.y1_joint()
    rows, rhs = [], []
    for a in sorted(set(int(g) for g in dist.group)):
        in_a = dist.group == a
        m_a = dist.mass * in_a
        for j in range(k):
            m_ay = y1j[:, j] * in_a
            rows.append(C[j] * m_a - m_ay)
            rhs.append(C[j] * m_a.sum() - m_ay.sum())
    return np.array(rows), np.array(rhs)


@st.composite
def sparse_distributions(draw):
    """2-3 groups, outcomes 0 and 1, 1-3 score bins; a random subset of the
    (group, bin, Y(0), Y(1)) cells carries mass, so strata that lack a group
    and strata holding a single group both occur."""
    n_groups = draw(st.integers(2, 3))
    n_bins = draw(st.integers(1, 3))
    cells = list(itertools.product(range(n_groups), range(n_bins), range(2), range(2)))
    weights = draw(st.lists(st.sampled_from([0, 0, 1, 2, 3, 5]), min_size=len(cells), max_size=len(cells)))
    rows = [(*cell, w) for cell, w in zip(cells, weights) if w]
    assume(rows)
    return from_table(rows)


def _rank(m):
    # Row entries are products of masses of like size, so a linear dependence
    # leaves singular values at rounding level, far below 1e-9 of the largest.
    # Masses are at least 1/405 here, so a family with a real row has an
    # entry above 2.5e-4 and a relative cut above 2.5e-13, which the floor
    # 1e-14 leaves alone. A family whose rows are all rounding noise (about
    # 1e-16 an entry, at most 729 entries) stays below the floor: rank 0.
    if m.shape[0] == 0:
        return 0
    sv = np.linalg.svd(m, compute_uv=False)
    return int(np.sum(sv > max(1e-9 * sv[0], 1e-14)))


class TestBudgetRow:
    def test_uniform_two_point(self):
        coeffs, rhs = budget_row(two_point_uniform(), 0.5)
        np.testing.assert_allclose(coeffs, [0.5, 0.5])
        assert rhs == 0.5

    def test_single_point_cap(self):
        d = from_table([(0, 1, 0, 0, 1.0)])
        coeffs, rhs = budget_row(d, 0.3)
        np.testing.assert_allclose(coeffs, [1.0])
        assert rhs == 0.3

    def test_bad_budget(self):
        with pytest.raises(ValueError):
            budget_row(two_point_uniform(), 1.0)


class TestCeoRows:
    def test_symmetric_groups_make_stratum_policies_feasible(self):
        # Both groups have identical conditional bin distributions given
        # Y(1), so any policy that depends only on the Y(1) stratum has
        # zero residual on every row.
        rows = [
            (0, 1, 1, 1, 0.25),
            (0, 2, 0, 0, 0.25),
            (1, 1, 1, 1, 0.25),
            (1, 2, 0, 0, 0.25),
        ]
        d = from_table(rows)
        out = ceo_rows(d)
        # Support order: (0,1), (0,2), (1,1), (1,2); bin 1 carries y=1.
        by_stratum = np.array([0.8, 0.3, 0.8, 0.3])
        assert np.max(np.abs(out.a @ by_stratum - out.rhs)) <= 1e-15

    def test_row_count_binary(self):
        # Two groups, binary Y(1), all cells populated: one row per y, as
        # the two group rows of a stratum are negatives of each other.
        rng = np.random.default_rng(0)
        d = random_dist(rng, with_cf=False)
        out = ceo_rows(d)
        assert out.a.shape[0] == 2 == np.linalg.matrix_rank(out.a)

    def test_rank_redundancy(self):
        # The two rows for a fixed y are negatives of each other when
        # |A| = 2, so the rank is at most the number of outcome levels.
        rng = np.random.default_rng(1)
        d = random_dist(rng, with_cf=False)
        out = ceo_rows(d)
        assert np.linalg.matrix_rank(out.a) <= 2

    def test_constant_policy_zero_residual(self):
        rng = np.random.default_rng(2)
        for _ in range(5):
            d = random_dist(rng, with_cf=False)
            out = ceo_rows(d)
            resid = out.a @ np.full(d.n, 0.37) - out.rhs
            assert np.max(np.abs(resid)) <= 1e-14


class TestCpfRows:
    def test_constant_omega_strata(self):
        rng = np.random.default_rng(3)
        d = random_dist(rng, with_cf=False)
        out = cpf_rows(d, "constant")
        # Populated (y0, y1) cells: (0,0), (0,1), (1,1); one row each.
        assert out.a.shape[0] == 3 == np.linalg.matrix_rank(out.a)

    def test_identity_omega_no_binding_rows(self):
        rng = np.random.default_rng(4)
        d = random_dist(rng, with_cf=False)
        out = cpf_rows(d, "identity")
        assert out.a.shape[0] == 0

    def test_constant_policy_zero_residual(self):
        rng = np.random.default_rng(5)
        d = random_dist(rng, with_cf=False)
        out = cpf_rows(d, "constant")
        resid = out.a @ np.full(d.n, 0.5) - out.rhs
        assert np.max(np.abs(resid)) <= 1e-14


class TestPsfRows:
    def test_identity_transitions_vacuous(self):
        rows = [(0, 1, 0, 0, 0.5), (1, 2, 1, 1, 0.5)]
        cf_rows = [
            (0, 0, 1, 0, 1, 0.5),
            (0, 1, 2, 1, 2, 0.5),
            (1, 0, 1, 0, 1, 0.5),
            (1, 1, 2, 1, 2, 0.5),
        ]
        d = from_table(rows, cf_rows)
        out = psf_rows(d)
        assert out.a.shape[0] == 0
        assert out.skipped == 4

    def test_three_point_chain(self):
        # Counterfactual of x1 is uniformly x2, x3; x2 and x3 map to
        # themselves. The only binding row is d1 = (d2 + d3) / 2.
        rows = [(0, 1, 0, 0, 0.5), (1, 2, 0, 0, 0.25), (1, 3, 0, 0, 0.25)]
        cf_rows = [
            (1, 0, 1, 1, 2, 0.25),
            (1, 0, 1, 1, 3, 0.25),
            (1, 1, 2, 1, 2, 0.25),
            (1, 1, 3, 1, 3, 0.25),
        ]
        d = from_table(rows, cf_rows)
        out = psf_rows(d)
        assert out.a.shape[0] == 1
        row = out.a[0] / out.a[0][0]
        np.testing.assert_allclose(row, [1.0, -0.5, -0.5])

    def test_no_counterfactual_masses(self):
        with pytest.raises(EmptyInputError):
            psf_rows(two_point_uniform())

    @pytest.mark.parametrize("width", [1.0, 0.5])
    def test_reloaded_tables_skip_the_same_rows(self, tmp_path, width):
        # Reloading renormalizes by a re-accumulated total, which leaves
        # own-group rows at rounding noise (1e-20 to 1e-18) instead of 0.
        config = cli.load_config(
            None, {("simulation", "n"): 20000, ("simulation", "bin_width"): width}
        )
        d, _ = cli.simulate(config)
        write_tables(d, tmp_path / "mass.csv", tmp_path / "cf.csv")
        original = psf_rows(d)
        reloaded = psf_rows(load_tables(tmp_path / "mass.csv", tmp_path / "cf.csv"))
        assert (reloaded.a.shape, reloaded.skipped) == (original.a.shape, original.skipped)

    def test_constant_policy_zero_residual(self):
        rng = np.random.default_rng(6)
        d = random_dist(rng)
        out = psf_rows(d)
        resid = out.a @ np.full(d.n, 0.41) - out.rhs
        assert np.max(np.abs(resid)) <= 1e-14


class TestCppRows:
    def test_row_count_binary(self):
        rng = np.random.default_rng(7)
        d = random_dist(rng, with_cf=False)
        out = cpp_rows(d, (0.4, 0.6))
        # One row per group: a group's two outcome rows sum to zero.
        assert out.a.shape[0] == 2 == np.linalg.matrix_rank(out.a)

    def test_never_treat_with_matching_rates(self):
        # Groups share the same Y(1) marginal; with C set to that marginal
        # the rows hold at d = 0.
        rows = [
            (0, 1, 1, 1, 0.25),
            (0, 2, 0, 0, 0.25),
            (1, 3, 1, 1, 0.25),
            (1, 4, 0, 0, 0.25),
        ]
        d = from_table(rows)
        out = cpp_rows(d, (0.5, 0.5))
        resid = out.a @ np.zeros(d.n) - out.rhs
        assert np.max(np.abs(resid)) <= 1e-15

    def test_invalid_c(self):
        d = two_point_uniform()
        with pytest.raises(ValueError):
            cpp_rows(d, (0.7, 0.7))


class TestEoRows:
    def test_always_treat_matches_ceo(self):
        rng = np.random.default_rng(8)
        d = random_dist(rng, with_cf=False)
        np.testing.assert_allclose(eo_rows(d).a, ceo_rows(d).a)


class TestRowSpace:
    @settings(max_examples=150, deadline=None)
    @given(sparse_distributions(), st.sampled_from([0.1, 0.25, 0.5]), st.data())
    def test_same_feasible_set_as_per_cell_rows(self, dist, step, data):
        # Equal ranks of [A|b] for both row sets and for the two stacked mean
        # both span the same rows, so both define the same feasible set.
        families = [
            (ceo_rows(dist), dist.y1_joint()),
            (eo_rows(dist), dist.y1_joint()),
            (cpf_rows(dist, "constant"), _reference_cpf_joint(dist, "constant")),
            (cpf_rows(dist, "identity"), _reference_cpf_joint(dist, "identity")),
        ]
        pairs = []
        for new, joint in families:
            ref_a, ref_rhs, ref_skipped = _reference_independence_rows(dist, joint)
            assert new.skipped == ref_skipped
            pairs.append((new, ref_a, ref_rhs))
        C = data.draw(st.sampled_from(_cpp_grid(step)))
        pairs.append((cpp_rows(dist, C), *_reference_cpp_rows(dist, C)))
        for new, ref_a, ref_rhs in pairs:
            new_ab = np.column_stack([new.a, new.rhs])
            ref_ab = np.column_stack([ref_a, ref_rhs])
            assert _rank(new_ab) == _rank(ref_ab) == _rank(np.vstack([new_ab, ref_ab])), new.name


class TestFairnessSpec:
    def test_unknown_omega(self):
        with pytest.raises(ValueError, match="omega"):
            FairnessSpec(kind="CPF", omega="bogus")
        with pytest.raises(ValueError, match="omega"):
            cpf_rows(two_point_uniform(), "bogus")

    @pytest.mark.parametrize("kind,omega", [("PSF", "constant"), ("CF", "identity"), ("CEO", "constant")])
    def test_omega_applies_to_cpf_only(self, kind, omega):
        with pytest.raises(ValueError, match="omega applies to CPF only"):
            FairnessSpec(kind=kind, omega=omega)

    @pytest.mark.parametrize("step", [0.6, 0.7, 0.3, 0.0, 1.5])
    def test_cpp_grid_step_must_divide_one(self, step):
        with pytest.raises(ValueError, match="grid_step"):
            FairnessSpec(kind="CPP", grid_step=step)

    @pytest.mark.parametrize("step", [0.1, 0.05, 0.02, 0.25, 0.01])
    def test_cpp_lattice_reaches_every_vertex(self, step):
        FairnessSpec(kind="CPP", grid_step=step)
        grid = _cpp_grid(step)
        assert len(grid) == round(1 / step) + 1
        assert grid[0] == (0.0, 1.0) and grid[-1] == (1.0, 0.0)

    @pytest.mark.parametrize("step", [0.01, 0.02, 0.05, 0.1, 0.25])
    def test_cpp_grid_matches_simplex_lattice(self, step):
        assert _cpp_grid(step) == _reference_cpp_grid(2, step)


class TestSolveFair:
    def test_unconstrained_threshold_structure(self):
        # With lam = 0 the optimum admits the highest-r points up to the
        # budget; interior points only at the marginal bin.
        rng = np.random.default_rng(9)
        d = random_dist(rng, with_cf=False)
        res = solve_fair(d, FairnessSpec(kind="none"), lam=0.0, b=0.4)
        assert res.status == "Optimal"
        util = utility_table(d, 0.0)
        order = np.argsort(-util.u)
        dvals = res.policy.d[order]
        # Once a point is fractional or zero, no later point may be 1.
        seen_partial = False
        for v in dvals:
            if v < 1 - 1e-9:
                seen_partial = True
            elif seen_partial:
                pytest.fail("non-threshold structure in unconstrained solution")

    def test_constraints_never_help(self):
        rng = np.random.default_rng(10)
        d = random_dist(rng)
        base = solve_fair(d, FairnessSpec(kind="none"), lam=0.25, b=0.5)
        for kind in ("CEO", "CPF", "PSF", "EO"):
            res = solve_fair(d, FairnessSpec(kind=kind), lam=0.25, b=0.5)
            assert res.status == "Optimal"
            assert res.objective <= base.objective + 1e-9

    def test_constant_policy_lower_bound(self):
        rng = np.random.default_rng(11)
        d = random_dist(rng)
        util = utility_table(d, 0.25)
        floor = 0.5 * float(np.sum(util.u * d.mass))
        for kind in ("CEO", "CPF", "PSF", "EO"):
            res = solve_fair(d, FairnessSpec(kind=kind), lam=0.25, b=0.5)
            assert res.objective >= floor - 1e-9

    def test_cpp_grid_refinement_monotone(self):
        rng = np.random.default_rng(12)
        d = random_dist(rng, with_cf=False)
        coarse = solve_fair(d, FairnessSpec(kind="CPP", grid_step=0.1), lam=0.25, b=0.5)
        fine = solve_fair(d, FairnessSpec(kind="CPP", grid_step=0.05), lam=0.25, b=0.5)
        assert fine.objective >= coarse.objective - 1e-9
        assert fine.grid_point is not None

    def test_cpp_infeasible_when_rates_differ_and_no_budget(self):
        # Unequal group outcome rates with a tiny budget: rejecting nearly
        # everyone forces the rejected pool to mirror each group's own rate,
        # so no common calibration target exists.
        rows = [
            (0, 1, 1, 1, 0.5),
            (1, 2, 0, 0, 0.5),
        ]
        d = from_table(rows)
        res = solve_fair(d, FairnessSpec(kind="CPP", grid_step=0.25), lam=0.0, b=0.01)
        assert res.status == "NoFeasiblePolicy"

    def test_rows_linear_in_d(self):
        rng = np.random.default_rng(14)
        d = random_dist(rng)
        for rows in (ceo_rows(d), cpf_rows(d, "constant"), psf_rows(d)):
            if rows.a.shape[0] == 0:
                continue
            x = rng.uniform(0, 1, d.n)
            lhs1 = rows.a @ x
            lhs2 = rows.a @ (2 * x)
            np.testing.assert_allclose(lhs2, 2 * lhs1, atol=1e-15)


class TestResidualReport:
    def test_constant_policy_report(self):
        rng = np.random.default_rng(15)
        d = random_dist(rng)
        report = residual_report(d, Policy(d=np.full(d.n, 0.5)), b=0.5)
        names = {entry["definition"] for entry in report}
        assert names == {"CEO", "CPF", "PSF", "EO", "budget"}
        for entry in report:
            assert entry["max_residual"] <= 1e-12


def _reference_psf_solve(dist, lam, b):
    """The full-row LP: maximize utility over d subject to every PSF row and
    the budget, as ``solve_fair`` did for CF/PSF before the chain solve."""
    rows = psf_rows(dist)
    p_row, b_val = budget_row(dist, b)
    c = utility_table(dist, lam).u * dist.mass
    return linprog.solve(
        linprog.LinearProgram(objective=c, eq_rows=(rows.a, rows.rhs), ub_rows=(p_row[None], [b_val]))
    )


@st.composite
def chain_distributions(draw):
    """Two groups and at most 13 points. A recurrent point's swaps stay
    inside its block, so each of the 1-3 blocks is a recurrent class; each
    transient point's foreign swap splits over points of one or more blocks
    and maybe other transient points. A point's own-group swap is the
    identity or, at random, moves some or all of it to one point: within
    its block for a recurrent point, anywhere for a transient one. With two
    or more blocks, the first may carry a mass of about 1e-5 in all."""
    n_blocks = draw(st.integers(1, 3))
    points = [(g, k) for k in range(n_blocks) for g in (0, 1) for _ in range(draw(st.integers(1, 2)))]
    points += [(draw(st.integers(0, 1)), -1) for _ in range(draw(st.integers(1, min(3, 13 - len(points)))))]
    points.sort(key=lambda p: p[0])  # support order: group, then bin
    group, block = np.array(points).T
    n = len(points)
    mass = np.array(draw(st.lists(st.floats(0.1, 1.0), min_size=n, max_size=n)))
    if n_blocks > 1 and draw(st.booleans()):
        tiny = block == 0
        mass[tiny] *= 1e-5 * mass[~tiny].sum() / mass[tiny].sum()
    r = draw(st.lists(st.floats(0.0, 1.0), min_size=n, max_size=n))
    rows = [
        (g, i, 0, y1, m * (p if y1 else 1 - p))
        for i, (g, m, p) in enumerate(zip(group, mass, r))
        for y1 in (0, 1)
    ]
    dist = from_table(rows)
    assert np.array_equal(dist.group, group)
    cf = {a: np.diag(dist.mass) for a in (0, 1)}
    for i in range(n):
        other = group != group[i]
        if block[i] >= 0:
            w = np.array(draw(st.lists(st.floats(0.1, 1.0), min_size=n, max_size=n)))
            w[~other | (block != block[i])] = 0.0
        else:
            w = np.array(draw(st.lists(st.sampled_from([0.0, 0.2, 0.5, 1.0]), min_size=n, max_size=n)))
            w[~other] = 0.0
            w[draw(st.sampled_from(np.flatnonzero(other & (block >= 0)).tolist()))] += 0.1
        cf[1 - group[i]][i] = dist.mass[i] * w / w.sum()
        if draw(st.booleans()):  # the own-group swap moves the point too
            j = draw(st.sampled_from(np.flatnonzero((block == block[i]) | (block[i] < 0)).tolist()))
            stay = draw(st.sampled_from([0.0, 0.5, 0.9]))
            cf[group[i]][i] = 0.0
            cf[group[i]][i, i] += stay * dist.mass[i]
            cf[group[i]][i, j] += (1 - stay) * dist.mass[i]
    dist.cf_mass = cf
    dist.validate()
    return dist


class TestChainSolve:
    @settings(max_examples=200, deadline=None)
    @given(chain_distributions(), st.floats(0.05, 1.0), st.floats(0.05, 0.95))
    def test_matches_full_row_lp(self, dist, lam, b):
        with pytest.MonkeyPatch.context() as mp:
            widths = _lp_widths(mp)
            res = solve_fair(dist, FairnessSpec(kind="PSF"), lam=lam, b=b)
        analysis = res.chain
        assert widths == [len(analysis.classes)]
        ref = _reference_psf_solve(dist, lam, b)
        assert res.status == ref.status == "Optimal"
        assert abs(res.objective - ref.objective) <= 1e-9
        d = res.policy.d
        assert np.abs(psf_rows(dist).a @ d).max() <= linprog.CHECK_TOL
        assert dist.mass @ d <= b + linprog.CHECK_TOL
        assert analysis.transient
        if len(analysis.classes) == 1:
            assert np.abs(d - b).max() <= 1e-12

    @pytest.mark.parametrize("seed", [10, 11])
    def test_two_moving_swaps_take_the_chain_lp(self, monkeypatch, seed):
        # random_dist moves every point under both swaps, so the rows of
        # both swaps bind; the chain LP still has one variable per class.
        dist = random_dist(np.random.default_rng(seed))
        widths = _lp_widths(monkeypatch)
        res = solve_fair(dist, FairnessSpec(kind="PSF"), lam=0.25, b=0.5)
        assert widths == [len(res.chain.classes)]
        assert res.objective == pytest.approx(PARENT_OBJECTIVES[("random", seed)], abs=1e-12)
        assert res.objective == pytest.approx(_reference_psf_solve(dist, 0.25, 0.5).objective, abs=1e-15)

    def test_perturbed_absorption_raises(self, monkeypatch):
        config = cli.load_config(None, {("simulation", "n"): 20000})
        dist, _ = cli.simulate(config)
        perturb_absorption(monkeypatch, dist.mass)
        with pytest.raises(SolverError, match="violates its constraints"):
            solve_fair(dist, FairnessSpec(kind="PSF"), lam=0.25, b=0.5)

    def test_perturbed_absorption_fails_optimize(self, tmp_path, capsys, monkeypatch):
        config = tmp_path / "c.json"
        config.write_text(json.dumps({"simulation": {"n": 4000}, "policy": {"kind": "PSF"}}))
        assert cli.main(["--config", str(config), "--out", str(tmp_path / "sim"), "simulate"]) == 0
        mass, cf = (str(tmp_path / "sim" / name) for name in ("mass.csv", "cf.csv"))
        perturb_absorption(monkeypatch, load_tables(mass, cf).mass)
        capsys.readouterr()
        args = ["--config", str(config), "--out", str(tmp_path / "opt"), "optimize", "--mass", mass, "--cf", cf]
        assert cli.main(args) == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "SolverError" and "violates its constraints" in err["message"]


# Objectives of the full-row LP before the chain solve took every swap
# structure, at lam 0.25 and b 0.5 on random_dist seeds 10 and 11.
PARENT_OBJECTIVES = {
    ("random", 10): 0.3828504068486918,
    ("random", 11): 0.4223645438592575,
}


def _lp_widths(monkeypatch):
    """Record the number of variables of every LP ``solve_fair`` solves."""
    widths = []
    real = fairness.solve

    def spy(lp, *args, **kwargs):
        widths.append(len(lp.objective))
        return real(lp, *args, **kwargs)

    monkeypatch.setattr(fairness, "solve", spy)
    return widths


def perturb_absorption(monkeypatch, mass):
    """Make ``markov.analyze`` return absorption odds off by 1e-6 at the
    heaviest point."""
    real = markov.analyze

    def perturbed(*args, **kwargs):
        analysis = real(*args, **kwargs)
        analysis.absorption[np.argmax(mass)] += 1e-6
        return analysis

    monkeypatch.setattr(markov, "analyze", perturbed)
