"""End-to-end acceptance suite: one test per release criterion.

Each test states its criterion in the docstring and asserts the published
tolerance directly, so the pass/fail line in the pytest report is the
acceptance verdict for that criterion.
"""

import time
from fractions import Fraction

import numpy as np
import pytest
from scipy import stats

from causalfair import cli
from causalfair.dist import Binning, discretize, from_table, utility_table
from causalfair.fairness import (
    FairnessSpec,
    budget_row,
    ceo_rows,
    cpf_rows,
    eo_rows,
    psf_rows,
    residual_report,
    solve_fair,
)
from causalfair.linprog import LinearProgram, solve
from causalfair.markov import analyze, check_pi_fair_structure
from causalfair.pareto import Policy, dominance_gap
from causalfair.scm import (
    PathSet,
    admissions_scm,
    all_paths,
    draw_worlds,
    evaluate_worlds,
)


@pytest.fixture(scope="module")
def default_run():
    """Full-size simulation at library defaults, shared across criteria."""
    config = cli.load_config(None)
    return cli.simulate(config)


class TestAcceptance:
    def test_criterion_1_uniform_lottery(self):
        """CF- and PSF-constrained optima are the uniform lottery d = b.

        Defaults: b = 1/2, lam = 1/4, n = 100,000, unit score bins, the
        education-mediated path collection, per-state strata. Both policies
        must satisfy max |d_i - 0.5| <= 1e-6, end to end in under 60 s.
        """
        start = time.monotonic()
        config = cli.load_config(None)
        d_pi, d_all = cli.simulate(config)
        res_psf = solve_fair(d_pi, FairnessSpec(kind="PSF"), lam=0.25, b=0.5)
        res_cf = solve_fair(d_all, FairnessSpec(kind="CF"), lam=0.25, b=0.5)
        elapsed = time.monotonic() - start
        assert res_psf.status == "Optimal"
        assert res_cf.status == "Optimal"
        assert float(np.max(np.abs(res_psf.policy.d - 0.5))) <= 1e-6
        assert float(np.max(np.abs(res_cf.policy.d - 0.5))) <= 1e-6
        assert elapsed <= 60.0

    def test_criterion_2_strong_dominance(self, default_run):
        """CEO-, CPF- and CPP-constrained optima are strongly dominated.

        Each optimum admits a feasible alternative improving both diversity
        and graduation by at least 1e-3 in probability-mass units.
        """
        d_pi, _ = default_run
        for kind, spec in [
            ("CEO", FairnessSpec(kind="CEO")),
            ("CPF", FairnessSpec(kind="CPF", omega="constant")),
            ("CPP", FairnessSpec(kind="CPP", grid_step=0.01)),
        ]:
            res = solve_fair(d_pi, spec, lam=0.25, b=0.5)
            assert res.status == "Optimal", kind
            gap = dominance_gap(res.policy, d_pi, b=0.5)
            assert gap is not None, kind
            assert gap[0] >= 1e-3 and gap[1] >= 1e-3, (kind, gap)

    def test_criterion_3_constant_policy_always_feasible(self):
        """The blind lottery d = b satisfies every constraint family.

        Across 20 random small distributions, max residual <= 1e-12 on all
        CEO, CPF (both stratifications), CF/PSF, and EO rows.
        """
        rng = np.random.default_rng(7)
        for _ in range(20):
            rows = []
            for g in (0, 1):
                for bin_ in range(4):
                    for y0 in (0, 1):
                        for y1 in (0, 1):
                            if y0 <= y1:
                                rows.append((g, bin_, y0, y1, rng.uniform(0.1, 1.0)))
            dist = from_table(rows)
            cf = {}
            for aprime in (0, 1):
                mat = rng.uniform(0.01, 1.0, (dist.n, dist.n))
                mat /= mat.sum(axis=1, keepdims=True)
                cf[aprime] = mat * dist.mass[:, None]
            dist.cf_mass = cf
            dist.validate()

            b = float(rng.uniform(0.2, 0.8))
            d = np.full(dist.n, b)
            sets = [
                ceo_rows(dist),
                cpf_rows(dist, "constant"),
                cpf_rows(dist, "identity"),
                psf_rows(dist),
                eo_rows(dist),
            ]
            for s in sets:
                if s.a.shape[0] == 0:
                    continue
                assert float(np.max(np.abs(s.a @ d - s.rhs))) <= 1e-12, s.name

    def test_criterion_4_lp_matches_grid_oracle(self):
        """The simplex agrees with a 0.05-step grid search.

        On 50 random box-bounded instances (up to 6 variables, up to 4
        inequality rows) the LP objective is within 0.05 * ||c||_1 + 1e-6 of
        the grid optimum and never below it, with no feasibility
        disagreements. Infeasible instances carry a contradictory row pair,
        so both routes must reject them.
        """
        rng = np.random.default_rng(11)
        step = 0.05
        axis = np.round(np.arange(0.0, 1.0 + step / 2, step), 10)

        def grid_best(c, a_ub, b_ub):
            n = len(c)
            best = -np.inf
            # One column per grid point's last n - 1 coordinates, in
            # itertools.product order; rows and objective are formed once.
            grids = np.meshgrid(*[axis] * (n - 1), indexing="ij", copy=False)
            tail = np.stack(grids).reshape(n - 1, -1)
            tail_rows, tail_obj = a_ub[:, 1:] @ tail, c[1:] @ tail
            for v0 in axis:
                ok = np.all(v0 * a_ub[:, :1] + tail_rows <= b_ub[:, None] + 1e-9, axis=0)
                if np.any(ok):
                    best = max(best, float(np.max(v0 * c[0] + tail_obj[ok])))
            return best

        for case in range(50):
            n = int(rng.integers(2, 7))
            m = int(rng.integers(1, 5))
            c = rng.uniform(-1.0, 1.0, n)
            a_ub = rng.uniform(-1.0, 1.0, (m, n))
            infeasible = case % 5 == 4
            if infeasible:
                # a.x <= -0.1 and -a.x <= -0.1 cannot both hold.
                a_ub = np.vstack([a_ub[: m - 1], a_ub[:1], -a_ub[:1]])
                b_ub = np.concatenate([rng.uniform(0.0, 1.0, m - 1), [-0.1, -0.1]])
            else:
                # Slack around a grid-aligned witness keeps the region fat
                # enough for the oracle to land inside it.
                witness = axis[rng.integers(0, len(axis), n)]
                b_ub = a_ub @ witness + rng.uniform(0.1, 0.5, m)
            lp = LinearProgram(objective=c, ub_rows=(a_ub, b_ub))
            sol = solve(lp)
            oracle = grid_best(c, a_ub, b_ub)
            if infeasible:
                assert sol.status == "Infeasible", case
                assert oracle == -np.inf, case
            else:
                assert sol.status == "Optimal", case
                assert oracle > -np.inf, case
                assert sol.objective >= oracle - 1e-9, case
                assert sol.objective - oracle <= step * np.sum(np.abs(c)) + 1e-6, case

    def test_criterion_5_three_quarter_budget_construction(self):
        """The b = 3/4 equal-strata construction admits a CEO-exact optimum.

        Utility is an equal mix of an atom at u = 1 and Uniform(1, 2)
        (discretized into 64 equal-mass atoms), split evenly over the four
        (group, outcome) cells. The closed-form at-atom admission rates
        p_{a,y} land strictly inside (629/3069, 6497/7161), the induced
        policy exhausts the budget within 1e-9, and its CEO residuals are
        at most 1e-9; the LP reaches the same objective.
        """
        b = 0.75
        cell_mass = 0.25
        atoms = []  # (group, bin, y0, y1, mass, u)
        for a in (0, 1):
            for y in (0, 1):
                atoms.append((a, y * 1000, y, y, cell_mass / 2, 1.0))
                for k in range(64):
                    u = 1.0 + (k + 0.5) / 64.0
                    atoms.append((a, y * 1000 + 1 + k, y, y, cell_mass / 128, u))
        dist = from_table([row[:5] for row in atoms])
        u_vals = np.array([row[5] for row in atoms])

        # Closed-form at-atom rates from the construction's proportions.
        pi_cell = Fraction(1, 4)  # Pr(A = a, Y = y)
        q_cell = Fraction(1, 8)  # Pr(u > 1, A = a, Y = y)
        r_cell = Fraction(1, 8)  # Pr(u = 1, A = a, Y = y)
        S = (Fraction(3, 4) - 4 * q_cell) / (4 * r_cell)
        p = (S * pi_cell * (2 * r_cell) + pi_cell * q_cell - pi_cell * q_cell) / (
            r_cell * (2 * pi_cell)
        )
        assert Fraction(629, 3069) < p < Fraction(6497, 7161)
        assert p == Fraction(1, 2)

        d_hand = np.where(u_vals > 1.0, 1.0, float(p))
        p_row, b_val = budget_row(dist, b)
        assert abs(float(p_row @ d_hand) - b) <= 1e-9
        ceo = ceo_rows(dist)
        assert float(np.max(np.abs(ceo.a @ d_hand - ceo.rhs))) <= 1e-9

        c = u_vals * dist.mass
        sol = solve(
            LinearProgram(
                objective=c,
                eq_rows=(ceo.a, ceo.rhs),
                ub_rows=(p_row[None, :], np.array([b_val])),
            )
        )
        assert sol.status == "Optimal"
        assert sol.objective == pytest.approx(float(c @ d_hand), abs=1e-9)
        assert abs(float(p_row @ sol.values) - b) <= 1e-9

    def test_criterion_6_beta_tail_gaps(self):
        """Beta tail means separate the groups and doom proportional parity.

        For means 0.6 vs 0.4 at concentration 10 the conditional tail-mean
        gap is positive on t in {0.05, ..., 1.0}; the (2, 1) closed form
        E[Z | Z < t] = 2t/3 holds within 1e-9; t = 1 returns the
        unconditional mean within 1e-12. A discretized pair of these betas
        used as graduation rates makes the CPP optimum strongly dominated.
        """
        from causalfair.betafair import BetaParams, conditional_tail_mean, from_mean_size

        hi = from_mean_size(0.6, 10)
        lo = from_mean_size(0.4, 10)
        for k in range(1, 21):
            t = 0.05 * k
            assert conditional_tail_mean(t, hi) - conditional_tail_mean(t, lo) > 0, t
        two_one = BetaParams(alpha=2.0, beta=1.0)
        for t in (0.1, 0.25, 0.5, 0.75, 1.0):
            assert conditional_tail_mean(t, two_one) == pytest.approx(2 * t / 3, abs=1e-9)
        for params in (hi, lo, two_one):
            assert conditional_tail_mean(1.0, params) == pytest.approx(
                params.alpha / (params.alpha + params.beta), abs=1e-12
            )

        # End to end: 40 equal-mass quantile atoms per group with beta
        # graduation rates, then the proportional-parity LP sweep.
        rows = []
        n_atoms = 40
        for g, params in ((0, hi), (1, lo)):
            probs = (np.arange(n_atoms) + 0.5) / n_atoms
            rates = stats.beta.ppf(probs, params.alpha, params.beta)
            for k, r in enumerate(rates):
                m = 0.5 / n_atoms
                rows.append((g, k, 0, 1, m * r))
                rows.append((g, k, 0, 0, m * (1.0 - r)))
        dist = from_table(rows)
        res = solve_fair(dist, FairnessSpec(kind="CPP", grid_step=0.02), lam=0.25, b=0.5)
        assert res.status == "Optimal"
        gap = dominance_gap(res.policy, dist, b=0.5)
        assert gap is not None
        assert gap[0] > 0 and gap[1] > 0

    def test_criterion_7_markov_absorption_and_reconstruction(self):
        """Absorption matches (I - Q)^-1 R; class-constant policies rebuild.

        On a hand-built 4-state chain with two recurrent classes, both the
        analytic absorption comparison and the reconstruction of arbitrary
        class-constant policies hold within 1e-10.
        """
        P = np.array(
            [
                [1.0, 0.0, 0.0, 0.0],
                [0.0, 1.0, 0.0, 0.0],
                [0.4, 0.3, 0.1, 0.2],
                [0.2, 0.4, 0.3, 0.1],
            ]
        )
        Q = P[2:, 2:]
        R = P[2:, :2]
        expected = np.linalg.solve(np.eye(2) - Q, R)
        an = analyze([P])
        assert an.classes == ((0,), (1,))
        assert an.transient == (2, 3)
        assert float(np.max(np.abs(an.absorption[2:] - expected))) <= 1e-10

        rng = np.random.default_rng(5)
        for _ in range(10):
            class_vals = rng.uniform(0.0, 1.0, 2)
            d = np.concatenate([class_vals, an.absorption[2:] @ class_vals])
            report = check_pi_fair_structure(Policy(d=d), an)
            assert report["max_within_class_deviation"] == 0.0
            assert report["reconstruction_deviation"] <= 1e-10

    def test_criterion_8_counterfactual_consistency(self):
        """Path-specific counterfactuals are consistent and complete.

        Over 1,000 seeded draws: targeting the factual group reproduces the
        factual values exactly, and using every group-to-decision path
        matches a direct full-intervention evaluation exactly.
        """
        scm = admissions_scm()
        pi = PathSet(paths=(("A", "E", "T", "D"),))
        sample = draw_worlds(scm, pi, targets=[0, 1], n=1000, seed=2)
        group = sample.factual[scm.group_node]
        for target in (0, 1):
            match = group == target
            assert np.any(match)
            for node in scm.sampled_nodes:
                assert np.array_equal(
                    sample.counterfactual[target][node][match],
                    sample.factual[node][match],
                )

        pi_all = all_paths(scm)
        full = evaluate_worlds(scm, pi_all, targets=[0, 1], exogenous=sample.exogenous)
        for target in (0, 1):
            direct = {}
            for node in scm.sampled_nodes:
                if node == scm.group_node:
                    direct[node] = np.full(sample.n, target, dtype=np.int64)
                    continue
                parent_vals = {p: direct[p] for p in scm.dag.parents.get(node, ())}
                direct[node] = scm.equations[node].evaluate(
                    parent_vals, sample.exogenous[node]
                )
            for node in scm.sampled_nodes:
                assert np.array_equal(full.counterfactual[target][node], direct[node])

    def test_criterion_9_cli_determinism(self, tmp_path):
        """Two identically configured CLI runs are byte-identical."""
        cfg = tmp_path / "config.json"
        cfg.write_text(
            '{"simulation": {"n": 20000, "seed": 1}, "policy": {"frontier_resolution": 100}}'
        )
        outs = []
        for name in ("run1", "run2"):
            out = tmp_path / name
            assert cli.main(["--config", str(cfg), "--out", str(out), "run"]) == 0
            outs.append(out)
        names = sorted(p.name for p in outs[0].iterdir())
        assert names == sorted(p.name for p in outs[1].iterdir())
        for name in names:
            assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes(), name
