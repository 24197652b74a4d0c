import numpy as np
import pytest
import verify


@pytest.fixture(scope="module")
def small_dists():
    from causalfair import cli

    config = cli.load_config(None, {("simulation", "n"): 4000, ("simulation", "bin_width"): 10.0})
    return cli.simulate(config)


def test_rejects_perturbed_policy():
    classes, absorption = [np.arange(5)], np.ones((5, 1))
    d = np.full(5, 0.5)
    assert verify.check_causal_policy("PSF", d, 0.5, classes, absorption) == []
    d[2] += 1e-3
    assert len(verify.check_causal_policy("PSF", d, 0.5, classes, absorption)) == 2


def test_multiple_classes_need_class_constant_form():
    classes = [np.array([0, 1]), np.array([2, 3])]
    absorption = np.array([[1, 0], [1, 0], [0, 1], [0, 1], [0.5, 0.5]], dtype=float)
    d = np.array([1.0, 1.0, 0.0, 0.0, 0.5])
    assert verify.check_causal_policy("CF", d, 0.5, classes, absorption) == []
    d[4] = 0.6
    assert verify.check_causal_policy("CF", d, 0.5, classes, absorption) != []


def test_rejects_non_dominated_ceo():
    assert verify.check_dominated("CEO", [0.003, 0.002], 0.0025, False) == []
    assert verify.check_dominated("CEO", None, 0.0025, False) != []
    assert verify.check_dominated("CEO", [0.003, 0.004], 0.0025, False) != []
    assert verify.check_dominated("CEO", [float("nan"), 0.01], 0.0025, False) != []
    assert verify.check_dominated("CEO", [0.01, float("nan")], 0.0025, False) != []
    assert verify.check_dominated("CEO", None, 0.0, False) != []
    # At the most diversity the budget allows, no policy is strictly better.
    assert verify.check_dominated("CPP", None, 0.0, True) == []
    assert verify.check_dominated("CPP", [4e-16, 2e-5], 0.0, True) == []
    # The sweep may miss a dominance smaller than MIN_GAP, never a larger one.
    assert verify.check_dominated("CPP", None, 5e-4, False) == []


def test_exact_dominance_bounds_the_sweep(small_dists):
    from causalfair.dist import utility_table
    from causalfair.pareto import Policy, dominance_gap

    d_pi, _ = small_dists
    constant = np.full(d_pi.n, 0.5)
    exact, at_boundary = verify.exact_dominance(d_pi, constant, 0.5)
    gap = dominance_gap(Policy(d=constant), d_pi, 0.5, 20)
    assert not at_boundary and exact > 0.01
    assert verify.check_dominated("PSF", gap, exact, at_boundary) == []

    # Admit by graduation rate until the budget is spent: the most graduation.
    order = np.argsort(-utility_table(d_pi, 0.0).r, kind="stable")
    spent = np.cumsum(d_pi.mass[order]) - d_pi.mass[order]
    d = np.zeros(d_pi.n)
    d[order] = np.clip((0.5 - spent) / d_pi.mass[order], 0.0, 1.0)
    exact, at_boundary = verify.exact_dominance(d_pi, d, 0.5)
    assert at_boundary and exact <= verify.DOMINANCE_TOL


def test_chain_structure_matches_package_analysis(small_dists):
    from causalfair import dist as dist_mod
    from causalfair import markov

    d_pi, _ = small_dists
    classes, absorption = verify.chain_structure(d_pi)
    analysis = markov.analyze([dist_mod.transition_matrix(d_pi, a) for a in sorted(d_pi.cf_mass)])
    assert sorted(tuple(c) for c in classes) == sorted(analysis.classes)
    order = [sorted(analysis.classes).index(tuple(c)) for c in classes]
    np.testing.assert_allclose(absorption, analysis.absorption[:, order], atol=1e-9)


def test_highs_objective_matches_and_rejects_offset(small_dists):
    from causalfair.fairness import FairnessSpec, solve_fair

    d_pi, _ = small_dists
    spec = FairnessSpec(kind="CEO")
    result = solve_fair(d_pi, spec, lam=0.25, b=0.5)
    reference = verify.highs_objective(d_pi, spec, 0.25, 0.5)
    assert verify.check_objective("CEO", result.objective, reference) == []
    assert verify.check_objective("CEO", result.objective + 1e-5, reference) != []
    assert verify.check_objective("CEO", float("nan"), reference) != []
