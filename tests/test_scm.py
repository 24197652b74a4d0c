import itertools

import numpy as np
import pytest

from causalfair import scm as scm_mod
from causalfair.errors import CycleError, MissingConstantError, UnknownNodeError
from causalfair.scm import (
    CausalDag,
    Equation,
    PathSet,
    Scm,
    admissions_scm,
    all_paths,
    draw_worlds,
    evaluate_worlds,
    potential_outcomes,
    validate_and_order,
)

SINGLE_PATH = PathSet(paths=(("A", "E", "T", "D"),))


# The per-form equation evaluation and the separate factual and barred
# passes that ``Equation.evaluate`` and ``scm._propagate`` replaced, kept as
# their oracle: the single pass and the single linear predictor must
# reproduce every node's array and both potential outcomes exactly.


def _reference_evaluate(eq, parent_values, u, delta=None):
    if eq.form == "group-threshold":
        return (u <= eq.threshold).astype(np.int64)
    if eq.form == "logistic-threshold":
        z = np.full_like(u, eq.intercept, dtype=np.float64)
        for p, c in eq.coeffs.items():
            z += c * np.asarray(parent_values[p], dtype=np.float64)
        if delta is not None:
            z += eq.decision_coeff * delta
        prob = 1.0 / (1.0 + np.exp(-z))
        return (u <= prob).astype(np.int64)
    out = np.full_like(u, eq.intercept, dtype=np.float64)
    for p, c in eq.coeffs.items():
        out += c * np.asarray(parent_values[p], dtype=np.float64)
    if eq.form == "linear-interaction":
        for p1, p2, c in eq.interactions:
            out += c * np.asarray(parent_values[p1], dtype=np.float64) * np.asarray(
                parent_values[p2], dtype=np.float64
            )
    return out + eq.noise_scale * u


def _reference_factual_pass(scm, exo):
    values = {}
    for node in scm.sampled_nodes:
        parent_vals = {p: values[p] for p in scm.dag.parents.get(node, ())}
        values[node] = _reference_evaluate(scm.equations[node], parent_vals, exo[node])
    return values


def _reference_barred_pass(scm, exo, factual, on_path, target, n):
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
        barred[node] = _reference_evaluate(scm.equations[node], dagger, exo[node])
    return barred


def declarative_scm():
    """The model of ``tests/test_cli.py::TestCustomScm``: A -> S -> D, A -> D."""
    return Scm(
        dag=CausalDag(
            nodes=("A", "S", "D", "Y"),
            parents={"A": (), "S": ("A",), "D": ("A", "S"), "Y": ("S", "D")},
        ),
        equations={
            "A": Equation(form="group-threshold", threshold=0.5),
            "S": Equation(form="linear", intercept=10.0, coeffs={"A": 2.0}, noise_scale=3.0),
            "D": Equation(form="decision"),
            "Y": Equation(form="logistic-threshold", coeffs={"S": 0.1}, decision_coeff=1.0),
        },
        exogenous={"A": "uniform-0-1", "S": "standard-normal", "D": "uniform-0-1", "Y": "uniform-0-1"},
        group_node="A",
        decision_node="D",
        decision_parents=("A", "S"),
        outcome_node="Y",
    )


def path_subsets(scm):
    paths = all_paths(scm).paths
    return [
        PathSet(paths=subset)
        for k in range(len(paths) + 1)
        for subset in itertools.combinations(paths, k)
    ]


def zero_noise(scm, n=1, a_value=0.9):
    """Exogenous map with all noise at zero; A's uniform defaults above the
    group threshold, so the factual group is a0."""
    exo = {}
    for node in scm.dag.nodes:
        if node == "A":
            exo[node] = np.full(n, a_value)
        elif scm.exogenous[node] == "uniform-0-1":
            exo[node] = np.full(n, 0.5)
        else:
            exo[node] = np.zeros(n)
    return exo


class TestValidateAndOrder:
    def test_single_node_identity(self):
        dag = CausalDag(nodes=("X",), parents={"X": ()})
        assert validate_and_order(dag).nodes == ("X",)

    def test_admissions_dag_order(self):
        dag = CausalDag(
            nodes=("Y", "D", "T", "M", "E", "A"),
            parents={
                "E": ("A",),
                "D": ("A", "T"),
                "M": ("E",),
                "T": ("E", "M"),
                "Y": ("M", "D"),
                "A": (),
            },
        )
        assert validate_and_order(dag).nodes == ("A", "E", "M", "T", "D", "Y")

    def test_cycle_raises(self):
        dag = CausalDag(nodes=("X", "Z"), parents={"X": ("Z",), "Z": ("X",)})
        with pytest.raises(CycleError):
            validate_and_order(dag)

    def test_dangling_parent_raises(self):
        dag = CausalDag(nodes=("X",), parents={"X": ("missing",)})
        with pytest.raises(UnknownNodeError):
            validate_and_order(dag)

    def test_stable_among_incomparable(self):
        dag = CausalDag(nodes=("B", "Q", "A"), parents={"B": (), "Q": (), "A": ()})
        assert validate_and_order(dag).nodes == ("B", "Q", "A")


class TestDrawWorlds:
    def test_zero_noise_hand_values(self):
        # Appendix-style hand evaluation with all noise forced to zero,
        # factual group a0, target a1, single path through the test score.
        scm = admissions_scm()
        sample = evaluate_worlds(scm, SINGLE_PATH, targets=[1], exogenous=zero_noise(scm))
        assert sample.factual["A"][0] == 0
        assert sample.factual["E"][0] == pytest.approx(1.0)
        assert sample.factual["M"][0] == pytest.approx(1.0)
        assert sample.factual["T"][0] == pytest.approx(50 + 4 * 1 + 4 * 1 + 1 * 1 * 1)
        barred = sample.counterfactual[1]
        assert barred["A"][0] == 1
        assert barred["E"][0] == pytest.approx(0.0)
        assert barred["M"][0] == pytest.approx(1.0)  # edge E->M off the path
        assert barred["T"][0] == pytest.approx(50 + 4 * 0 + 4 * 1 + 1 * 0 * 1)

    def test_target_equal_factual_is_identity(self):
        scm = admissions_scm()
        sample = draw_worlds(scm, SINGLE_PATH, targets=[0, 1], n=500, seed=7)
        group = sample.factual["A"]
        for target in (0, 1):
            match = group == target
            assert match.any()
            for node in scm.sampled_nodes:
                np.testing.assert_array_equal(
                    sample.counterfactual[target][node][match],
                    sample.factual[node][match],
                )

    def test_all_paths_equals_full_intervention(self):
        # Oracle: plain intervention A := a', evaluated directly.
        scm = admissions_scm()
        pi = all_paths(scm)
        sample = draw_worlds(scm, pi, targets=[1], n=1000, seed=3)
        expected = {"A": np.full(sample.n, 1.0)}
        expected["E"] = 1.0 - 1.0 * 1.0 + sample.exogenous["E"]
        expected["M"] = expected["E"] + sample.exogenous["M"]
        expected["T"] = (
            50
            + 4 * expected["E"]
            + 4 * expected["M"]
            + expected["E"] * expected["M"]
            + 7 * sample.exogenous["T"]
        )
        for node in ("A", "E", "M", "T"):
            np.testing.assert_array_equal(sample.counterfactual[1][node], expected[node])

    def test_seed_reproducibility(self):
        scm = admissions_scm()
        s1 = draw_worlds(scm, SINGLE_PATH, targets=[0, 1], n=200, seed=11)
        s2 = draw_worlds(scm, SINGLE_PATH, targets=[0, 1], n=200, seed=11)
        for node in scm.sampled_nodes:
            np.testing.assert_array_equal(s1.factual[node], s2.factual[node])
            np.testing.assert_array_equal(
                s1.counterfactual[1][node], s2.counterfactual[1][node]
            )

    def test_decision_node_draws_no_noise(self):
        # Every other node keeps the Philox stream of its index in dag.nodes.
        scm = admissions_scm()
        sample = draw_worlds(scm, SINGLE_PATH, targets=[0, 1], n=50, seed=9)
        assert set(sample.exogenous) == set(scm.dag.nodes) - {scm.decision_node}
        for idx, node in enumerate(scm.dag.nodes):
            if node != scm.decision_node:
                gen = scm_mod._node_stream(9, idx)
                uniform = scm.exogenous[node] == "uniform-0-1"
                want = gen.uniform(0.0, 1.0, 50) if uniform else gen.standard_normal(50)
                assert np.array_equal(sample.exogenous[node], want)
        exo = {node: u for node, u in zero_noise(scm).items() if node != scm.decision_node}
        assert set(evaluate_worlds(scm, SINGLE_PATH, [0, 1], exo).exogenous) == set(exo)

    def test_equations_hold_exactly(self):
        scm = admissions_scm()
        sample = draw_worlds(scm, SINGLE_PATH, targets=[1], n=100, seed=5)
        e = sample.factual
        np.testing.assert_array_equal(
            e["E"], 1.0 - 1.0 * e["A"] + sample.exogenous["E"]
        )
        np.testing.assert_array_equal(
            e["T"],
            50 + 4 * e["E"] + 4 * e["M"] + e["E"] * e["M"] + 7 * sample.exogenous["T"],
        )

    @pytest.mark.parametrize("seed", [1, 3, 7])
    @pytest.mark.parametrize("model", [admissions_scm, declarative_scm])
    def test_single_pass_matches_reference_passes(self, model, seed):
        scm = model()
        subsets = path_subsets(scm)
        assert len(subsets) == (8 if model is admissions_scm else 4)
        for pi in subsets:
            sample = draw_worlds(scm, pi, targets=[0, 1], n=2000, seed=seed)
            factual = _reference_factual_pass(scm, sample.exogenous)
            on_path = pi.edge_set(scm.dag)
            for node in scm.sampled_nodes:
                assert np.array_equal(sample.factual[node], factual[node])
                assert sample.factual[node].dtype == factual[node].dtype
            eq, u = scm.equations[scm.outcome_node], sample.exogenous[scm.outcome_node]
            parents = {p: factual[p] for p in scm.dag.parents[scm.outcome_node] if p != scm.decision_node}
            for got, delta in zip(potential_outcomes(scm, sample), (0.0, 1.0)):
                assert np.array_equal(got, _reference_evaluate(eq, parents, u, delta))
            for target in (0, 1):
                barred = _reference_barred_pass(scm, sample.exogenous, factual, on_path, target, sample.n)
                for node in scm.sampled_nodes:
                    assert np.array_equal(sample.counterfactual[target][node], barred[node])
                    assert sample.counterfactual[target][node].dtype == barred[node].dtype

    @pytest.mark.parametrize("target", [-1, 2])
    def test_target_outside_group_range(self, target):
        scm = admissions_scm()
        with pytest.raises(ValueError, match="outside group range"):
            draw_worlds(scm, SINGLE_PATH, targets=[target], n=10, seed=1)
        with pytest.raises(ValueError, match="outside group range"):
            evaluate_worlds(scm, SINGLE_PATH, targets=[target], exogenous=zero_noise(scm))


class TestPotentialOutcomes:
    def test_hand_values_m1(self):
        # f_Y with M = 1, u_Y = 0.5: both potential outcomes are 1.
        scm = admissions_scm()
        exo = zero_noise(scm)
        exo["Y"] = np.array([0.5])
        sample = evaluate_worlds(scm, SINGLE_PATH, targets=[], exogenous=exo)
        assert sample.factual["M"][0] == pytest.approx(1.0)
        y0, y1 = potential_outcomes(scm, sample)
        assert (y0[0], y1[0]) == (1, 1)

    def test_hand_values_m0(self):
        scm = admissions_scm()
        exo = zero_noise(scm)
        exo["E"] = np.array([-1.0])  # drives M to 0
        exo["Y"] = np.array([0.99])
        sample = evaluate_worlds(scm, SINGLE_PATH, targets=[], exogenous=exo)
        assert sample.factual["M"][0] == pytest.approx(0.0)
        y0, y1 = potential_outcomes(scm, sample)
        assert (y0[0], y1[0]) == (0, 0)

    def test_monotone_in_decision(self):
        scm = admissions_scm()
        sample = draw_worlds(scm, SINGLE_PATH, targets=[], n=5000, seed=13)
        y0, y1 = potential_outcomes(scm, sample)
        assert (y0 <= y1).all()


class TestAdmissionsScm:
    def test_defaults(self):
        scm = admissions_scm()
        assert scm.equations["A"].threshold == pytest.approx(1 / 3)
        assert scm.equations["E"].coeffs["A"] == pytest.approx(-1.0)
        assert scm.equations["T"].intercept == pytest.approx(50.0)
        assert scm.equations["Y"].decision_coeff == pytest.approx(0.5)

    def test_missing_constant(self):
        with pytest.raises(MissingConstantError) as err:
            admissions_scm({"mu_A": 0.3})
        assert "beta_E_A" in err.value.missing

    def test_zero_group_effect_kills_counterfactual_shift(self):
        constants = dict(scm_mod._ADMISSIONS_DEFAULTS)
        constants["beta_E_A"] = 0.0
        scm = admissions_scm(constants)
        sample = draw_worlds(scm, SINGLE_PATH, targets=[0, 1], n=500, seed=21)
        for target in (0, 1):
            np.testing.assert_array_equal(
                sample.counterfactual[target]["T"], sample.factual["T"]
            )

    def test_group_frequency(self):
        scm = admissions_scm()
        sample = draw_worlds(scm, SINGLE_PATH, targets=[], n=1_000_000, seed=1)
        # Binomial standard error at n = 10^6 is about 0.00047.
        assert sample.factual["A"].mean() == pytest.approx(1 / 3, abs=2e-3)
