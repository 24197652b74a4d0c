import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.sparse.csgraph import connected_components

from causalfair import cli
from causalfair.dist import Binning, discretize, transition_matrix
from causalfair.errors import EmptyInputError, NonStochasticError
from causalfair.fairness import FairnessSpec, psf_rows, solve_fair
from causalfair.markov import analyze, check_pi_fair_structure
from causalfair.pareto import Policy
from causalfair.scm import PathSet, admissions_scm, draw_worlds


def four_state_chain():
    """Two absorbing-ish recurrent classes {0} and {1}, transient {2, 3}.

    Analytic absorption from the transient block, Q = [[0.1, 0.2], [0.3, 0.1]]
    and R = [[0.4, 0.3], [0.2, 0.4]], is (I - Q)^-1 R.
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
    return P, expected


@st.composite
def sparse_chains(draw, tol=1e-9):
    """1-3 row-stochastic matrices on 1-12 states, each row with 1-3 real
    entries and up to two spurious ones just below ``tol``."""
    n = draw(st.integers(1, 12))
    mats = []
    for _ in range(draw(st.integers(1, 3))):
        P = np.zeros((n, n))
        for i in range(n):
            support = draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=3, unique=True))
            weights = np.array([draw(st.integers(1, 5)) for _ in support])
            P[i, support] = weights / weights.sum()
            for j in draw(st.lists(st.integers(0, n - 1), max_size=2, unique=True)):
                if P[i, j] == 0:
                    P[i, j] = 0.9 * tol
                    P[i, support[0]] -= 0.9 * tol
        mats.append(P)
    return mats


def scc_oracle(P, tol):
    """Recurrent classes and transient states from scipy's strongly connected
    components: a component is a recurrent class when no edge leaves it."""
    edges = P > tol
    k, label = connected_components(edges, directed=True, connection="strong")
    closed = [not edges[label == c][:, label != c].any() for c in range(k)]
    classes = sorted(tuple(np.flatnonzero(label == c).tolist()) for c in range(k) if closed[c])
    transient = tuple(v for v in range(len(P)) if not closed[label[v]])
    return tuple(classes), transient


class TestAnalyze:
    @settings(max_examples=300, deadline=None)
    @given(sparse_chains())
    def test_classes_match_scc_oracle(self, mats):
        an = analyze(mats)
        assert (an.classes, an.transient) == scc_oracle(sum(mats) / len(mats), 1e-9)
        np.testing.assert_allclose(an.absorption.sum(axis=1), 1.0, atol=1e-9)
        recurrent = [v for c in an.classes for v in c]
        labels = [k for k, c in enumerate(an.classes) for _ in c]
        assert np.array_equal(an.absorption[recurrent], np.eye(len(an.classes))[labels])

    def test_no_matrices(self):
        with pytest.raises(EmptyInputError):
            analyze([])

    def test_identity_every_state_recurrent(self):
        an = analyze([np.eye(3)])
        assert an.classes == ((0,), (1,), (2,))
        assert an.transient == ()
        np.testing.assert_allclose(an.absorption, np.eye(3))

    def test_two_cycle_single_class(self):
        an = analyze([np.array([[0.0, 1.0], [1.0, 0.0]])])
        assert an.classes == ((0, 1),)
        assert an.transient == ()

    def test_geometric_absorption(self):
        an = analyze([np.array([[1.0, 0.0], [0.5, 0.5]])])
        assert an.classes == ((0,),)
        assert an.transient == (1,)
        assert an.absorption[1, 0] == pytest.approx(1.0, abs=1e-12)

    def test_four_state_analytic(self):
        P, expected = four_state_chain()
        an = analyze([P])
        assert an.classes == ((0,), (1,))
        assert an.transient == (2, 3)
        np.testing.assert_allclose(an.absorption[2:], expected, atol=1e-10)
        np.testing.assert_allclose(an.absorption.sum(axis=1), 1.0, atol=1e-10)

    def test_averaging(self):
        # Two deterministic swaps averaging to a lazy chain.
        p1 = np.array([[0.0, 1.0], [1.0, 0.0]])
        p2 = np.eye(2)
        an = analyze([p1, p2])
        np.testing.assert_allclose(an.P, [[0.5, 0.5], [0.5, 0.5]])
        assert an.classes == ((0, 1),)

    def test_nonstochastic_rejected(self):
        with pytest.raises(NonStochasticError):
            analyze([np.array([[0.5, 0.4], [0.0, 1.0]])])
        with pytest.raises(NonStochasticError):
            analyze([np.array([[1.0, 0.0]])])

    def test_edge_threshold(self):
        # A spurious 1e-12 entry must not connect the two classes.
        P = np.array([[1.0 - 1e-12, 1e-12], [0.0, 1.0]])
        an = analyze([P])
        assert len(an.classes) == 2


class TestPiFairStructure:
    def test_constant_policy_zero_deviation(self):
        P, _ = four_state_chain()
        an = analyze([P])
        report = check_pi_fair_structure(Policy(d=np.full(4, 0.3)), an)
        assert report["max_within_class_deviation"] == 0.0
        assert report["reconstruction_deviation"] <= 1e-12
        assert report["structure_holds"]

    def test_class_constant_transient_mixture(self):
        # Policy constant per class, transient states at the absorption
        # mixture: all deviations vanish.
        P, expected = four_state_chain()
        an = analyze([P])
        p = np.array([0.2, 0.8])
        d = np.concatenate([p, expected @ p])
        report = check_pi_fair_structure(Policy(d=d), an)
        assert report["max_within_class_deviation"] == 0.0
        assert report["reconstruction_deviation"] <= 1e-10

    def test_reconstruction_is_stationary(self):
        # Any class-constant vector extended via absorption weights is a
        # 1-eigenvector of P.
        P, expected = four_state_chain()
        an = analyze([P])
        p = np.array([0.9, 0.1])
        d = an.absorption @ p
        np.testing.assert_allclose(P @ d, d, atol=1e-10)

    def test_violating_policy_detected(self):
        P, _ = four_state_chain()
        an = analyze([P])
        report = check_pi_fair_structure(Policy(d=np.array([0.2, 0.8, 1.0, 0.0])), an)
        assert report["reconstruction_deviation"] > 0.1
        assert not report["structure_holds"]

    def test_dimension_mismatch(self):
        P, _ = four_state_chain()
        an = analyze([P])
        with pytest.raises(ValueError):
            check_pi_fair_structure(Policy(d=np.zeros(3)), an)

    def test_constant_shift_chain_multiple_classes(self):
        # A deterministic constant-shift counterfactual on a 4-cell score
        # (wrap-free, two shifted copies) gives several recurrent classes;
        # a policy constant per class but differing across classes passes.
        P_up = np.zeros((4, 4))
        P_up[0, 2] = 1.0
        P_up[1, 3] = 1.0
        P_up[2, 2] = 1.0
        P_up[3, 3] = 1.0
        P_id = np.eye(4)
        an = analyze([P_id, P_up])
        assert an.classes == ((2,), (3,))
        assert an.transient == (0, 1)
        d = np.array([0.4, 0.7, 0.4, 0.7])
        report = check_pi_fair_structure(Policy(d=d), an)
        assert report["max_policy_deviation"] <= 1e-12


class TestAdmissionsChain:
    def test_psf_solution_respects_structure(self):
        scm = admissions_scm()
        pi = PathSet(paths=(("A", "E", "T", "D"),))
        sample = draw_worlds(scm, pi, targets=[0, 1], n=50000, seed=1)
        d = discretize(scm, sample, Binning())
        res = solve_fair(d, FairnessSpec(kind="PSF"), lam=0.25, b=0.5)
        mats = [transition_matrix(d, a) for a in sorted(d.cf_mass)]
        an = analyze(mats)
        report = check_pi_fair_structure(res.policy, an)
        assert report["max_within_class_deviation"] <= 1e-9

    @pytest.mark.parametrize("width, seed", [(1.0, 1), (0.5, 3)])
    def test_psf_rank_is_states_minus_classes(self, width, seed):
        # Each PSF/CF row is mass_i (e_i - P_a'[i, :]), so the rows' solutions
        # are the harmonic vectors of the averaged chain, one per recurrent
        # class. These samples have 1 to 4 classes.
        sim = {"n": 20000, "seed": seed, "bin_width": width}
        config = cli.load_config(None, {("simulation", key): value for key, value in sim.items()})
        for d in cli.simulate(config):
            an = analyze([transition_matrix(d, a) for a in sorted(d.cf_mass)])
            assert np.linalg.matrix_rank(psf_rows(d).a) == d.n - len(an.classes)

    def test_stationarity_of_lp_solution(self):
        scm = admissions_scm()
        pi = PathSet(paths=(("A", "E", "T", "D"),))
        sample = draw_worlds(scm, pi, targets=[0, 1], n=50000, seed=1)
        d = discretize(scm, sample, Binning())
        res = solve_fair(d, FairnessSpec(kind="PSF"), lam=0.25, b=0.5)
        for a in sorted(d.cf_mass):
            P = transition_matrix(d, a)
            np.testing.assert_allclose(P @ res.policy.d, res.policy.d, atol=1e-8)
