import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from causalfair.dist import Binning, discretize, from_table, utility_table
from causalfair.errors import GroupMassZeroError, MultiGroupUnsupportedError
from causalfair.fairness import FairnessSpec, solve_fair
from causalfair.pareto import (
    Policy,
    ThresholdPolicy,
    _utility_atoms,
    dominance_gap,
    frontier,
    induced_policy,
    threshold_policy,
)
from causalfair.scm import PathSet, admissions_scm, draw_worlds


def three_atom_dist():
    """Group 0 only, three equal-mass atoms with r = 0, 0.5, 1."""
    rows = [
        (0, 1, 0, 0, 1 / 3),  # r = 0
        (0, 2, 0, 1, 1 / 6),
        (0, 2, 0, 0, 1 / 6),  # together r = 0.5 at bin 2
        (0, 3, 1, 1, 1 / 3),  # r = 1
    ]
    return from_table(rows)


def admissions_dist(n=20000, seed=1):
    scm = admissions_scm()
    pi = PathSet(paths=(("A", "E", "T", "D"),))
    sample = draw_worlds(scm, pi, targets=[0, 1], n=n, seed=seed)
    return discretize(scm, sample, Binning())


# The per-share sweep and the point loop that ``frontier`` and
# ``dominance_gap`` replaced, kept as their oracles: the array versions must
# reproduce every coordinate, quantile and gap exactly.


def _rows(front):
    """The sweep's rows as tuples of Python scalars, in ``frontier.csv`` order."""
    return list(zip(*(getattr(front, f.name).tolist() for f in dataclasses.fields(front))))


def _quantiles(front, k):
    return {0: front.quantile_a0[k], 1: front.quantile_a1[k]}


def _reference_cutoff(atoms, q):
    if q == 0:
        return np.inf, 0.0
    values, atom_w, cum_excl, cum_incl = atoms
    j = min(int(np.searchsorted(cum_incl, q - 1e-15)), len(values) - 1)
    return float(values[j]), float(np.clip((q - cum_excl[j]) / atom_w[j], 0.0, 1.0))


def _reference_threshold_policy(dist, utility, quantiles):
    cuts = {a: _reference_cutoff(_utility_atoms(dist, utility, a), q) for a, q in quantiles.items()}
    return ThresholdPolicy(
        thresholds={a: t for a, (t, _) in cuts.items()},
        at_threshold={a: at for a, (_, at) in cuts.items()},
    )


def _reference_induced_policy(dist, utility, tp):
    d = np.zeros(dist.n)
    for a, t in tp.thresholds.items():
        sel = dist.group == a
        d = np.where(sel & (utility.u > t), 1.0, d)
        d = np.where(sel & (utility.u == t), tp.at_threshold[a], d)
    return Policy(d=d)


def _reference_evaluate_policy(policy, dist):
    r = utility_table(dist, lam=0.0).r
    diversity = float(np.sum(policy.d * dist.mass * (dist.group == 1)))
    graduation = float(np.sum(policy.d * dist.mass * r))
    return diversity, graduation


def _reference_frontier(dist, b, resolution):
    """Rows (share, quantile_a0, quantile_a1, diversity, graduation, on_frontier)."""
    u0 = utility_table(dist, lam=0.0)
    p1, p0 = dist.group_mass(1), dist.group_mass(0)
    raw = []
    for k in range(resolution + 1):
        s = k / resolution
        q = {0: min(1.0, (1.0 - s) * b / p0), 1: min(1.0, s * b / p1)}
        policy = _reference_induced_policy(dist, u0, _reference_threshold_policy(dist, u0, q))
        raw.append((s, q, *_reference_evaluate_policy(policy, dist)))
    div_cut = raw[int(np.argmax([g for *_, g in raw]))][2]
    return [(s, q[0], q[1], v, g, v >= div_cut - 1e-12) for s, q, v, g in raw]


def _reference_dominance_gap(policy, dist, b, resolution):
    diversity, graduation = _reference_evaluate_policy(policy, dist)
    best = None
    best_min = 0.0
    for *_, v, g, _ in _reference_frontier(dist, b, resolution):
        dd = v - diversity
        dg = g - graduation
        if dd > 0 and dg > 0 and min(dd, dg) > best_min:
            best_min = min(dd, dg)
            best = (dd, dg)
    return best


unit = st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0))


@st.composite
def sweep_cases(draw):
    """A two-group distribution with 1-5 score bins per group, a budget, a
    resolution, per-group quantiles and a policy. Each cell's Y(1) = 1 share
    is one of five ratios, so utilities tie within and across groups; group
    1's cells are scaled so its mass falls below and above the budget."""
    scale = {0: 1.0, 1: draw(st.sampled_from([0.05, 0.3, 1.0, 4.0, 20.0]))}
    rows = []
    for g in (0, 1):
        for k in range(draw(st.integers(1, 5))):
            w0, w1 = draw(st.sampled_from([(1, 0), (0, 1), (1, 1), (2, 1), (1, 2)]))
            m = scale[g] * draw(st.floats(0.1, 10.0))
            rows += [(g, k, 0, 0, w0 * m), (g, k, 1, 1, w1 * m)]
    dist = from_table(rows)
    d = draw(st.lists(unit, min_size=dist.n, max_size=dist.n))
    return dist, draw(st.floats(0.05, 0.9)), draw(st.integers(2, 59)), {0: draw(unit), 1: draw(unit)}, d


class TestThresholdPolicy:
    def test_full_quantile_admits_all(self):
        d = three_atom_dist()
        util = utility_table(d, 0.0)
        tp = threshold_policy(d, util, {0: 1.0})
        pol = induced_policy(d, util, tp)
        np.testing.assert_allclose(pol.d, 1.0)

    def test_zero_quantile_admits_none(self):
        d = three_atom_dist()
        util = utility_table(d, 0.0)
        tp = threshold_policy(d, util, {0: 0.0})
        pol = induced_policy(d, util, tp)
        np.testing.assert_allclose(pol.d, 0.0)

    def test_half_quantile_hand_values(self):
        # Atoms with r in {0, 0.5, 1} and equal mass; q = 0.5 admits the
        # top atom fully and half of the middle one.
        d = three_atom_dist()
        util = utility_table(d, 0.0)
        tp = threshold_policy(d, util, {0: 0.5})
        assert tp.thresholds[0] == pytest.approx(0.5)
        assert tp.at_threshold[0] == pytest.approx(0.5)
        pol = induced_policy(d, util, tp)
        rate = float(np.sum(pol.d * d.mass))
        assert rate == pytest.approx(0.5, abs=1e-12)

    def test_rate_exactness_random_quantiles(self):
        d = admissions_dist(n=5000)
        util = utility_table(d, 0.0)
        rng = np.random.default_rng(3)
        edges = [{0: 0.0, 1: 1.0}, {0: 1.0, 1: 0.0}]
        for q in edges + [{0: float(rng.uniform(0, 1)), 1: float(rng.uniform(0, 1))} for _ in range(20)]:
            tp = threshold_policy(d, util, q)
            pol = induced_policy(d, util, tp)
            for a in (0, 1):
                sel = d.group == a
                rate = float(np.sum(pol.d[sel] * d.mass[sel])) / d.group_mass(a)
                assert rate == pytest.approx(q[a], abs=1e-10)

    def test_threshold_monotone_in_quantile(self):
        d = admissions_dist(n=5000)
        util = utility_table(d, 0.0)
        prev = np.inf
        for q in (0.1, 0.3, 0.5, 0.7, 0.9):
            t = threshold_policy(d, util, {0: q, 1: q}).thresholds[0]
            assert t <= prev
            prev = t

    def test_missing_group(self):
        d = three_atom_dist()
        util = utility_table(d, 0.0)
        with pytest.raises(GroupMassZeroError):
            threshold_policy(d, util, {1: 0.5})


class TestFrontier:
    def test_extreme_share_maximizes_diversity(self):
        d = admissions_dist()
        front = frontier(d, b=0.5, resolution=50)
        assert front.share[-1] == 1.0
        assert front.diversity[-1] == pytest.approx(front.diversity.max(), abs=1e-12)

    def test_budget_exhausting(self):
        d = admissions_dist()
        b = 0.5
        front = frontier(d, b, resolution=25)
        for k in range(len(front.share)):
            # Reconstruct the policy and check the spent budget equals
            # min(b, admissible mass) for the sweep's quantile split.
            util = utility_table(d, 0.0)
            quantiles = _quantiles(front, k)
            pol = induced_policy(d, util, threshold_policy(d, util, quantiles))
            spent = float(np.sum(pol.d * d.mass))
            expected = sum(quantiles[a] * d.group_mass(a) for a in (0, 1))
            assert spent == pytest.approx(expected, abs=1e-12)
            assert spent <= b + 1e-12

    def test_graduation_concave_past_peak(self):
        d = admissions_dist()
        grads = frontier(d, b=0.5, resolution=200).graduation
        peak = int(np.argmax(grads))
        after = grads[peak:]
        assert np.all(np.diff(after) <= 1e-12)

    def test_on_frontier_flags(self):
        d = admissions_dist()
        front = frontier(d, b=0.5, resolution=100)
        cut = front.diversity[int(np.argmax(front.graduation))]
        np.testing.assert_array_equal(front.on_frontier, front.diversity >= cut - 1e-12)

    def test_single_group_unsupported(self):
        d = three_atom_dist()
        with pytest.raises(MultiGroupUnsupportedError):
            frontier(d, b=0.5, resolution=10)


class TestReferenceSweep:
    @settings(max_examples=200, deadline=None)
    @given(sweep_cases())
    def test_matches_per_share_reference(self, case):
        dist, b, resolution, quantiles, d = case
        util = utility_table(dist, 0.0)
        tp = threshold_policy(dist, util, quantiles)
        assert repr(tp) == repr(_reference_threshold_policy(dist, util, quantiles))
        np.testing.assert_array_equal(induced_policy(dist, util, tp).d, _reference_induced_policy(dist, util, tp).d)

        front = frontier(dist, b, resolution)
        want = _reference_frontier(dist, b, resolution)
        assert _rows(front) == want
        assert repr(_rows(front)) == repr(want)

        # The reference counts any positive gain; the package drops a point
        # whose smaller gain is rounding noise, at most _SUM_TOL = 1e-12.
        policy = Policy(d=d)
        gap = dominance_gap(policy, dist, b, resolution)
        ref = _reference_dominance_gap(policy, dist, b, resolution)
        want = ref if ref and min(ref) > 1e-12 else None
        assert gap == want
        assert repr(gap) == repr(want)
        # Nothing in the sweep beats a point on the frontier, such as its best
        # graduation or its s = 1 diversity.
        peak, last = int(np.argmax(front.graduation)), resolution
        assert front.on_frontier[peak] and front.on_frontier[last]
        for k in range(resolution + 1):
            policy = induced_policy(dist, util, threshold_policy(dist, util, _quantiles(front, k)))
            if front.on_frontier[k]:
                assert dominance_gap(policy, dist, b, resolution) is None
            if k in (peak, last):
                assert _reference_dominance_gap(policy, dist, b, resolution) is None


class TestPolicy:
    @pytest.mark.parametrize("bad", [np.nan, -0.1, 1.1])
    def test_entry_outside_unit_interval_rejected(self, bad):
        with pytest.raises(ValueError):
            Policy(d=[bad, 0.5])

    def test_rounding_slack_clipped(self):
        np.testing.assert_array_equal(Policy(d=[-1e-13, 0.5, 1 + 1e-13]).d, [0.0, 0.5, 1.0])


class TestDominanceGap:
    def test_frontier_point_not_dominated(self):
        d = admissions_dist()
        front = frontier(d, b=0.5, resolution=50)
        quantiles = _quantiles(front, int(np.argmax(front.graduation)))
        util = utility_table(d, 0.0)
        pol = induced_policy(d, util, threshold_policy(d, util, quantiles))
        assert dominance_gap(pol, d, b=0.5, resolution=50) is None

    def test_constant_policy_dominated(self):
        d = admissions_dist()
        gap = dominance_gap(Policy(d=np.full(d.n, 0.5)), d, b=0.5)
        assert gap is not None
        assert gap[0] > 0 and gap[1] > 0

    def test_adversarial_policy_large_gap(self):
        # Admit only group 0's lowest-graduation bins up to the budget.
        d = admissions_dist()
        util = utility_table(d, 0.0)
        order = np.argsort(util.r + 1e6 * (d.group == 1))
        dd = np.zeros(d.n)
        spent = 0.0
        for i in order:
            take = min(1.0, (0.5 - spent) / d.mass[i])
            if take <= 0:
                break
            dd[i] = take
            spent += take * d.mass[i]
        gap = dominance_gap(Policy(d=dd), d, b=0.5)
        assert gap is not None and min(gap) > 0.01


class TestUtilityEquivariance:
    def test_group_bonus_preserves_within_group_order(self):
        d = admissions_dist(n=5000)
        for lam in (0.0, 0.25, 1.0):
            util = utility_table(d, lam)
            for a in (0, 1):
                sel = d.group == a
                base = utility_table(d, 0.0).u[sel]
                shifted = util.u[sel]
                order = np.argsort(base, kind="stable")
                assert np.all(np.diff(shifted[order]) >= -1e-12)

    def test_unconstrained_lp_matches_sweep(self):
        d = admissions_dist()
        for lam in (0.0, 0.25, 1.0):
            res = solve_fair(d, FairnessSpec(kind="none"), lam=lam, b=0.5)
            front = frontier(d, 0.5, resolution=400)
            best = np.max(front.graduation + lam * front.diversity)
            assert res.objective >= best - 1e-9
            assert res.objective <= best + 2e-3  # sweep grid resolution
