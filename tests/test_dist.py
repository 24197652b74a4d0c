import csv
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from causalfair.dist import (
    Binning,
    FiniteJointDistribution,
    build_distribution,
    discretize,
    from_table,
    load_tables,
    transition_matrix,
    utility_table,
    write_csv,
    write_pair_table,
    write_tables,
)
from causalfair.errors import (
    CausalFairError,
    DomainError,
    EmptyInputError,
    InconsistentMassError,
    NegativeMassError,
    ZeroMassError,
    ZeroRowError,
)
from causalfair.scm import PathSet, admissions_scm, draw_worlds


def tiny_dist():
    """Two points, equal mass, deterministic outcomes, swap counterfactual."""
    rows = [
        (0, 10, 0, 1, 0.5),
        (1, 20, 1, 1, 0.5),
    ]
    cf_rows = [
        (1, 0, 10, 1, 20, 0.5),
        (1, 1, 20, 1, 20, 0.5),
    ]
    return from_table(rows, cf_rows)


def _reference_build_distribution(group, bin_index, y0, y1, cf):
    """The per-draw implementation that ``build_distribution`` replaced, kept as its oracle."""
    n_draws = len(group)
    if n_draws == 0:
        raise EmptyInputError("no draws")

    keys = np.stack([group, bin_index], axis=1)
    support, inverse = np.unique(keys, axis=0, return_inverse=True)
    n = len(support)

    counts = np.bincount(inverse, minlength=n).astype(np.float64)
    om_counts = np.zeros((n, 2, 2))
    np.add.at(om_counts, (inverse, np.asarray(y0), np.asarray(y1)), 1.0)

    point_of = {(int(g), int(b)): i for i, (g, b) in enumerate(support)}
    by_group = {}
    for i, (g, b) in enumerate(support):
        by_group.setdefault(int(g), []).append((int(b), i))

    def locate(g, b):
        hit = point_of.get((g, b))
        if hit is not None:
            return hit
        candidates = by_group.get(g)
        if not candidates:
            raise EmptyInputError(f"counterfactual group {g} never observed factually")
        return min(candidates, key=lambda pair: (abs(pair[0] - b), pair[0]))[1]

    cf_mass = {}
    for aprime, (cf_group, cf_bin) in cf.items():
        mat = np.zeros((n, n))
        cols = np.array([locate(int(g), int(b)) for g, b in zip(cf_group, cf_bin)])
        np.add.at(mat, (inverse, cols), 1.0)
        cf_mass[aprime] = mat / n_draws

    return FiniteJointDistribution(
        group=support[:, 0],
        bin=support[:, 1],
        mass=counts / n_draws,
        outcome_mass=om_counts / n_draws,
        cf_mass=cf_mass,
    )


def _reference_from_table(rows, cf_rows=None):
    """The dict-per-row implementation that ``from_table`` replaced, kept as its oracle."""
    rows = list(rows)
    if not rows:
        raise EmptyInputError("no rows")

    agg = {}
    for g, b, y0, y1, m in rows:
        m = float(m)
        if m < 0:
            raise NegativeMassError(f"negative mass in row {(g, b, y0, y1, m)}")
        key = (int(g), int(b))
        cell = agg.setdefault(key, np.zeros((2, 2)))
        cell[y0, y1] += m

    support = sorted(agg)
    total = sum(cell.sum() for cell in agg.values())
    if total <= 0:
        raise ZeroMassError("table has zero total mass")

    n = len(support)
    om = np.zeros((n, 2, 2))
    for i, key in enumerate(support):
        om[i] = agg[key] / total
    mass = om.sum(axis=(1, 2))

    cf_mass = {}
    if cf_rows:
        point_of = {key: i for i, key in enumerate(support)}
        for aprime, ig, ib, jg, jb, m in cf_rows:
            m = float(m)
            if m < 0:
                raise NegativeMassError("negative counterfactual mass")
            mat = cf_mass.setdefault(int(aprime), np.zeros((n, n)))
            try:
                mat[point_of[(int(ig), int(ib))], point_of[(int(jg), int(jb))]] += m / total
            except KeyError as exc:
                raise InconsistentMassError(f"counterfactual row references unknown point: {exc}")

    return FiniteJointDistribution(
        group=np.array([g for g, _ in support]),
        bin=np.array([b for _, b in support]),
        mass=mass,
        outcome_mass=om,
        cf_mass=cf_mass,
    )


def assert_same_distribution(got, want, rtol):
    """Equal support and cf keys; every mass array equal within ``rtol``."""
    np.testing.assert_array_equal(got.group, want.group)
    np.testing.assert_array_equal(got.bin, want.bin)
    np.testing.assert_allclose(got.mass, want.mass, rtol=rtol, atol=0)
    np.testing.assert_allclose(got.outcome_mass, want.outcome_mass, rtol=rtol, atol=0)
    assert sorted(got.cf_mass) == sorted(want.cf_mass)
    for aprime, mat in want.cf_mass.items():
        np.testing.assert_allclose(got.cf_mass[aprime], mat, rtol=rtol, atol=0)


def _reference_write_csv(path, header, rows):
    """The per-cell writer that ``write_csv`` replaced: through ``csv.writer``,
    floats by ``repr`` and every other cell as an int."""

    def cell(x):
        return repr(float(x)) if isinstance(x, (float, np.floating)) else int(x)

    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows([cell(x) for x in row] for row in rows)


def _reference_write_tables(dist, mass_path, cf_path):
    """``write_tables`` as it was: one row tuple per nonzero entry."""
    rows = (
        (dist.group[i], dist.bin[i], y0, y1, dist.outcome_mass[i, y0, y1])
        for i, y0, y1 in zip(*np.nonzero(dist.outcome_mass > 0))
    )
    _reference_write_csv(mass_path, ["group", "bin", "y0", "y1", "mass"], rows)
    rows = (
        (aprime, dist.group[i], dist.bin[i], dist.group[j], dist.bin[j], mat[i, j])
        for aprime, mat in sorted(dist.cf_mass.items())
        for i, j in zip(*np.nonzero(mat))
    )
    _reference_write_csv(cf_path, ["aprime", "i_group", "i_bin", "j_group", "j_bin", "mass"], rows)


@st.composite
def csv_columns(draw):
    """1-5 equal-length int64, bool or float64 columns of 0-20 rows: ints up
    to 2**62 in magnitude, and floats that include 1e-05, 1e16, the smallest
    subnormal and -0.0."""
    kinds = {
        np.int64: st.integers(-(2**62), 2**62),
        np.bool_: st.booleans(),
        np.float64: st.one_of(st.sampled_from([1e-05, 1e16, 5e-324, -0.0]), st.floats()),
    }
    rows = draw(st.integers(0, 20))
    return [
        np.array(draw(st.lists(kinds[dtype], min_size=rows, max_size=rows)), dtype=dtype)
        for dtype in draw(st.lists(st.sampled_from(list(kinds)), min_size=1, max_size=5))
    ]


@st.composite
def table_rows(draw):
    """Mass and cf rows over 1-10 (group, bin) points with gapped and negative
    bins, outcomes 0 and 1 and 0-3 aprime values, some masses zero. Points
    repeat across mass rows, and each mass row gives one cf row per aprime to
    a random point, so cf rows repeat too; both tables come shuffled."""
    cells = st.tuples(st.integers(-1, 2), st.sampled_from([-7, -4, -3, 0, 2, 6, 9]))
    points = draw(st.lists(cells, min_size=1, max_size=10, unique=True))
    masses = st.one_of(st.just(0.0), st.floats(1e-3, 10.0))
    y = st.sampled_from((0, 1))
    rows = [
        (g, b, draw(y), draw(y), draw(masses))
        for g, b in points + draw(st.lists(st.sampled_from(points), max_size=10))
    ]
    aprimes = draw(st.lists(st.integers(0, 2), max_size=3, unique=True))
    cf_rows = [
        (a, g, b, *draw(st.sampled_from(points)), m) for a in aprimes for g, b, _, _, m in rows
    ]
    return draw(st.permutations(rows)), draw(st.permutations(cf_rows))


@st.composite
def draw_arrays(draw):
    """Per-draw inputs with 1-3 groups, gapped and negative bins, and
    counterfactual bins in unobserved cells, beyond the factual range and
    halfway between two observed bins."""
    n_groups = draw(st.integers(1, 3))
    g_lo = draw(st.integers(-1, 2))
    n_draws = draw(st.integers(1, 60))

    def ints(elements):
        return np.array(draw(st.lists(elements, min_size=n_draws, max_size=n_draws)), dtype=np.int64)

    group = ints(st.integers(g_lo, g_lo + n_groups - 1))
    bins = ints(st.sampled_from([-7, -4, -3, 0, 2, 6, 9]))
    y0 = ints(st.sampled_from((0, 1)))
    y1 = ints(st.sampled_from((0, 1)))
    observed = st.sampled_from(sorted(set(group.tolist())))
    cf = {
        aprime: (ints(observed), ints(st.integers(-10, 12)))
        for aprime in draw(st.sets(st.integers(0, 2), max_size=2))
    }
    return group, bins, y0, y1, cf


class TestBinning:
    def test_basic_indexing(self):
        b = Binning(width=1.0, lo=0.0, hi=100.0)
        idx = b.index(np.array([-3.0, 0.0, 0.4, 59.0, 99.5, 100.0, 250.0]))
        np.testing.assert_array_equal(idx, [0, 0, 0, 59, 99, 99, 99])

    def test_width_two(self):
        b = Binning(width=2.0, lo=0.0, hi=10.0)
        np.testing.assert_array_equal(b.index(np.array([0.0, 1.9, 2.0, 10.0])), [0, 0, 1, 4])

    def test_bad_width(self):
        with pytest.raises(ValueError):
            Binning(width=0.0)


class TestBuildDistribution:
    def test_single_draw(self):
        d = build_distribution(
            group=np.array([1]),
            bin_index=np.array([59]),
            y0=np.array([1]),
            y1=np.array([1]),
            cf={0: (np.array([1]), np.array([59]))},
        )
        assert d.n == 1
        assert d.mass[0] == 1.0
        assert d.outcome_mass[0, 1, 1] == 1.0
        assert d.cf_mass[0][0, 0] == 1.0

    def test_aggregation(self):
        # Three draws, two in the same cell.
        d = build_distribution(
            group=np.array([0, 0, 1]),
            bin_index=np.array([5, 5, 7]),
            y0=np.array([0, 1, 0]),
            y1=np.array([1, 1, 0]),
            cf={},
        )
        assert d.n == 2
        np.testing.assert_allclose(np.sort(d.mass), [1 / 3, 2 / 3])
        assert d.mass.sum() == pytest.approx(1.0)
        np.testing.assert_allclose(d.outcome_mass.sum(axis=(1, 2)), d.mass)

    def test_empty_raises(self):
        with pytest.raises(EmptyInputError):
            build_distribution(np.array([]), np.array([]), np.array([]), np.array([]), {})

    def test_cf_snaps_to_nearest_observed_bin(self):
        # Counterfactual bin 9 was never observed; nearest factual bin in
        # group 0 is 8, so the mass lands there and row sums stay exact.
        d = build_distribution(
            group=np.array([0, 0]),
            bin_index=np.array([3, 8]),
            y0=np.array([0, 0]),
            y1=np.array([0, 0]),
            cf={1: (np.array([0, 0]), np.array([3, 9]))},
        )
        rows = d.cf_mass[1].sum(axis=1)
        np.testing.assert_allclose(rows, d.mass)
        j8 = int(np.flatnonzero(d.bin == 8)[0])
        assert d.cf_mass[1][j8, j8] == pytest.approx(0.5)

    def test_cf_snap_tie_goes_to_smaller_bin(self):
        # Bin 4 is two bins from both 2 and 6; bin 9 lies past the factual range.
        d = build_distribution(
            group=np.array([0, 0]),
            bin_index=np.array([2, 6]),
            y0=np.array([0, 0]),
            y1=np.array([0, 0]),
            cf={1: (np.array([0, 0]), np.array([4, 9]))},
        )
        np.testing.assert_array_equal(d.cf_mass[1], [[0.5, 0.0], [0.0, 0.5]])

    def test_cf_group_without_factual_draws_raises(self):
        for cf_group in (1, 3):  # inside and outside the factual group range
            with pytest.raises(EmptyInputError, match=f"group {cf_group} never observed"):
                build_distribution(
                    group=np.array([0, 2]),
                    bin_index=np.array([3, 4]),
                    y0=np.array([0, 0]),
                    y1=np.array([0, 0]),
                    cf={1: (np.array([0, cf_group]), np.array([3, 4]))},
                )

    def test_unknown_outcome_value_raises(self):
        with pytest.raises(DomainError, match="outcome value 7"):
            build_distribution(
                group=np.array([0, 0]),
                bin_index=np.array([3, 4]),
                y0=np.array([0, 1]),
                y1=np.array([1, 7]),
                cf={},
            )

    @pytest.mark.parametrize("value", [2, -1, 0.5])
    @pytest.mark.parametrize("which", ["y0", "y1"])
    def test_non_binary_outcome_raises(self, which, value):
        # 0.5 is checked as given, not truncated to 0 by an integer cast.
        y = {"y0": np.array([0, 1]), "y1": np.array([1, 0])}
        y[which] = np.array([1, value])
        with pytest.raises(DomainError, match=f"outcome value {value!r} "):
            build_distribution(np.array([0, 0]), np.array([3, 4]), cf={}, **y)

    @settings(max_examples=300, deadline=None)
    @given(draw_arrays())
    def test_matches_per_draw_reference(self, arrays):
        group, bins, y0, y1, cf = arrays
        got = build_distribution(group, bins, y0, y1, cf)
        want = _reference_build_distribution(group, bins, y0, y1, cf)
        for name in ("group", "bin", "mass", "outcome_mass"):
            assert getattr(got, name).tobytes() == getattr(want, name).tobytes(), name
        assert list(got.cf_mass) == list(want.cf_mass)
        for aprime, mat in want.cf_mass.items():
            assert got.cf_mass[aprime].tobytes() == mat.tobytes(), aprime


class TestFromTable:
    @settings(max_examples=300, deadline=None)
    @given(table_rows())
    def test_matches_dict_reference(self, tables):
        rows, cf_rows = tables
        try:
            want = _reference_from_table(rows, cf_rows)
        except CausalFairError as exc:
            with pytest.raises(type(exc)):
                from_table(rows, cf_rows)
            return
        assert_same_distribution(from_table(rows, cf_rows), want, rtol=1e-14)

    @pytest.mark.parametrize("value", [2, -1, 0.5])
    def test_non_binary_outcome_raises(self, value):
        for row in ((0, 2, value, 1, 1.0), (0, 2, 0, value, 1.0)):
            with pytest.raises(DomainError, match=f"outcome value {value!r} "):
                from_table([(0, 1, 0, 0, 1.0), row])

    @pytest.mark.parametrize("shape", [(2, 3, 3), (2, 2, 1), (2, 4), (1, 2, 2)])
    def test_outcome_mass_must_be_two_by_two(self, shape):
        outcome_mass = np.zeros(shape)
        outcome_mass.reshape(len(outcome_mass), -1)[:, 0] = 1 / len(outcome_mass)
        with pytest.raises(InconsistentMassError, match="shape"):
            FiniteJointDistribution(group=[0, 1], bin=[1, 2], mass=[0.5, 0.5], outcome_mass=outcome_mass)

    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")  # inf / inf
    def test_non_finite_mass(self):
        rows = [(0, 1, 0, 0, 1.0), (0, 2, 0, 0, 1.0)]
        for bad in (np.nan, np.inf):
            with pytest.raises(DomainError, match="non-finite"):
                from_table([rows[0], (0, 2, 0, 0, bad)])
            with pytest.raises(DomainError, match="non-finite"):
                from_table(rows, [(1, 0, 1, 0, 1, 1.0), (1, 0, 2, 0, 2, bad)])
            with pytest.raises(DomainError, match="non-finite"):
                FiniteJointDistribution(
                    group=[0, 0], bin=[1, 2], mass=[1.0, bad], outcome_mass=[[[1.0]], [[bad]]]
                )

    def test_far_apart_bins(self):
        # The dense key table would have 2**30 cells; it is refused, not allocated.
        with pytest.raises(DomainError, match="more than 2"):
            from_table([(0, 0, 0, 0, 1.0), (0, 2**30, 0, 0, 1.0)])

    def test_normalization(self):
        d = from_table([(0, 1, 0, 0, 2.0), (1, 2, 1, 1, 2.0)])
        np.testing.assert_allclose(d.mass, [0.5, 0.5])

    def test_zero_total(self):
        with pytest.raises(ZeroMassError):
            from_table([(0, 1, 0, 0, 0.0)])

    def test_negative_mass(self):
        with pytest.raises(NegativeMassError):
            from_table([(0, 1, 0, 0, -1.0)])

    def test_cf_row_unknown_point(self):
        with pytest.raises(InconsistentMassError):
            from_table([(0, 1, 0, 0, 1.0)], [(1, 0, 1, 0, 99, 1.0)])

    def test_cf_row_sums_checked(self):
        with pytest.raises(InconsistentMassError):
            from_table(
                [(0, 1, 0, 0, 1.0), (0, 2, 0, 0, 1.0)],
                [(1, 0, 1, 0, 1, 1.0)],  # second row has no counterfactual mass
            )


class TestTransitionMatrix:
    def test_identity_when_cf_equals_factual(self):
        rows = [(0, 1, 0, 0, 0.25), (1, 2, 0, 0, 0.75)]
        cf_rows = [(0, 0, 1, 0, 1, 0.25), (0, 1, 2, 1, 2, 0.75)]
        d = from_table(rows, cf_rows)
        np.testing.assert_allclose(transition_matrix(d, 0), np.eye(2))

    def test_deterministic_swap(self):
        d = tiny_dist()
        p = transition_matrix(d, 1)
        np.testing.assert_allclose(p, [[0.0, 1.0], [0.0, 1.0]])

    def test_rows_stochastic(self):
        d = tiny_dist()
        np.testing.assert_allclose(transition_matrix(d, 1).sum(axis=1), 1.0)


class TestUtilityTable:
    def test_hand_values(self):
        # Point 0: Pr(Y(1)=1 | x) = 1, group 0. Point 1: same but group 1.
        d = tiny_dist()
        t = utility_table(d, lam=0.25)
        np.testing.assert_allclose(t.r, [1.0, 1.0])
        np.testing.assert_allclose(t.u, [1.0, 1.25])

    def test_lambda_zero(self):
        d = tiny_dist()
        t = utility_table(d, lam=0.0)
        np.testing.assert_allclose(t.u, t.r)

    def test_mixed_outcomes(self):
        d = from_table([(0, 1, 0, 0, 0.25), (0, 1, 0, 1, 0.25), (1, 5, 1, 1, 0.5)])
        t = utility_table(d, lam=0.25)
        np.testing.assert_allclose(t.r, [0.5, 1.0])

    def test_negative_lambda(self):
        with pytest.raises(ValueError):
            utility_table(tiny_dist(), lam=-0.1)


class TestDiscretize:
    def test_admissions_round_trip_invariants(self):
        scm = admissions_scm()
        pi = PathSet(paths=(("A", "E", "T", "D"),))
        sample = draw_worlds(scm, pi, targets=[0, 1], n=20000, seed=9)
        d = discretize(scm, sample, Binning(width=1.0, lo=0.0, hi=100.0))
        assert d.mass.sum() == pytest.approx(1.0, abs=1e-12)
        for aprime in (0, 1):
            np.testing.assert_allclose(d.cf_mass[aprime].sum(axis=1), d.mass, atol=1e-12)
        # Both groups present, with the smaller group near one third.
        assert d.group_mass(1) == pytest.approx(1 / 3, abs=0.02)

    def test_cf_for_own_group_is_diagonal(self):
        # Draws already in the target group keep their factual bin, so all
        # of that group's counterfactual mass sits on the diagonal.
        scm = admissions_scm()
        pi = PathSet(paths=(("A", "E", "T", "D"),))
        sample = draw_worlds(scm, pi, targets=[1], n=5000, seed=17)
        d = discretize(scm, sample, Binning())
        mat = d.cf_mass[1]
        in_group = d.group == 1
        off_diag = mat[in_group] - np.diag(np.diag(mat))[in_group]
        np.testing.assert_allclose(np.diag(mat)[in_group], d.mass[in_group], atol=1e-12)


class TestCsvWriter:
    @settings(max_examples=200, deadline=None)
    @given(csv_columns())
    def test_same_bytes_as_per_cell_reference(self, columns):
        header = [f"c{k}" for k in range(len(columns))]
        with tempfile.TemporaryDirectory() as tmp:
            got, want = Path(tmp, "got.csv"), Path(tmp, "want.csv")
            write_csv(got, header, columns)
            _reference_write_csv(want, header, zip(*columns))
            assert got.read_bytes() == want.read_bytes()

    def test_no_counterfactual_masses_is_header_only(self, tmp_path):
        d = from_table([(0, 10, 0, 1, 0.5), (1, 20, 1, 1, 0.5)])
        write_tables(d, tmp_path / "mass.csv", tmp_path / "cf.csv")
        write_pair_table(tmp_path / "p.csv", d, d.cf_mass, "p")
        assert (tmp_path / "cf.csv").read_bytes() == b"aprime,i_group,i_bin,j_group,j_bin,mass\r\n"
        assert (tmp_path / "p.csv").read_bytes() == b"aprime,i_group,i_bin,j_group,j_bin,p\r\n"


class TestCsvRoundTrip:
    @settings(max_examples=100, deadline=None)
    @given(draw_arrays())
    def test_write_then_load_property(self, arrays):
        group, bins, y0, y1, cf = arrays
        d = build_distribution(group, bins, y0, y1, cf)
        with tempfile.TemporaryDirectory() as tmp:
            mass_path, cf_path = Path(tmp, "mass.csv"), Path(tmp, "cf.csv")
            write_tables(d, mass_path, cf_path)
            assert_same_distribution(load_tables(mass_path, cf_path), d, 1e-14)
            _reference_write_tables(d, Path(tmp, "mass_ref.csv"), Path(tmp, "cf_ref.csv"))
            for path in (mass_path, cf_path):
                assert path.read_bytes() == path.with_stem(path.stem + "_ref").read_bytes()

    def test_write_then_load(self, tmp_path):
        d = tiny_dist()
        mass_path = tmp_path / "mass.csv"
        cf_path = tmp_path / "cf.csv"
        write_tables(d, mass_path, cf_path)
        d2 = load_tables(mass_path, cf_path)
        np.testing.assert_array_equal(d2.group, d.group)
        np.testing.assert_array_equal(d2.bin, d.bin)
        np.testing.assert_allclose(d2.mass, d.mass)
        np.testing.assert_allclose(d2.outcome_mass, d.outcome_mass)
        np.testing.assert_allclose(d2.cf_mass[1], d.cf_mass[1])

    def test_round_trip_tight(self, tmp_path):
        # repr() preserves each float bit for bit; the only drift is the
        # renormalization by the re-accumulated total, which is a single ulp.
        scm = admissions_scm()
        pi = PathSet(paths=(("A", "E", "T", "D"),))
        sample = draw_worlds(scm, pi, targets=[0, 1], n=2000, seed=4)
        d = discretize(scm, sample, Binning())
        mass_path = tmp_path / "mass.csv"
        cf_path = tmp_path / "cf.csv"
        write_tables(d, mass_path, cf_path)
        d2 = load_tables(mass_path, cf_path)
        np.testing.assert_allclose(d2.mass, d.mass, rtol=1e-14, atol=0)
        np.testing.assert_allclose(d2.cf_mass[0], d.cf_mass[0], rtol=1e-14, atol=0)
