"""Finite joint distributions over binned covariates, potential outcomes,
and path-specific counterfactual covariates.

A support point is a (group, bin) pair. All probability tables are stored as
joint masses so downstream constraint builders never divide by small
conditionals: ``mass[i]`` is Pr(X = x_i), ``outcome_mass[i, j0, j1]`` is
Pr(X = x_i, Y(0) = y_j0, Y(1) = y_j1), and ``cf_mass[a'][i, j]`` is
Pr(X = x_i, X_cf(a') = x_j).
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field

import numpy as np

from . import scm as scm_mod
from .errors import (
    ConfigError,
    DomainError,
    EmptyInputError,
    InconsistentMassError,
    NegativeMassError,
    ZeroMassError,
    ZeroRowError,
)

__all__ = [
    "FiniteJointDistribution",
    "UtilityTable",
    "Binning",
    "discretize",
    "build_distribution",
    "from_table",
    "transition_matrix",
    "utility_table",
    "load_tables",
    "write_tables",
    "read_csv",
    "write_csv",
    "write_pair_table",
]

_SUM_TOL = 1e-12


@dataclass(frozen=True)
class Binning:
    width: float = 1.0
    lo: float = 0.0
    hi: float = 100.0

    def __post_init__(self):
        if self.width <= 0:
            raise ValueError("bin width must be positive")
        if self.lo >= self.hi:
            raise ValueError("lo must be below hi")

    def index(self, t: np.ndarray) -> np.ndarray:
        clipped = np.clip(t, self.lo, self.hi)
        idx = np.floor((clipped - self.lo) / self.width).astype(np.int64)
        nbins = int(np.ceil((self.hi - self.lo) / self.width))
        return np.minimum(idx, nbins - 1)  # hi lands in the last bin


@dataclass
class FiniteJointDistribution:
    """Finite support with point, outcome, and counterfactual masses."""

    group: np.ndarray  # (n,) int group index per support point
    bin: np.ndarray  # (n,) int covariate bin per support point
    mass: np.ndarray  # (n,) float
    outcome_mass: np.ndarray  # (n, k, k) float over (y0, y1) outcome indices
    outcomes: tuple = (0, 1)
    cf_mass: dict = field(default_factory=dict)  # group value -> (n, n) float
    groups: tuple = ("a0", "a1")

    def __post_init__(self):
        self.group = np.asarray(self.group, dtype=np.int64)
        self.bin = np.asarray(self.bin, dtype=np.int64)
        self.mass = np.asarray(self.mass, dtype=np.float64)
        self.outcome_mass = np.asarray(self.outcome_mass, dtype=np.float64)
        self.validate()

    @property
    def n(self) -> int:
        return len(self.mass)

    def validate(self):
        tables = (self.mass, self.outcome_mass, *self.cf_mass.values())
        if not all(np.isfinite(t).all() for t in tables):
            raise DomainError("non-finite probability mass")
        if min(t.min(initial=np.inf) for t in tables) < 0:
            raise NegativeMassError("negative probability mass")
        if abs(self.mass.sum() - 1.0) > _SUM_TOL:
            raise InconsistentMassError("point masses do not sum to 1")
        om = self.outcome_mass.sum(axis=(1, 2))
        if np.max(np.abs(om - self.mass)) > _SUM_TOL:
            raise InconsistentMassError("outcome masses do not marginalize to point masses")
        for aprime, cf in self.cf_mass.items():
            if cf.shape != (self.n, self.n):
                raise InconsistentMassError(f"cf_mass[{aprime}] has wrong shape")
            rows = cf.sum(axis=1)
            if np.max(np.abs(rows - self.mass)) > _SUM_TOL:
                raise InconsistentMassError(
                    f"cf_mass[{aprime}] rows do not marginalize to point masses"
                )

    def group_mass(self, a: int) -> float:
        return float(self.mass[self.group == a].sum())

    def y1_joint(self) -> np.ndarray:
        """(n, k) array of Pr(X = x_i, Y(1) = y_j)."""
        return self.outcome_mass.sum(axis=1)

    def y0_joint(self) -> np.ndarray:
        return self.outcome_mass.sum(axis=2)


@dataclass(frozen=True)
class UtilityTable:
    """Per-point utilities u = r + lambda * 1{group = target}."""

    lam: float
    u: np.ndarray
    r: np.ndarray


def build_distribution(
    group: np.ndarray,
    bin_index: np.ndarray,
    y0: np.ndarray,
    y1: np.ndarray,
    cf: dict,
    outcomes=(0, 1),
    groups=("a0", "a1"),
) -> FiniteJointDistribution:
    """Aggregate per-draw arrays into empirical joint masses.

    ``cf`` maps each target group value to a pair of arrays (counterfactual
    group component, counterfactual bin) aligned with the factual draws, so
    counterfactual masses are joint frequencies computed from the same draw.

    Counterfactual draws can land in a cell never observed factually (a
    finite-sample tail artifact). A snap table over the factual G x span range
    of cells sends each one to the nearest factually observed bin in the same
    group, ties to the smaller bin, so row sums stay exact; bins outside the
    factual range snap like the range's end bins. A counterfactual group with
    no factual draws raises ``EmptyInputError``, and an outcome value missing
    from ``outcomes`` raises ``DomainError``.
    """
    n_draws = len(group)
    k = len(outcomes)
    support_group, support_bin, inverse, lookup = _support_index(group, bin_index)
    n = len(support_group)

    flat = (inverse * k + _outcome_index(y0, outcomes)) * k + _outcome_index(y1, outcomes)
    om_counts = np.bincount(flat, minlength=n * k * k).reshape(n, k, k)

    bins = np.arange(support_bin.min(), support_bin.max() + 1)
    snap = _snap_table(lookup(np.arange(support_group[0], support_group[-1] + 1)[:, None], bins))
    cf_mass = {}
    for aprime, (cf_group, cf_bin) in cf.items():
        cols = lookup(cf_group, np.clip(cf_bin, bins[0], bins[-1]), snap)
        if np.any(cols < 0):
            g = int(np.asarray(cf_group)[np.argmax(cols < 0)])
            raise EmptyInputError(f"counterfactual group {g} never observed factually")
        cf_mass[aprime] = np.bincount(inverse * n + cols, minlength=n * n).reshape(n, n) / n_draws

    return FiniteJointDistribution(
        group=support_group,
        bin=support_bin,
        mass=om_counts.sum(axis=(1, 2)) / n_draws,
        outcome_mass=om_counts / n_draws,
        outcomes=tuple(outcomes),
        cf_mass=cf_mass,
        groups=tuple(groups),
    )


def _support_index(group, bin_index):
    """The package's one map from (group, bin) cells to support indices.

    A cell's dense key is ``(g - g_lo) * span + (b - b_lo)`` over the G x span
    range of the input cells, so ascending keys are the (group, bin) order; no
    cells raise ``EmptyInputError``. Returns the sorted support's groups and
    bins, each input's support index, and ``lookup(g, b)``: each cell's support
    index, -1 if absent or out of range (``table=`` reads another G x span table).
    """
    group, bin_index = np.asarray(group, dtype=np.int64), np.asarray(bin_index, dtype=np.int64)
    if len(group) == 0:
        raise EmptyInputError("no (group, bin) cells")
    g_lo, b_lo = int(group.min()), int(bin_index.min())
    shape = (int(group.max()) - g_lo + 1, int(bin_index.max()) - b_lo + 1)
    if shape[0] * shape[1] > 2**24:  # a table of far-apart cells would not fit in memory
        raise DomainError(f"(group, bin) range {shape} spans more than 2**24 cells")
    cell = (group - g_lo) * shape[1] + (bin_index - b_lo)
    observed = np.flatnonzero(np.bincount(cell, minlength=shape[0] * shape[1]))
    point = np.full(shape, -1, dtype=np.int64)
    point.flat[observed] = np.arange(len(observed))

    def lookup(g, b, table=point):
        g, b = np.asarray(g, dtype=np.int64) - g_lo, np.asarray(b, dtype=np.int64) - b_lo
        inside = (g >= 0) & (g < shape[0]) & (b >= 0) & (b < shape[1])
        return np.where(inside, table.ravel()[(g * shape[1] + b) * inside], -1)

    return observed // shape[1] + g_lo, observed % shape[1] + b_lo, point.ravel()[cell], lookup


def _outcome_index(y, outcomes) -> np.ndarray:
    """Position of each draw's value in ``outcomes``; unknown values raise."""
    y = np.asarray(y)
    index = np.full(y.shape, -1, dtype=np.int64)
    for j, value in enumerate(outcomes):
        index[y == value] = j
    if np.any(index < 0):
        missing = y[index < 0].tolist()[0]
        raise DomainError(f"outcome value {missing!r} not in outcomes {tuple(outcomes)}")
    return index


def _snap_table(grid: np.ndarray) -> np.ndarray:
    """Support index of the nearest observed bin in each cell's group.

    ``grid[g, b]`` is the support index of cell (g, b), or -1 when the cell
    was never observed. An unobserved cell takes the closer of the nearest
    observed bins to its left and right, the left one on a tie; every cell of
    a group with no observed bin stays -1.
    """
    span = grid.shape[1]
    pos = np.arange(span)
    seen = grid >= 0
    left = np.maximum.accumulate(np.where(seen, pos, -1), axis=1)
    right = np.minimum.accumulate(np.where(seen, pos, span)[:, ::-1], axis=1)[:, ::-1]
    use_left = (left >= 0) & ((right == span) | (pos - left <= right - pos))
    nearest = np.where(use_left, left, np.minimum(right, span - 1))
    return np.take_along_axis(grid, nearest, axis=1)


def discretize(
    scm: "scm_mod.Scm",
    sample: "scm_mod.WorldSample",
    pi: "scm_mod.PathSet",
    binning: Binning,
) -> FiniteJointDistribution:
    """Bin a Monte Carlo sample into a finite joint distribution.

    The score is the non-group decision parent; counterfactual covariates
    follow the path-specific propagation rule for the decision's inputs.
    """
    score_nodes = [p for p in scm.decision_parents if p != scm.group_node]
    if len(score_nodes) != 1:
        raise ValueError("expected exactly one non-group decision parent")
    score_node = score_nodes[0]

    group = sample.factual[scm.group_node]
    bins = binning.index(sample.factual[score_node])
    y0, y1 = scm_mod.potential_outcomes(scm, sample)

    cf = {}
    for target in sample.counterfactual:
        inputs = scm_mod.counterfactual_covariates(scm, sample, pi, target)
        cf[target] = (inputs[scm.group_node], binning.index(inputs[score_node]))

    return build_distribution(group, bins, y0, y1, cf, groups=scm.groups)


def from_table(rows, cf_rows=None, outcomes=(0, 1), groups=("a0", "a1")) -> FiniteJointDistribution:
    """Build a distribution from explicit (group, bin, y0, y1, mass) rows.

    ``cf_rows``, when given, holds (aprime, i_group, i_bin, j_group, j_bin,
    mass) entries; both tables are normalized by the same total. An outcome
    value missing from ``outcomes`` raises ``DomainError``.
    """
    table = np.array(list(rows), dtype=object).reshape(-1, 5)
    g, b, y0, y1, m = table.T
    m = m.astype(np.float64)
    if np.any(m < 0):
        raise NegativeMassError(f"negative mass in row {tuple(table[np.argmax(m < 0)])}")
    k = len(outcomes)
    support_group, support_bin, point, lookup = _support_index(g, b)
    n = len(support_group)
    flat = (point * k + _outcome_index(y0, outcomes)) * k + _outcome_index(y1, outcomes)
    om = np.bincount(flat, weights=m, minlength=n * k * k).reshape(n, k, k)
    total = om.sum()
    if total <= 0:
        raise ZeroMassError("table has zero total mass")
    om /= total

    cf_table = np.array(list(cf_rows or ()), dtype=object).reshape(-1, 6)
    aprime, ig, ib, jg, jb, cm = cf_table.T
    aprime, cm = aprime.astype(np.int64), cm.astype(np.float64)
    if np.any(cm < 0):
        raise NegativeMassError("negative counterfactual mass")
    i, j = lookup(ig, ib), lookup(jg, jb)
    if np.any((i < 0) | (j < 0)):
        bad = tuple(cf_table[np.argmax((i < 0) | (j < 0))])
        raise InconsistentMassError(f"counterfactual row references unknown point: {bad}")
    cf_mass = {}
    for a in np.unique(aprime):
        on = aprime == a
        cf_mass[int(a)] = np.bincount(i[on] * n + j[on], cm[on] / total, n * n).reshape(n, n)

    return FiniteJointDistribution(
        group=support_group,
        bin=support_bin,
        mass=om.sum(axis=(1, 2)),
        outcome_mass=om,
        outcomes=tuple(outcomes),
        cf_mass=cf_mass,
        groups=tuple(groups),
    )


def transition_matrix(dist: FiniteJointDistribution, aprime: int) -> np.ndarray:
    """Row-stochastic matrix P[i, j] = Pr(X_cf(a') = x_j | X = x_i)."""
    if np.any(dist.mass <= 0):
        raise ZeroRowError("every support point needs positive mass")
    if aprime not in dist.cf_mass:
        raise KeyError(f"no counterfactual masses for group value {aprime}")
    return dist.cf_mass[aprime] / dist.mass[:, None]


def utility_table(dist: FiniteJointDistribution, lam: float, target_group: int = 1) -> UtilityTable:
    """Graduation probabilities r plus a diversity bonus on the target group."""
    if lam < 0:
        raise ValueError("lambda must be nonnegative")
    if np.any(dist.mass <= 0):
        raise ZeroRowError("every support point needs positive mass")
    y_values = np.asarray(dist.outcomes, dtype=np.float64)
    r = dist.y1_joint() @ y_values / dist.mass
    u = r + lam * (dist.group == target_group)
    return UtilityTable(lam=float(lam), u=u, r=r)


# ---------------------------------------------------------------------------
# CSV interchange

_MASS_COLUMNS = (("group", int), ("bin", int), ("y0", int), ("y1", int), ("mass", float))
_PAIR_COLUMNS = (
    ("aprime", int), ("i_group", int), ("i_bin", int), ("j_group", int), ("j_bin", int)
)
_CF_COLUMNS = _PAIR_COLUMNS + (("mass", float),)


def _cell(x):
    """Floats as ``repr(float(x))``, which reads back exactly; the rest as ints."""
    return repr(float(x)) if isinstance(x, (float, np.floating)) else int(x)


def write_csv(path, header, rows) -> None:
    """The one CSV writer of the package: a header, then ``rows`` by ``_cell``."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows([_cell(x) for x in row] for row in rows)


def write_pair_table(path, dist: FiniteJointDistribution, tables: dict, value: str) -> None:
    """One row (aprime, i_group, i_bin, j_group, j_bin, value) per nonzero
    entry of each (n, n) table, by aprime and then row-major."""
    rows = (
        (aprime, dist.group[i], dist.bin[i], dist.group[j], dist.bin[j], mat[i, j])
        for aprime, mat in sorted(tables.items())
        for i, j in zip(*np.nonzero(mat))
    )
    write_csv(path, [name for name, _ in _PAIR_COLUMNS] + [value], rows)


def read_csv(path, columns, what: str) -> list:
    """Rows of a CSV file as tuples of the named ``columns``, each parsed by its
    type and below 2**63 in magnitude (so finite). A file that cannot be read or
    a malformed row raises ``ConfigError`` naming the ``what``, the file and the row."""
    try:
        with open(path, newline="") as fh:
            table = list(csv.DictReader(fh))
    except (OSError, UnicodeDecodeError, csv.Error) as exc:
        raise ConfigError(f"cannot read {what} {path}: {exc}") from exc
    rows = []
    for number, r in enumerate(table, start=1):
        try:
            rows.append(tuple(kind(r[name]) for name, kind in columns))
            if not all(abs(x) < 2**63 for x in rows[-1]):  # false for nan, inf and past int64
                raise ValueError("value out of range")
        except (KeyError, TypeError, ValueError) as exc:
            needs = ", ".join(
                f"{'integer' if kind is int else 'finite numeric'} {name}" for name, kind in columns
            )
            raise ConfigError(f"{what} {path}, row {number}: needs {needs}, got {r}") from exc
    return rows


def write_tables(dist: FiniteJointDistribution, mass_path, cf_path=None) -> None:
    y = dist.outcomes
    rows = (
        (dist.group[i], dist.bin[i], y[j0], y[j1], dist.outcome_mass[i, j0, j1])
        for i, j0, j1 in zip(*np.nonzero(dist.outcome_mass > 0))
    )
    write_csv(mass_path, [name for name, _ in _MASS_COLUMNS], rows)
    if cf_path is not None:
        write_pair_table(cf_path, dist, dist.cf_mass, "mass")


def load_tables(mass_path, cf_path=None, outcomes=(0, 1), groups=("a0", "a1")):
    """Read ``write_tables`` output; a malformed file raises ``ConfigError``."""
    rows = read_csv(mass_path, _MASS_COLUMNS, "mass table")
    cf_rows = [] if cf_path is None else read_csv(cf_path, _CF_COLUMNS, "counterfactual table")
    return from_table(rows, cf_rows, outcomes=outcomes, groups=groups)
