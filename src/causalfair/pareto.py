"""Multiple-threshold policies, the two-group Pareto frontier, and strong
dominance measurement.

The frontier sweeps the share of the decision budget allocated to the target
group, converts the resulting per-group admission quantiles into threshold
policies on the graduation score, and evaluates each policy on the diversity
and graduation axes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dist import _SUM_TOL, FiniteJointDistribution, UtilityTable, utility_table
from .errors import GroupMassZeroError, MultiGroupUnsupportedError

__all__ = [
    "Policy",
    "ThresholdPolicy",
    "Frontier",
    "threshold_policy",
    "induced_policy",
    "evaluate_policy",
    "frontier",
    "dominance_gap",
]


@dataclass
class Policy:
    """A randomized decision rule: admission probability per support point."""

    d: np.ndarray

    def __post_init__(self):
        self.d = np.asarray(self.d, dtype=np.float64)
        if not np.all((self.d >= -1e-12) & (self.d <= 1 + 1e-12)):  # NaN fails too
            raise ValueError("policy entries must lie in [0, 1]")
        self.d = np.clip(self.d, 0.0, 1.0)


@dataclass(frozen=True)
class ThresholdPolicy:
    """Per-group cutoffs on a utility scale, with randomized tie handling.

    The induced rule admits any point with utility strictly above its group's
    threshold, admits points exactly at the threshold with the group's
    at-threshold probability, and rejects the rest.
    """

    thresholds: dict  # group -> t_a (may be +/- inf)
    at_threshold: dict  # group -> admit probability at u == t_a


@dataclass(frozen=True)
class Frontier:
    """The budget-share sweep as equal-length columns, one entry per share;
    the fields are ``frontier.csv``'s columns, in order."""

    share: np.ndarray  # share of the budget that goes to group 1
    quantile_a0: np.ndarray  # admission rate of group 0
    quantile_a1: np.ndarray  # admission rate of group 1
    diversity: np.ndarray
    graduation: np.ndarray
    on_frontier: np.ndarray  # bool


def threshold_policy(
    dist: FiniteJointDistribution,
    utility: UtilityTable,
    quantiles: dict,
) -> ThresholdPolicy:
    """Convert per-group admission rates into utility cutoffs.

    For each group ``a`` with target rate ``q_a``, the threshold is the
    largest utility level whose strict upper tail has conditional mass below
    ``q_a``; the at-threshold probability absorbs the remainder so that the
    group's admission rate equals ``q_a`` exactly.
    """
    thresholds = {}
    at_threshold = {}
    for a, q in quantiles.items():
        if not 0 <= q <= 1:
            raise ValueError(f"quantile for group {a} outside [0, 1]")
        t, at = _cutoffs(_utility_atoms(dist, utility, a), q)
        thresholds[a], at_threshold[a] = float(t), float(at)
    return ThresholdPolicy(thresholds=thresholds, at_threshold=at_threshold)


def _utility_atoms(dist: FiniteJointDistribution, utility: UtilityTable, a):
    """Group ``a``'s distinct utilities, highest first, with their conditional
    masses and the cumulative mass before and through each of them."""
    sel = dist.group == a
    total = float(dist.mass[sel].sum())
    if total <= 0:
        raise GroupMassZeroError(f"group {a} has no mass")
    values, inv = np.unique(-utility.u[sel], return_inverse=True)
    atom_w = np.zeros(len(values))
    np.add.at(atom_w, inv, dist.mass[sel] / total)
    cum_excl = np.concatenate([[0.0], np.cumsum(atom_w)[:-1]])
    return -values, atom_w, cum_excl, cum_excl + atom_w


def _cutoffs(atoms, q):
    """(thresholds, at-threshold probabilities) that admit the rates ``q``,
    a scalar or an array; a zero rate gets an infinite threshold."""
    values, atom_w, cum_excl, cum_incl = atoms
    j = np.minimum(np.searchsorted(cum_incl, q - 1e-15), len(values) - 1)
    at = np.clip((q - cum_excl[j]) / atom_w[j], 0.0, 1.0)
    return np.where(q == 0, np.inf, values[j]), np.where(q == 0, 0.0, at)


def _admission(dist: FiniteJointDistribution, u: np.ndarray, cutoffs: dict) -> np.ndarray:
    """Admission probabilities of shape (..., n) under ``cutoffs``, which maps
    each group to (threshold, at-threshold probability), scalars or arrays
    of shape (...). Points of groups without a cutoff are rejected."""
    d = np.zeros(dist.n)
    for a, (t, at) in cutoffs.items():
        t, at = np.asarray(t)[..., None], np.asarray(at)[..., None]
        sel = dist.group == a
        d = np.where(sel & (u > t), 1.0, np.where(sel & (u == t), at, d))
    return d


def induced_policy(
    dist: FiniteJointDistribution,
    utility: UtilityTable,
    tp: ThresholdPolicy,
) -> Policy:
    cutoffs = {a: (t, tp.at_threshold[a]) for a, t in tp.thresholds.items()}
    return Policy(d=_admission(dist, utility.u, cutoffs))


def _coordinates(d: np.ndarray, dist: FiniteJointDistribution, r: np.ndarray):
    """(diversity, graduation) of admission probabilities ``d``, summed over
    the last axis."""
    weighted = d * dist.mass
    return np.sum(weighted * (dist.group == 1), axis=-1), np.sum(weighted * r, axis=-1)


def evaluate_policy(policy: Policy, dist: FiniteJointDistribution):
    """(diversity, graduation) coordinates of a policy."""
    diversity, graduation = _coordinates(policy.d, dist, utility_table(dist, lam=0.0).r)
    return float(diversity), float(graduation)


def frontier(dist: FiniteJointDistribution, b: float, resolution: int = 200) -> Frontier:
    """Sweep budget shares between the two groups and evaluate each policy.

    The share ``s`` of the budget goes to group 1 and the rest to group 0;
    shares that would exceed a group's total mass saturate at full admission.
    Points are flagged ``on_frontier`` when their diversity is at least that
    of the maximum-graduation point.
    """
    if resolution < 2:
        raise ValueError("resolution must be at least 2")
    present = np.unique(dist.group).tolist()
    if present != [0, 1]:
        raise MultiGroupUnsupportedError(
            f"frontier sweep needs exactly groups 0 and 1, got {present}"
        )
    if not 0 < b < 1:
        raise ValueError("b must lie in (0, 1)")
    u0 = utility_table(dist, lam=0.0)
    share = np.arange(resolution + 1) / resolution
    q1 = np.minimum(1.0, share * b / dist.group_mass(1))
    q0 = np.minimum(1.0, (1.0 - share) * b / dist.group_mass(0))
    # One row of admission probabilities per share.
    cutoffs = {a: _cutoffs(_utility_atoms(dist, u0, a), q) for a, q in ((0, q0), (1, q1))}
    diversity, graduation = _coordinates(_admission(dist, u0.u, cutoffs), dist, u0.r)
    on_frontier = diversity >= diversity[np.argmax(graduation)] - 1e-12
    return Frontier(share, q0, q1, diversity, graduation, on_frontier)


def dominance_gap(policy: Policy, dist: FiniteJointDistribution, b: float, resolution: int = 200):
    """Strict improvement available over ``policy`` along the frontier sweep.

    Returns ``(delta_diversity, delta_graduation)`` for the sweep point that
    maximizes the smaller of the two improvements among points better by
    more than the rounding floor ``_SUM_TOL`` in both coordinates (the first
    such point on ties), or ``None`` when no sweep point dominates so.
    """
    diversity, graduation = evaluate_policy(policy, dist)
    front = frontier(dist, b, resolution)
    dd, dg = front.diversity - diversity, front.graduation - graduation
    gain = np.where((dd > _SUM_TOL) & (dg > _SUM_TOL), np.minimum(dd, dg), 0.0)
    k = int(np.argmax(gain))
    return (float(dd[k]), float(dg[k])) if gain[k] > 0 else None
