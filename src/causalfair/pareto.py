"""Multiple-threshold policies, the two-group Pareto frontier, and strong
dominance measurement.

The frontier sweeps the share of the decision budget allocated to the target
group, converts the resulting per-group admission quantiles into threshold
policies on the graduation score, and evaluates each policy on the diversity
and graduation axes.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .dist import FiniteJointDistribution, UtilityTable, utility_table
from .errors import GroupMassZeroError, MultiGroupUnsupportedError

__all__ = [
    "Policy",
    "ThresholdPolicy",
    "FrontierPoint",
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
        if self.d.min(initial=0.0) < -1e-12 or self.d.max(initial=0.0) > 1 + 1e-12:
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
class FrontierPoint:
    diversity: float
    graduation: float
    quantiles: dict  # group -> q_a
    share: float = float("nan")
    on_frontier: bool = False


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
        thresholds[a], at_threshold[a] = _cutoff(_utility_atoms(dist, utility, a), q)
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


def _cutoff(atoms, q: float):
    """(threshold, at-threshold probability) that admit the rate ``q``."""
    if q == 0:
        return np.inf, 0.0
    values, atom_w, cum_excl, cum_incl = atoms
    j = min(int(np.searchsorted(cum_incl, q - 1e-15)), len(values) - 1)
    return float(values[j]), float(np.clip((q - cum_excl[j]) / atom_w[j], 0.0, 1.0))


def induced_policy(
    dist: FiniteJointDistribution,
    utility: UtilityTable,
    tp: ThresholdPolicy,
) -> Policy:
    d = np.zeros(dist.n)
    for a, t in tp.thresholds.items():
        sel = dist.group == a
        u = utility.u
        d = np.where(sel & (u > t), 1.0, d)
        d = np.where(sel & (u == t), tp.at_threshold[a], d)
    return Policy(d=d)


def evaluate_policy(policy: Policy, dist: FiniteJointDistribution, target_group: int = 1):
    """(diversity, graduation) coordinates of a policy."""
    r = utility_table(dist, lam=0.0).r
    diversity = float(np.sum(policy.d * dist.mass * (dist.group == target_group)))
    graduation = float(np.sum(policy.d * dist.mass * r))
    return diversity, graduation


def frontier(dist: FiniteJointDistribution, b: float, resolution: int = 200):
    """Sweep budget shares between the two groups and evaluate each policy.

    The share ``s`` of the budget goes to group 1 and the rest to group 0;
    shares that would exceed a group's total mass saturate at full admission.
    Points are flagged ``on_frontier`` when their diversity is at least that
    of the maximum-graduation point.
    """
    if resolution < 2:
        raise ValueError("resolution must be at least 2")
    present = sorted(set(int(g) for g in dist.group))
    if present != [0, 1]:
        raise MultiGroupUnsupportedError(
            f"frontier sweep needs exactly groups 0 and 1, got {present}"
        )
    if not 0 < b < 1:
        raise ValueError("b must lie in (0, 1)")
    u0 = utility_table(dist, lam=0.0)
    p1 = dist.group_mass(1)
    p0 = dist.group_mass(0)
    # Sort each group's utilities once; every share only moves the cutoffs.
    atoms = {a: _utility_atoms(dist, u0, a) for a in (0, 1)}
    target = dist.group == 1

    raw = []
    for k in range(resolution + 1):
        s = k / resolution
        q1 = min(1.0, s * b / p1)
        q0 = min(1.0, (1.0 - s) * b / p0)
        (t0, at0), (t1, at1) = _cutoff(atoms[0], q0), _cutoff(atoms[1], q1)
        tp = ThresholdPolicy(thresholds={0: t0, 1: t1}, at_threshold={0: at0, 1: at1})
        # evaluate_policy's coordinates, with r computed once per sweep.
        weighted = induced_policy(dist, u0, tp).d * dist.mass
        diversity = float(np.sum(weighted * target))
        graduation = float(np.sum(weighted * u0.r))
        raw.append((s, q0, q1, diversity, graduation))

    grads = np.array([g for *_, g in raw])
    best = int(np.argmax(grads))
    div_cut = raw[best][3]
    points = [
        FrontierPoint(
            diversity=diversity,
            graduation=graduation,
            quantiles={0: q0, 1: q1},
            share=s,
            on_frontier=diversity >= div_cut - 1e-12,
        )
        for s, q0, q1, diversity, graduation in raw
    ]
    return points


def dominance_gap(policy: Policy, dist: FiniteJointDistribution, b: float, resolution: int = 200):
    """Strict improvement available over ``policy`` along the frontier sweep.

    Returns ``(delta_diversity, delta_graduation)`` for the sweep point that
    maximizes the smaller of the two improvements among points strictly
    better in both coordinates, or ``None`` when no sweep point strictly
    dominates.
    """
    diversity, graduation = evaluate_policy(policy, dist)
    best = None
    best_min = 0.0
    for pt in frontier(dist, b, resolution):
        dd = pt.diversity - diversity
        dg = pt.graduation - graduation
        if dd > 0 and dg > 0 and min(dd, dg) > best_min:
            best_min = min(dd, dg)
            best = (dd, dg)
    return best
