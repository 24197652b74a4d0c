"""Beta-distribution tail means and the two-group ordering check.

The key quantity is E[Z | Z < t] for a beta variable Z, computed as a ratio
of lower incomplete moments. When two groups' score distributions are betas
with equal spread but ordered means, the group with the lower mean also has
the strictly lower conditional tail mean at every cutoff, which is the
mechanism behind rejected-pool calibration being unattainable without waste.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError, HypothesisViolation

__all__ = [
    "BetaParams",
    "from_mean_size",
    "conditional_tail_mean",
    "lower_incomplete_moment",
    "prop4_check",
]

_QUAD_TOL = 1e-12
_NODES, _WEIGHTS = np.polynomial.legendre.leggauss(21)


@dataclass(frozen=True)
class BetaParams:
    alpha: float
    beta: float

    def __post_init__(self):
        if not (self.alpha > 0 and self.beta > 0):
            raise DomainError("alpha and beta must be positive")

    @property
    def mean(self) -> float:
        return self.alpha / (self.alpha + self.beta)


def from_mean_size(mu: float, v: float) -> BetaParams:
    """Mean/precision parameterization: alpha = mu v, beta = (1 - mu) v."""
    if not 0 < mu < 1:
        raise DomainError("mu must lie in (0, 1)")
    if v <= 0:
        raise DomainError("v must be positive")
    return BetaParams(alpha=mu * v, beta=(1.0 - mu) * v)


def _gauss(f, lo, hi):
    half = 0.5 * (hi - lo)
    x = lo + half * (_NODES + 1.0)
    return half * float(np.sum(_WEIGHTS * f(x)))


def _adaptive(f, lo, hi, tol, depth=0):
    whole = _gauss(f, lo, hi)
    mid = 0.5 * (lo + hi)
    left = _gauss(f, lo, mid)
    right = _gauss(f, mid, hi)
    if abs(left + right - whole) <= tol or depth >= 40:
        return left + right
    return _adaptive(f, lo, mid, tol / 2, depth + 1) + _adaptive(
        f, mid, hi, tol / 2, depth + 1
    )


def lower_incomplete_moment(p: float, q: float, t: float) -> float:
    """Integral of x^(p-1) (1-x)^(q-1) over (0, t), split at the mode."""
    if not 0 < t <= 1:
        raise DomainError("t must lie in (0, 1]")

    def f(x):
        return x ** (p - 1.0) * (1.0 - x) ** (q - 1.0)

    split = (p - 1.0) / (p + q - 2.0) if p > 1 and q > 1 else 0.5 * t
    if not 0 < split < t:
        return _adaptive(f, 0.0, t, _QUAD_TOL)
    return _adaptive(f, 0.0, split, _QUAD_TOL / 2) + _adaptive(f, split, t, _QUAD_TOL / 2)


def conditional_tail_mean(t: float, params: BetaParams) -> float:
    """E[Z | Z < t] for Z ~ Beta(alpha, beta), as a moment ratio."""
    if t <= 0:
        raise DomainError("t must be positive")
    if t > 1:
        raise DomainError("t must not exceed 1")
    num = lower_incomplete_moment(params.alpha + 1.0, params.beta, t)
    den = lower_incomplete_moment(params.alpha, params.beta, t)
    return num / den


def prop4_check(mu0: float, mu1: float, v: float, t_grid) -> dict:
    """Verify the tail-mean ordering between two equal-precision betas.

    Requires v > 2 and mu0 > mu1 > 1/v, so both shape pairs lie in the
    regime where the ordering is strict. A strictly positive minimum gap
    certifies that any double-threshold rule rejecting more of group 1 at
    the bottom leaves the groups' rejected-pool outcome rates unequal.
    """
    if v <= 2:
        raise HypothesisViolation("v must exceed 2")
    if not mu0 > mu1:
        raise HypothesisViolation("mu0 must strictly exceed mu1")
    if not mu1 > 1.0 / v:
        raise HypothesisViolation("mu1 must strictly exceed 1/v")
    p0 = from_mean_size(mu0, v)
    p1 = from_mean_size(mu1, v)
    gaps = []
    for t in t_grid:
        gaps.append(conditional_tail_mean(t, p0) - conditional_tail_mean(t, p1))
    gaps = np.asarray(gaps, dtype=np.float64)
    return {
        "t_grid": [float(t) for t in t_grid],
        "gaps": gaps.tolist(),
        "min_gap": float(gaps.min()),
        "all_positive": bool(np.all(gaps > 0)),
    }
