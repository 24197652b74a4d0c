"""Bounded-variable two-phase primal simplex for box-bounded linear programs.

Solves max c'x subject to A_eq x = b_eq, A_ub x <= b_ub, lo <= x <= hi.
The box bounds never become rows. A nonbasic variable sits at its lower or
its upper bound, the ratio test lets the entering variable reach its own
opposite bound (a bound flip, with no pivot), and a basic variable may leave
at either bound, so the dense tableau has one row per equality and per
inequality however many variables there are. Equalities get phase-1
artificial variables rather than row elimination, so rank-deficient blocks
(common with empirical masses) are handled: a row whose artificial cannot be
pivoted out after phase 1 repeats the others and is dropped. The entering
variable is the one with the largest reduced cost (Dantzig's rule) until a
run of degenerate pivots switches to Bland's rule, which guarantees
termination.

Most passes on the fairness LPs are bound flips, not pivots (on the CPP
lattice at bin width 1.0, 7,525 of 10,319). A flip changes neither the basis
nor the reduced costs, so until the next pivot the remaining candidates
enter in a fixed order: by descending rate with ties to the lower index, or
by index under Bland's rule. After a flip the loop therefore handles the
candidates that follow in one array pass (``_flip_run``): it folds their
steps into the basic values with ``np.subtract.accumulate``, which rounds
exactly as one update per pass does, runs their ratio tests together and
applies every flip before the first column that pivots or takes a step of at
most ``tol``. Pivots, statuses and solutions are bit for bit those of the
loop with one flip per pass (``tests/test_linprog.py`` keeps it as the
reference), and every flip still counts toward the iteration limit.

The result is checked against the original rows and bounds; a violation
above ``CHECK_TOL`` = 1e-9 (or ``tol``, when larger) raises ``SolverError``,
as do the iteration limit and an infinite ratio-test step: the box bounds
rule out an unbounded program, so that step means a numerical breakdown.
The solver is numpy only: scipy's HiGHS solves
the same programs, but importing ``scipy.optimize`` adds about 49 MB of peak
resident memory, which lifts a whole run at bin width 0.5 from about 70 MB
to about 98 MB.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import SolverError

__all__ = ["LinearProgram", "LpSolution", "solve", "CHECK_TOL"]

_PIVOT_TOL = 1e-9
CHECK_TOL = 1e-9


@dataclass
class LinearProgram:
    objective: np.ndarray  # maximize objective @ x
    eq_rows: tuple = (None, None)  # (A_eq, b_eq) or (None, None)
    ub_rows: tuple = (None, None)  # (A_ub, b_ub) meaning A_ub x <= b_ub
    bounds: np.ndarray | None = None  # (n, 2), default [0, 1] per variable

    def __post_init__(self):
        self.objective = np.asarray(self.objective, dtype=np.float64)
        n = len(self.objective)
        if self.bounds is None:
            self.bounds = np.tile([0.0, 1.0], (n, 1))
        else:
            self.bounds = np.asarray(self.bounds, dtype=np.float64)
        if self.bounds.shape != (n, 2):
            raise ValueError("bounds must be (n, 2)")
        if np.any(self.bounds[:, 0] > self.bounds[:, 1]):
            raise ValueError("lower bound exceeds upper bound")
        if not np.all(np.isfinite(self.bounds)):
            raise ValueError("bounds must be finite")
        for attr in ("eq_rows", "ub_rows"):
            a, b = getattr(self, attr)
            if a is None:
                setattr(self, attr, (np.zeros((0, n)), np.zeros(0)))
            else:
                a = np.atleast_2d(np.asarray(a, dtype=np.float64))
                b = np.atleast_1d(np.asarray(b, dtype=np.float64))
                if a.shape != (len(b), n):
                    raise ValueError(f"{attr} dimensions do not match objective")
                setattr(self, attr, (a, b))


@dataclass
class LpSolution:
    status: str  # "Optimal" | "Infeasible"
    values: np.ndarray = field(default_factory=lambda: np.zeros(0))
    objective: float = float("nan")
    phase1_residual: float = float("nan")


def _pivot(T, basis, row, col):
    T[row] /= T[row, col]
    factors = T[:, col].copy()
    factors[row] = 0.0
    T -= np.outer(factors, T[row])
    basis[row] = col


def _ratios(alpha, xb, lo_b, hi_b):
    """The ratio test of ``_run_simplex``, also row-wise on stacked (k, m)
    inputs: one ratio test per entering column."""
    return np.minimum(
        np.where(alpha > _PIVOT_TOL, np.maximum(xb - lo_b, 0.0) / alpha, np.inf),
        np.where(alpha < -_PIVOT_TOL, np.maximum(hi_b - xb, 0.0) / -alpha, np.inf),
    )


def _flip_run(T, x, direction, basis, lo, hi, lo_b, hi_b, span, cols, tol):
    """Apply the bound flips the simplex loop would make next, entering
    ``cols`` in order, and return how many were applied. Each step is the
    column's span. The run ends before the first column that would pivot,
    take a step of at most ``tol`` or find no bound at all; the loop handles
    that column itself. See the module docstring for why the result is the
    loop's own, bit for bit.
    """
    alphas = T[:, cols].T * direction[cols, None]  # (k, m)
    steps = span[cols]
    # xbs[j] holds the basic values before column j enters.
    xbs = np.subtract.accumulate(np.vstack([x[basis], steps[:, None] * alphas]))
    r_min = _ratios(alphas, xbs[:-1], lo_b, hi_b).min(axis=1, initial=np.inf)
    stop = np.flatnonzero(~((steps > tol) & (steps <= r_min) & (steps < np.inf)))
    k = int(stop[0]) if len(stop) else len(cols)
    flipped = cols[:k]
    x[basis] = xbs[k]
    x[flipped] = np.where(direction[flipped] > 0, hi[flipped], lo[flipped])
    direction[flipped] = -direction[flipped]
    return k


@np.errstate(divide="ignore", invalid="ignore")  # ratio tests divide where np.where discards
def _run_simplex(T, x, lo, hi, c, basis, tol):
    """Maximize c'x from a basic solution with every nonbasic x at a bound.

    ``T`` is B^-1 A for the current basis. Mutates T, x and basis.
    """
    m, ncols = T.shape
    span = hi - lo
    movable = span > 0  # a fixed variable never enters
    bland = False
    degenerate_run = 0
    bland_after = 5 * (m + ncols)
    max_iter = 100 * (m + ncols) + 1000
    # A nonbasic variable at its upper bound can only decrease.
    direction = np.where(x >= hi, -1.0, 1.0)
    red = None
    passes = 0  # pivots and bound flips, each counted against max_iter

    while passes < max_iter:
        passes += 1
        if red is None:  # reduced costs change only when the basis does
            red = np.where(movable, c - c[basis] @ T, 0.0)
            red[basis] = 0.0
            lo_b, hi_b = lo[basis], hi[basis]
        rate = red * direction
        candidates = np.flatnonzero(rate > tol)
        if len(candidates) == 0:
            return
        col = int(candidates[0] if bland else candidates[np.argmax(rate[candidates])])
        # Moving x[col] by t in its direction moves the basic variables by
        # -t * alpha; each row's ratio is the step at which its basic
        # variable reaches the bound it is heading for.
        alpha = T[:, col] * direction[col]
        xb = x[basis]
        r = _ratios(alpha, xb, lo_b, hi_b)
        r_min = r.min(initial=np.inf)
        step = min(r_min, span[col])
        if np.isinf(step):
            raise SolverError("simplex ratio test found no bound")
        if step <= tol:
            degenerate_run += 1
            bland = bland or degenerate_run > bland_after
        else:
            degenerate_run = 0
        x[basis] = xb - step * alpha
        if span[col] <= r_min:
            # Bound flip: the entering variable reaches its other bound
            # first. The candidates left enter next, in the order the
            # selection rule gives them, as long as they flip too.
            x[col] = hi[col] if direction[col] > 0 else lo[col]
            direction[col] = -direction[col]
            rest = candidates[candidates != col]
            if not bland:  # largest rate first, ties by index as argmax
                rest = rest[np.argsort(-rate[rest], kind="stable")]
            flips = _flip_run(
                T, x, direction, basis, lo, hi, lo_b, hi_b, span, rest[: max_iter - passes], tol
            )
            if flips:
                passes += flips
                degenerate_run = 0
            continue
        x[col] += direction[col] * step
        # Among tied rows Bland's rule takes the smallest basis index, for
        # its termination guarantee; otherwise take the largest pivot.
        ties = np.flatnonzero(r <= r_min + 1e-15)
        row = int(ties[np.argmin(basis[ties]) if bland else np.argmax(np.abs(alpha[ties]))])
        leaving = basis[row]
        x[leaving] = lo[leaving] if alpha[row] > 0 else hi[leaving]
        direction[leaving] = 1.0 if alpha[row] > 0 else -1.0
        _pivot(T, basis, row, col)
        red = None
    raise SolverError("simplex iteration limit reached")


def _max_violation(lp: LinearProgram, x: np.ndarray) -> float:
    a_eq, b_eq = lp.eq_rows
    a_ub, b_ub = lp.ub_rows
    parts = [np.abs(a_eq @ x - b_eq), a_ub @ x - b_ub, lp.bounds[:, 0] - x, x - lp.bounds[:, 1]]
    return float(max(p.max(initial=0.0) for p in parts))


def solve(lp: LinearProgram, tol: float = 1e-9) -> LpSolution:
    """Two-phase bounded-variable simplex; see the module docstring."""
    if tol <= 0:
        raise ValueError("tol must be positive")
    n = len(lp.objective)
    a_eq, b_eq = lp.eq_rows
    a_ub, b_ub = lp.ub_rows
    m_eq, m_ub = len(b_eq), len(b_ub)
    m = m_eq + m_ub

    # Start with every structural variable at its lower bound. Each row's
    # residual there is carried by its slack when that is nonnegative, and
    # otherwise by an artificial; rows are negated so the start is >= 0.
    a = np.vstack([a_eq, a_ub])
    rhs = np.concatenate([b_eq, b_ub]) - a @ lp.bounds[:, 0]
    sign = np.where(rhs < 0, -1.0, 1.0)
    slack = np.vstack([np.zeros((m_eq, m_ub)), np.eye(m_ub)])
    needs_art = np.ones(m, dtype=bool)
    needs_art[m_eq:] = rhs[m_eq:] < 0
    art_rows = np.flatnonzero(needs_art)
    n_art = len(art_rows)
    art = np.zeros((m, n_art))
    art[art_rows, np.arange(n_art)] = 1.0
    T = np.hstack([a * sign[:, None], slack * sign[:, None], art])
    n_real = n + m_ub
    basis = np.empty(m, dtype=np.int64)
    basis[~needs_art] = n + np.flatnonzero(~needs_art) - m_eq
    basis[art_rows] = n_real + np.arange(n_art)
    lo = np.concatenate([lp.bounds[:, 0], np.zeros(m_ub + n_art)])
    hi = np.concatenate([lp.bounds[:, 1], np.full(m_ub + n_art, np.inf)])
    x = lo.copy()
    x[basis] = np.abs(rhs)

    residual = 0.0
    if n_art:
        c1 = np.zeros(n_real + n_art)
        c1[n_real:] = -1.0
        _run_simplex(T, x, lo, hi, c1, basis, tol)
        residual = float(x[n_real:].sum())
        if residual > tol:
            return LpSolution(status="Infeasible", phase1_residual=residual)
        # Pivot zero-level artificials out of the basis; a row where no
        # real column can replace its artificial is redundant.
        keep = np.ones(m, dtype=bool)
        for row in np.flatnonzero(basis >= n_real):
            col = int(np.argmax(np.abs(T[row, :n_real])))
            if abs(T[row, col]) > _PIVOT_TOL:
                _pivot(T, basis, row, col)
            else:
                keep[row] = False
        T, basis = T[keep, :n_real], basis[keep]
        x, lo, hi = x[:n_real], lo[:n_real], hi[:n_real]
    c2 = np.zeros(n_real)
    c2[:n] = lp.objective
    _run_simplex(T, x, lo, hi, c2, basis, tol)

    values = x[:n]
    violation = _max_violation(lp, values)
    if not violation <= max(tol, CHECK_TOL):
        raise SolverError(f"solution violates its constraints by {violation:.3g}")
    return LpSolution(
        status="Optimal",
        values=values,
        objective=float(lp.objective @ values),
        phase1_residual=residual,
    )
