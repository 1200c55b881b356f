"""Dense two-phase primal simplex with anti-cycling pivoting.

Sized for this package's equilibrium programs: up to a few thousand columns
and a few hundred rows, dense. Dantzig pivoting with an automatic fallback to
Bland's smallest-index rule on degenerate stalls keeps the method finite on
the heavily degenerate polytopes equilibrium selection produces without
paying Bland's crawl on every pivot. Solves are pure functions of their input
with a fixed pivoting order, so results are deterministic.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from enum import Enum

import numpy as np

__all__ = [
    "LinearProgram",
    "LpSolution",
    "LpStatus",
    "SolverFailureError",
    "format_lp",
    "solve",
]

# Pivot elements and reduced costs smaller than this are treated as zero.
PIVOT_TOL = 1e-9
# Phase-1 objective above this means the program is infeasible.
FEASIBILITY_TOL = 1e-7
# Iteration cap factor: 50 * (num_vars + num_constraints) pivots overall.
ITERATION_CAP_FACTOR = 50
# Graded right-hand-side perturbation (in row-scaled units) that breaks the
# exact ties equilibrium polytopes are full of; small enough that replaying
# the original constraints stays an order of magnitude inside 1e-7.
DEGENERACY_EPS = 1e-13


class SolverFailureError(RuntimeError):
    """Numerical failure: the pivot budget was exhausted before optimality."""


class LpStatus(str, Enum):
    OPTIMAL = "optimal"
    INFEASIBLE = "infeasible"
    UNBOUNDED = "unbounded"


@dataclass(frozen=True)
class LinearProgram:
    """minimize objective . v  s.t.  ineq_matrix @ v <= ineq_rhs,
    eq_matrix @ v == eq_rhs, v >= lower_bounds (componentwise, default 0)."""

    objective: np.ndarray
    ineq_matrix: np.ndarray
    ineq_rhs: np.ndarray
    eq_matrix: np.ndarray
    eq_rhs: np.ndarray
    lower_bounds: np.ndarray

    def __post_init__(self):
        c = np.ascontiguousarray(self.objective, dtype=float)
        if c.ndim != 1 or c.size < 1:
            raise ValueError("objective must be a nonempty vector")
        n = c.size
        a_ub = np.ascontiguousarray(self.ineq_matrix, dtype=float).reshape(-1, n)
        b_ub = np.ascontiguousarray(self.ineq_rhs, dtype=float).reshape(-1)
        a_eq = np.ascontiguousarray(self.eq_matrix, dtype=float).reshape(-1, n)
        b_eq = np.ascontiguousarray(self.eq_rhs, dtype=float).reshape(-1)
        lb = np.ascontiguousarray(self.lower_bounds, dtype=float).reshape(-1)
        if a_ub.shape[0] != b_ub.size or a_eq.shape[0] != b_eq.size:
            raise ValueError("constraint matrix and rhs sizes disagree")
        if lb.size != n:
            raise ValueError("lower_bounds length must equal num_vars")
        for arr in (c, a_ub, b_ub, a_eq, b_eq, lb):
            if not np.all(np.isfinite(arr)):
                raise ValueError("all LP coefficients must be finite")
            arr.setflags(write=False)
        for name, arr in (
            ("objective", c), ("ineq_matrix", a_ub), ("ineq_rhs", b_ub),
            ("eq_matrix", a_eq), ("eq_rhs", b_eq), ("lower_bounds", lb),
        ):
            object.__setattr__(self, name, arr)

    @classmethod
    def from_rows(cls, objective, ineq=(), eq=(), lower_bounds=None) -> "LinearProgram":
        """Build from (row, rhs) pairs; lower bounds default to zero."""
        c = np.asarray(objective, dtype=float)
        n = c.size
        def stack(pairs):
            pairs = list(pairs)
            if not pairs:
                return np.zeros((0, n)), np.zeros(0)
            rows = np.vstack([np.asarray(r, dtype=float) for r, _ in pairs])
            rhs = np.array([float(b) for _, b in pairs])
            return rows, rhs
        a_ub, b_ub = stack(ineq)
        a_eq, b_eq = stack(eq)
        lb = np.zeros(n) if lower_bounds is None else np.asarray(lower_bounds, dtype=float)
        return cls(c, a_ub, b_ub, a_eq, b_eq, lb)

    @property
    def num_vars(self) -> int:
        return self.objective.size

    @property
    def num_constraints(self) -> int:
        return self.ineq_matrix.shape[0] + self.eq_matrix.shape[0]


@dataclass(frozen=True)
class LpSolution:
    status: LpStatus
    values: np.ndarray | None = None
    objective_value: float | None = None


def _pivot(tableau: np.ndarray, basis: np.ndarray, row: int, col: int,
           deadline: float | None) -> None:
    if deadline is not None and time.perf_counter() > deadline:
        raise TimeoutError("simplex passed its deadline")
    tableau[row] /= tableau[row, col]
    column = tableau[:, col].copy()
    column[row] = 0.0
    tableau -= np.outer(column, tableau[row])
    # kill accumulated drift in the pivot column
    tableau[:, col] = 0.0
    tableau[row, col] = 1.0
    basis[row] = col


# Consecutive non-improving pivots before switching to Bland's rule.
_STALL_LIMIT = 25


def _simplex_iterate(tableau: np.ndarray, basis: np.ndarray, budget: int,
                     deadline: float | None) -> tuple[str, int]:
    """Run simplex pivots until optimal/unbounded; returns (status, pivots used).

    Entering column: most negative reduced cost (Dantzig) while the objective
    is making progress; after a run of degenerate pivots the rule switches to
    Bland's smallest-index selection, whose anti-cycling guarantee bounds the
    plateau, and switches back once the objective moves again. The leaving
    row always breaks ratio ties by the smallest basic variable index.
    """
    used = 0
    stalled = 0
    while True:
        reduced = tableau[-1, :-1]
        candidates = np.nonzero(reduced < -PIVOT_TOL)[0]
        if candidates.size == 0:
            return "optimal", used
        if stalled >= _STALL_LIMIT:
            col = int(candidates[0])  # Bland
        else:
            col = int(candidates[np.argmin(reduced[candidates])])  # Dantzig
        column = tableau[:-1, col]
        positive = column > PIVOT_TOL
        if not positive.any():
            return "unbounded", used
        ratios = np.full(column.size, np.inf)
        ratios[positive] = tableau[:-1, -1][positive] / column[positive]
        best = ratios.min()
        # the tie window must stay well below DEGENERACY_EPS, or the graded
        # rhs perturbation stops separating rows and the test can leave the
        # true min-ratio row, walking the basis infeasible
        ties = np.nonzero(ratios <= best + 1e-15)[0]
        row = int(ties[np.argmin(basis[ties])])  # Bland: smallest basic variable
        if used >= budget:
            raise SolverFailureError(
                f"simplex exceeded its pivot budget of {budget} iterations"
            )
        before = tableau[-1, -1]
        _pivot(tableau, basis, row, col, deadline)
        used += 1
        if abs(tableau[-1, -1] - before) <= 1e-12 * (1.0 + abs(before)):
            stalled += 1
        else:
            stalled = 0


def solve(lp: LinearProgram, max_iterations: int | None = None,
          deadline: float | None = None) -> LpSolution:
    """Solve a linear program.

    Infeasibility and unboundedness are reported through the solution status,
    never raised. Exceeding the pivot budget (default 50 * (num_vars +
    num_constraints), shared across both phases) raises
    :class:`SolverFailureError`; a pivot attempted after ``deadline`` (a
    ``time.perf_counter()`` value) raises ``TimeoutError``.
    """
    n = lp.num_vars
    m_ub = lp.ineq_matrix.shape[0]
    m_eq = lp.eq_matrix.shape[0]
    m = m_ub + m_eq
    budget = max_iterations if max_iterations is not None else ITERATION_CAP_FACTOR * (n + m)

    if m == 0:
        # only bounds: each variable sits at its lower bound unless the
        # objective rewards pushing it up forever
        if np.any(lp.objective < -PIVOT_TOL):
            return LpSolution(LpStatus.UNBOUNDED)
        values = lp.lower_bounds.copy()
        return LpSolution(LpStatus.OPTIMAL, values, float(lp.objective @ values))

    # shift to w = v - lb >= 0
    b_ub = lp.ineq_rhs - lp.ineq_matrix @ lp.lower_bounds
    b_eq = lp.eq_rhs - lp.eq_matrix @ lp.lower_bounds

    # equilibrate inequality rows (their rhs scales along, so the feasible
    # set is untouched) and nudge each rhs by a distinct graded epsilon to
    # break the massive ties of zero-rhs incentive rows
    a_ub = lp.ineq_matrix
    if m_ub:
        scale = np.abs(a_ub).max(axis=1)
        scale[scale == 0.0] = 1.0
        a_ub = a_ub / scale[:, None]
        b_ub = b_ub / scale + DEGENERACY_EPS * np.arange(1, m_ub + 1)

    num_structural = n + m_ub  # original vars plus one slack per inequality
    rows = np.zeros((m, num_structural))
    rows[:m_ub, :n] = a_ub
    rows[:m_ub, n:] = np.eye(m_ub)
    rows[m_ub:, :n] = lp.eq_matrix
    rhs = np.concatenate([b_ub, b_eq])
    flipped = rhs < 0
    rows[flipped] *= -1.0
    rhs = np.abs(rhs)

    # inequality rows that kept their +1 slack start basic on it; flipped
    # inequality rows and all equality rows get an artificial variable
    needs_artificial = np.ones(m, dtype=bool)
    needs_artificial[:m_ub] = flipped[:m_ub]
    artificial_rows = np.nonzero(needs_artificial)[0]
    n_art = artificial_rows.size

    tableau = np.zeros((m + 1, num_structural + n_art + 1))
    tableau[:m, :num_structural] = rows
    tableau[:m, -1] = rhs
    basis = np.empty(m, dtype=int)
    slack_rows = np.nonzero(~needs_artificial)[0]
    basis[slack_rows] = n + slack_rows
    for k, r in enumerate(artificial_rows):
        tableau[r, num_structural + k] = 1.0
        basis[r] = num_structural + k

    used_total = 0
    if n_art:
        # phase 1: minimize the sum of artificials, basis already priced out
        tableau[-1, :] = 0.0
        tableau[-1, num_structural:num_structural + n_art] = 1.0
        for r in artificial_rows:
            tableau[-1, :] -= tableau[r, :]
        status, used = _simplex_iterate(tableau, basis, budget, deadline)
        used_total += used
        if status == "unbounded":  # impossible for a sum of nonnegatives
            raise SolverFailureError("phase-1 simplex reported unbounded")
        if -tableau[-1, -1] > FEASIBILITY_TOL:
            return LpSolution(LpStatus.INFEASIBLE)

        # pivot leftover artificials out of the basis; rows where that is
        # impossible are redundant and dropped
        drop_rows = []
        for r in range(m):
            if basis[r] < num_structural:
                continue
            eligible = np.nonzero(np.abs(tableau[r, :num_structural]) > PIVOT_TOL)[0]
            eligible = [j for j in eligible if j not in set(basis)]
            if eligible:
                _pivot(tableau, basis, r, int(eligible[0]), deadline)
            else:
                drop_rows.append(r)
        if drop_rows:
            keep = np.setdiff1d(np.arange(m), drop_rows)
            tableau = tableau[np.concatenate([keep, [m]])]
            basis = basis[keep]
            m = keep.size
        tableau = np.hstack([tableau[:, :num_structural], tableau[:, -1:]])

    # phase 2 objective, priced out against the current basis
    objective_row = np.zeros(num_structural + 1)
    objective_row[:n] = lp.objective
    for r in range(m):
        coef = objective_row[basis[r]]
        if coef != 0.0:
            objective_row -= coef * tableau[r]
    tableau[-1] = objective_row
    status, used = _simplex_iterate(tableau, basis, budget - used_total, deadline)
    if status == "unbounded":
        return LpSolution(LpStatus.UNBOUNDED)

    solution = np.zeros(num_structural)
    solution[basis] = tableau[:m, -1]
    values = solution[:n] + lp.lower_bounds
    return LpSolution(LpStatus.OPTIMAL, values, float(lp.objective @ values))


def format_lp(lp: LinearProgram) -> str:
    """Plain-text dump of an LP for offline inspection.

    One line per constraint: coefficients in variable order, then the
    relation and right-hand side. Zero coefficients are printed so columns
    line up with variable indices.
    """
    lines = ["minimize", "  " + " ".join(f"{c:.12g}" for c in lp.objective)]
    if lp.ineq_matrix.shape[0]:
        lines.append("subject to (<=)")
        for row, rhs in zip(lp.ineq_matrix, lp.ineq_rhs):
            lines.append("  " + " ".join(f"{a:.12g}" for a in row) + f" <= {rhs:.12g}")
    if lp.eq_matrix.shape[0]:
        lines.append("subject to (=)")
        for row, rhs in zip(lp.eq_matrix, lp.eq_rhs):
            lines.append("  " + " ".join(f"{a:.12g}" for a in row) + f" == {rhs:.12g}")
    lines.append("bounds (v >= lb)")
    lines.append("  " + " ".join(f"{b:.12g}" for b in lp.lower_bounds))
    return "\n".join(lines) + "\n"
