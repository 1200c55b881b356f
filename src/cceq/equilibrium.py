"""Equilibrium selection programs over finite games.

Covers the full pipeline: assembling (tightened) incentive-compatibility
rows straight into the column-wise form the LP solver takes, solving the
correlated-equilibrium selection LP, checking a given distribution,
enumerating chance-constrained pure Nash equilibria (CC-PNE), the
reduced-rank program over their convex hull, and sampling recommendations.

Chance constraints are never Monte-Carlo estimated here: each probabilistic
incentive constraint is replaced by its exact deterministic equivalent, the
nominal margin tightened by the perturbation's alpha-quantile. With zero
perturbation every operation reduces exactly to its nominal counterpart.
"""

from __future__ import annotations

import math
import resource
from dataclasses import dataclass

import numpy as np

from . import lp as lpmod
from .game import (
    MASS_TOL,
    FiniteGame,
    JointDistribution,
    check_joint_space,
    flat_index,
    incentive_gains,
    unflatten,
)
from .lp import LinearProgram, LpStatus, SolverFailureError
from .uncertainty import UncertaintyModel

__all__ = [
    "CcPneSet",
    "EquilibriumResult",
    "FEASIBILITY_TOL",
    "RrSolution",
    "assemble_ce_constraints",
    "ccce_program",
    "check_ccce_feasibility",
    "enumerate_cc_pne",
    "is_cc_pne",
    "sample_recommendation",
    "solve_full_ccce",
    "solve_nominal_ce",
    "solve_reduced_rank",
]

# Constraint replay tolerance, consistent with the LP module contract.
FEASIBILITY_TOL = 1e-7
# Peak RSS growth of one selection solve per constraint nonzero: assembly,
# the column-wise program and HiGHS's own copy. Measured with ru_maxrss in a
# child process (2-core Xeon, scipy 1.17.1): 101 B on the default grid's
# largest program (14 flights, master seed 0, trial 9, sigma 1: 4.3M
# nonzeros, 42 -> 458 MB), 105-114 B at 12 and 13 flights; rounded up.
BYTES_PER_NONZERO = 120


@dataclass(frozen=True, eq=False)
class CcPneSet:
    """CC-PNE profiles found at a given confidence level, kept as ascending
    flat indices into the joint action space."""

    flats: np.ndarray
    action_counts: tuple[int, ...]
    alpha_used: float

    def __len__(self) -> int:
        return len(self.flats)

    @property
    def profiles(self) -> tuple[tuple[int, ...], ...]:
        """The profiles as coordinate tuples, built on each access."""
        return tuple(unflatten(int(f), self.action_counts) for f in self.flats)


@dataclass(frozen=True)
class EquilibriumResult:
    """Outcome of a CE / CC-CE selection solve."""

    status: LpStatus
    distribution: JointDistribution | None = None
    objective: float | None = None


@dataclass(frozen=True)
class RrSolution:
    """Reduced-rank solution: simplex weights over the CC-PNE profiles."""

    status: LpStatus
    weights: np.ndarray | None = None
    induced: JointDistribution | None = None
    objective: float | None = None


def _quantiles(game: FiniteGame, unc: UncertaintyModel, alpha: float) -> np.ndarray:
    """Per-agent tightenings: each agent's perturbation alpha-quantile."""
    if unc.num_agents != game.num_agents:
        raise ValueError(
            f"uncertainty model covers {unc.num_agents} agents, game has {game.num_agents}"
        )
    return unc.quantiles(alpha)


def assemble_ce_constraints(game: FiniteGame, quantiles) -> tuple[np.ndarray, np.ndarray]:
    """Constraint columns of the (tightened) CE selection program.

    Row (i, rec, alt) encodes, for agent i, recommendation rec and
    alternative alt != rec, the unnormalized incentive constraint

        sum_{x_others} z(rec, x_others) * (J_i(rec, .) - J_i(alt, .) + q_i) <= 0,

    i.e. ``incentive_gains(game, z, i)[0][rec, alt] + q_i * marginal(rec) <= 0``:
    the deterministic equivalent of the conditional constraint whenever the
    recommendation's marginal is positive, and vacuous (0 <= 0) when it is
    zero. ``quantiles`` holds one tightening q_i per agent (zeros for the
    nominal program). Rows are ordered by agent, then rec, then alt, and
    number R = sum_i m_i * (m_i - 1); row R is the probability-simplex row.

    Returns ``(index, value)``, each of shape (num_joint, sum_i (m_i - 1) + 1):
    joint action x's column holds, agent by agent, the rows (i, x_i, alt) for
    each alt != x_i in ascending order, then a 1 in the simplex row, so row
    indices ascend within every column.
    """
    q = np.asarray(quantiles, dtype=float)
    if q.shape != (game.num_agents,):
        raise ValueError(f"need one tightening per agent, got shape {q.shape}")
    counts = game.action_counts
    width = sum(m - 1 for m in counts) + 1
    index = np.empty((game.num_joint, width), dtype=np.int32)
    value = np.empty((game.num_joint, width))
    row0 = 0
    col0 = 0
    for i, m in enumerate(counts):
        if m == 1:
            continue
        recs = np.arange(m)
        slots = np.arange(m - 1)
        alts = slots + (slots >= recs[:, None])
        # entries[rec, ..., slot]: the joint grid with agent i's axis first
        cost = np.moveaxis(game.cost_grid(i), i, 0)
        entries = np.moveaxis(cost[:, None] - cost[alts] + q[i], 1, -1)
        value[:, col0:col0 + m - 1] = np.moveaxis(entries, 0, i).reshape(-1, m - 1)
        own = np.arange(m).reshape([m if k == i else 1 for k in range(len(counts))])
        rows = row0 + (m - 1) * np.broadcast_to(own, counts).reshape(-1, 1) + slots
        index[:, col0:col0 + m - 1] = rows
        row0 += m * (m - 1)
        col0 += m - 1
    index[:, -1] = row0
    value[:, -1] = 1.0
    return index, value


def _available_memory_bytes() -> float:
    """MemAvailable from /proc/meminfo, capped by the room left under a soft
    RLIMIT_AS; inf when neither is known."""
    available = math.inf
    limit = resource.getrlimit(resource.RLIMIT_AS)[0]
    try:
        with open("/proc/meminfo") as handle:
            for line in handle:
                if line.startswith("MemAvailable:"):
                    available = int(line.split()[1]) * 1024
                    break
        if limit != resource.RLIM_INFINITY:
            with open("/proc/self/statm") as handle:  # first field: address space in pages
                used = int(handle.read().split()[0]) * resource.getpagesize()
            available = min(available, limit - used)
    except OSError:  # no procfs
        pass
    return available


def ccce_program(game: FiniteGame, quantiles, sys_cost) -> LinearProgram:
    """The selection LP: minimize expected system cost over the tightened CE polytope.

    Raises MemoryError, before anything is allocated, when the program is not
    expected to fit in the memory available.
    """
    objective = np.ascontiguousarray(sys_cost, dtype=float)
    if objective.shape != (game.num_joint,):
        raise ValueError("sys_cost must assign one finite value per joint action")
    if not np.all(np.isfinite(objective)):
        raise ValueError("sys_cost must be finite everywhere")
    nonzeros = game.num_joint * (sum(m - 1 for m in game.action_counts) + 1)
    needed, available = nonzeros * BYTES_PER_NONZERO, _available_memory_bytes()
    if needed > available:
        raise MemoryError(f"selection program with {nonzeros} nonzeros needs about "
                          f"{needed / 2**20:.0f} MB; {available / 2**20:.0f} MB available")
    index, value = assemble_ce_constraints(game, quantiles)
    num_incentive = sum(m * (m - 1) for m in game.action_counts)
    row_upper = np.append(np.zeros(num_incentive), 1.0)
    row_lower = np.append(np.full(num_incentive, -np.inf), 1.0)
    return LinearProgram(
        objective=objective,
        start=np.arange(game.num_joint + 1) * index.shape[1],
        index=index,
        value=value,
        row_lower=row_lower,
        row_upper=row_upper,
        lower_bounds=np.zeros(game.num_joint),
    )


def _solve_selection(game: FiniteGame, quantiles, sys_cost,
                     deadline: float | None = None) -> EquilibriumResult:
    solution = lpmod.solve(ccce_program(game, quantiles, sys_cost), deadline=deadline)
    if solution.status == LpStatus.INFEASIBLE:
        return EquilibriumResult(LpStatus.INFEASIBLE)
    if solution.status != LpStatus.OPTIMAL:  # bounded feasible set; defensive
        raise SolverFailureError("selection LP reported unbounded")
    # within the solver's feasibility tolerance a vertex can carry "ghost"
    # masses on joint actions whose incentive constraints fail; kept, their
    # tiny marginals would blow the normalized margins up
    mass = np.where(solution.values < MASS_TOL, 0.0, solution.values)
    mass /= mass.sum()
    dist = JointDistribution(mass, game.action_counts)
    worst = _worst_margin(game, dist, quantiles)
    if not worst <= FEASIBILITY_TOL:
        raise SolverFailureError(
            f"selection LP result fails the CC-CE check: worst margin {worst:.6g}"
        )
    return EquilibriumResult(LpStatus.OPTIMAL, dist, float(solution.objective_value))


def solve_nominal_ce(game: FiniteGame, sys_cost) -> EquilibriumResult:
    """Minimize expected system cost over the nominal CE polytope."""
    return _solve_selection(game, np.zeros(game.num_agents), sys_cost)


def solve_full_ccce(
    game: FiniteGame, unc: UncertaintyModel, alpha: float, sys_cost,
    deadline: float | None = None,
) -> EquilibriumResult:
    """Minimize expected system cost over the chance-constrained CE polytope.

    Every incentive row is tightened by the alpha-quantile of the acting
    agent's perturbation. The returned distribution carries no mass below
    ``MASS_TOL`` and has passed :func:`check_ccce_feasibility`; one that
    fails it raises :class:`SolverFailureError`, as do other LP solver
    failures. A program not expected to fit in memory raises MemoryError
    before it is assembled. Infeasibility of the tightened polytope is
    reported through the result status. ``deadline``, a
    ``time.perf_counter()`` value, bounds the solve: it is checked once the
    program is assembled, the time left becomes the solver's time limit, and
    passing it raises ``TimeoutError``.
    """
    return _solve_selection(game, _quantiles(game, unc, alpha), sys_cost, deadline)


def _worst_margin(game: FiniteGame, z: JointDistribution, quantiles) -> float:
    """Largest normalized tightened incentive margin over the constraints with
    positive recommendation marginal; -inf when there are none."""
    worst = -math.inf
    for i in range(game.num_agents):
        gains, marginals = incentive_gains(game, z, i)
        positive = marginals > 0.0
        margins = gains / np.where(positive, marginals, 1.0)[:, None] + quantiles[i]
        margins[~positive, :] = -math.inf
        np.fill_diagonal(margins, -math.inf)
        worst = max(worst, float(margins.max()))
    return worst


def check_ccce_feasibility(
    game: FiniteGame,
    z: JointDistribution,
    unc: UncertaintyModel,
    alpha: float,
    tol: float = FEASIBILITY_TOL,
) -> tuple[bool, float]:
    """Check a distribution against every tightened incentive constraint.

    Returns ``(feasible, worst)`` where ``worst`` is the maximum over
    constraints with positive recommendation marginal of the normalized
    left-hand side (conditional expected deviation gain plus tightening);
    ``feasible`` means ``worst <= tol``. Zero-marginal constraints are
    vacuous and excluded from the maximum.
    """
    worst = _worst_margin(game, z, _quantiles(game, unc, alpha))
    return worst <= tol, worst


def is_cc_pne(game: FiniteGame, profile, unc: UncertaintyModel, alpha: float) -> bool:
    """Whether a pure profile is a CC-PNE at the given confidence level.

    Deterministic equivalent check: for every agent and every alternative,
    the nominal deviation margin plus the agent's alpha-quantile must be
    nonpositive. Costs sum_i (m_i - 1) comparisons.
    """
    q = _quantiles(game, unc, alpha)
    coords = tuple(int(c) for c in profile)
    flat_index(coords, game.action_counts)  # validates ranges
    for i, m in enumerate(game.action_counts):
        if m == 1:
            continue
        selector = list(coords)
        selector[i] = slice(None)
        line = game.cost_grid(i)[tuple(selector)]
        own = line[coords[i]]
        others = np.delete(line, coords[i])
        if own + q[i] > others.min():
            return False
    return True


def enumerate_cc_pne(
    game: FiniteGame,
    unc: UncertaintyModel,
    alpha: float,
    limit: int | None = None,
) -> CcPneSet:
    """Exhaustively enumerate CC-PNE profiles, in ascending flat-index order.

    An empty set is a valid result. ``limit`` truncates to the first matches
    in enumeration order; a joint space larger than
    :data:`cceq.game.JOINT_SPACE_CAP` raises :class:`BudgetExceededError`.
    """
    q = _quantiles(game, unc, alpha)
    check_joint_space(game.action_counts)
    ok = np.ones(game.num_joint, dtype=bool)
    stride = game.num_joint
    for i, m in enumerate(game.action_counts):
        stride //= m
        if m == 1:
            continue
        cost = game.costs[i].reshape(-1, m, stride)  # [before, own action, after]
        if m == 2:
            best_other = cost[:, ::-1]  # the only alternative, as a view
        else:
            two_smallest = np.partition(cost, 1, axis=1)
            lowest, second = two_smallest[:, :1], two_smallest[:, 1:2]
            # cheapest alternative: the runner-up for the unique minimizer
            # (the only action below it), the (tied) minimum otherwise; with
            # q > 0 only the unique minimizer can pass, so the runner-up decides
            best_other = second if q[i] > 0.0 else np.where(cost < second, second, lowest)
        ok &= (cost + q[i] <= best_other).reshape(-1)
    flats = np.nonzero(ok)[0]
    if limit is not None:
        flats = flats[: int(limit)]
    return CcPneSet(flats, game.action_counts, float(alpha))


def solve_reduced_rank(game: FiniteGame, pne_set: CcPneSet, sys_cost) -> RrSolution:
    """Minimize system cost over convex combinations of the given pure profiles.

    Closed form: all weight on the cheapest profile, ties broken toward the
    lowest index. An empty profile set yields an infeasible result.
    """
    if len(pne_set) == 0:
        return RrSolution(LpStatus.INFEASIBLE)
    values = np.asarray(sys_cost, dtype=float)[pne_set.flats]
    best = int(np.argmin(values))  # first minimum: lowest-index tie rule
    weights = np.zeros(len(values))
    weights[best] = 1.0
    mass = np.zeros(game.num_joint)
    mass[pne_set.flats[best]] = 1.0
    induced = JointDistribution(mass, game.action_counts)
    return RrSolution(LpStatus.OPTIMAL, weights, induced, float(values[best]))


def sample_recommendation(z: JointDistribution, rng: np.random.Generator) -> tuple[int, ...]:
    """Draw one joint action from z by inverse CDF over its support.

    Zero-mass joint actions are never returned; a fixed generator state gives
    a fixed draw.
    """
    support = z.support
    if support.size == 0:
        raise ValueError("distribution has empty support")
    cumulative = np.cumsum(z.mass[support])
    u = rng.random() * cumulative[-1]
    k = int(np.searchsorted(cumulative, u, side="right"))
    k = min(k, support.size - 1)
    return unflatten(int(support[k]), z.action_counts)
