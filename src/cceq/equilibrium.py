"""Equilibrium selection programs over finite games.

Covers the full pipeline: assembling (tightened) incentive-compatibility
rows straight into the column-wise form the LP solver takes, solving the
correlated-equilibrium selection LP, checking a given distribution,
enumerating chance-constrained pure Nash equilibria (CC-PNE), the
reduced-rank program over their convex hull, and sampling recommendations.

Chance constraints are never Monte-Carlo estimated here: each probabilistic
incentive constraint is replaced by its exact deterministic equivalent, the
nominal margin tightened by the acting agent's perturbation alpha-quantile
q_i. Every function takes the vector q (see
:func:`cceq.uncertainty.tightenings`); with q = 0 each reduces exactly to its
nominal counterpart.
"""

from __future__ import annotations

import functools
import math
import os
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

__all__ = [
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
# What cgroup v1's memory.limit_in_bytes reads when no limit is set: the
# largest int64 rounded down to a 4 KiB page.
_CGROUP_V1_NO_LIMIT = 9223372036854771712
# From this joint-space size up, enumerate_cc_pne finds each line's runner-up
# by a pairwise tournament over a contiguous copy; below it one np.partition
# call costs less. Measured per call on the airport games (q > 0): the
# tournament takes 1.18x partition's time at 256 profiles, 1.00x at 1024,
# 0.87x at 2048; at 16384 partition costs 75-380 us per agent.
_TOURNAMENT_MIN_JOINT = 2048


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


def _tightenings(game: FiniteGame, q) -> np.ndarray:
    """``q`` as a float array holding one finite tightening per agent."""
    q = np.asarray(q, dtype=float)
    if q.shape != (game.num_agents,) or not np.isfinite(q).all():
        raise ValueError(f"need one finite tightening per agent, got {q!r}")
    return q


def assemble_ce_constraints(game: FiniteGame, q) -> tuple[np.ndarray, np.ndarray]:
    """Constraint columns of the (tightened) CE selection program.

    Row (i, rec, alt) encodes, for agent i, recommendation rec and
    alternative alt != rec, the unnormalized incentive constraint

        sum_{x_others} z(rec, x_others) * (J_i(rec, .) - J_i(alt, .) + q_i) <= 0,

    i.e. ``incentive_gains(game, z)[i][0][rec, alt] + q_i * marginal(rec) <= 0``:
    the deterministic equivalent of the conditional constraint whenever the
    recommendation's marginal is positive, and vacuous (0 <= 0) when it is
    zero. ``q`` holds one tightening q_i per agent (zeros for the nominal
    program). Rows are ordered by agent, then rec, then alt, and
    number R = sum_i m_i * (m_i - 1); row R is the probability-simplex row.

    Returns ``(index, value)``, each of shape (num_joint, sum_i (m_i - 1) + 1):
    joint action x's column holds, agent by agent, the rows (i, x_i, alt) for
    each alt != x_i in ascending order, then a 1 in the simplex row, so row
    indices ascend within every column.
    """
    q = _tightenings(game, q)
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


def _read_small_file(path: str) -> str:
    """A procfs or cgroup file of at most a page, read with one system call
    (about 3 us, against 10-20 us through open())."""
    fd = os.open(path, os.O_RDONLY)
    try:
        return os.read(fd, 4096).decode()
    finally:
        os.close(fd)


@functools.lru_cache(maxsize=None)
def _cgroup_memory_files(root: str, membership: str) -> tuple[str, str] | None:
    """(limit, usage) files of the process's memory cgroup: v2's memory.max
    and memory.current, else v1's memory.limit_in_bytes and
    memory.usage_in_bytes; None without them. The process's own cgroup (from
    ``membership``) is looked up under the mount first, then the mount's
    root, which in a container is the container's cgroup. A process does not
    change cgroup, so the lookup is made once."""
    try:  # lines "id:controllers:path"
        own = dict(line.split(":", 2)[1:] for line in _read_small_file(membership).splitlines())
    except (OSError, ValueError):
        own = {}
    for controller, mount, limit_file, usage_file in (
        ("", root, "memory.max", "memory.current"),
        ("memory", os.path.join(root, "memory"), "memory.limit_in_bytes", "memory.usage_in_bytes"),
    ):
        path = own.get(controller, "/").strip("/")
        for directory in (os.path.join(mount, path), mount) if path else (mount,):
            files = (os.path.join(directory, limit_file), os.path.join(directory, usage_file))
            if all(os.path.isfile(f) for f in files):
                return files
    return None


def _cgroup_memory_room(root: str = "/sys/fs/cgroup",
                        membership: str = "/proc/self/cgroup") -> float:
    """Bytes left under the memory limit of the process's cgroup (see
    :func:`_cgroup_memory_files`); inf with no limit or no cgroup files."""
    files = _cgroup_memory_files(root, membership)
    if files is None:
        return math.inf
    try:
        limit = _read_small_file(files[0]).strip()
        if limit == "max" or int(limit) >= _CGROUP_V1_NO_LIMIT:
            return math.inf
        return float(int(limit) - int(_read_small_file(files[1])))
    except (OSError, ValueError):
        return math.inf


def _available_memory_bytes() -> float:
    """MemAvailable from /proc/meminfo, capped by the room left under a soft
    RLIMIT_AS and under the process's cgroup memory limit; inf when none is
    known."""
    available = _cgroup_memory_room()
    limit = resource.getrlimit(resource.RLIMIT_AS)[0]
    try:
        for line in _read_small_file("/proc/meminfo").splitlines():
            if line.startswith("MemAvailable:"):
                available = min(available, int(line.split()[1]) * 1024)
                break
        if limit != resource.RLIM_INFINITY:
            # first field of statm: address space in pages
            used = int(_read_small_file("/proc/self/statm").split()[0]) * resource.getpagesize()
            available = min(available, limit - used)
    except OSError:  # no procfs
        pass
    return available


def ccce_program(game: FiniteGame, q, sys_cost) -> LinearProgram:
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
    index, value = assemble_ce_constraints(game, q)
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


def solve_full_ccce(game: FiniteGame, q, sys_cost,
                    deadline: float | None = None) -> EquilibriumResult:
    """Minimize expected system cost over the chance-constrained CE polytope.

    Every incentive row of agent i is tightened by ``q[i]``; q = 0 gives the
    nominal CE polytope. The returned distribution carries no mass below
    ``MASS_TOL`` and has passed :func:`check_ccce_feasibility`; one that
    fails it raises :class:`SolverFailureError`, as do other LP solver
    failures. A program not expected to fit in memory raises MemoryError
    before it is assembled. Infeasibility of the tightened polytope is
    reported through the result status. ``deadline``, a
    ``time.perf_counter()`` value, bounds the solve: it is checked once the
    program is assembled, the time left becomes the solver's time limit, and
    passing it raises ``TimeoutError``.
    """
    q = _tightenings(game, q)
    solution = lpmod.solve(ccce_program(game, q, sys_cost), deadline=deadline)
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
    worst = _worst_margin(game, dist, q)
    if not worst <= FEASIBILITY_TOL:
        raise SolverFailureError(
            f"selection LP result fails the CC-CE check: worst margin {worst:.6g}"
        )
    return EquilibriumResult(LpStatus.OPTIMAL, dist, float(solution.objective_value))


def _worst_margin(game: FiniteGame, z: JointDistribution, q: np.ndarray) -> float:
    """Largest normalized tightened incentive margin over the constraints with
    positive recommendation marginal; -inf when there are none."""
    worst = -math.inf
    for i, (gains, marginals) in enumerate(incentive_gains(game, z)):
        positive = marginals > 0.0
        margins = gains / np.where(positive, marginals, 1.0)[:, None] + q[i]
        margins[~positive, :] = -math.inf
        np.fill_diagonal(margins, -math.inf)
        worst = max(worst, float(margins.max()))
    return worst


def check_ccce_feasibility(game: FiniteGame, z: JointDistribution, q,
                           tol: float = FEASIBILITY_TOL) -> tuple[bool, float]:
    """Check a distribution against every incentive constraint tightened by ``q``.

    Returns ``(feasible, worst)`` where ``worst`` is the maximum over
    constraints with positive recommendation marginal of the normalized
    left-hand side (conditional expected deviation gain plus tightening);
    ``feasible`` means ``worst <= tol``. Zero-marginal constraints are
    vacuous and excluded from the maximum.
    """
    worst = _worst_margin(game, z, _tightenings(game, q))
    return worst <= tol, worst


def is_cc_pne(game: FiniteGame, profile, q) -> bool:
    """Whether a pure profile is a CC-PNE under the tightenings ``q``.

    Deterministic equivalent check: for every agent and every alternative,
    the nominal deviation margin plus the agent's tightening q_i must be
    nonpositive, i.e. ``cost + q_i <= min over the other actions`` on the
    line of the agent's own actions through the profile. Costs
    sum_i (m_i - 1) comparisons.
    """
    q = _tightenings(game, q).tolist()
    flat = flat_index(profile, game.action_counts)  # validates ranges
    stride = game.num_joint
    for i, m in enumerate(game.action_counts):
        stride //= m
        if m == 1:
            continue
        action = flat // stride % m
        start = flat - action * stride
        line = game.costs[i, start:start + m * stride:stride].copy()
        own = line[action]
        line[action] = math.inf  # the line's minimum is now over the other actions
        if own + q[i] > line.min():
            return False
    return True


def _own_action_first(cost: np.ndarray) -> np.ndarray:
    """A contiguous [own action, before, after] copy of a [before, own action,
    after] cost view: numpy reduces a middle axis slowly when ``after`` is
    short, and reduces the leading axis of this copy row by row."""
    return np.ascontiguousarray(cost.transpose(1, 0, 2))


def _two_smallest(lines: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Smallest and second smallest entry along axis 0, a tied minimum
    counting twice, by a pairwise tournament: about 2 + 4 log2(m) elementwise
    calls over contiguous halves instead of one partitioned copy."""
    half = len(lines) // 2
    a, b = lines[:half], lines[half:2 * half]
    lo, second = np.minimum(a, b), np.maximum(a, b)
    if len(lines) % 2:  # fold the unpaired last row into pair 0
        np.minimum(second[0], np.maximum(lo[0], lines[-1]), out=second[0])
        np.minimum(lo[0], lines[-1], out=lo[0])
    while len(lo) > 1:
        if len(lo) % 2:
            np.minimum(second[0], second[-1], out=second[0])
            np.minimum(second[0], np.maximum(lo[0], lo[-1]), out=second[0])
            np.minimum(lo[0], lo[-1], out=lo[0])
            lo, second = lo[:-1], second[:-1]
        half = len(lo) // 2
        a, b = lo[:half], lo[half:]
        second = np.minimum(np.maximum(a, b), np.minimum(second[:half], second[half:]))
        lo = np.minimum(a, b)
    return lo[0], second[0]


def enumerate_cc_pne(game: FiniteGame, q, limit: int | None = None) -> np.ndarray:
    """Exhaustively enumerate the CC-PNE under the tightenings ``q``: their
    ascending flat indices into the joint action space.

    An empty array is a valid result. ``limit``, if given, must be
    nonnegative and truncates to the first matches; a joint space larger than
    :data:`cceq.game.JOINT_SPACE_CAP` raises :class:`BudgetExceededError`.

    Agent i passes at a profile iff ``cost + q_i <= min over its other
    actions`` on the line of its own actions through the profile, the test of
    :func:`is_cc_pne`, decided from per-line statistics: with ``q_i <= 0``
    it is ``cost + q_i <= line minimum`` (the action itself is no obstacle,
    ``cost + q_i <= cost``); with ``q_i > 0`` only a minimizer can pass, and
    it does iff ``minimum + q_i <= runner-up``, a tied minimum being its own
    runner-up.
    """
    q = _tightenings(game, q).tolist()
    if limit is not None and limit < 0:
        raise ValueError(f"limit must be nonnegative, got {limit!r}")
    check_joint_space(game.action_counts)
    ok = None
    cost_ulp = None  # ulp of the largest cost magnitude, computed on first need
    after = game.num_joint
    for i, m in enumerate(game.action_counts):
        after //= m
        if m == 1:
            continue
        cost = game.costs[i].reshape(-1, m, after)  # [before, own action, after]
        if m > 2 and q[i] > 0.0:
            if game.num_joint < _TOURNAMENT_MIN_JOINT:
                two = np.partition(cost, 1, axis=1)
                lo, second = two[:, :1], two[:, 1:2]
                if cost_ulp is None:
                    cost_ulp = math.ulp(float(np.abs(game.costs).max()))
                q_beyond_ulp = q[i] > cost_ulp
            else:
                lo, second = _two_smallest(_own_action_first(cost))
                lo, second = lo[:, None], second[:, None]
                q_beyond_ulp = False  # here both tests cost about the same
            if q_beyond_ulp:
                # cost + q > cost for every cost, so only a unique minimizer
                # can stay within the runner-up: two calls instead of four
                passes = cost + q[i] <= second
            else:
                # a minimizer passes iff it beats the runner-up by q; NaN matches nothing
                passes = cost == np.where(lo + q[i] <= second, lo, np.nan)
        else:  # q <= 0, or two actions: the other one, as a view, is the bar
            bar = cost[:, ::-1] if m == 2 else _own_action_first(cost).min(axis=0)[:, None]
            passes = (cost + q[i] if q[i] else cost) <= bar
        if ok is None:
            ok = passes.reshape(-1)
        else:
            ok &= passes.reshape(-1)
    flats = np.nonzero(ok)[0] if ok is not None else np.arange(game.num_joint)
    if limit is not None:
        flats = flats[: int(limit)]
    return flats


def solve_reduced_rank(game: FiniteGame, flats: np.ndarray, sys_cost) -> RrSolution:
    """Minimize system cost over convex combinations of the pure profiles at
    the ascending flat indices ``flats``, e.g. :func:`enumerate_cc_pne`'s.

    Closed form: all weight on the cheapest profile, ties broken toward the
    lowest index. No profile at all yields an infeasible result.
    """
    if len(flats) == 0:
        return RrSolution(LpStatus.INFEASIBLE)
    values = np.asarray(sys_cost, dtype=float)[flats]
    best = int(np.argmin(values))  # first minimum: lowest-index tie rule
    weights = np.zeros(len(values))
    weights[best] = 1.0
    mass = np.zeros(game.num_joint)
    mass[flats[best]] = 1.0
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
