"""Equilibrium selection programs over finite games.

Covers the full pipeline: assembling the (tightened) correlated-equilibrium
selection LP straight into the column-wise form the LP solver takes, solving
it, checking a given distribution, enumerating chance-constrained pure Nash
equilibria (CC-PNE), the reduced-rank program over their convex hull, and
sampling recommendations.

The selection LP is written over each agent's cost lines: an agent's costs
depend on the others only through its opponent key, so each incentive row
reads the (own action, opponent key) marginals of the joint distribution z,
which key rows tie to z (the compact form of Papadimitriou & Roughgarden
2008). Only z's own columns, n + 1 nonzeros each, grow with the joint
space; the incentive rows grow with the agents' lines.

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
    flat_incentive_gains,
    gain_layout,
    unflatten,
)
from .lp import LinearProgram, LpStatus, SolverFailureError

__all__ = [
    "EquilibriumResult",
    "FEASIBILITY_TOL",
    "assemble_ce_constraints",
    "ccce_program",
    "check_ccce_feasibility",
    "enumerate_cc_pne",
    "sample_recommendation",
    "solve_full_ccce",
    "solve_reduced_rank",
]

# Constraint replay tolerance, consistent with the LP module contract.
FEASIBILITY_TOL = 1e-7
# Peak RSS growth of one selection solve per constraint nonzero: assembly,
# the column-wise program and HiGHS's own copy, whose per-row and per-column
# arrays weigh more on the smaller programs. Measured with ru_maxrss in a
# child process (2-core Xeon, scipy 1.17.1, master seed 0, sigma 1): 149 B
# on the default grid's largest program (14 flights, trial 9: 1.08M
# nonzeros, 40 -> 193 MB), 163 B on the two largest at 13 flights and
# 182-186 B on those at 12; rounded up.
BYTES_PER_NONZERO = 190
# What cgroup v1's memory.limit_in_bytes reads when no limit is set: the
# largest int64 rounded down to a 4 KiB page.
_CGROUP_V1_NO_LIMIT = 9223372036854771712


@dataclass(frozen=True)
class EquilibriumResult:
    """Outcome of a CE / CC-CE selection solve."""

    status: LpStatus
    distribution: JointDistribution | None = None
    objective: float | None = None


def _tightenings(game: FiniteGame, q) -> np.ndarray:
    """``q`` as a float array holding one finite tightening per agent."""
    q = np.asarray(q, dtype=float)
    if q.shape != (game.num_agents,) or not np.isfinite(q).all():
        raise ValueError(f"need one finite tightening per agent, got {q!r}")
    return q


def assemble_ce_constraints(game: FiniteGame, q) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Constraint columns of the (tightened) CE selection program.

    The variables are z, one per joint action in flat order, then one key
    marginal w_e per entry e = (agent i, key k, own action a) of
    ``game.flat_lines``: the mass z puts on the joint actions where agent i
    plays a against opponent key k. Agent i's costs depend on the others only
    through its key, so its incentive row (i, rec, alt), for recommendation
    rec and alternative alt != rec, reads w alone:

        sum_k (L_i[rec, k] - L_i[alt, k] + q_i) * w_(i, k, rec) <= 0,

    with w substituted ``gains(i, rec, alt) + q_i * marginal(rec) <= 0``,
    both read off :func:`cceq.game.flat_incentive_gains`: the deterministic
    equivalent of the conditional constraint whenever the recommendation's
    marginal is positive, and vacuous (0 <= 0) when it is zero. ``q`` holds
    one tightening q_i per agent (zeros for the nominal program).

    Rows are the incentive rows, ordered by agent, then rec, then alt, and
    numbering R = sum_i m_i * (m_i - 1); then row R, the probability simplex;
    then row R + 1 + e, entry e's key row: the sum of z over its joint
    actions, minus w_e, is 0.

    Returns ``(start, index, value)``, the columns in compressed form. z's
    column holds n + 1 ones: the simplex row, then each agent's key row at
    the joint action. w_(i, k, a)'s column holds m_i entries: the rows
    (i, a, alt) for each alt != a in ascending order, then -1 in its key
    row. Row indices ascend within every column.
    """
    q = _tightenings(game, q)
    counts = np.array(game.action_counts)
    num_joint, flat, agents = game.num_joint, game.flat_lines, game.entry_agents
    row_counts = counts * (counts - 1)
    simplex_row = int(row_counts.sum())
    z_width = len(counts) + 1
    z_size = num_joint * z_width
    widths = counts[agents]
    ends = np.cumsum(widths)
    index = np.empty(z_size + int(ends[-1]), dtype=np.int32)
    value = np.empty(index.size)
    z_index = index[:z_size].reshape(num_joint, z_width)
    z_index[:, 0] = simplex_row
    z_index[:, 1:] = game.joint_entries().T + (simplex_row + 1)
    value[:z_size] = 1.0
    # all agents' w columns at once: per nonzero, its place in its column,
    # and its column's own action and line, each repeated over the column
    own = game.entry_rows - game.offsets[agents]
    place = np.arange(ends[-1]) - np.repeat(ends - widths, widths)
    # at each place, the position in flat_lines of the alternative's cost,
    # skipping the column's own action; a column's last place reads one past
    # its line, and is then overwritten
    alternatives = (np.repeat(np.arange(flat.size) - own, widths) + place
                    + (place >= np.repeat(own, widths)))
    padded = np.append(flat, 0.0)
    value[z_size:] = (np.repeat(flat, widths) - padded[alternatives]
                      + np.repeat(q[agents], widths))
    first_rows = (np.cumsum(row_counts) - row_counts)[agents] + (widths - 1) * own
    index[z_size:] = np.repeat(first_rows, widths) + place
    last = z_size + ends - 1
    value[last] = -1.0
    index[last] = np.arange(simplex_row + 1, simplex_row + 1 + flat.size)
    start = np.concatenate((np.arange(num_joint) * z_width, z_size + np.append(0, ends)))
    return start, index, value


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


def _selection_nonzeros(game: FiniteGame) -> int:
    """Nonzeros of the selection program's constraint matrix (see
    :func:`assemble_ce_constraints`), from the game's shape alone:
    N * (n + 1) for z, plus m_i entries in each of agent i's m_i * K_i
    w columns."""
    return game.num_joint * (game.num_agents + 1) + sum(
        m * m * line.shape[1] for m, line in zip(game.action_counts, game.lines))


def ccce_program(game: FiniteGame, q, sys_cost) -> LinearProgram:
    """The selection LP: minimize expected system cost over the tightened CE polytope.

    Its variables are z over the joint actions, which the objective prices,
    then the key marginals w, which it does not; rows and columns are laid
    out by :func:`assemble_ce_constraints`. Raises MemoryError, before
    anything is allocated, when the program is not expected to fit in the
    memory available, also after this thread's HiGHS instance, with the
    buffers it keeps from earlier solves, is released.
    """
    nonzeros = _selection_nonzeros(game)
    needed, available = nonzeros * BYTES_PER_NONZERO, _available_memory_bytes()
    if needed > available:
        lpmod.release_solver()
        available = _available_memory_bytes()
    if needed > available:
        raise MemoryError(f"selection program with {nonzeros} nonzeros needs about "
                          f"{needed / 2**20:.0f} MB; {available / 2**20:.0f} MB available")
    objective = np.ascontiguousarray(sys_cost, dtype=float)  # materializes a lazy table
    if objective.shape != (game.num_joint,):
        raise ValueError("sys_cost must assign one finite value per joint action")
    if not np.all(np.isfinite(objective)):
        raise ValueError("sys_cost must be finite everywhere")
    start, index, value = assemble_ce_constraints(game, q)
    num_incentive = sum(m * (m - 1) for m in game.action_counts)
    num_keys = game.flat_lines.size
    return LinearProgram(
        objective=np.concatenate((objective, np.zeros(num_keys))),
        start=start,
        index=index,
        value=value,
        row_lower=np.concatenate((np.full(num_incentive, -np.inf), np.ones(1), np.zeros(num_keys))),
        row_upper=np.concatenate((np.zeros(num_incentive), np.ones(1), np.zeros(num_keys))),
    )


def solve_full_ccce(game: FiniteGame, q, sys_cost,
                    deadline: float | None = None) -> EquilibriumResult:
    """Minimize expected system cost over the chance-constrained CE polytope.

    Every incentive row of agent i is tightened by ``q[i]``; q = 0 gives the
    nominal CE polytope. The returned distribution carries no mass below
    ``MASS_TOL`` and has passed :func:`check_ccce_feasibility`; one that
    fails it raises :class:`SolverFailureError`, as do other LP solver
    failures. A joint space above :data:`cceq.game.JOINT_SPACE_CAP` raises
    :class:`BudgetExceededError`, and a program not expected to fit in
    memory raises MemoryError, both before it is assembled. Infeasibility
    of the tightened polytope is reported through the result status.
    ``deadline``, a ``time.perf_counter()`` value, bounds the solve: it is
    checked once the program is assembled, the time left becomes the
    solver's time limit, and passing it raises ``TimeoutError``.
    """
    q = _tightenings(game, q)
    check_joint_space(game.action_counts)
    solution = lpmod.solve(ccce_program(game, q, sys_cost), deadline=deadline)
    if solution.status == LpStatus.INFEASIBLE:
        return EquilibriumResult(LpStatus.INFEASIBLE)
    # within the solver's feasibility tolerance a vertex can carry "ghost"
    # masses on joint actions whose incentive constraints fail; kept, their
    # tiny marginals would blow the normalized margins up
    z = solution.values[:game.num_joint]
    mass = np.where(z < MASS_TOL, 0.0, z)
    support = np.flatnonzero(mass)
    dist = JointDistribution(support, mass[support] / mass.sum(), game.action_counts)
    feasible, worst = check_ccce_feasibility(game, dist, q)
    if not feasible:
        raise SolverFailureError(
            f"selection LP result fails the CC-CE check: worst margin {worst:.6g}"
        )
    return EquilibriumResult(LpStatus.OPTIMAL, dist, float(solution.objective_value))


def check_ccce_feasibility(game: FiniteGame, z: JointDistribution, q) -> tuple[bool, float]:
    """Check a distribution against every incentive constraint tightened by ``q``.

    Returns ``(feasible, worst)`` where ``worst`` is the maximum over
    constraints with positive recommendation marginal of the normalized
    left-hand side (conditional expected deviation gain plus tightening), or
    -inf when there are none; ``feasible`` means ``worst <=
    FEASIBILITY_TOL``, the tolerance every selection result is certified
    to. Zero-marginal constraints are vacuous and excluded from the maximum.
    """
    q = _tightenings(game, q)
    gains, marginals = flat_incentive_gains(game, z)
    layout = gain_layout(game.action_counts)
    marginal = marginals[layout.pair_rows]
    live = (marginal > 0.0) & layout.off_diagonal
    margins = gains / np.where(live, marginal, 1.0) + q[layout.pair_agents]
    worst = float(margins.max(initial=-math.inf, where=live))
    return worst <= FEASIBILITY_TOL, worst


def enumerate_cc_pne(game: FiniteGame, q, limit: int | None = None) -> np.ndarray:
    """Exhaustively enumerate the CC-PNE under the tightenings ``q``: their
    ascending flat indices into the joint action space.

    An empty array is a valid result. ``limit``, if given, must be
    nonnegative and truncates to the first matches.

    A profile is a CC-PNE when no agent gains by a unilateral deviation
    after its tightening: for every agent i, ``cost + q_i <= min over its
    other actions`` on its line at its opponent key, the deterministic
    equivalent of each chance constraint. That minimum is cached per game
    (:attr:`FiniteGame.alternative_minima`). An agent's candidates are the
    actions that pass at some key, and only the product of the candidate
    sets is checked; a product larger than
    :data:`cceq.game.JOINT_SPACE_CAP` raises :class:`BudgetExceededError`.
    """
    q = _tightenings(game, q)
    if limit is not None and limit < 0:
        raise ValueError(f"limit must be nonnegative, got {limit!r}")
    passes = game.flat_lines + q[game.entry_agents] <= game.alternative_minima
    rows = np.flatnonzero(np.bincount(game.entry_rows, passes, sum(game.action_counts)))
    # candidate rows, agent by agent, and each agent's first one
    first = rows.searchsorted(game.offsets)
    bounds = [*first.tolist(), len(rows)]
    sizes = [end - start for start, end in zip(bounds, bounds[1:])]
    check_joint_space(sizes)
    # the candidates' product, agent 0 most significant
    grid = rows[np.add(np.unravel_index(np.arange(math.prod(sizes)), sizes), first[:, None])]
    located = game.point_weights[:, grid].sum(axis=1)
    flats = located[-1][passes[located[:-1]].all(axis=0)]
    if limit is not None:
        flats = flats[: int(limit)]
    return flats


def solve_reduced_rank(game: FiniteGame, flats: np.ndarray, sys_cost) -> EquilibriumResult:
    """Minimize system cost over convex combinations of the pure profiles at
    the ascending flat indices ``flats``, e.g. :func:`enumerate_cc_pne`'s.

    The result has :func:`solve_full_ccce`'s form. Closed form: the point
    mass on the cheapest profile, ties broken toward the lowest index, and
    its cost; no profile at all yields an infeasible result.
    """
    if len(flats) == 0:
        return EquilibriumResult(LpStatus.INFEASIBLE)
    values = np.asarray(sys_cost[flats], dtype=float)
    best = int(np.argmin(values))  # first minimum: lowest-index tie rule
    point = JointDistribution(flats[best:best + 1], [1.0], game.action_counts)
    return EquilibriumResult(LpStatus.OPTIMAL, point, float(values[best]))


def sample_recommendation(z: JointDistribution, rng: np.random.Generator) -> tuple[int, ...]:
    """Draw one joint action from z by inverse CDF over its support.

    Zero-mass joint actions are never returned; a fixed generator state gives
    a fixed draw.
    """
    cumulative = np.cumsum(z.weights)
    u = rng.random() * cumulative[-1]
    k = int(np.searchsorted(cumulative, u, side="right"))
    k = min(k, z.support.size - 1)
    return unflatten(int(z.support[k]), z.action_counts)
