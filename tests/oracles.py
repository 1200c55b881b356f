"""Independent oracles used by the test suite.

Everything here is written from the underlying math, separately from the
package implementation: an erf-series normal CDF with bisection inversion, a
loop-based chance-constrained CE feasibility checker (quantiles via scipy), a
brute-force LP vertex enumerator, LPs built from dense rows, constructors
for LPs with known optima, a dense view of the package's column-wise LPs,
the selection program written over the joint actions alone (the reference
for the package's key-marginal form) and the substitution that projects the
latter onto z, the incentive gains as one dense matrix product over the
joint space, CC-PNE by comparing every alternative on the dense cost
tables, the LP form of the reduced-rank program, and the airport scenario's
cost model evaluated one joint action and one flight at a time (the
reference for ``build_game``).
``build_game``'s earlier lowering on the whole action grid, flight by
flight, is kept as its bit-exact reference. The incentive gains come two
ways, as a dense matrix product and as a loop over the support in the
package's summation order, and ``best_rows`` reduces either to the best
deviation of every live row, the form ``cceq.game.best_deviations`` returns.
"""

from __future__ import annotations

import itertools
import math

import numpy as np
from scipy.stats import norm

from cceq import lp as lpmod
from cceq.equilibrium import EquilibriumResult
from cceq.game import (
    BudgetExceededError,
    FiniteGame,
    JointDistribution,
    check_joint_space,
    flat_index,
    unflatten,
)
from cceq.lp import LinearProgram


def profiles(flats, action_counts) -> tuple[tuple[int, ...], ...]:
    """The joint actions at the flat indices ``flats``, as coordinate tuples."""
    return tuple(unflatten(int(f), action_counts) for f in flats)


def erf_series(x: float) -> float:
    """erf via its Maclaurin series, accurate to ~1e-15 for |x| <= 4."""
    term = x
    total = 0.0
    n = 0
    while abs(term) > 1e-18 and n < 200:
        total += term / (2 * n + 1)
        n += 1
        term *= -x * x / n
    return 2.0 / math.sqrt(math.pi) * total


def normal_cdf_series(z: float) -> float:
    return 0.5 * (1.0 + erf_series(z / math.sqrt(2.0)))


def bisect_normal_quantile(p: float, lo: float = -10.0, hi: float = 10.0,
                           tol: float = 1e-10) -> float:
    """Invert the series CDF by bisection."""
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if normal_cdf_series(mid) < p:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def eq_margins(game: FiniteGame, mass: np.ndarray, sigmas, alpha: float):
    """Normalized tightened incentive margins, computed straight from the
    definition with explicit loops; vacuous (zero-marginal) constraints are
    skipped. Returns a dict (agent, rec, alt) -> margin."""
    counts = game.action_counts
    joint = list(itertools.product(*[range(m) for m in counts]))
    index_of = {x: k for k, x in enumerate(joint)}
    margins = {}
    for i, m in enumerate(counts):
        tighten = float(sigmas[i]) * float(norm.ppf(alpha))
        for rec in range(m):
            rows = [x for x in joint if x[i] == rec]
            marg = sum(mass[index_of[x]] for x in rows)
            if marg <= 0.0:
                continue
            for alt in range(m):
                if alt == rec:
                    continue
                acc = 0.0
                for x in rows:
                    swapped = list(x)
                    swapped[i] = alt
                    acc += mass[index_of[x]] * (
                        game.costs[i, index_of[x]] - game.costs[i, index_of[tuple(swapped)]]
                    )
                margins[(i, rec, alt)] = acc / marg + tighten
    return margins


def eq_feasible(game: FiniteGame, mass: np.ndarray, sigmas, alpha: float,
                tol: float = 1e-7) -> bool:
    margins = eq_margins(game, mass, sigmas, alpha)
    return all(v <= tol for v in margins.values())


def enumerate_lp_vertices(a_ub, b_ub, a_eq, b_eq, num_vars: int,
                          tol: float = 1e-9) -> list[np.ndarray]:
    """All vertices of {A_ub v <= b_ub, A_eq v = b_eq, v >= 0} by brute force
    over active-set combinations. Exponential; fine for a handful of vars."""
    a_ub = np.asarray(a_ub, dtype=float).reshape(-1, num_vars)
    a_eq = np.asarray(a_eq, dtype=float).reshape(-1, num_vars)
    rows = np.vstack([a_ub, a_eq, np.eye(num_vars)])
    rhs = np.concatenate([np.asarray(b_ub, float).reshape(-1),
                          np.asarray(b_eq, float).reshape(-1),
                          np.zeros(num_vars)])
    vertices = []
    for combo in itertools.combinations(range(rows.shape[0]), num_vars):
        square = rows[list(combo)]
        if abs(np.linalg.det(square)) < 1e-12:
            continue
        v = np.linalg.solve(square, rhs[list(combo)])
        if (a_ub @ v <= b_ub + tol).all() and (np.abs(a_eq @ v - b_eq) <= tol).all() \
                and (v >= -tol).all():
            if not any(np.allclose(v, u, atol=1e-8) for u in vertices):
                vertices.append(v)
    return vertices


def dense_constraints(lp: LinearProgram):
    """``(A_ub, b_ub, A_eq, b_eq)`` of a column-wise program: its rows with
    ``row_lower = -inf`` as ``A_ub @ v <= b_ub``, and its equality rows."""
    matrix = np.zeros((lp.num_constraints, lp.num_vars))
    matrix[lp.index, np.repeat(np.arange(lp.num_vars), np.diff(lp.start))] = lp.value
    ineq = np.isneginf(lp.row_lower)
    eq = lp.row_lower == lp.row_upper
    if not np.all(ineq | eq):
        raise ValueError("ranged rows have no (A_ub, A_eq) form")
    return matrix[ineq], lp.row_upper[ineq], matrix[eq], lp.row_upper[eq]


def reference_ce_constraints(game: FiniteGame, q) -> tuple[np.ndarray, np.ndarray]:
    """The selection program's constraints written over the joint actions
    alone, the reference for the package's key-marginal form.

    Row (i, rec, alt), ordered by agent, then rec, then alt, is
    sum_{x_others} z(rec, x_others) * (J_i(rec, .) - J_i(alt, .) + q_i) <= 0;
    row R = sum_i m_i * (m_i - 1) is the probability simplex. Returns
    ``(index, value)``, each of shape (num_joint, sum_i (m_i - 1) + 1): joint
    action x's column holds, agent by agent, the rows (i, x_i, alt) for each
    alt != x_i in ascending order, then a 1 in the simplex row.
    """
    q = np.asarray(q, dtype=float)
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
        cost = np.moveaxis(game.costs[i].reshape(counts), i, 0)
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


def reference_ccce_program(game: FiniteGame, q, sys_cost) -> LinearProgram:
    """The selection LP over the joint actions alone, from
    :func:`reference_ce_constraints`."""
    index, value = reference_ce_constraints(game, q)
    num_incentive = sum(m * (m - 1) for m in game.action_counts)
    return LinearProgram(
        objective=np.asarray(sys_cost, dtype=float),
        start=np.arange(game.num_joint + 1) * index.shape[1],
        index=index,
        value=value,
        row_lower=np.append(np.full(num_incentive, -np.inf), 1.0),
        row_upper=np.append(np.zeros(num_incentive), 1.0),
    )


def z_space_program(program: LinearProgram, num_joint: int) -> LinearProgram:
    """The selection program with its key marginals w substituted out.

    Its first ``num_joint`` variables are z; each later one, w, has a -1 in
    exactly one equality row, which sets it to that row's z-part. Every
    other row becomes ``A_z + A_w @ A_key,z`` over z alone, with its bounds,
    and the objective keeps z's part (w must cost nothing).
    """
    matrix = np.zeros((program.num_constraints, program.num_vars))
    matrix[program.index, np.repeat(np.arange(program.num_vars), np.diff(program.start))] = (
        program.value)
    a_z, a_w = matrix[:, :num_joint], matrix[:, num_joint:]
    zero_rows = np.flatnonzero((program.row_lower == 0) & (program.row_upper == 0))
    in_zero_rows = a_w[zero_rows] != 0
    assert (in_zero_rows.sum(axis=0) == 1).all() and (in_zero_rows.sum(axis=1) == 1).all()
    key_rows = zero_rows[in_zero_rows.argmax(axis=0)]  # w's own row, one w each
    assert (a_w[key_rows, np.arange(a_w.shape[1])] == -1).all()
    assert not program.objective[num_joint:].any()
    kept = np.setdiff1d(np.arange(program.num_constraints), key_rows)
    rows = a_z[kept] + a_w[kept] @ a_z[key_rows]
    columns = rows.T
    _, index = np.nonzero(columns)
    start = np.concatenate([[0], np.cumsum(np.count_nonzero(columns, axis=1))])
    return LinearProgram(program.objective[:num_joint], start, index, columns[columns != 0.0],
                         program.row_lower[kept], program.row_upper[kept])


def solve_reduced_rank_lp(game: FiniteGame, flats, sys_cost) -> EquilibriumResult:
    """LP formulation of ``solve_reduced_rank``: minimize cost over the
    simplex of weights on the profiles at ``flats``, and the distribution
    those weights induce; must agree on the objective."""
    if len(flats) == 0:
        return EquilibriumResult()
    sys_cost = np.asarray(sys_cost, dtype=float)
    values = sys_cost[flats]
    program = lp_from_rows(objective=values, eq=[(np.ones(len(flats)), 1.0)])
    solution = lpmod.solve(program)
    assert solution.values is not None, "the weight simplex is never empty"
    weights = np.maximum(solution.values, 0.0)
    weights /= weights.sum()
    mass = np.zeros(game.num_joint)
    mass[flats] = weights
    induced = JointDistribution.from_mass(mass, game.action_counts)
    return EquilibriumResult(induced, float(solution.objective_value))


def lp_from_rows(objective, ineq=(), eq=()) -> LinearProgram:
    """A program from dense ``(row, rhs)`` pairs: ``row @ v <= rhs`` for
    ``ineq``, ``row @ v == rhs`` for ``eq``."""
    c = np.asarray(objective, dtype=float).reshape(-1)
    n = c.size
    ineq = list(ineq)
    pairs = ineq + list(eq)
    rows = np.zeros((len(pairs), n))
    for k, (row, _) in enumerate(pairs):
        row = np.asarray(row, dtype=float).reshape(-1)
        if row.size != n:
            raise ValueError(f"constraint row of length {row.size}, expected {n}")
        rows[k] = row
    rhs = np.array([float(b) for _, b in pairs])
    lo = np.where(np.arange(len(pairs)) < len(ineq), -np.inf, rhs)
    columns = rows.T
    _, index = np.nonzero(columns)  # column-major: by column, then row
    start = np.concatenate([[0], np.cumsum(np.count_nonzero(columns, axis=1))])
    return LinearProgram(c, start, index, columns[columns != 0.0], lo, rhs)


def lp_with_known_optimum(rng: np.random.Generator, num_vars: int, num_rows: int):
    """Feasible bounded LP built around a known optimal vertex.

    Constraints pass through a random nonnegative point v*; the objective is
    a negative combination of the active normals, so by weak duality the
    optimum is exactly c . v*.
    """
    v_star = rng.uniform(0.0, 5.0, num_vars)
    num_active = rng.integers(1, num_rows + 1)
    rows, rhs = [], []
    for j in range(num_rows):
        a = rng.normal(size=num_vars)
        a /= np.linalg.norm(a)
        slack = 0.0 if j < num_active else float(rng.uniform(0.5, 3.0))
        rows.append(a)
        rhs.append(float(a @ v_star) + slack)
    weights = rng.uniform(0.1, 2.0, num_active)
    c = -(weights[:, None] * np.vstack(rows[:num_active])).sum(axis=0)
    lp = lp_from_rows(c, ineq=list(zip(rows, rhs)))
    return lp, float(c @ v_star)


def random_game(rng: np.random.Generator, max_agents: int = 3, max_actions: int = 3,
                low: int = -5, high: int = 5, min_agents: int = 2,
                min_actions: int = 2) -> FiniteGame:
    """Random small game with integer costs in [low, high]."""
    n = int(rng.integers(min_agents, max_agents + 1))
    counts = tuple(int(rng.integers(min_actions, max_actions + 1)) for _ in range(n))
    num_joint = int(np.prod(counts))
    costs = rng.integers(low, high + 1, size=(n, num_joint)).astype(float)
    return FiniteGame(counts, costs)


def cc_pne_flats(game: FiniteGame, q) -> np.ndarray:
    """Ascending flat indices of the CC-PNE under the tightenings ``q``, from
    the dense tables alone: a profile passes when, for every agent and each
    alternative action taken on its own, its cost plus q_i is at most the
    alternative's cost against the same play of the others."""
    counts = game.action_counts
    ok = np.ones(counts, dtype=bool)
    for i, m in enumerate(counts):
        grid = np.moveaxis(game.costs[i].reshape(counts), i, 0)  # own action first
        for alt in range(m):
            passes = grid + q[i] <= grid[alt]
            passes[alt] = True
            ok &= np.moveaxis(passes, 0, i)
    return np.flatnonzero(ok)


def dense_incentive_gains(game: FiniteGame, z: JointDistribution, agent: int):
    """Agent ``agent``'s unnormalized deviation gains ``gains[rec, alt]``,
    the sum over the others' actions x of z(rec, x) * (J_i(rec, x) -
    J_i(alt, x)), and its recommendation marginals ``marginals[rec]``, over
    the whole joint space as one matrix product: pairwise[rec, alt] =
    sum_x z(rec, x) * J_i(alt, x), and gains[rec, alt] = pairwise[rec, rec]
    - pairwise[rec, alt]."""
    m = game.action_counts[agent]
    zmat = np.moveaxis(z.mass.reshape(game.action_counts), agent, 0).reshape(m, -1)
    jmat = np.moveaxis(game.costs[agent].reshape(game.action_counts), agent, 0).reshape(m, -1)
    pairwise = zmat @ jmat.T
    return np.diag(pairwise)[:, None] - pairwise, zmat.sum(axis=1)


def loop_incentive_gains(game: FiniteGame, z: JointDistribution, agent: int):
    """:func:`dense_incentive_gains` as a loop over the support of z, in
    ascending order: at each point x, z(x) * (J_i(x) - J_i(alt, x_-i)) is
    added to row x_i, the same products summed in the same order as
    ``cceq.game.best_deviations`` sums them, so the margins agree bit for
    bit."""
    m = game.action_counts[agent]
    gains, marginals = np.zeros((m, m)), np.zeros(m)
    for flat, weight in zip(z.support.tolist(), z.weights.tolist()):
        coords = list(unflatten(flat, game.action_counts))
        own = coords[agent]
        line = np.array([game.costs[agent, flat_index(coords[:agent] + [alt] + coords[agent + 1:],
                                                      game.action_counts)]
                         for alt in range(m)])
        gains[own] += weight * (line[own] - line)
        marginals[own] += weight
    return gains, marginals


def best_rows(split, shift):
    """Every live row's best deviation from one ``(gains, marginals)`` pair
    per agent, as either oracle above gives it: the rows ``offset_i + rec``
    with a positive marginal, ascending, and at each the largest of
    ``gains[rec, alt] / marginals[rec] + shift[i]`` over alt != rec and the
    first alt reaching it (-inf and rec itself when the agent has no other
    action)."""
    rows, best, alts = [], [], []
    offset = 0
    for i, (gains, marginals) in enumerate(split):
        for rec in np.flatnonzero(marginals > 0.0).tolist():
            margins = gains[rec] / marginals[rec] + shift[i]
            margins[rec] = -np.inf
            alt = int(np.argmax(margins))  # the first maximum
            rows.append(offset + rec)
            best.append(margins[alt])
            alts.append(alt)
        offset += len(marginals)
    return np.array(rows, dtype=np.intp), np.array(best), np.array(alts, dtype=np.intp)


def grid_distributions(num_joint: int, denom: int = 20, every: int = 1):
    """Distributions on the probability grid with step 1/denom, i.e. all
    integer compositions of `denom` into `num_joint` parts; `every` keeps
    each k-th composition for cheaper sweeps."""
    out = []
    for k, comp in enumerate(_compositions(denom, num_joint)):
        if k % every == 0:
            out.append(np.array(comp, dtype=float) / denom)
    return out


def _compositions(total: int, parts: int):
    if parts == 1:
        yield (total,)
        return
    for head in range(total + 1):
        for tail in _compositions(total - head, parts - 1):
            yield (head, *tail)


# --- airport scenario, scalar cost model ------------------------------------

# Subset action spaces above this fleet size are refused (2^m actions).
MAX_FLIGHTS_PER_AIRLINE = 20


def action_space(instance, airline: int, *, max_flights: int = MAX_FLIGHTS_PER_AIRLINE):
    """All subsets of the airline's fleet, in binary counting order.

    Bit j of the action index selects the airline's j-th flight in id order,
    so action 0 is the empty release and the last action releases everything.
    """
    owned = instance.airlines[airline]
    if len(owned) > max_flights:
        raise BudgetExceededError(
            f"airline {airline} owns {len(owned)} flights; cap is {max_flights}"
        )
    return [
        tuple(fid for bit, fid in enumerate(owned) if action >> bit & 1)
        for action in range(2 ** len(owned))
    ]


def _validate_joint_action(instance, joint_action) -> tuple[int, ...]:
    coords = tuple(int(a) for a in joint_action)
    counts = instance.action_counts
    if len(coords) != len(counts):
        raise ValueError(f"joint action has {len(coords)} parts for {len(counts)} airlines")
    for a, m in zip(coords, counts):
        if not 0 <= a < m:
            raise ValueError(f"action index {a} out of range [0, {m})")
    return coords


def released_flights(instance, joint_action) -> tuple[int, ...]:
    """Ids of all flights released under the joint action, ascending."""
    coords = _validate_joint_action(instance, joint_action)
    out = []
    for action, owned in zip(coords, instance.airlines):
        out.extend(fid for bit, fid in enumerate(owned) if action >> bit & 1)
    return tuple(sorted(out))


def pushback_counts(instance, joint_action) -> np.ndarray:
    """Number of released flights per runway."""
    counts = np.zeros(instance.num_runways, dtype=int)
    for fid in released_flights(instance, joint_action):
        counts[instance.flight_by_id[fid].runway] += 1
    return counts


def congestion_penalty(instance, joint_action) -> float:
    """Quadratic penalty on releases beyond the congestion threshold."""
    total = len(released_flights(instance, joint_action))
    return float(max(0, total - instance.congestion_threshold) ** 2)


def queue_delay(instance, joint_action, flight_id: int) -> float:
    """Queue delay in minutes for a flight released under the joint action."""
    if flight_id not in set(released_flights(instance, joint_action)):
        raise ValueError(f"flight {flight_id} is not released under this joint action")
    flight = instance.flight_by_id[flight_id]
    counts = pushback_counts(instance, joint_action)
    r = flight.runway
    queue = instance.initial_queues[r] + int(counts[r])
    return queue / instance.service_rates[r] * instance.epoch_minutes


def _lateness_term(instance, lateness: float) -> float:
    """Linear up to the lateness threshold, quadratic beyond it."""
    return lateness * lateness if lateness > instance.lateness_threshold else lateness


def flight_delay_cost(instance, joint_action, flight_id: int) -> float:
    """Per-flight delay cost: lateness term + queue delay + shared congestion.

    A held flight waits out the epoch instead: its delay term is one epoch of
    gate holding and its lateness term is evaluated one epoch later.
    """
    flight = instance.flight_by_id[flight_id]
    if flight_id in set(released_flights(instance, joint_action)):
        delay = queue_delay(instance, joint_action, flight_id)
        lateness = _lateness_term(instance, flight.lateness)
    else:
        delay = instance.epoch_minutes
        lateness = _lateness_term(instance, flight.lateness + instance.epoch_minutes)
    return lateness + delay + congestion_penalty(instance, joint_action)


def airline_cost(instance, joint_action, airline: int) -> float:
    """Class-weighted delay cost over the airline's whole fleet."""
    total = 0.0
    for fid in instance.airlines[airline]:
        flight = instance.flight_by_id[fid]
        total += instance.class_weights[flight.aircraft_class] * flight_delay_cost(
            instance, joint_action, fid
        )
    return total


def system_cost(instance, joint_action) -> float:
    """Unweighted total delay cost over all flights."""
    return sum(flight_delay_cost(instance, joint_action, f.id) for f in instance.flights)


def grid_build_game(instance):
    """``build_game`` vectorized on the whole action grid: per-runway release
    counts, then each flight's cost on every joint action, folded into its
    owner's table and the system total in ascending flight id."""
    counts = instance.action_counts
    check_joint_space(counts)
    n = instance.num_airlines

    def along_axis(vector, axis):
        out_shape = [1] * n
        out_shape[axis] = vector.size
        return vector.reshape(out_shape)

    def lateness_term(lateness):
        return lateness ** 2 if lateness > instance.lateness_threshold else lateness

    per_runway = []
    for r in range(instance.num_runways):
        acc = np.zeros(counts)
        for i, owned in enumerate(instance.airlines):
            local = np.zeros(counts[i])
            actions = np.arange(counts[i])
            for bit, fid in enumerate(owned):
                if instance.flight_by_id[fid].runway == r:
                    local += (actions >> bit) & 1
            acc = acc + along_axis(local, i)
        per_runway.append(acc)
    total_released = sum(per_runway)
    congestion = np.maximum(0.0, total_released - instance.congestion_threshold) ** 2
    delay_by_runway = [
        (instance.initial_queues[r] + per_runway[r]) / instance.service_rates[r]
        * instance.epoch_minutes
        for r in range(instance.num_runways)
    ]

    agent_costs = [np.zeros(counts) for _ in range(n)]
    sys_costs = np.zeros(counts)
    for flight in instance.flights:
        i, bit = instance.owner_of[flight.id]
        released = along_axis(((np.arange(counts[i]) >> bit) & 1).astype(bool), i)
        lat_released = lateness_term(flight.lateness)
        lat_held = lateness_term(flight.lateness + instance.epoch_minutes)
        cost = np.where(released, lat_released + delay_by_runway[flight.runway],
                        lat_held + instance.epoch_minutes) + congestion
        agent_costs[i] += instance.class_weights[flight.aircraft_class] * cost
        sys_costs += cost

    game = FiniteGame(counts, np.stack([grid.reshape(-1) for grid in agent_costs]))
    return game, sys_costs.reshape(-1)
