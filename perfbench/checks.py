"""Output checks for the benchmark, computed apart from the program.

Every check here recomputes its reference from the instance or from the
game's cost tables with code of its own: a scalar cost model, a CC-CE
certificate, a sparse selection LP solved by scipy's HiGHS, and a
brute-force CC-PNE count. None of them calls the program's own checker
(`check_ccce_feasibility`), solver or enumerator.
"""

from __future__ import annotations

import csv
import io

import numpy as np
import scipy.sparse as sp
from scipy.optimize import linprog
from scipy.stats import norm

from hooks import game_key

CERT_TOL = 1e-7
COST_TOL = 1e-6

# Statuses that fail a row on their own; `infeasible` is a valid answer
# when the checks confirm it.
FAILED_STATUSES = ("timeout", "solver-failure")


def quantile(sigma: float, alpha: float) -> float:
    """alpha-quantile of a N(0, sigma^2) perturbation."""
    return 0.0 if sigma == 0.0 else float(sigma * norm.ppf(alpha))


# --- scalar cost model ------------------------------------------------------


def _lateness_term(instance, lateness: float) -> float:
    return lateness * lateness if lateness > instance.lateness_threshold else lateness


def scalar_system_cost(instance, joint_action) -> float:
    """Unweighted total delay at a joint action, one flight at a time.

    Bit j of airline i's action releases the airline's j-th flight in id
    order. A released flight pays its lateness term plus its runway's queue
    delay; a held flight pays one epoch at the gate and its lateness one
    epoch later. Every flight pays the shared congestion penalty.
    """
    released = set()
    for action, owned in zip(joint_action, instance.airlines):
        released.update(fid for bit, fid in enumerate(sorted(owned)) if int(action) >> bit & 1)
    per_runway = [0] * len(instance.service_rates)
    for fid in released:
        per_runway[instance.flight_by_id[fid].runway] += 1
    congestion = max(0, len(released) - instance.congestion_threshold) ** 2
    total = 0.0
    for flight in instance.flights:
        if flight.id in released:
            r = flight.runway
            delay = (instance.initial_queues[r] + per_runway[r]) / instance.service_rates[r] \
                * instance.epoch_minutes
            cost = _lateness_term(instance, flight.lateness) + delay
        else:
            cost = _lateness_term(instance, flight.lateness + instance.epoch_minutes) \
                + instance.epoch_minutes
        total += cost + congestion
    return total


# --- CC-CE certificate and selection LP --------------------------------------


def certificate_margin(costs, action_counts, mass, quantiles) -> float:
    """Worst normalized tightened incentive margin of a distribution.

    For every agent i, recommendation r with positive marginal and
    alternative a != r: E[J_i(r, x_-i) - J_i(a, x_-i) | r] + q_i. The
    distribution is a CC-CE when the result is at most CERT_TOL.
    """
    counts = tuple(action_counts)
    z = np.asarray(mass, dtype=float).reshape(counts)
    worst = -np.inf
    for i, m in enumerate(counts):
        if m == 1:
            continue
        zi = np.moveaxis(z, i, 0).reshape(m, -1)
        ji = np.moveaxis(np.asarray(costs[i], dtype=float).reshape(counts), i, 0).reshape(m, -1)
        for r in range(m):
            marginal = zi[r].sum()
            if marginal <= 0.0:
                continue
            for a in range(m):
                if a != r:
                    gain = float(np.dot(zi[r], ji[r] - ji[a])) / marginal
                    worst = max(worst, gain + quantiles[i])
    return float(worst)


def incentive_rows(costs, action_counts, quantiles) -> sp.csr_matrix:
    """Sparse tightened incentive rows, `rows @ z <= 0`, one block per agent.

    Row (i, r, a) holds J_i(r, x_-i) - J_i(a, x_-i) + q_i on the joint
    actions where agent i plays r. Shape sum_i m_i (m_i - 1) x N, with
    N * sum_i (m_i - 1) stored entries.
    """
    counts = tuple(action_counts)
    num_joint = int(np.prod(counts))
    flat = np.arange(num_joint).reshape(counts)
    blocks = []
    for i, m in enumerate(counts):
        own = np.moveaxis(flat, i, 0).reshape(m, -1)
        ji = np.moveaxis(np.asarray(costs[i], dtype=float).reshape(counts), i, 0).reshape(m, -1)
        data, cols, rows = [], [], []
        k = 0
        for r in range(m):
            for a in range(m):
                if a == r:
                    continue
                data.append(ji[r] - ji[a] + quantiles[i])
                cols.append(own[r])
                rows.append(np.full(own.shape[1], k))
                k += 1
        if k:
            blocks.append(sp.csr_matrix(
                (np.concatenate(data), (np.concatenate(rows), np.concatenate(cols))),
                shape=(k, num_joint)))
    return sp.vstack(blocks, format="csr") if blocks else sp.csr_matrix((0, num_joint))


def selection_lp(costs, action_counts, quantiles, sys_cost):
    """Solve min sys_cost . z over the tightened CE polytope with HiGHS.

    Returns ``(status, objective)``: status 0 is optimal, 2 infeasible.
    """
    num_joint = int(np.prod(action_counts))
    rows = incentive_rows(costs, action_counts, quantiles)
    result = linprog(
        np.asarray(sys_cost, dtype=float),
        A_ub=rows if rows.shape[0] else None,
        b_ub=np.zeros(rows.shape[0]) if rows.shape[0] else None,
        A_eq=np.ones((1, num_joint)), b_eq=[1.0],
        bounds=(0, None), method="highs",
    )
    return result.status, (float(result.fun) if result.status == 0 else None)


# --- CC-PNE brute force -------------------------------------------------------


def cc_pne_profiles(costs, action_counts, quantiles) -> np.ndarray:
    """Flat indices of the profiles passing the tightened unilateral test.

    A profile passes when, for every agent and every alternative action,
    its own cost plus the agent's quantile is at most the alternative's
    cost. Each alternative is compared on its own.
    """
    counts = tuple(action_counts)
    ok = np.ones(counts, dtype=bool)
    for i, m in enumerate(counts):
        grid = np.asarray(costs[i], dtype=float).reshape(counts)
        for a in range(m):
            alt = np.take(grid, [a], axis=i)  # broadcast along agent i's axis
            passes = grid + quantiles[i] <= alt
            own = np.arange(m).reshape([-1 if k == i else 1 for k in range(len(counts))]) == a
            ok &= passes | own
    return np.nonzero(ok.reshape(-1))[0]


def flat_of(profile, action_counts) -> int:
    return int(np.ravel_multi_index(tuple(int(c) for c in profile), tuple(action_counts)))


# --- rows of one round ------------------------------------------------------


def check_round(config, records, distributions, csv_text, csv_columns):
    """Check one round's CSV and records against the references above.

    `config` is the run's ExperimentConfig, `records` its TrialRecords as
    dicts, `distributions` the full-ccce (support, masses) by `game_key`.
    Returns ``(errors, failed)``: errors are faults of the run as a whole
    (CSV header, row order, CSV disagreeing with the records); `failed`
    maps each failed row's (num_flights, method, trial) to its reasons.
    """
    from cceq import harness
    from cceq.vq import build_game, generate_instance

    errors = []
    rows = list(csv.reader(io.StringIO(csv_text)))
    if not rows or tuple(rows[0]) != tuple(csv_columns):
        errors.append(f"CSV header {rows[:1]} differs from {list(csv_columns)}")
        return errors, {}
    expected = [(f, m, t) for f in config.flight_counts for m in config.methods
                for t in range(config.num_trials)]
    data = rows[1:]
    if len(data) != len(expected) or len(records) != len(expected):
        errors.append(f"{len(data)} CSV rows and {len(records)} records, expected {len(expected)}")
        return errors, {}

    col = {name: k for k, name in enumerate(csv_columns)}
    games = {}

    def game_of(num_flights, trial):
        if (num_flights, trial) not in games:
            instance = generate_instance(
                num_flights, config.num_airlines,
                seed=np.random.SeedSequence(
                    (config.master_seed, harness._STREAM_INSTANCE, trial, num_flights)),
                **config.scenario_kwargs())
            game, sys_cost = build_game(instance)
            sigmas = np.broadcast_to(np.asarray(config.sigma, dtype=float), (game.num_agents,))
            games[num_flights, trial] = {
                "instance": instance, "game": game, "sys_cost": sys_cost,
                "q": [quantile(s, config.alpha) for s in sigmas]}
        return games[num_flights, trial]

    failed = {}
    for (num_flights, method, trial), row, rec in zip(expected, data, records):
        key = (num_flights, method, trial)
        shown = (row[col["trial"]], row[col["method"]], row[col["num_flights"]],
                 row[col["status"]], row[col["delay_cost"]], row[col["deviated"]],
                 row[col["rr_size_d"]])
        wanted = (str(trial), method, str(num_flights), rec["status"],
                  "" if rec["delay_cost"] is None else repr(float(rec["delay_cost"])),
                  "" if rec["deviated"] is None else ("true" if rec["deviated"] else "false"),
                  "" if rec["rr_size_d"] is None else str(rec["rr_size_d"]))
        if shown != wanted or (rec["trial"], rec["method"], rec["num_flights"]) != (
                trial, method, num_flights):
            errors.append(f"row {key}: CSV {shown} does not match record {wanted}")
            continue
        reasons = check_row(method, rec, game_of(num_flights, trial), distributions)
        if reasons:
            failed[key] = reasons
    return errors, failed


def check_row(method, rec, ref, distributions) -> list[str]:
    """Reasons the row fails, empty when it passes."""
    status = rec["status"]
    if status in FAILED_STATUSES:
        return [f"status {status}"]
    game, sys_cost, q = ref["game"], ref["sys_cost"], ref["q"]
    counts = game.action_counts
    reasons = []
    if method == "full-ccce":
        lp_status, optimum = selection_lp(game.costs, counts, q, sys_cost)
        if status == "infeasible":
            if lp_status != 2:
                reasons.append(f"reported infeasible, HiGHS status {lp_status}")
        elif game_key(game) not in distributions:
            reasons.append("no distribution was kept for this game")
        else:
            support, masses = distributions[game_key(game)]
            mass = np.zeros(game.num_joint)
            mass[support] = masses
            worst = certificate_margin(game.costs, counts, mass, q)
            if not worst <= CERT_TOL:
                reasons.append(f"certificate worst margin {worst:.6g}")
            if lp_status != 0:
                reasons.append(f"reported a distribution, HiGHS status {lp_status}")
            elif abs(float(sys_cost @ mass) - optimum) > COST_TOL:
                reasons.append(f"expected cost {float(sys_cost @ mass)!r} != HiGHS {optimum!r}")
    elif method in ("rr-nominal", "rr-ccce"):
        profiles = cc_pne_profiles(game.costs, counts,
                                   [0.0] * len(q) if method == "rr-nominal" else q)
        if rec["rr_size_d"] != len(profiles):
            reasons.append(f"rr_size_d {rec['rr_size_d']} != brute-force count {len(profiles)}")
        if (status == "infeasible") != (len(profiles) == 0):
            reasons.append(f"status {status} with {len(profiles)} CC-PNE profiles")
        if status == "ok" and len(profiles):
            flat = flat_of(rec["recommendation"], counts)
            if flat not in set(profiles.tolist()):
                reasons.append("recommendation is not a CC-PNE")
            elif sys_cost[flat] != sys_cost[profiles].min():
                reasons.append("recommendation is not a minimum-cost CC-PNE")
    elif method == "fcfs":
        if rec["recommendation"] != [m - 1 for m in counts]:
            reasons.append("fcfs recommendation is not release-all")
    if status == "ok":
        final, recommended = rec["final_action"], rec["recommendation"]
        cost = scalar_system_cost(ref["instance"], final)
        if abs(rec["delay_cost"] - cost) > 1e-9 * max(1.0, abs(cost)):
            reasons.append(f"delay_cost {rec['delay_cost']!r} != scalar model {cost!r}")
        if rec["deviated"] is False and final != recommended:
            reasons.append("deviated=false but final_action differs from the recommendation")
    elif status != "infeasible" or method == "fcfs":
        reasons.append(f"unexpected status {status}")
    return reasons
