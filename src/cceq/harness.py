"""Monte Carlo benchmark harness.

Compares four coordination mechanisms on randomly generated virtual-queue
instances: uncoordinated FCFS, the full chance-constrained CE selection LP,
and the reduced-rank program over nominal or chance-constrained pure Nash
equilibria. Per (method, flight count, trial) cell it records realized system
delay cost, equilibrium computation time, and whether any airline deviated
from its recommendation under the sampled cost perturbations.

Pairing and reproducibility: the instance of trial t depends only on
(master_seed, t, flight count), never on the method, and the per-agent
perturbation draws are likewise method-independent, so methods face identical
conditions within a trial. A batch generates and lowers each trial's instance,
and draws its perturbations, once and runs every method on that one game. Two
runs with the same config produce identical CSVs except for the solve_seconds
column.
"""

from __future__ import annotations

import csv
import numbers
import os
import statistics
import time
from dataclasses import dataclass, field, fields
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .equilibrium import (
    FEASIBILITY_TOL,
    EquilibriumResult,
    enumerate_cc_pne,
    sample_recommendation,
    solve_full_ccce,
    solve_reduced_rank,
)
from .game import (
    BudgetExceededError,
    FiniteGame,
    JointDistribution,
    best_deviations,
    check_joint_space,
    flat_index,
    unflatten,
)
from .lp import LpStatus, SolverFailureError, load_highs
from .uncertainty import substream, tightenings
from .vq import SystemCost, VQInstance, build_game, fcfs_profile, generate_instance

__all__ = [
    "CSV_COLUMNS",
    "CellSummary",
    "ExperimentConfig",
    "ExperimentResult",
    "LoweredTrial",
    "METHODS",
    "TrialRecord",
    "format_summary",
    "lower_trial",
    "run_experiment",
    "run_trial",
    "simulate_deviation",
    "summarize",
    "summarize_paired",
]

METHOD_FCFS = "fcfs"
METHOD_FULL_CCCE = "full-ccce"
METHOD_RR_NOMINAL = "rr-nominal"
METHOD_RR_CCCE = "rr-ccce"
METHODS = (METHOD_FCFS, METHOD_FULL_CCCE, METHOD_RR_NOMINAL, METHOD_RR_CCCE)

STATUS_OK = "ok"
STATUS_INFEASIBLE = "infeasible"
STATUS_TIMEOUT = "timeout"
STATUS_SOLVER_FAILURE = "solver-failure"

CSV_COLUMNS = (
    "trial", "method", "num_flights", "alpha", "sigma", "status",
    "solve_seconds", "delay_cost", "deviated", "rr_size_d",
)

# No longer read; kept because perfbench/worker.py still pops it from the environment.
THREADS_ENV_VAR = "CCEQ_THREADS"

# Substream purposes, keyed into the seed path after the master seed.
_STREAM_INSTANCE = 0
_STREAM_ETA = 1
_STREAM_RECOMMEND = 2
_METHOD_IDS = {m: k for k, m in enumerate(METHODS)}

# Scenario sections; the nested ones map to their keys.
_SCENARIO_KEYS = {"runways": {"mu", "q0"}, "thresholds": {"congestion", "lateness"},
                  "epoch_minutes": None, "weights": None, "lateness_scale": None}


def _as_tuple(name: str, value) -> tuple:
    try:
        return tuple(value)
    except TypeError:
        raise ValueError(f"{name} must be a sequence, got {value!r}") from None


def _check_type(name: str, value, kind) -> None:
    """Raise ValueError unless ``value`` is a ``kind`` (Integral or Real), bools excluded."""
    if isinstance(value, bool) or not isinstance(value, kind):
        noun = "an integer" if kind is numbers.Integral else "a real number"
        raise ValueError(f"{name} must be {noun}, got {value!r}")


@dataclass
class ExperimentConfig:
    """Batch configuration; defaults match the benchmark's standard setup."""

    methods: tuple[str, ...] = METHODS
    num_trials: int = 100
    flight_counts: tuple[int, ...] = tuple(range(6, 15))
    alpha: float = 0.9
    sigma: float | tuple[float, ...] = 0.0
    num_airlines: int = 5
    master_seed: int = 0
    time_budget_per_solve: float = 240.0
    out_path: str = "results.csv"
    scenario: dict = field(default_factory=dict)

    def __post_init__(self):
        self.methods = _as_tuple("methods", self.methods)
        if not self.methods or any(m not in METHODS for m in self.methods):
            raise ValueError(f"methods must be a nonempty subset of {METHODS}, got {self.methods}")
        for name in ("num_trials", "num_airlines", "master_seed"):
            _check_type(name, getattr(self, name), numbers.Integral)
        for name in ("alpha", "time_budget_per_solve"):
            _check_type(name, getattr(self, name), numbers.Real)
        flight_counts = _as_tuple("flight_counts", self.flight_counts)
        for f in flight_counts:
            _check_type("flight_counts entry", f, numbers.Integral)
        for s in self.sigma if isinstance(self.sigma, (list, tuple)) else (self.sigma,):
            _check_type("sigma", s, numbers.Real)
        self.flight_counts = tuple(int(f) for f in flight_counts)
        if self.num_trials < 1:
            raise ValueError("num_trials must be at least 1")
        if self.num_airlines < 1:
            raise ValueError("num_airlines must be at least 1")
        if not self.flight_counts or min(self.flight_counts) < self.num_airlines:
            raise ValueError(f"flight counts must be nonempty and each at least "
                             f"num_airlines={self.num_airlines}, got {self.flight_counts}")
        if isinstance(self.sigma, (list, tuple)):
            self.sigma = tuple(float(s) for s in self.sigma)
        tightenings(self.sigma, self.alpha, self.num_airlines)
        if self.master_seed < 0:
            raise ValueError("master_seed must be nonnegative")
        if not self.time_budget_per_solve > 0:  # NaN included
            raise ValueError("time_budget_per_solve must be positive")
        if not isinstance(self.out_path, (str, os.PathLike)):
            raise ValueError(f"out_path must be a path, got {self.out_path!r}")
        if not isinstance(self.scenario, dict) or set(self.scenario) - set(_SCENARIO_KEYS):
            raise ValueError(f"scenario keys must be a subset of {sorted(_SCENARIO_KEYS)}")
        for name, keys in _SCENARIO_KEYS.items():
            section = self.scenario.get(name, {})
            if keys and (not isinstance(section, dict) or set(section) - keys):
                raise ValueError(f"scenario.{name} keys must be a subset of {sorted(keys)}")
        try:  # one probe instance, so that VQInstance checks every scenario value
            generate_instance(self.num_airlines, self.num_airlines, seed=0,
                              **self.scenario_kwargs())
        except (KeyError, TypeError) as exc:
            raise ValueError(f"invalid scenario: {exc!r}") from exc

    @classmethod
    def from_dict(cls, doc: dict) -> "ExperimentConfig":
        """Build from a JSON-style dict; sigma may come nested as
        uncertainty.sigma, and out_path as out. A field name beats its alias."""
        doc = dict(doc)
        uncertainty = doc.pop("uncertainty", None)
        if uncertainty is not None:
            if not isinstance(uncertainty, dict) or set(uncertainty) - {"sigma"}:
                raise ValueError(f"uncertainty must be an object holding only sigma, "
                                 f"got {uncertainty!r}")
            doc.setdefault("sigma", uncertainty.get("sigma", 0.0))
        if "out" in doc:
            doc.setdefault("out_path", doc.pop("out"))
        unknown = set(doc) - {f.name for f in fields(cls)}
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
        return cls(**doc)

    def scenario_kwargs(self) -> dict:
        """Translate the scenario section into generate_instance keyword args."""
        out = {}
        runways = self.scenario.get("runways")
        if runways:
            out["service_rates"] = tuple(runways["mu"])
            out["initial_queues"] = tuple(runways["q0"])
        if "epoch_minutes" in self.scenario:
            out["epoch_minutes"] = float(self.scenario["epoch_minutes"])
        thresholds = self.scenario.get("thresholds")
        if thresholds:
            if "congestion" in thresholds:
                out["congestion_threshold"] = int(thresholds["congestion"])
            if "lateness" in thresholds:
                out["lateness_threshold"] = float(thresholds["lateness"])
        if "weights" in self.scenario:
            out["class_weights"] = self.scenario["weights"]
        if "lateness_scale" in self.scenario:
            out["lateness_scale"] = float(self.scenario["lateness_scale"])
        return out


@dataclass(frozen=True)
class TrialRecord:
    """One benchmark cell; recommendation/final_action are kept for replay
    in tests but are not part of the CSV contract."""

    trial_index: int
    method: str
    num_flights: int
    alpha: float
    sigma: float | tuple[float, ...]
    status: str
    solve_seconds: float
    delay_cost: float | None = None
    deviated: bool | None = None
    rr_size_d: int | None = None
    recommendation: tuple[int, ...] | None = None
    final_action: tuple[int, ...] | None = None

    def to_csv_row(self) -> list[str]:
        sigma = self.sigma
        sigma_text = ";".join(repr(float(s)) for s in sigma) if isinstance(
            sigma, tuple) else repr(float(sigma))
        return [
            str(self.trial_index),
            self.method,
            str(self.num_flights),
            repr(float(self.alpha)),
            sigma_text,
            self.status,
            repr(float(self.solve_seconds)),
            "" if self.delay_cost is None else repr(float(self.delay_cost)),
            "" if self.deviated is None else ("true" if self.deviated else "false"),
            "" if self.rr_size_d is None else str(self.rr_size_d),
        ]


def simulate_deviation(game: FiniteGame, z: JointDistribution, recommendation, etas):
    """Simulate simultaneous post-recommendation deviations.

    ``etas`` holds one perturbation draw per agent, shared across all of that
    agent's comparisons (the harness draws them from per-agent substreams).
    Each agent reads its recommendation's row of
    :func:`cceq.game.best_deviations` shifted by the etas: its best
    conditional expected deviation gain plus its eta, the same margin the
    certificate reads with its tightening. If that margin exceeds
    ``FEASIBILITY_TOL``, the tolerance selection results are certified to,
    the agent best-responds to it (ties to the lowest action index),
    otherwise it follows the recommendation. Agents decide simultaneously
    against z, not against each other's realized switches. The
    recommendation must be in the support of z; otherwise ValueError is
    raised.

    Returns ``(final_action, deviated)``.
    """
    rec = tuple(map(int, recommendation))
    etas = np.asarray(etas, dtype=float)
    if len(rec) != game.num_agents or len(etas) != game.num_agents:
        raise ValueError(f"expected {game.num_agents} actions and etas, "
                         f"got {len(rec)} and {len(etas)}")
    rows, best, alts = best_deviations(game, z, etas)
    flat = flat_index(rec, game.action_counts)
    at = z.support.searchsorted(flat)
    if at == z.support.size or z.support[at] != flat:
        raise ValueError(f"recommendation {rec} is not in the support of z")
    recs = np.array(rec)
    at = rows.searchsorted(game.offsets + recs)  # every agent's recommendation row
    final_action = tuple(np.where(best[at] > FEASIBILITY_TOL, alts[at], recs).tolist())
    return final_action, final_action != rec


class LoweredTrial(NamedTuple):
    """One trial's instance and game, shared by every method run on it.

    ``q`` holds each agent's tightening and ``etas`` its perturbation draw.
    ``game``, ``sys_cost`` and ``q`` are None when ``build_game`` refuses
    the instance as too large; ``etas`` then is empty.
    """

    instance: VQInstance
    game: FiniteGame | None
    sys_cost: SystemCost | None
    q: np.ndarray | None
    etas: tuple[float, ...]


def lower_trial(config: ExperimentConfig, trial_index: int, num_flights: int) -> LoweredTrial:
    """Pipeline steps 1-2: generate the trial's instance, lower it to a game,
    compute each agent's tightening and draw its perturbation for the
    deviation simulation."""
    instance = generate_instance(
        num_flights,
        config.num_airlines,
        seed=np.random.SeedSequence(
            (config.master_seed, _STREAM_INSTANCE, trial_index, num_flights)
        ),
        **config.scenario_kwargs(),
    )
    try:
        game, sys_cost = build_game(instance)
    except BudgetExceededError:
        return LoweredTrial(instance, None, None, None, ())
    q = tightenings(config.sigma, config.alpha, game.num_agents)
    sigmas = np.broadcast_to(np.asarray(config.sigma, dtype=float), q.shape)
    # the draws depend only on (master seed, trial, flight count, agent)
    etas = tuple(
        float(sigmas[i] * substream(config.master_seed, _STREAM_ETA, trial_index,
                                    num_flights, i).standard_normal())
        for i in range(game.num_agents)
    )
    return LoweredTrial(instance, game, sys_cost, q, etas)


def run_trial(config: ExperimentConfig, trial_index: int, method: str,
              num_flights: int, lowered: LoweredTrial | None = None) -> TrialRecord:
    """Run one benchmark cell on ``lowered``, the result of
    :func:`lower_trial` for this trial (computed here when not given): solve
    for the method's recommendation distribution, sample a recommendation,
    simulate the airlines' deviations and price the executed joint action.

    Only the solve is timed and held to the per-solve budget. A refusal
    before it (``build_game`` refused the instance, or full-ccce's joint
    space or objective does not fit) reads ``solver-failure`` with
    ``solve_seconds`` 0.0. Per-trial failures, running out of memory
    included, become statuses, never exceptions.
    """
    if lowered is None:
        lowered = lower_trial(config, trial_index, num_flights)
    instance, game, sys_cost, q, etas = lowered
    cell = dict(trial_index=trial_index, method=method, num_flights=num_flights,
                alpha=config.alpha, sigma=config.sigma)
    refused = game is None
    if not refused and method == METHOD_FULL_CCCE:
        # loading the solver module once (~10 ms) and pricing every joint
        # action for the LP's objective are lowering, kept outside solve_seconds
        try:
            check_joint_space(game.action_counts)
            load_highs()
            objective = np.asarray(sys_cost)
        except (BudgetExceededError, MemoryError):
            refused = True
    elif not refused and method in (METHOD_RR_NOMINAL, METHOD_RR_CCCE):
        # the enumeration's line minima, computed once per game, are lowering too
        game.alternative_minima
    if refused:
        return TrialRecord(**cell, status=STATUS_SOLVER_FAILURE, solve_seconds=0.0)

    rr_size_d = None
    start = time.perf_counter()
    try:
        if method == METHOD_FCFS:
            point = JointDistribution.point_mass(fcfs_profile(instance), game.action_counts)
            result = EquilibriumResult(LpStatus.OPTIMAL, point)
        elif method == METHOD_FULL_CCCE:
            result = solve_full_ccce(game, q, objective,
                                     deadline=start + config.time_budget_per_solve)
        elif method in (METHOD_RR_NOMINAL, METHOD_RR_CCCE):
            pne = enumerate_cc_pne(game, q if method == METHOD_RR_CCCE
                                   else np.zeros(game.num_agents))
            result = solve_reduced_rank(game, pne, sys_cost)
            rr_size_d = len(pne)
        else:
            raise ValueError(f"unknown method {method!r}")
        status = STATUS_OK if result.status == LpStatus.OPTIMAL else STATUS_INFEASIBLE
    except TimeoutError:
        status = STATUS_TIMEOUT
    except (SolverFailureError, BudgetExceededError, MemoryError):
        status = STATUS_SOLVER_FAILURE
    solve_seconds = time.perf_counter() - start
    if status != STATUS_SOLVER_FAILURE and solve_seconds > config.time_budget_per_solve:
        status = STATUS_TIMEOUT

    delay_cost = deviated = recommendation = final_action = None
    if status == STATUS_OK:
        z = result.distribution
        if z.support.size == 1:  # a point mass needs no draw: its stream is left unread
            recommendation = unflatten(int(z.support[0]), game.action_counts)
        else:
            rec_rng = substream(config.master_seed, _STREAM_RECOMMEND, trial_index,
                                num_flights, _METHOD_IDS[method])
            recommendation = sample_recommendation(z, rec_rng)
        final_action, deviated = simulate_deviation(game, z, recommendation, etas)
        if method == METHOD_FCFS:
            # FCFS is the uncoordinated operational baseline: airlines execute
            # their own schedule-order releases, there is no coordinator
            # recommendation to abandon. The deviation flag still reports whether
            # any airline would have preferred a unilateral switch.
            final_action = recommendation
        delay_cost = float(sys_cost[flat_index(final_action, game.action_counts)])
    return TrialRecord(**cell, status=status, solve_seconds=solve_seconds,
                       delay_cost=delay_cost, deviated=deviated, rr_size_d=rr_size_d,
                       recommendation=recommendation, final_action=final_action)


@dataclass(frozen=True)
class CellSummary:
    method: str
    num_flights: int
    n_ok: int
    mean_delay: float | None
    std_delay: float | None
    mean_solve_seconds: float
    deviation_rate: float | None
    n_infeasible: int
    n_timeout: int
    n_failed: int


@dataclass(frozen=True)
class ExperimentResult:
    records: list
    summaries: list
    csv_path: Path


def summarize(records) -> list[CellSummary]:
    """Aggregate records per (method, flight count), in first-seen order."""
    cells: dict[tuple[str, int], list[TrialRecord]] = {}
    for record in records:
        cells.setdefault((record.method, record.num_flights), []).append(record)
    out = []
    for (method, num_flights), rows in cells.items():
        ok = [r for r in rows if r.status == STATUS_OK]
        delays = [r.delay_cost for r in ok]
        out.append(CellSummary(
            method=method,
            num_flights=num_flights,
            n_ok=len(ok),
            mean_delay=statistics.fmean(delays) if delays else None,
            std_delay=(statistics.stdev(delays) if len(delays) > 1
                       else (0.0 if delays else None)),
            mean_solve_seconds=statistics.fmean(r.solve_seconds for r in rows),
            deviation_rate=(sum(1 for r in ok if r.deviated) / len(ok)) if ok else None,
            n_infeasible=sum(1 for r in rows if r.status == STATUS_INFEASIBLE),
            n_timeout=sum(1 for r in rows if r.status == STATUS_TIMEOUT),
            n_failed=sum(1 for r in rows if r.status == STATUS_SOLVER_FAILURE),
        ))
    return out


def summarize_paired(records) -> list[CellSummary]:
    """:func:`summarize` over the paired trials only: those (flight count,
    trial) pairs where every method run on them is ok, so that the methods'
    means compare the same instances. A cell without one is left out."""
    paired: dict[tuple[int, int], bool] = {}
    for r in records:
        key = (r.num_flights, r.trial_index)
        paired[key] = paired.get(key, True) and r.status == STATUS_OK
    return summarize([r for r in records if paired[(r.num_flights, r.trial_index)]])


def format_summary(summaries, paired=None) -> str:
    """A table of per-cell summaries; with ``paired`` (see
    :func:`summarize_paired`), a second table under it."""
    header = (f"{'method':<12} {'|F|':>4} {'ok':>4} {'mean delay':>12} "
              f"{'std':>10} {'mean solve s':>13} {'dev rate':>9} "
              f"{'inf':>4} {'t/o':>4} {'fail':>5}")
    lines = [header, "-" * len(header)]
    def fmt(x, width, digits=3):
        return f"{'-':>{width}}" if x is None else f"{x:>{width}.{digits}f}"
    for s in summaries:
        lines.append(
            f"{s.method:<12} {s.num_flights:>4} {s.n_ok:>4} "
            f"{fmt(s.mean_delay, 12, 2)} {fmt(s.std_delay, 10, 2)} "
            f"{fmt(s.mean_solve_seconds, 13, 4)} {fmt(s.deviation_rate, 9, 3)} "
            f"{s.n_infeasible:>4} {s.n_timeout:>4} {s.n_failed:>5}"
        )
    if paired is not None:
        lines += ["", "paired: only the trials where every method is ok", format_summary(paired)]
    return "\n".join(lines)


def _run_methods(config: ExperimentConfig, trial_index: int,
                 num_flights: int) -> list[TrialRecord]:
    """Every configured method on one lowered trial; the game dies on return."""
    lowered = lower_trial(config, trial_index, num_flights)
    return [run_trial(config, trial_index, method, num_flights, lowered)
            for method in config.methods]


def run_experiment(config: ExperimentConfig) -> ExperimentResult:
    """Run the full (flight count x method x trial) grid and write a CSV.

    Each (flight count, trial) instance is generated and lowered once, and
    every method runs on that game. Rows are buffered per flight count and
    then written, and flushed, in deterministic order: flight counts, then
    methods, then trials.
    """
    csv_path = Path(config.out_path)
    records: list[TrialRecord] = []
    with open(csv_path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(CSV_COLUMNS)
        handle.flush()
        for num_flights in config.flight_counts:
            by_trial = [_run_methods(config, t, num_flights)
                        for t in range(config.num_trials)]
            for k in range(len(config.methods)):
                for trial_records in by_trial:
                    writer.writerow(trial_records[k].to_csv_row())
                    records.append(trial_records[k])
            handle.flush()
    return ExperimentResult(records, summarize(records), csv_path)
