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
conditions within a trial. Two runs with the same config produce identical
CSVs except for the solve_seconds column.
"""

from __future__ import annotations

import csv
import json
import os
import statistics
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from .equilibrium import (
    enumerate_cc_pne,
    sample_recommendation,
    solve_full_ccce,
    solve_reduced_rank,
)
from .game import (
    BudgetExceededError,
    FiniteGame,
    JointDistribution,
    flat_index,
    incentive_gains,
)
from .lp import LpStatus, SolverFailureError, load_highs
from .uncertainty import UncertaintyModel, substream
from .vq import build_game, fcfs_profile, generate_instance

__all__ = [
    "CSV_COLUMNS",
    "CellSummary",
    "ExperimentConfig",
    "ExperimentResult",
    "METHODS",
    "THREADS_ENV_VAR",
    "TrialRecord",
    "format_summary",
    "run_experiment",
    "run_trial",
    "simulate_deviation",
    "summarize",
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

# Number of worker threads for trial execution; 1 (serial) if unset.
THREADS_ENV_VAR = "CCEQ_THREADS"

# Substream purposes, keyed into the seed path after the master seed.
_STREAM_INSTANCE = 0
_STREAM_ETA = 1
_STREAM_RECOMMEND = 2
_METHOD_IDS = {m: k for k, m in enumerate(METHODS)}

_SCENARIO_KEYS = {"runways", "epoch_minutes", "thresholds", "weights", "lateness_scale"}


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
        self.methods = tuple(self.methods)
        unknown = set(self.methods) - set(METHODS)
        if not self.methods or unknown:
            raise ValueError(f"methods must be a nonempty subset of {METHODS}, got {self.methods}")
        self.flight_counts = tuple(int(f) for f in self.flight_counts)
        if self.num_trials < 1:
            raise ValueError("num_trials must be at least 1")
        if not 0.0 < self.alpha < 1.0:
            raise ValueError(f"alpha must lie strictly in (0, 1), got {self.alpha!r}")
        if self.num_airlines < 1:
            raise ValueError("num_airlines must be at least 1")
        if self.master_seed < 0:
            raise ValueError("master_seed must be nonnegative")
        if self.time_budget_per_solve <= 0:
            raise ValueError("time_budget_per_solve must be positive")
        if not isinstance(self.scenario, dict) or set(self.scenario) - _SCENARIO_KEYS:
            raise ValueError(f"scenario keys must be a subset of {sorted(_SCENARIO_KEYS)}")

    @classmethod
    def from_dict(cls, doc: dict) -> "ExperimentConfig":
        """Build from a JSON-style dict; sigma may come nested as uncertainty.sigma."""
        doc = dict(doc)
        uncertainty = doc.pop("uncertainty", None)
        if uncertainty is not None:
            doc.setdefault("sigma", uncertainty.get("sigma", 0.0))
        if "out" in doc:
            doc["out_path"] = doc.pop("out")
        kwargs = {}
        for name in ("methods", "num_trials", "flight_counts", "alpha", "sigma",
                     "num_airlines", "master_seed", "time_budget_per_solve",
                     "out_path", "scenario"):
            if name in doc:
                kwargs[name] = doc.pop(name)
        if doc:
            raise ValueError(f"unknown config keys: {sorted(doc)}")
        if "sigma" in kwargs and isinstance(kwargs["sigma"], (list, tuple)):
            kwargs["sigma"] = tuple(float(s) for s in kwargs["sigma"])
        return cls(**kwargs)

    @classmethod
    def from_json(cls, path) -> "ExperimentConfig":
        return cls.from_dict(json.loads(Path(path).read_text()))

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


def simulate_deviation(
    game: FiniteGame,
    z: JointDistribution,
    recommendation,
    unc: UncertaintyModel,
    rng: np.random.Generator | None = None,
    etas=None,
):
    """Simulate simultaneous post-recommendation deviations.

    One perturbation eta_i is drawn per agent (shared across all of that
    agent's comparisons); each agent computes, for every alternative, the
    conditional expected deviation gain given its recommended action plus its
    eta. If the best margin is positive the agent best-responds to it (ties
    to the lowest action index), otherwise it follows the recommendation.
    Agents decide simultaneously against z, not against each other's realized
    switches. ``etas`` overrides sampling, for tests and for harness-managed
    per-agent substreams; the recommendation must be in the support of z.

    Returns ``(final_action, deviated)``.
    """
    rec = tuple(int(c) for c in recommendation)
    if etas is None:
        if rng is None:
            raise ValueError("provide either rng or etas")
        etas = [unc.sample_eta(i, rng) for i in range(game.num_agents)]
    etas = [float(e) for e in etas]
    if len(etas) != game.num_agents:
        raise ValueError(f"expected {game.num_agents} etas, got {len(etas)}")

    final = list(rec)
    for i, m in enumerate(game.action_counts):
        if m == 1:
            continue
        gains, marginals = incentive_gains(game, z, i)
        row = gains[rec[i]]
        if marginals[rec[i]] > 0.0:  # a zero-marginal row is all zeros: vacuous
            row = row / marginals[rec[i]]
        margins = row + etas[i]
        margins[rec[i]] = -np.inf
        best = int(np.argmax(margins))  # first maximum: lowest-index tie rule
        if margins[best] > 0.0:
            final[i] = best
    final_action = tuple(final)
    return final_action, final_action != rec


def _solve_for_method(method, config, instance, game, sys_cost, unc, deadline):
    """Method dispatch for pipeline step 3; returns (z, status, rr_size_d)."""
    if method == METHOD_FCFS:
        z = JointDistribution.point_mass(fcfs_profile(instance), game.action_counts)
        return z, STATUS_OK, None
    if method == METHOD_FULL_CCCE:
        result = solve_full_ccce(game, unc, config.alpha, sys_cost, deadline=deadline)
        if result.status != LpStatus.OPTIMAL:
            return None, STATUS_INFEASIBLE, None
        return result.distribution, STATUS_OK, None
    if method in (METHOD_RR_NOMINAL, METHOD_RR_CCCE):
        model = UncertaintyModel.zero(game.num_agents) if method == METHOD_RR_NOMINAL else unc
        pne = enumerate_cc_pne(game, model, config.alpha)
        rr = solve_reduced_rank(game, pne, sys_cost)
        if rr.status != LpStatus.OPTIMAL:
            return None, STATUS_INFEASIBLE, len(pne)
        return rr.induced, STATUS_OK, len(pne)
    raise ValueError(f"unknown method {method!r}")


def run_trial(config: ExperimentConfig, trial_index: int, method: str,
              num_flights: int) -> TrialRecord:
    """Run one benchmark cell.

    Pipeline: generate the trial's instance, build its game, compute the
    method's recommendation distribution (this step alone is timed and held
    to the per-solve budget: the selection LP solve checks it after assembly
    and hands the remainder to the solver as its time limit), sample a
    recommendation, simulate deviations under per-agent perturbations, and
    price the resulting joint action with the coordinator's cost table.
    Per-trial failures, running out of memory included, become statuses,
    never exceptions.
    """
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
        return TrialRecord(
            trial_index=trial_index, method=method, num_flights=num_flights,
            alpha=config.alpha, sigma=config.sigma,
            status=STATUS_SOLVER_FAILURE, solve_seconds=0.0,
        )
    unc = UncertaintyModel.gaussian(config.sigma, game.num_agents)
    if method == METHOD_FULL_CCCE:
        load_highs()  # a one-time import, kept out of solve_seconds

    start = time.perf_counter()
    try:
        z, status, rr_size_d = _solve_for_method(
            method, config, instance, game, sys_cost, unc,
            deadline=start + config.time_budget_per_solve,
        )
    except TimeoutError:
        z, status, rr_size_d = None, STATUS_TIMEOUT, None
    except (SolverFailureError, BudgetExceededError, MemoryError):
        z, status, rr_size_d = None, STATUS_SOLVER_FAILURE, None
    solve_seconds = time.perf_counter() - start
    if status != STATUS_SOLVER_FAILURE and solve_seconds > config.time_budget_per_solve:
        status = STATUS_TIMEOUT

    base = TrialRecord(
        trial_index=trial_index,
        method=method,
        num_flights=num_flights,
        alpha=config.alpha,
        sigma=config.sigma,
        status=status,
        solve_seconds=solve_seconds,
        rr_size_d=rr_size_d,
    )
    if status != STATUS_OK:
        return base

    rec_rng = substream(config.master_seed, _STREAM_RECOMMEND, trial_index,
                        num_flights, _METHOD_IDS[method])
    recommendation = sample_recommendation(z, rec_rng)
    etas = [
        unc.sample_eta(i, substream(config.master_seed, _STREAM_ETA,
                                    trial_index, num_flights, i))
        for i in range(game.num_agents)
    ]
    final_action, deviated = simulate_deviation(game, z, recommendation, unc, etas=etas)
    if method == METHOD_FCFS:
        # FCFS is the uncoordinated operational baseline: airlines execute
        # their own schedule-order releases, there is no coordinator
        # recommendation to abandon. The deviation flag still reports whether
        # any airline would have preferred a unilateral switch.
        final_action = recommendation
    delay_cost = float(sys_cost[flat_index(final_action, game.action_counts)])
    return replace(
        base,
        delay_cost=delay_cost,
        deviated=deviated,
        recommendation=recommendation,
        final_action=final_action,
    )


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


def format_summary(summaries) -> str:
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
    return "\n".join(lines)


def run_experiment(config: ExperimentConfig) -> ExperimentResult:
    """Run the full (flight count x method x trial) grid and stream a CSV.

    Rows are written and flushed one at a time in deterministic order (flight
    counts, then methods, then trials). Set the environment variable named by
    THREADS_ENV_VAR to parallelize trials within a cell; results are still
    written in trial order.
    """
    n_threads = int(os.environ.get(THREADS_ENV_VAR, "1"))
    csv_path = Path(config.out_path)
    records: list[TrialRecord] = []
    with open(csv_path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(CSV_COLUMNS)
        handle.flush()

        def emit(record: TrialRecord) -> None:
            writer.writerow(record.to_csv_row())
            handle.flush()
            records.append(record)

        for num_flights in config.flight_counts:
            for method in config.methods:
                if n_threads > 1:
                    with ThreadPoolExecutor(max_workers=n_threads) as pool:
                        futures = [
                            pool.submit(run_trial, config, t, method, num_flights)
                            for t in range(config.num_trials)
                        ]
                        for future in futures:
                            emit(future.result())
                else:
                    for t in range(config.num_trials):
                        emit(run_trial(config, t, method, num_flights))
    return ExperimentResult(records, summarize(records), csv_path)
