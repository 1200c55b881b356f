"""Workload definitions: one fixed `ExperimentConfig` per workload.

All workloads use sigma = 1.0, alpha = 0.9, 5 airlines, the default
scenario, the default per-solve budget and master seed 0, whatever the
benchmark's `--seed`. The instances, and so the CSV digest and the share of
failed rows, are the same in every run: some OPTIMAL full-ccce distributions
fail the CC-CE certificate (ghost masses, see README), which trials fail
depends on the instances, and a failure count that moved with the seed
would not repeat from run to run.
"""

from __future__ import annotations

from dataclasses import dataclass

MASTER_SEED = 0


@dataclass(frozen=True)
class Workload:
    name: str
    methods: tuple[str, ...]
    flight_counts: tuple[int, ...]
    num_trials: int

    @property
    def rows_per_round(self) -> int:
        return len(self.methods) * len(self.flight_counts) * self.num_trials

    @property
    def tail_pct(self) -> float:
        """Highest of p99, p95, p90, p75 with at least ten of a round's rows
        beyond it; solve_ms_tail reports this percentile."""
        for pct in (99.0, 95.0, 90.0, 75.0):
            if self.rows_per_round * (100.0 - pct) / 100.0 >= 10:
                return pct
        raise ValueError(f"{self.name}: too few rows per round for a tail percentile")

    def config_kwargs(self) -> dict:
        return dict(
            methods=self.methods,
            num_trials=self.num_trials,
            flight_counts=self.flight_counts,
            alpha=0.9,
            sigma=1.0,
            num_airlines=5,
            master_seed=MASTER_SEED,
        )


WORKLOADS = {
    w.name: w
    for w in (
        Workload("full-lp", ("full-ccce",), (9, 10, 11), 14),
        Workload("rr-large", ("rr-nominal", "rr-ccce"), (12, 13, 14), 40),
        Workload("grid", ("fcfs", "full-ccce", "rr-nominal", "rr-ccce"), (6, 7, 8, 9), 30),
    )
}

