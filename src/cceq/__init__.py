"""Chance-constrained correlated equilibria for multi-agent coordination.

Computes nominal and chance-constrained correlated equilibria of finite games
by linear programming, enumerates chance-constrained pure Nash equilibria,
and solves the reduced-rank selection program over their convex hull. Ships
with an airport virtual-queue coordination scenario and a Monte Carlo
benchmark harness.
"""

from .game import (
    BudgetExceededError,
    FiniteGame,
    JointDistribution,
    flat_index,
    load_game,
    save_game,
    unflatten,
)
from .uncertainty import substream, tightenings
from .lp import LinearProgram, LpSolution, SolverFailureError, solve
from .equilibrium import (
    EquilibriumResult,
    assemble_ce_constraints,
    check_ccce_feasibility,
    enumerate_cc_pne,
    sample_recommendation,
    solve_full_ccce,
    solve_reduced_rank,
)
from .vq import VQInstance, build_game, fcfs_profile, generate_instance
from .harness import ExperimentConfig, TrialRecord, run_experiment, run_trial, simulate_deviation

__version__ = "0.1.0"
