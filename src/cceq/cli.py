"""Command-line interface.

Subcommands:
  run            Monte Carlo benchmark batch, CSV output plus a summary table.
  check          One-off chance-constrained CE feasibility check on a game file.
  enumerate-pne  List chance-constrained pure Nash equilibria of a game file.

Exit codes: 0 for a completed batch or check (even when individual trials
fail or the verdict is "infeasible"), 1 for I/O errors, 2 for bad
configuration or arguments.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from .equilibrium import (
    check_ccce_feasibility,
    enumerate_cc_pne,
    solve_full_ccce,
)
from .game import JointDistribution, load_game, unflatten
from .harness import METHODS, ExperimentConfig, format_summary, run_experiment, summarize_paired
from .uncertainty import tightenings

__all__ = ["main"]


def _parse_sigma(text: str):
    values = tuple(float(p) for p in text.split(",") if p)
    return values[0] if len(values) == 1 else values


def _parse_flights(text: str) -> tuple[int, ...]:
    """Accepts '6..14' (inclusive range) or a comma list like '6,8,10'."""
    if ".." in text:
        lo, hi = text.split("..", 1)
        return tuple(range(int(lo), int(hi) + 1))
    return tuple(int(p) for p in text.split(",") if p)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cceq", description="Correlated-equilibrium coordination toolkit"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    # each flag's dest is the ExperimentConfig field it sets; an absent flag sets none
    run = sub.add_parser("run", help="run a Monte Carlo benchmark batch",
                         argument_default=argparse.SUPPRESS)
    run.add_argument("--config", type=Path, help="JSON config file")
    run.add_argument("--methods", type=lambda text: tuple(text.split(",")),
                     help=f"comma list from {','.join(METHODS)}")
    run.add_argument("--trials", dest="num_trials", type=int, help="trials per cell")
    run.add_argument("--flights", dest="flight_counts", type=_parse_flights,
                     help="flight counts, e.g. 6..14 or 6,8,10")
    run.add_argument("--alpha", type=float, help="confidence level in (0,1)")
    run.add_argument("--sigma", type=_parse_sigma, help="perturbation sigma, scalar or comma list")
    run.add_argument("--seed", dest="master_seed", type=int, help="master seed")
    run.add_argument("--airlines", dest="num_airlines", type=int, help="number of airlines")
    run.add_argument("--out", dest="out_path", help="CSV output path")
    run.add_argument("--time-budget", dest="time_budget_per_solve", type=float,
                     help="per-solve budget, seconds")

    check = sub.add_parser("check", help="chance-constrained CE feasibility check")
    check.add_argument("--game-file", type=Path, required=True)
    check.add_argument("--alpha", type=float, required=True)
    check.add_argument("--sigma", type=_parse_sigma, required=True)
    check.add_argument(
        "--dist-file", type=Path,
        help="JSON distribution ({'mass': [...]} or a bare list) to check; "
             "without it, the tightened selection LP is solved for feasibility",
    )

    enum = sub.add_parser("enumerate-pne", help="list CC-PNE profiles of a game")
    enum.add_argument("--game-file", type=Path, required=True)
    enum.add_argument("--alpha", type=float, required=True)
    enum.add_argument("--sigma", type=_parse_sigma, required=True)
    enum.add_argument("--limit", type=int, help="stop after this many profiles")
    return parser


def _cmd_run(args) -> int:
    flags = {k: v for k, v in vars(args).items() if k not in ("command", "config")}
    doc = json.loads(args.config.read_text()) if "config" in args else {}
    if not isinstance(doc, dict):
        raise ValueError(f"a config must be a JSON object, got {type(doc).__name__}")
    config = ExperimentConfig.from_dict({**doc, **flags})  # a flag beats the file
    result = run_experiment(config)
    print(format_summary(result.summaries, summarize_paired(result.records)))
    print(f"wrote {len(result.records)} rows to {result.csv_path}")
    return 0


def _load_distribution(path: Path, action_counts) -> JointDistribution:
    doc = json.loads(path.read_text())
    mass = doc["mass"] if isinstance(doc, dict) else doc
    return JointDistribution.from_mass(mass, action_counts)


def _cmd_check(args) -> int:
    game = load_game(args.game_file)
    q = tightenings(args.sigma, args.alpha, game.num_agents)
    if args.dist_file is not None:
        z = _load_distribution(args.dist_file, game.action_counts)
        feasible, worst = check_ccce_feasibility(game, z, q)
        print(f"feasible: {'true' if feasible else 'false'}")
        print(f"worst margin: {worst:.10g}")
    else:
        result = solve_full_ccce(game, q, np.zeros(game.num_joint))
        print(f"ccce polytope nonempty: {'false' if result.distribution is None else 'true'}")
    return 0


def _cmd_enumerate(args) -> int:
    game = load_game(args.game_file)
    q = tightenings(args.sigma, args.alpha, game.num_agents)
    flats = enumerate_cc_pne(game, q, limit=args.limit)
    for flat in flats:
        print(" ".join(str(c) for c in unflatten(int(flat), game.action_counts)))
    print(f"found {len(flats)} CC-PNE at alpha={args.alpha}")
    return 0


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "run":
            return _cmd_run(args)
        if args.command == "check":
            return _cmd_check(args)
        return _cmd_enumerate(args)
    except OSError as exc:
        print(f"I/O error on {getattr(exc, 'filename', None) or 'file'}: {exc}",
              file=sys.stderr)
        return 1
    except (ValueError, KeyError, json.JSONDecodeError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
