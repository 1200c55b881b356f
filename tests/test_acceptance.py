"""Acceptance suite: one test per release criterion, at its stated tolerance.

Each test prints a single [PASS] line (run with -s or -rA to see them); a
failed assert is the corresponding [FAIL].
"""

import csv
import statistics
import time

import numpy as np
import pytest

from cceq.equilibrium import (
    check_ccce_feasibility,
    enumerate_cc_pne,
    solve_full_ccce,
    solve_reduced_rank,
)
from cceq.game import FiniteGame, JointDistribution
from cceq.harness import (
    CSV_COLUMNS,
    ExperimentConfig,
    STATUS_OK,
    STATUS_TIMEOUT,
    STATUS_SOLVER_FAILURE,
    run_experiment,
    run_trial,
)
from cceq.lp import LpStatus
from cceq.uncertainty import tightenings
from conftest import INTERSECTION_COSTS
from oracles import eq_feasible, grid_distributions, profiles, random_game

INTERSECTION_GAME = FiniteGame((2, 2), INTERSECTION_COSTS)
HALF_DEVICE = JointDistribution.from_mass(np.array([0.0, 0.5, 0.5, 0.0]), (2, 2))
SYS1 = INTERSECTION_COSTS.sum(axis=0)


def test_criterion_01_intersection_golden_suite():
    start = time.perf_counter()
    ok, _ = check_ccce_feasibility(INTERSECTION_GAME, HALF_DEVICE, tightenings(0.0, 0.9, 2))
    assert ok, "half/half device must be a nominal CE"

    ok, worst = check_ccce_feasibility(INTERSECTION_GAME, HALF_DEVICE, tightenings(1.0, 0.9, 2))
    assert ok
    assert worst == pytest.approx(-0.7184, abs=1e-4)

    ok, _ = check_ccce_feasibility(INTERSECTION_GAME, HALF_DEVICE, tightenings(1.0, 0.99, 2))
    assert not ok

    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    print(f"\n[PASS] criterion 1: intersection-game golden suite "
          f"(worst margin {worst:+.5f}, {elapsed:.3f} s)")


def test_criterion_02_equilibrium_containment_property_suite():
    start = time.perf_counter()
    rng = np.random.default_rng(20_240_901)
    num_games = 500
    point_checks = hull_checks = 0
    for _ in range(num_games):
        game = random_game(rng, max_agents=3, max_actions=3, low=-5, high=5)
        n = game.num_agents
        for sigma in (0.0, 0.5, 1.0):
            for alpha in (0.5, 0.9, 0.99):
                q = tightenings(sigma, alpha, n)
                flats = enumerate_cc_pne(game, q)
                if len(flats) == 0:
                    continue
                for profile in profiles(flats, game.action_counts):
                    z = JointDistribution.point_mass(profile, game.action_counts)
                    _, worst = check_ccce_feasibility(game, z, q)
                    assert worst <= 1e-7, f"CC-PNE point mass violates CC-CE: margin {worst}"
                    point_checks += 1
                for _ in range(50):
                    lam = rng.dirichlet(np.ones(len(flats)))
                    mass = np.zeros(game.num_joint)
                    mass[flats] = lam
                    z = JointDistribution.from_mass(mass, game.action_counts)
                    _, worst = check_ccce_feasibility(game, z, q)
                    assert worst <= 1e-7, f"CC-PNE hull point violates CC-CE: margin {worst}"
                    hull_checks += 1
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    print(f"\n[PASS] criterion 2: point-mass and convex-hull containment over {num_games} games, "
          f"{point_checks} point masses + {hull_checks} hull points, zero "
          f"violations ({elapsed:.1f} s)")


def test_criterion_03_restriction_bound():
    rng = np.random.default_rng(314159)
    qualified = 0
    attempts = 0
    while qualified < 100 and attempts < 2000:
        attempts += 1
        game = random_game(rng)
        n = game.num_agents
        sigma = float(rng.choice([0.0, 0.5, 1.0]))
        alpha = float(rng.choice([0.5, 0.9]))
        q = tightenings(sigma, alpha, n)
        sys_cost = game.costs.sum(axis=0)
        pne = enumerate_cc_pne(game, q)
        if len(pne) == 0:
            continue
        full = solve_full_ccce(game, q, sys_cost)
        if full.status != LpStatus.OPTIMAL:
            continue
        rr = solve_reduced_rank(game, pne, sys_cost)
        assert rr.objective >= full.objective - 1e-6, \
            f"RR {rr.objective} below full {full.objective}"
        qualified += 1
    assert qualified == 100
    print(f"\n[PASS] criterion 3: restriction bound on {qualified} games, zero violations")


def test_criterion_04_nominal_reduction_equivalence():
    rng = np.random.default_rng(271828)
    for _ in range(100):
        game = random_game(rng)
        n = game.num_agents
        sys_cost = game.costs.sum(axis=0)
        nominal = solve_full_ccce(game, np.zeros(n), sys_cost)
        assert nominal.status == LpStatus.OPTIMAL
        alpha = float(rng.uniform(0.05, 0.95))
        zero_sigma = solve_full_ccce(game, tightenings(0.0, alpha, n), sys_cost)
        assert abs(zero_sigma.objective - nominal.objective) <= 1e-7
        sigma = float(rng.uniform(0.5, 3.0))
        at_half = solve_full_ccce(game, tightenings(sigma, 0.5, n), sys_cost)
        assert abs(at_half.objective - nominal.objective) <= 1e-7
    print("\n[PASS] criterion 4: nominal-reduction equivalence on 100 games "
          "(sigma=0 at random alpha; gaussian sigma>0 at alpha=0.5)")


def test_criterion_05_alpha_monotonicity():
    rng = np.random.default_rng(161803)
    for _ in range(200):
        game = random_game(rng)
        sigma = float(rng.choice([0.5, 1.0]))
        at_99, at_90, at_50 = (set(enumerate_cc_pne(game, tightenings(sigma, alpha, game.num_agents)))
                               for alpha in (0.99, 0.9, 0.5))
        assert at_99 <= at_90 <= at_50
    print("\n[PASS] criterion 5: alpha-monotonicity of CC-PNE sets on 200 games "
          "(0.99 within 0.9 within 0.5, exact containment)")


def test_criterion_06_scalability():
    config = ExperimentConfig(num_trials=11, flight_counts=(9, 14), sigma=1.0,
                              alpha=0.9, master_seed=2024, time_budget_per_solve=240.0)
    # every rr-ccce solve at |F|=14 completes inside the epoch budget
    rr14 = [run_trial(config, t, "rr-ccce", 14) for t in range(5)]
    for record in rr14:
        assert record.status not in (STATUS_TIMEOUT, STATUS_SOLVER_FAILURE)
        assert record.solve_seconds < 240.0
    # full-ccce is at least 10x slower than rr-ccce at |F|=9 (median)
    full9 = [run_trial(config, t, "full-ccce", 9).solve_seconds for t in range(11)]
    rr9 = [run_trial(config, t, "rr-ccce", 9).solve_seconds for t in range(11)]
    ratio = statistics.median(full9) / statistics.median(rr9)
    assert ratio >= 10.0, f"median solve-time ratio {ratio:.1f} below 10"
    print(f"\n[PASS] criterion 6: rr-ccce at |F|=14 max "
          f"{max(r.solve_seconds for r in rr14) * 1e3:.1f} ms (budget 240 s); "
          f"full/rr median ratio at |F|=9 is {ratio:.0f}x")


def test_criterion_07_coordination_effect():
    start = time.perf_counter()
    config = ExperimentConfig(num_trials=100, flight_counts=(9,), sigma=0.0,
                              alpha=0.9, master_seed=0)
    means = {}
    for method in ("fcfs", "full-ccce", "rr-ccce"):
        records = [run_trial(config, t, method, 9) for t in range(100)]
        ok = [r for r in records if r.status == STATUS_OK]
        assert len(ok) == 100, f"{method} had non-ok trials at sigma=0"
        means[method] = statistics.fmean(r.delay_cost for r in ok)
    elapsed = time.perf_counter() - start
    assert means["full-ccce"] <= means["rr-ccce"] + 1e-9
    assert means["rr-ccce"] <= means["fcfs"] + 1e-9
    gap = 1.0 - means["full-ccce"] / means["fcfs"]
    assert gap >= 0.05, f"full-ccce only {gap:.1%} below fcfs"
    assert elapsed <= 1800.0
    print(f"\n[PASS] criterion 7: mean delay full {means['full-ccce']:.1f} <= "
          f"rr {means['rr-ccce']:.1f} <= fcfs {means['fcfs']:.1f}; "
          f"gap {gap:.1%} (>=5%), {elapsed:.1f} s")


def test_criterion_08_robustness_ordering():
    rates = {}
    for sigma in (2.0, 5.0, 10.0):
        config = ExperimentConfig(num_trials=100, flight_counts=(8,), sigma=sigma,
                                  alpha=0.9, master_seed=0)
        for method in ("rr-nominal", "rr-ccce"):
            records = [run_trial(config, t, method, 8) for t in range(100)]
            ok = [r for r in records if r.status == STATUS_OK]
            assert ok, f"{method} had no feasible trials at sigma={sigma}"
            rates[(method, sigma)] = sum(1 for r in ok if r.deviated) / len(ok)
    for sigma in (2.0, 5.0, 10.0):
        assert rates[("rr-ccce", sigma)] <= rates[("rr-nominal", sigma)], \
            f"rr-ccce deviates more than rr-nominal at sigma={sigma}"
    for sigma in (5.0, 10.0):
        assert rates[("rr-nominal", sigma)] > 0.0
    summary = ", ".join(
        f"sigma={s:g}: ccce {rates[('rr-ccce', s)]:.2f} <= nominal "
        f"{rates[('rr-nominal', s)]:.2f}" for s in (2.0, 5.0, 10.0))
    print(f"\n[PASS] criterion 8: deviation-rate ordering holds ({summary})")


def test_criterion_09_determinism(tmp_path):
    outputs = []
    for name in ("a.csv", "b.csv"):
        config = ExperimentConfig(
            methods=("fcfs", "full-ccce", "rr-nominal", "rr-ccce"),
            num_trials=4, flight_counts=(6, 7), sigma=1.5, alpha=0.9,
            num_airlines=3, master_seed=99, out_path=str(tmp_path / name))
        run_experiment(config)
        outputs.append(list(csv.reader((tmp_path / name).open())))
    first, second = outputs
    assert len(first) == len(second) == 1 + 4 * 2 * 4
    solve_col = CSV_COLUMNS.index("solve_seconds")
    for row_a, row_b in zip(first, second):
        row_a = list(row_a)
        row_b = list(row_b)
        if row_a != list(CSV_COLUMNS):
            row_a[solve_col] = row_b[solve_col] = ""
        assert row_a == row_b
    print("\n[PASS] criterion 9: identical CSVs modulo solve_seconds across "
          f"two runs ({len(first) - 1} rows)")


def test_criterion_10_oracle_equivalence():
    rng = np.random.default_rng(40_075)
    grid = grid_distributions(4, denom=20, every=8)  # 222 of the 1771 grid points
    combos = [(s, a) for s in (0.0, 0.5, 1.0) for a in (0.5, 0.9, 0.99)]
    checks = 0
    for g in range(500):
        game = FiniteGame((2, 2), rng.integers(-2, 3, size=(2, 4)).astype(float))
        sigma, alpha = combos[g % len(combos)]
        q = tightenings(sigma, alpha, 2)
        for mass in grid:
            z = JointDistribution.from_mass(mass, (2, 2))
            _, worst = check_ccce_feasibility(game, z, q)
            ours = worst <= 1e-7
            oracle = eq_feasible(game, mass, [sigma, sigma], alpha, tol=1e-7)
            assert ours == oracle, (
                f"disagreement: game {game.costs.tolist()}, z {mass.tolist()}, "
                f"sigma {sigma}, alpha {alpha}")
            checks += 1
    assert checks >= 100_000
    print(f"\n[PASS] criterion 10: {checks} grid checks agree with the "
          "independent deterministic-equivalent oracle, zero disagreements")
