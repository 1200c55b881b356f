import csv
import os
import subprocess
import sys
import time
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import cceq
from cceq.equilibrium import (
    FEASIBILITY_TOL,
    enumerate_cc_pne,
    sample_recommendation,
    solve_full_ccce,
)
from cceq.game import FiniteGame, JointDistribution, flat_index, unflatten
from cceq.harness import (
    CSV_COLUMNS,
    ExperimentConfig,
    METHODS,
    STATUS_OK,
    TrialRecord,
    format_summary,
    lower_trial,
    run_experiment,
    run_trial,
    simulate_deviation,
    summarize,
    summarize_paired,
)
from cceq.lp import LpStatus, SolverFailureError
from cceq.uncertainty import substream
from cceq.vq import SystemCost, build_game, generate_instance
from oracles import dense_incentive_gains, loop_incentive_gains, random_game


def test_simulate_deviation_forced_eta(intersection_game, half_device):
    # recommended (G,S); margin of G->S is -2, so eta_0 = +2.5 flips it
    final, deviated = simulate_deviation(intersection_game, half_device, (0, 1), [2.5, 0.0])
    assert deviated and final == (1, 1)
    final, deviated = simulate_deviation(intersection_game, half_device, (0, 1), [1.0, 0.0])
    assert not deviated and final == (0, 1)


def test_simulate_deviation_zero_noise_on_ccce(intersection_game, half_device, intersection_sys_cost):
    final, deviated = simulate_deviation(intersection_game, half_device, (0, 1), [0.0, 0.0])
    assert not deviated and final == (0, 1)
    result = solve_full_ccce(intersection_game, np.zeros(2), intersection_sys_cost)
    for rec_flat in result.distribution.support:
        rec = tuple(int(c) for c in np.unravel_index(rec_flat, (2, 2)))
        _, deviated = simulate_deviation(intersection_game, result.distribution, rec, [0.0, 0.0])
        assert not deviated


def test_simulate_deviation_argmax_tie_rule(intersection_game):
    # point mass on (G,G): margins for agent 0 are J0(G,G)-J0(S,G)=4 for the
    # single alternative; a large eta keeps it positive
    z = JointDistribution.point_mass((0, 0), (2, 2))
    final, deviated = simulate_deviation(intersection_game, z, (0, 0), [0.0, 0.0])
    assert deviated and final == (1, 1)  # both agents best-respond simultaneously


def decide(split, rec, etas):
    """The decision simulate_deviation documents, agent by agent, from one
    ``(gains, marginals)`` pair per agent."""
    final = list(rec)
    for i, (gains, marginals) in enumerate(split):
        margins = gains[rec[i]] / marginals[rec[i]] + etas[i]
        margins[rec[i]] = -np.inf
        best = int(np.argmax(margins))  # first maximum
        if margins[best] > FEASIBILITY_TOL:
            final[i] = best
    return tuple(final), tuple(final) != tuple(rec)


def dense_deviation(game, z, rec, etas):
    return decide([dense_incentive_gains(game, z, i) for i in range(game.num_agents)], rec, etas)


def loop_deviation(game, z, rec, etas):
    return decide([loop_incentive_gains(game, z, i) for i in range(game.num_agents)], rec, etas)


def test_simulate_deviation_matches_the_dense_oracle():
    # random games of 1-4 agents with 1-4 actions, point masses and
    # multi-support z, against both oracles. Small integer costs and weights
    # in sixteenths keep every sum exact, so margins tie often and equal the
    # dense oracle's bit for bit, FEASIBILITY_TOL itself included. An agent
    # without an alternative always follows its recommendation
    rng = np.random.default_rng(2024)
    edge = [0.0, FEASIBILITY_TOL, np.nextafter(FEASIBILITY_TOL, np.inf), -1.0, 1.0, 2.5]
    outcomes = []
    lone = one_agent = 0
    for case in range(200):
        game = random_game(rng, max_agents=4, max_actions=4, min_agents=1, min_actions=1)
        counts = game.action_counts
        lone += 1 in counts
        one_agent += len(counts) == 1
        exact = case % 2 == 0
        if exact:
            game = FiniteGame(counts, rng.integers(0, 4, size=(len(counts), game.num_joint)))
        size = 1 if case % 3 == 0 else int(rng.integers(1, min(game.num_joint, 16) + 1))
        support = np.sort(rng.choice(game.num_joint, size=size, replace=False))
        weights = (rng.multinomial(16 - size, np.ones(size) / size) + 1) / 16 if exact \
            else rng.dirichlet(np.ones(size))
        z = JointDistribution(support, weights, counts)
        for flat in support.tolist():
            rec = unflatten(flat, counts)
            etas = rng.choice(edge, size=len(counts)) if exact \
                else rng.normal(0.0, float(rng.choice([0.1, 1.0, 10.0])), len(counts))
            expected = dense_deviation(game, z, rec, etas)
            got = simulate_deviation(game, z, rec, etas)
            assert got == expected == loop_deviation(game, z, rec, etas), (case, rec)
            assert all(got[0][i] == rec[i] for i, m in enumerate(counts) if m == 1)
            outcomes.append(expected[1])
    assert len(outcomes) >= 500 and 0 < sum(outcomes) < len(outcomes)
    assert lone > 0 and one_agent > 0


def test_simulate_deviation_margins_are_the_certificates():
    # etas that put each agent's best margin, as the loop oracle sums it in
    # the certificate's order, within rounding of FEASIBILITY_TOL: a gain
    # summed in another order would flip some of these decisions. The dense
    # oracle, which sums in another order, agrees away from the edge
    rng = np.random.default_rng(77)
    outcomes = []
    for _ in range(60):
        game = random_game(rng, max_agents=3, max_actions=6)
        size = int(rng.integers(game.num_joint // 2, game.num_joint + 1))
        support = np.sort(rng.choice(game.num_joint, size=size, replace=False))
        z = JointDistribution(support, rng.dirichlet(np.ones(size)), game.action_counts)
        split = [loop_incentive_gains(game, z, i) for i in range(game.num_agents)]
        for flat in support[:10].tolist():
            rec = unflatten(flat, game.action_counts)
            etas = []
            for (gains, marginals), own in zip(split, rec):
                margins = np.delete(gains[own], own) / marginals[own]
                etas.append(FEASIBILITY_TOL - margins.max(initial=0.0))
            expected = decide(split, rec, etas)
            assert simulate_deviation(game, z, rec, etas) == expected
            outcomes.append(expected[1])
            far = np.array(etas) + rng.choice([-1.0, 1.0], size=len(etas))
            assert simulate_deviation(game, z, rec, far) == dense_deviation(game, z, rec, far) \
                == loop_deviation(game, z, rec, far)
    assert 0 < sum(outcomes) < len(outcomes)


def test_simulate_deviation_tie_rule_and_tolerance_edge():
    # costs that ignore every action: each margin is the agent's eta, tied
    # across its alternatives
    game = FiniteGame((3, 4, 2), np.zeros((3, 24)))
    z = JointDistribution([5, 17], [0.5, 0.5], game.action_counts)  # (0, 2, 1) and (2, 0, 1)
    above = np.nextafter(FEASIBILITY_TOL, np.inf)
    assert simulate_deviation(game, z, (0, 2, 1), [FEASIBILITY_TOL] * 3) == ((0, 2, 1), False)
    assert simulate_deviation(game, z, (0, 2, 1), [above] * 3) == ((1, 0, 0), True)
    assert simulate_deviation(game, z, (2, 0, 1), [above, FEASIBILITY_TOL, 1.0]) \
        == ((0, 0, 0), True)


def test_simulate_deviation_on_airport_games():
    # two runways of rate 2 with empty queues: full-ccce's optima mix several
    # joint actions; point masses anywhere in the joint space are read too
    config = ExperimentConfig(methods=("full-ccce",), num_trials=4, flight_counts=(6, 7, 8),
                              sigma=0.5, master_seed=0,
                              scenario={"runways": {"mu": [2, 2], "q0": [0, 0]},
                                        "thresholds": {"congestion": 2, "lateness": 100}})
    rng = np.random.default_rng(8)
    mixed = 0
    for num_flights in config.flight_counts:
        for trial in range(config.num_trials):
            lowered = lower_trial(config, trial, num_flights)
            game = lowered.game
            result = solve_full_ccce(game, lowered.q, np.asarray(lowered.sys_cost))
            points = [JointDistribution([flat], [1.0], game.action_counts)
                      for flat in rng.integers(game.num_joint, size=5).tolist()]
            if result.status == LpStatus.OPTIMAL:
                points.append(result.distribution)
                mixed += result.distribution.support.size > 1
            for z in points:
                for flat in z.support.tolist():
                    rec = unflatten(flat, game.action_counts)
                    for etas in (lowered.etas, rng.normal(0.0, 5.0, game.num_agents)):
                        assert simulate_deviation(game, z, rec, etas) \
                            == dense_deviation(game, z, rec, etas), (num_flights, trial, rec)
    assert mixed >= 8


def test_simulate_deviation_requires_the_recommendation_in_the_support(intersection_game):
    # a point mass on (S,S) does not recommend (G,G), nor does a z that
    # puts 1e-9 on (G,S) and the rest on (S,S)
    for z in (JointDistribution.point_mass((1, 1), (2, 2)),
              JointDistribution([1, 3], [1e-9, 1.0 - 1e-9], (2, 2))):
        with pytest.raises(ValueError, match="support"):
            simulate_deviation(intersection_game, z, (0, 0), [0.0, 0.0])
    with pytest.raises(ValueError, match="actions"):
        simulate_deviation(intersection_game, JointDistribution.point_mass((1, 1), (2, 2)),
                           (1, 1, 0), [0.0, 0.0])


def test_simulate_deviation_validates_etas(intersection_game, half_device):
    for etas in ([0.0], [0.0, 0.0, 0.0], []):
        with pytest.raises(ValueError):
            simulate_deviation(intersection_game, half_device, (0, 1), etas)


def base_config(**overrides):
    defaults = dict(num_trials=2, flight_counts=(6,), alpha=0.9, sigma=0.0,
                    num_airlines=3, master_seed=12, out_path="unused.csv")
    defaults.update(overrides)
    return ExperimentConfig(**defaults)


def test_run_trial_statuses_and_replay(tmp_path):
    config = base_config(sigma=1.0)
    for method in METHODS:
        record = run_trial(config, 0, method, 6)
        assert record.status == STATUS_OK
        assert record.method == method
        # replay: realized cost equals the system cost at the final action
        inst = generate_instance(
            6, 3, seed=np.random.SeedSequence((12, 0, 0, 6)))
        game, sys_cost = build_game(inst)
        assert record.delay_cost == pytest.approx(
            float(sys_cost[flat_index(record.final_action, game.action_counts)]))
        if method in ("rr-nominal", "rr-ccce"):
            assert record.rr_size_d >= 1
        else:
            assert record.rr_size_d is None


def test_fcfs_executes_its_own_profile():
    config = base_config(sigma=3.0)
    record = run_trial(config, 1, "fcfs", 6)
    assert record.status == STATUS_OK
    assert record.final_action == record.recommendation
    inst = generate_instance(6, 3, seed=np.random.SeedSequence((12, 0, 1, 6)))
    assert record.final_action == tuple(2 ** len(owned) - 1 for owned in inst.airlines)


def test_rr_nominal_equals_rr_ccce_at_alpha_half():
    config = base_config(sigma=0.0, alpha=0.5, num_trials=1)
    a = run_trial(config, 0, "rr-nominal", 6)
    b = run_trial(config, 0, "rr-ccce", 6)
    assert replace(a, method="x", solve_seconds=0.0) == replace(b, method="x", solve_seconds=0.0)


def test_single_airline_single_flight_is_bruteforce_optimal():
    config = ExperimentConfig(num_trials=1, flight_counts=(1,), num_airlines=1,
                              master_seed=3, sigma=0.0)
    inst = generate_instance(1, 1, seed=np.random.SeedSequence((3, 0, 0, 1)))
    game, sys_cost = build_game(inst)
    best = float(np.asarray(sys_cost).min())
    for method in ("full-ccce", "rr-nominal", "rr-ccce"):
        record = run_trial(config, 0, method, 1)
        assert record.status == STATUS_OK
        assert record.delay_cost == pytest.approx(best)


def test_timeout_status():
    config = base_config(time_budget_per_solve=1e-9)
    record = run_trial(config, 0, "full-ccce", 6)
    assert record.status == "timeout"
    assert record.delay_cost is None and record.deviated is None


def test_timeout_stops_the_solve():
    # the default grid's largest selection LP (1.08M nonzeros) needs about
    # 0.04 s to assemble and 0.25 s to solve; the deadline is checked after
    # assembly and the remainder of the 0.15 s budget becomes the solver's
    # time limit
    config = ExperimentConfig(num_trials=10, flight_counts=(14,), sigma=1.0, num_airlines=5,
                              master_seed=0, time_budget_per_solve=0.15)
    start = time.perf_counter()
    record = run_trial(config, 9, "full-ccce", 14)
    assert record.status == "timeout"
    assert time.perf_counter() - start < 3.0


def run_fresh(code: str) -> str:
    """Run code in a fresh interpreter that imports this checkout's cceq."""
    src = str(Path(cceq.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_import_leaves_scipy_unloaded():
    out = run_fresh("import sys, cceq; print('scipy' in sys.modules)")
    assert out.split() == ["False"]


def test_first_full_ccce_solve_excludes_the_solver_import():
    out = run_fresh(
        "from cceq.harness import ExperimentConfig, run_trial\n"
        "record = run_trial(ExperimentConfig(sigma=1.0), 0, 'full-ccce', 6)\n"
        "print(record.status, record.solve_seconds)\n"
    )
    status, seconds = out.split()
    assert status == "ok"
    assert float(seconds) < 0.1


def test_load_highs_loads_only_the_extension_module():
    out = run_fresh(
        "import sys, time\n"
        "from cceq.lp import LinearProgram, load_highs, solve\n"
        "start = time.perf_counter()\n"
        "core = load_highs()\n"
        "print(time.perf_counter() - start)\n"
        "print([m for m in ('scipy.optimize', 'scipy.sparse', 'scipy.linalg')\n"
        "       if m in sys.modules] == [])\n"
        "sol = solve(LinearProgram([1.0, 2.0], [0, 1, 2], [0, 0], [-1.0, -1.0],\n"
        "                          [-float('inf')], [-1.0]))\n"
        "print(sol.status.value, sol.objective_value)\n"
        "from scipy.optimize import linprog\n"
        "from scipy.optimize._highspy import _core\n"
        "ref = linprog([1.0, 2.0], A_ub=[[-1.0, -1.0]], b_ub=[-1.0], method='highs')\n"
        "print(ref.status, ref.fun)\n"
        "print(_core is core, sys.modules['scipy.optimize._highspy._core'] is core)\n"
    )
    seconds, lean, status, objective, ref_status, ref_objective, *same = out.split()
    assert float(seconds) < 0.25  # importing scipy.optimize takes about 0.7 s
    assert lean == "True"
    assert status == "optimal" and float(objective) == 1.0
    assert ref_status == "0" and float(ref_objective) == float(objective)
    assert same == ["True", "True"]


def test_load_highs_reuses_an_imported_scipy_optimize():
    out = run_fresh(
        "import scipy.optimize\n"
        "from cceq.lp import load_highs\n"
        "print(load_highs() is scipy.optimize._highspy._core)\n"
    )
    assert out.split() == ["True"]


def test_perturbations_are_drawn_once_per_trial(tmp_path, monkeypatch):
    import cceq.harness as hmod
    paths = []

    def counted(*path):
        paths.append(path)
        return substream(*path)

    drawn = []

    def sampled(z, rng):
        drawn.append(z.support.size)
        return sample_recommendation(z, rng)

    monkeypatch.setattr(hmod, "substream", counted)
    monkeypatch.setattr(hmod, "sample_recommendation", sampled)
    config = base_config(num_trials=2, flight_counts=(6,), methods=METHODS,
                         out_path=str(tmp_path / "results.csv"))
    records = run_experiment(config).records
    eta_paths = [p for p in paths if p[1] == hmod._STREAM_ETA]
    assert eta_paths == [(12, hmod._STREAM_ETA, t, 6, i) for t in range(2) for i in range(3)]
    # the other streams draw recommendations, one per ok row whose
    # distribution has more than one point: only full-ccce's can
    full_ok = {(r.trial_index, hmod._METHOD_IDS[r.method]) for r in records
               if r.status == STATUS_OK and r.method == "full-ccce"}
    rec_paths = [p for p in paths if p[1] != hmod._STREAM_ETA]
    assert all(p[:2] == (12, hmod._STREAM_RECOMMEND) and p[3] == 6 for p in rec_paths)
    assert {(p[2], p[4]) for p in rec_paths} <= full_ok
    assert len(rec_paths) == len(drawn) and all(size > 1 for size in drawn)


def test_point_mass_recommendation_is_the_draw_it_skips(monkeypatch):
    # fcfs and the rr methods recommend a point mass: run_trial takes its
    # point without a draw, and a draw from the row's own stream would have
    # returned the same point
    import cceq.harness as hmod
    streams, recommended = [], []
    monkeypatch.setattr(hmod, "substream", lambda *path: streams.append(path) or substream(*path))

    def spied(game, z, recommendation, etas):
        recommended.append(z)
        return simulate_deviation(game, z, recommendation, etas)

    monkeypatch.setattr(hmod, "simulate_deviation", spied)
    config = base_config(sigma=1.0, num_trials=3)
    for trial in range(3):
        lowered = hmod.lower_trial(config, trial, 6)
        for method in ("fcfs", "rr-nominal", "rr-ccce"):
            streams.clear()
            recommended.clear()
            record = run_trial(config, trial, method, 6, lowered)
            assert record.status == STATUS_OK and streams == []
            [z] = recommended
            assert z.support.size == 1
            rng = substream(12, hmod._STREAM_RECOMMEND, trial, 6, hmod._METHOD_IDS[method])
            assert record.recommendation == sample_recommendation(z, rng)


def test_program_too_large_for_memory_is_refused_before_assembly(monkeypatch):
    import cceq.equilibrium as eqmod

    def not_allocated(*args, **kwargs):
        raise AssertionError("assembly ran")

    assert eqmod._available_memory_bytes() > 0
    monkeypatch.setattr(eqmod, "_available_memory_bytes", lambda: 1024.0)
    monkeypatch.setattr(eqmod, "assemble_ce_constraints", not_allocated)
    config = base_config(sigma=1.0, num_trials=1)
    record = run_trial(config, 0, "full-ccce", 6)
    assert record.status == "solver-failure" and record.delay_cost is None
    assert run_trial(config, 0, "rr-ccce", 6).status == "ok"
    game, sys_cost = build_game(generate_instance(6, 5, seed=0))
    with pytest.raises(MemoryError, match="nonzeros needs about"):
        solve_full_ccce(game, np.zeros(game.num_agents), sys_cost)


def test_memory_guard_releases_the_solver_before_refusing(monkeypatch):
    import cceq.equilibrium as eqmod
    import cceq.lp as lpmod

    # memory reads short while this thread holds a solver, ample once it is released
    monkeypatch.setattr(eqmod, "_available_memory_bytes",
                        lambda: 1024.0 if "highs" in vars(lpmod._local) else float("inf"))
    game, sys_cost = build_game(generate_instance(6, 5, seed=0))
    q = np.zeros(game.num_agents)
    held = lpmod._thread_solver()
    result = solve_full_ccce(game, q, sys_cost)
    assert result.status == "optimal"
    assert lpmod._thread_solver() is not held  # released, then created anew
    # without a solver to release, the guard refuses
    monkeypatch.setattr(eqmod, "_available_memory_bytes", lambda: 1024.0)
    with pytest.raises(MemoryError, match="nonzeros needs about"):
        solve_full_ccce(game, q, sys_cost)


def test_available_memory_respects_the_address_space_limit():
    out = run_fresh(
        "import resource\n"
        "from cceq.equilibrium import _available_memory_bytes\n"
        "with open('/proc/self/statm') as handle:\n"
        "    used = int(handle.read().split()[0]) * resource.getpagesize()\n"
        "hard = resource.getrlimit(resource.RLIMIT_AS)[1]\n"
        "resource.setrlimit(resource.RLIMIT_AS, (used + 2**26, hard))\n"
        "print(0 < _available_memory_bytes() <= 2**26)\n"
    )
    assert out.split() == ["True"]


def test_cgroup_memory_room_reads_v2_then_v1_limits(tmp_path, monkeypatch):
    import cceq.equilibrium as eqmod

    membership = tmp_path / "cgroup"
    membership.write_text("4:memory:/box\n0::/box\n")

    def room(name, **files):
        """The room under a fake cgroup mount holding ``files``, given as
        relative path -> content."""
        root = tmp_path / name
        root.mkdir()
        for rel, text in files.items():
            (root / rel).parent.mkdir(parents=True, exist_ok=True)
            (root / rel).write_text(text + "\n")
        return eqmod._cgroup_memory_room(str(root), str(membership))

    v1_unlimited = {"memory/memory.limit_in_bytes": str(eqmod._CGROUP_V1_NO_LIMIT),
                    "memory/memory.usage_in_bytes": "1000"}
    v1_box = {"memory/box/memory.limit_in_bytes": str(2**30),
              "memory/box/memory.usage_in_bytes": str(2**28)}
    v2_box = {"box/memory.max": str(2**30), "box/memory.current": str(2**29)}
    assert room("none") == float("inf")
    assert room("v1-root", **v1_unlimited) == float("inf")
    assert room("v1-own", **v1_unlimited, **v1_box) == 3 * 2**28
    assert room("v2-root", **{"memory.max": "max", "memory.current": "1000"}, **v1_box) == float("inf")
    assert room("v2-own", **v2_box, **v1_box) == 2**29
    # a cgroup missing one of its two files is skipped
    assert room("v2-partial", **{"box/memory.max": str(2**30)}, **v1_box) == 3 * 2**28

    monkeypatch.setattr(eqmod, "_cgroup_memory_room", lambda: 2.0**20)
    assert 0 < eqmod._available_memory_bytes() <= 2.0**20


def test_paired_summary_keeps_trials_where_every_method_is_ok():
    def record(trial, method, status, delay):
        return TrialRecord(trial_index=trial, method=method, num_flights=6, alpha=0.9,
                           sigma=1.0, status=status, solve_seconds=0.0,
                           delay_cost=delay, deviated=False if delay is not None else None)

    records = [record(0, "fcfs", STATUS_OK, 10.0), record(1, "fcfs", STATUS_OK, 30.0),
               record(0, "full-ccce", STATUS_OK, 8.0), record(1, "full-ccce", "infeasible", None)]
    unpaired = {s.method: s for s in summarize(records)}
    assert (unpaired["fcfs"].n_ok, unpaired["fcfs"].mean_delay) == (2, 20.0)
    paired = {s.method: s for s in summarize_paired(records)}
    assert {m: (s.n_ok, s.mean_delay) for m, s in paired.items()} == {
        "fcfs": (1, 10.0), "full-ccce": (1, 8.0)}
    table = format_summary(list(unpaired.values()), list(paired.values()))
    assert table.count("mean delay") == 2 and "paired" in table


def test_memory_error_becomes_solver_failure(tmp_path, monkeypatch):
    def exhausted(*args, **kwargs):
        raise MemoryError

    monkeypatch.setattr("cceq.harness.solve_full_ccce", exhausted)
    out = tmp_path / "results.csv"
    result = run_experiment(base_config(methods=("full-ccce", "fcfs"), out_path=str(out)))
    statuses = [(r.method, r.status) for r in result.records]
    assert statuses == [("full-ccce", "solver-failure")] * 2 + [("fcfs", "ok")] * 2
    assert len(list(csv.reader(out.read_text().splitlines()))) == 1 + len(statuses)


def test_memory_error_before_the_solve_becomes_solver_failure(tmp_path, monkeypatch):
    # full-ccce prices every joint action before its solve, outside
    # solve_seconds; running out of memory there fails the row, not the batch
    from cceq.vq import SystemCost

    def exhausted(self, dtype=None, copy=None):
        raise MemoryError((2**24,), np.float64)

    monkeypatch.setattr(SystemCost, "__array__", exhausted)
    config = base_config(methods=("full-ccce", "rr-nominal"), out_path=str(tmp_path / "r.csv"))
    record = run_trial(config, 0, "full-ccce", 6, lower_trial(config, 0, 6))
    assert (record.status, record.solve_seconds, record.delay_cost) == ("solver-failure", 0.0, None)
    result = run_experiment(config)
    statuses = [(r.method, r.status) for r in result.records]
    assert statuses == [("full-ccce", "solver-failure")] * 2 + [("rr-nominal", "ok")] * 2


def _raises(error):
    def raiser(*args, **kwargs):
        raise error("injected")
    return raiser


# (method, config overrides, flight count, trial, (patched target, error) or
# None, status, whether the solve was timed)
ROW_ENDINGS = {
    "ok-full-ccce": ("full-ccce", dict(sigma=1.0), 6, 0, None, "ok", True),
    "ok-rr-ccce": ("rr-ccce", dict(sigma=1.0), 6, 0, None, "ok", True),
    "infeasible": ("full-ccce", dict(sigma=5.0, num_airlines=5, master_seed=0), 8, 27, None,
                   "infeasible", True),
    "timeout": ("full-ccce", dict(time_budget_per_solve=1e-4), 6, 0, None, "timeout", True),
    "build-game-refused": ("rr-ccce", dict(sigma=1.0, num_airlines=60, master_seed=0), 70, 0,
                           None, "solver-failure", False),
    "joint-space-cap": ("full-ccce", dict(num_airlines=2, master_seed=0), 26, 0, None,
                        "solver-failure", False),
    "memory-error-pricing": ("full-ccce", {}, 6, 0, ("cceq.vq.SystemCost.__array__", MemoryError),
                             "solver-failure", False),
    "solver-failure-in-solve": ("full-ccce", {}, 6, 0,
                                ("cceq.harness.solve_full_ccce", SolverFailureError),
                                "solver-failure", True),
}


@pytest.mark.parametrize("ending", ROW_ENDINGS)
def test_every_way_a_row_ends_fills_its_fields(ending, monkeypatch):
    method, overrides, num_flights, trial, patched, status, timed = ROW_ENDINGS[ending]
    if patched is not None:
        target, error = patched
        monkeypatch.setattr(target, _raises(error))
    config = base_config(flight_counts=(num_flights,), num_trials=trial + 1, **overrides)
    record = run_trial(config, trial, method, num_flights)
    assert record.status == status
    # a refusal before the timer starts reads exactly 0
    assert record.solve_seconds > 0.0 if timed else record.solve_seconds == 0.0
    # an RR solve has no deadline: it returns unless it fails
    rr_returned = method.startswith("rr-") and status != "solver-failure"
    assert (record.rr_size_d is not None) == rr_returned
    outcome = (record.delay_cost, record.deviated, record.recommendation, record.final_action)
    if status == "ok":
        assert None not in outcome
    else:
        assert outcome == (None,) * 4


def test_run_experiment_csv_and_summary(tmp_path):
    out = tmp_path / "results.csv"
    config = base_config(num_trials=3, flight_counts=(6,), out_path=str(out),
                         methods=METHODS)
    result = run_experiment(config)
    assert result.csv_path == out
    rows = list(csv.reader(out.read_text().splitlines()))
    assert rows[0] == list(CSV_COLUMNS)
    assert len(rows) == 1 + 3 * len(METHODS)
    summaries = result.summaries
    assert {s.method for s in summaries} == set(METHODS)
    for s in summaries:
        if s.deviation_rate is not None:
            assert 0.0 <= s.deviation_rate <= 1.0
        if s.method != "fcfs":
            assert s.deviation_rate == 0.0  # sigma = 0
    table = format_summary(summaries)
    assert "fcfs" in table and "mean delay" in table


def test_csv_determinism_modulo_solve_seconds(tmp_path):
    out_a, out_b = tmp_path / "a.csv", tmp_path / "b.csv"
    for out in (out_a, out_b):
        config = base_config(num_trials=4, flight_counts=(6, 7), sigma=2.0,
                             out_path=str(out))
        run_experiment(config)
    rows_a = list(csv.reader(out_a.read_text().splitlines()))
    rows_b = list(csv.reader(out_b.read_text().splitlines()))
    solve_col = CSV_COLUMNS.index("solve_seconds")
    assert len(rows_a) == len(rows_b)
    for ra, rb in zip(rows_a, rows_b):
        ra[solve_col] = rb[solve_col] = ""
        assert ra == rb


def test_instances_are_method_independent():
    config = base_config(sigma=1.0)
    records = {m: run_trial(config, 0, m, 6) for m in ("fcfs", "rr-nominal")}
    # identical instance implies identical fcfs release profile sizes and
    # identical game: compare through the deterministic instance seed
    a = generate_instance(6, 3, seed=np.random.SeedSequence((12, 0, 0, 6)))
    b = generate_instance(6, 3, seed=np.random.SeedSequence((12, 0, 0, 6)))
    assert a == b
    assert records["fcfs"].num_flights == records["rr-nominal"].num_flights


def test_config_from_dict_nested_sigma_and_validation():
    config = ExperimentConfig.from_dict({
        "methods": ["fcfs"], "num_trials": 5, "flight_counts": [6, 7],
        "uncertainty": {"sigma": [1.0, 2.0, 1.0, 1.0, 1.0]},
        "alpha": 0.8, "out": "x.csv",
    })
    assert config.sigma == (1.0, 2.0, 1.0, 1.0, 1.0)
    assert config.out_path == "x.csv"
    with pytest.raises(ValueError):
        ExperimentConfig.from_dict({"methods": ["nope"]})
    with pytest.raises(ValueError):
        ExperimentConfig.from_dict({"alpha": 1.5})
    with pytest.raises(ValueError):
        ExperimentConfig.from_dict({"unknown_key": 1})
    with pytest.raises(ValueError):
        ExperimentConfig(scenario={"bad": 1})
    with pytest.raises(ValueError):
        ExperimentConfig.from_dict({"scenario": {"thresholds": {"congestoin": 99}}})
    with pytest.raises(ValueError):
        ExperimentConfig.from_dict({"scenario": {"runways": {"mu": [2, 2, 3]}}})


def test_config_scenario_kwargs():
    config = ExperimentConfig(scenario={
        "runways": {"mu": [2.0, 3.0], "q0": [1, 0]},
        "thresholds": {"congestion": 5, "lateness": 12.0},
        "epoch_minutes": 5.0,
    })
    kwargs = config.scenario_kwargs()
    assert kwargs["service_rates"] == (2.0, 3.0)
    assert kwargs["initial_queues"] == (1, 0)
    assert kwargs["congestion_threshold"] == 5
    assert kwargs["lateness_threshold"] == 12.0
    assert kwargs["epoch_minutes"] == 5.0


def test_summarize_counts_infeasible():
    config = base_config(sigma=40.0, alpha=0.99, num_trials=4)
    records = [run_trial(config, t, "rr-ccce", 6) for t in range(4)]
    summary = summarize(records)[0]
    assert summary.n_ok + summary.n_infeasible + summary.n_timeout + summary.n_failed == 4
    if summary.n_ok == 0:
        assert summary.mean_delay is None and summary.deviation_rate is None


def test_run_experiment_records_equal_separate_trials(tmp_path):
    config = base_config(num_trials=3, flight_counts=(6, 7), sigma=1.5, methods=METHODS,
                         out_path=str(tmp_path / "results.csv"))
    batch = run_experiment(config).records
    separate = [run_trial(config, t, m, f) for f in config.flight_counts
                for m in config.methods for t in range(config.num_trials)]
    assert [replace(r, solve_seconds=0.0) for r in batch] == \
        [replace(r, solve_seconds=0.0) for r in separate]


def test_run_experiment_builds_one_game_per_trial(tmp_path, monkeypatch):
    import cceq.harness as hmod
    calls = []

    def counted(instance, **kwargs):
        calls.append(instance.num_flights)
        return build_game(instance, **kwargs)

    monkeypatch.setattr(hmod, "build_game", counted)
    config = base_config(num_trials=3, flight_counts=(6, 7), methods=METHODS,
                         out_path=str(tmp_path / "results.csv"))
    result = run_experiment(config)
    assert len(result.records) == 2 * 3 * len(METHODS)
    assert calls == [6] * 3 + [7] * 3


@pytest.mark.parametrize("methods", [("rr-ccce",), ("rr-nominal", "rr-ccce")])
def test_rr_line_minima_are_computed_before_the_timer(tmp_path, monkeypatch, methods):
    # every RR row times its own enumeration only, whichever RR method runs first
    import cceq.harness as hmod
    calls = []

    def checked(game, q, *args, **kwargs):
        calls.append("alternative_minima" in vars(game))
        return enumerate_cc_pne(game, q, *args, **kwargs)

    monkeypatch.setattr(hmod, "enumerate_cc_pne", checked)
    config = base_config(num_trials=2, flight_counts=(6, 7), methods=methods,
                         out_path=str(tmp_path / "results.csv"))
    run_experiment(config)
    assert calls == [True] * (2 * 2 * len(methods))


@pytest.fixture
def priced(monkeypatch):
    """The system-cost tables priced over the whole joint space, one entry
    per ``np.asarray`` call on a ``SystemCost``."""
    tables = []
    dense = SystemCost.__array__

    def counted(self, *args, **kwargs):
        tables.append(self)
        return dense(self, *args, **kwargs)

    monkeypatch.setattr(SystemCost, "__array__", counted)
    return tables


def test_rr_and_fcfs_trials_build_no_dense_tables(priced):
    # these methods read lines and single points; full-ccce's LP reads lines
    # too, and only its objective, the system cost, over the joint space,
    # priced once per row
    config = base_config(num_trials=4, flight_counts=(12,), sigma=1.0)
    for trial in range(config.num_trials):
        lowered = lower_trial(config, trial, 12)
        for method in ("fcfs", "rr-nominal", "rr-ccce"):
            assert run_trial(config, trial, method, 12, lowered).status in ("ok", "infeasible")
        assert "costs" not in vars(lowered.game) and priced == []
        for _ in range(2):
            run_trial(config, trial, "full-ccce", 12, lowered)
            assert "costs" not in vars(lowered.game) and priced == [lowered.sys_cost]
            priced.clear()


@pytest.mark.parametrize("sigma, num_flights, trial", [(5.0, 8, 27), (10.0, 10, 48)])
def test_empty_tightened_polytopes_read_infeasible(sigma, num_flights, trial):
    # no CC-CE exists on these trials: scipy's linprog finds the program
    # infeasible with highs, highs-ds and highs-ipm. Written over the joint
    # actions alone, it left HiGHS's dual simplex stopped with status
    # Unknown, a solver-failure row
    config = ExperimentConfig(num_trials=trial + 1, flight_counts=(num_flights,), sigma=sigma,
                              alpha=0.9, num_airlines=5, master_seed=0)
    record = run_trial(config, trial, "full-ccce", num_flights)
    assert record.status == "infeasible"


@pytest.mark.parametrize("overrides", [
    dict(flight_counts=(6, 3), num_airlines=5),
    dict(flight_counts=()),
    dict(sigma=(1.0, 2.0), num_airlines=5),
    dict(sigma=-1.0),
    dict(sigma=float("nan")),
    dict(sigma=(1.0, float("inf"), 1.0), num_airlines=3),
    dict(time_budget_per_solve=float("nan")),
])
def test_config_rejects_bad_flights_and_sigma(overrides):
    with pytest.raises(ValueError):
        ExperimentConfig(**overrides)


def test_oversized_joint_space_becomes_solver_failure(priced):
    # 26 flights across 2 airlines exceed the 2^24 joint-space cap of the
    # full selection program; fcfs builds no joint-space table and runs
    config = ExperimentConfig(num_trials=1, flight_counts=(26,), num_airlines=2,
                              master_seed=0, sigma=0.0)
    lowered = lower_trial(config, 0, 26)
    record = run_trial(config, 0, "full-ccce", 26, lowered)
    assert record.status == "solver-failure"
    assert record.delay_cost is None and record.solve_seconds == 0.0
    assert priced == []
    assert run_trial(config, 0, "fcfs", 26, lowered).status == "ok"


def test_rr_and_fcfs_run_past_the_joint_space_cap(priced):
    # 2^30 joint actions: fcfs and the RR methods allocate nothing of that
    # size (a float table would take 8 GiB), the full program is refused
    config = ExperimentConfig(num_trials=2, flight_counts=(30,), num_airlines=5,
                              master_seed=0, sigma=1.0)
    for trial in range(config.num_trials):
        lowered = lower_trial(config, trial, 30)
        assert lowered.game.num_joint == 2 ** 30
        tracemalloc.start()
        try:
            records = [run_trial(config, trial, method, 30, lowered)
                       for method in ("fcfs", "rr-nominal", "rr-ccce")]
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 ** 25  # 32 MiB, an eighth of one joint-space byte array
        assert all(r.status in ("ok", "infeasible") for r in records)
        assert any(r.status == "ok" for r in records)
        assert run_trial(config, trial, "full-ccce", 30, lowered).status == "solver-failure"
        assert "costs" not in vars(lowered.game) and priced == []


def test_joint_space_past_int64_fails_every_method():
    config = ExperimentConfig(num_trials=1, flight_counts=(70,), num_airlines=60,
                              master_seed=0, sigma=1.0)
    assert lower_trial(config, 0, 70).game is None
    for method in METHODS:
        record = run_trial(config, 0, method, 70)
        assert record.status == "solver-failure" and record.delay_cost is None


def test_no_agent_deviates_from_a_certified_ce_at_zero_noise():
    # the optimum sits on binding incentive rows whose margins read +1e-16
    # or so after renormalization; those are not incentives to deviate
    rng = np.random.default_rng(31)
    checked = 0
    for _ in range(150):
        game = random_game(rng, max_agents=3, max_actions=3)
        sys_cost = rng.integers(-5, 6, size=game.num_joint).astype(float)
        result = solve_full_ccce(game, np.zeros(game.num_agents), sys_cost)
        for flat in result.distribution.support.tolist():
            rec = unflatten(flat, game.action_counts)
            etas = np.zeros(game.num_agents)
            assert simulate_deviation(game, result.distribution, rec, etas) == (rec, False)
            checked += 1
    assert checked > 300


def test_full_ccce_follows_its_mixed_optima_at_zero_noise():
    # two runways of rate 2 with empty queues, 5 airlines: full-ccce's optima
    # mix several CC-PNE, and at sigma = 0 no airline leaves them
    config = ExperimentConfig(methods=("full-ccce",), num_trials=40,
                              flight_counts=tuple(range(6, 11)), sigma=0.0, master_seed=0,
                              scenario={"runways": {"mu": [2, 2], "q0": [0, 0]},
                                        "thresholds": {"congestion": 2, "lateness": 100}})
    records = [run_trial(config, t, "full-ccce", f)
               for f in config.flight_counts for t in range(config.num_trials)]
    ok = [r for r in records if r.status == STATUS_OK]
    assert len(ok) == len(records) == 200
    assert sum(r.deviated for r in ok) == 0


def test_rr_methods_identical_at_alpha_half_with_noise():
    # gaussian tightening vanishes at alpha = 0.5, so both RR methods pick the
    # same profile and face the same perturbations
    config = base_config(sigma=2.0, alpha=0.5, num_trials=1)
    a = run_trial(config, 0, "rr-nominal", 6)
    b = run_trial(config, 0, "rr-ccce", 6)
    assert replace(a, method="x", solve_seconds=0.0) == replace(b, method="x", solve_seconds=0.0)
