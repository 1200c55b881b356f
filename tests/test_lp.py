import importlib.util
import math
import sys
import threading
import time
import types

import numpy as np
import pytest
import scipy.optimize

import cceq.lp as lpmod
from cceq.equilibrium import ccce_program
from cceq.lp import (
    LinearProgram,
    SolverFailureError,
    load_highs,
    release_solver,
    solve,
)
from oracles import (
    dense_constraints,
    enumerate_lp_vertices,
    lp_from_rows,
    lp_with_known_optimum,
    z_space_program,
)


def scipy_solve(lp: LinearProgram):
    # the public linprog entry point, so a scipy release that changes the
    # private HiGHS bindings the package calls shows up as a disagreement
    a_ub, b_ub, a_eq, b_eq = dense_constraints(lp)
    return scipy.optimize.linprog(
        lp.objective,
        A_ub=a_ub if a_ub.size else None,
        b_ub=b_ub if b_ub.size else None,
        A_eq=a_eq if a_eq.size else None,
        b_eq=b_eq if b_eq.size else None,
        bounds=(0, None),
        method="highs",
    )


def replay(lp: LinearProgram, values: np.ndarray):
    a_ub, b_ub, a_eq, b_eq = dense_constraints(lp)
    if a_ub.size:
        assert float((a_ub @ values - b_ub).max()) <= 1e-7
    if a_eq.size:
        assert float(np.abs(a_eq @ values - b_eq).max()) <= 1e-7
    assert values.min() >= -1e-9


def test_equality_forces_objective():
    lp = lp_from_rows([1.0, 1.0], eq=[([1.0, 1.0], 1.0)])
    sol = solve(lp)
    assert sol.values is not None
    assert sol.objective_value == pytest.approx(1.0, abs=1e-9)
    replay(lp, sol.values)


def test_single_active_bound():
    lp = lp_from_rows([-1.0], ineq=[([1.0], 3.0)])
    sol = solve(lp)
    assert sol.values is not None
    assert sol.values[0] == pytest.approx(3.0, abs=1e-9)
    assert sol.objective_value == pytest.approx(-3.0, abs=1e-9)


def test_infeasible_status():
    lp = lp_from_rows([1.0], ineq=[([1.0], -1.0)])  # v <= -1 with v >= 0
    sol = solve(lp)
    assert sol.values is None and sol.objective_value is None


def test_unbounded_status():
    # an unbounded program is no verdict: selection programs are bounded
    for lp in (lp_from_rows([-1.0, 0.0], ineq=[([0.0, 1.0], 1.0)]), lp_from_rows([-1.0])):
        with pytest.raises(SolverFailureError, match="nbounded"):
            solve(lp)


def test_geq_constraints_via_negation():
    # minimize 3a + 4b s.t. a + b >= 2, 2a + b >= 3 (classic negative-rhs form)
    lp = lp_from_rows(
        [3.0, 4.0], ineq=[([-1.0, -1.0], -2.0), ([-2.0, -1.0], -3.0)]
    )
    sol = solve(lp)
    ref = scipy_solve(lp)
    assert sol.values is not None
    assert sol.objective_value == pytest.approx(ref.fun, rel=1e-9)
    replay(lp, sol.values)


def test_intersection_game_ce_polytope_against_vertex_oracle(intersection_game, intersection_sys_cost):
    program = ccce_program(intersection_game, np.zeros(2), intersection_sys_cost)
    over_z = z_space_program(program, 4)
    vertices = enumerate_lp_vertices(*dense_constraints(over_z), 4)
    assert vertices, "CE polytope should not be empty"
    oracle_opt = min(float(over_z.objective @ v) for v in vertices)
    assert oracle_opt == pytest.approx(0.0, abs=1e-9)
    sol = solve(program)
    assert sol.values is not None
    assert sol.objective_value == pytest.approx(oracle_opt, abs=1e-7)
    # optimal mass concentrates on (G,S) and (S,G)
    assert sol.values[0] + sol.values[3] <= 1e-7


def test_random_known_optimum_lps():
    rng = np.random.default_rng(5)
    for _ in range(40):
        n = int(rng.integers(2, 9))
        m = int(rng.integers(1, 13))
        lp, optimum = lp_with_known_optimum(rng, n, m)
        sol = solve(lp)
        assert sol.values is not None
        assert sol.objective_value == pytest.approx(optimum, rel=1e-6, abs=1e-6)
        replay(lp, sol.values)


def test_agreement_with_scipy_on_random_lps():
    rng = np.random.default_rng(17)
    infeasible = set()
    for _ in range(60):
        n = int(rng.integers(2, 7))
        m_ub = int(rng.integers(0, 7))
        m_eq = int(rng.integers(0, 3))
        lp = lp_from_rows(
            rng.normal(size=n),
            ineq=[(rng.normal(size=n), float(rng.normal())) for _ in range(m_ub)],
            eq=[(rng.normal(size=n), float(rng.normal())) for _ in range(m_eq)],
        )
        ref = scipy_solve(lp)
        if ref.status == 3:
            with pytest.raises(SolverFailureError, match="nbounded"):
                solve(lp)
            continue
        try:
            sol = solve(lp)
        except SolverFailureError:
            pytest.fail("solver failure on a small random LP")
        infeasible.add(sol.values is None)
        if ref.status == 0:
            assert sol.values is not None
            assert sol.objective_value == pytest.approx(ref.fun, rel=1e-6, abs=1e-6)
            replay(lp, sol.values)
        elif ref.status == 2:
            assert sol.values is None
    assert infeasible == {False, True}


def test_beale_degenerate_example_terminates():
    # Beale's classical cycling example; anti-cycling must terminate it.
    lp = lp_from_rows(
        [-0.75, 150.0, -0.02, 6.0],
        ineq=[
            ([0.25, -60.0, -0.04, 9.0], 0.0),
            ([0.5, -90.0, -0.02, 3.0], 0.0),
            ([0.0, 0.0, 1.0, 0.0], 1.0),
        ],
    )
    sol = solve(lp)
    ref = scipy_solve(lp)
    assert sol.values is not None
    assert sol.objective_value == pytest.approx(ref.fun, rel=1e-9, abs=1e-9)


def test_iteration_cap_raises():
    # a stop without a verdict, here at a simplex iteration limit of one set
    # on the thread's solver; released after, so later solves get a new one
    # with default options
    lpmod._thread_solver().setOptionValue("simplex_iteration_limit", 1)
    lp = lp_from_rows(
        [-1.0, -1.0], ineq=[([1.0, 0.0], 1.0), ([0.0, 1.0], 1.0), ([1.0, 1.0], 1.5)]
    )
    try:
        with pytest.raises(SolverFailureError, match="limit"):
            solve(lp)
    finally:
        release_solver()
    assert solve(lp).values is not None


def selection_programs():
    """Selection programs of a few airport games, of growing and shrinking size."""
    from cceq.uncertainty import tightenings
    from cceq.vq import build_game, generate_instance

    programs = []
    for seed, flights in ((100, 7), (101, 9), (102, 6), (103, 8)):
        game, sys_cost = build_game(generate_instance(flights, 5, seed=seed))
        programs.append(ccce_program(game, tightenings(1.0, 0.9, 5), sys_cost))
    return programs


def solve_all(programs):
    return [solve(lp).values for lp in programs]


def assert_same_values(got, want):
    assert len(got) == len(want)
    for a, b in zip(got, want, strict=True):
        assert np.array_equal(a, b)


def test_reused_solver_gives_the_values_of_a_new_one():
    programs = selection_programs()
    release_solver()
    fresh = []
    for lp in programs:
        fresh.append(solve(lp).values)
        release_solver()
    assert_same_values(solve_all(programs), fresh)
    # and in reverse order, on a solver that has seen every program
    assert_same_values(solve_all(programs[::-1]), fresh[::-1])


def test_reuse_after_a_timeout_leaks_no_state(monkeypatch):
    programs = selection_programs()
    first = solve_all(programs)
    # before run: the deadline has passed when the model is loaded
    with pytest.raises(TimeoutError, match="before the solver ran"):
        solve(programs[1], deadline=time.perf_counter() - 1.0)
    assert_same_values(solve_all(programs), first)
    # inside run: the clock the module reads leaves HiGHS a nanosecond
    with monkeypatch.context() as patch:
        patch.setattr(lpmod, "time", types.SimpleNamespace(perf_counter=lambda: 0.0))
        with pytest.raises(TimeoutError, match="time limit"):
            solve(programs[1], deadline=1e-9)
    assert_same_values(solve_all(programs), first)


def test_reuse_after_a_solver_failure_leaks_no_state():
    programs = selection_programs()
    first = solve_all(programs)
    with pytest.raises(SolverFailureError, match="nbounded"):
        solve(lp_from_rows([-1.0, 0.0], ineq=[([0.0, 1.0], 1.0)]))
    assert_same_values(solve_all(programs), first)


def test_solve_without_deadline_resets_the_time_limit():
    lp = lp_from_rows([1.0, 1.0], eq=[([1.0, 1.0], 1.0)])
    solve(lp, deadline=time.perf_counter() + 60.0)
    highs = lpmod._thread_solver()
    assert 0.0 < highs.getOptionValue("time_limit")[1] <= 60.0
    solve(lp)
    assert highs.getOptionValue("time_limit")[1] == math.inf
    assert highs.getNumCol() == 0  # the model is cleared after every solve


def test_threads_get_distinct_solvers():
    # more threads than cores, switching often, each solving every program a
    # few times on its own solver: the values stay those of a serial solve
    programs = selection_programs()
    want = solve_all(programs)
    solvers, results = {}, {}

    def work(k):
        solvers[k] = lpmod._thread_solver()
        results[k] = [solve_all(programs) for _ in range(3)]

    threads = [threading.Thread(target=work, args=(k,)) for k in range(4)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert len({id(solver) for solver in solvers.values()}) == 4
    assert all(solver is not lpmod._thread_solver() for solver in solvers.values())
    for runs in results.values():
        for got in runs:
            assert_same_values(got, want)


def test_solve_is_deterministic():
    rng = np.random.default_rng(23)
    lp, _ = lp_with_known_optimum(rng, 6, 8)
    first = solve(lp)
    second = solve(lp)
    assert np.array_equal(first.values, second.values)
    assert first.objective_value == second.objective_value


def test_validation_errors():
    with pytest.raises(ValueError):
        lp_from_rows([1.0, np.inf])
    with pytest.raises(ValueError):
        lp_from_rows([1.0], ineq=[([1.0, 2.0], 1.0)])
    # column-wise form: start must cover every column, index every row
    good = dict(objective=[1.0, 1.0], start=[0, 1, 2], index=[0, 0], value=[1.0, 1.0],
                row_lower=[-np.inf], row_upper=[1.0])
    LinearProgram(**good)
    for bad in (dict(start=[0, 2]), dict(start=[0, 2, 1]), dict(index=[0, 1]),
                dict(value=[1.0]), dict(row_lower=[2.0]), dict(value=[1.0, np.nan])):
        with pytest.raises(ValueError):
            LinearProgram(**{**good, **bad})


def test_vq_selection_programs_match_scipy():
    # the degenerate zero-rhs incentive programs are the solver's worst case;
    # hammer a spread of sizes and tightenings against HiGHS
    from cceq.uncertainty import tightenings
    from cceq.vq import build_game, generate_instance

    for seed, flights, sigma in ((100, 7, 0.0), (101, 8, 1.0), (102, 9, 16.0),
                                 (104, 9, 8.0), (105, 10, 2.0)):
        inst = generate_instance(flights, 5, seed=seed)
        game, sys_cost = build_game(inst)
        program = ccce_program(game, tightenings(sigma, 0.9, 5), sys_cost)
        sol = solve(program)
        ref = scipy_solve(program)
        assert sol.values is not None and ref.status == 0
        assert sol.objective_value == pytest.approx(ref.fun, rel=1e-6)
        replay(program, sol.values)


def test_load_highs_without_the_extension_raises_import_error(monkeypatch):
    monkeypatch.delitem(sys.modules, "scipy.optimize._highspy._core")
    monkeypatch.setattr(importlib.util, "find_spec", lambda name: None)
    with pytest.raises(ImportError, match="not found"):
        load_highs.__wrapped__()  # uncached
