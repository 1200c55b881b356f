import numpy as np
import pytest

import cceq.equilibrium as eqmod
import cceq.game
from cceq import lp as lpmod
from cceq.equilibrium import (
    EquilibriumResult,
    assemble_ce_constraints,
    ccce_program,
    check_ccce_feasibility,
    enumerate_cc_pne,
    sample_recommendation,
    solve_full_ccce,
    solve_reduced_rank,
)
from cceq.game import (
    BudgetExceededError,
    FiniteGame,
    JointDistribution,
    best_deviations,
)
from cceq.lp import LpSolution, SolverFailureError
from cceq.uncertainty import substream, tightenings
from cceq.vq import build_game, generate_instance
from oracles import (
    best_rows,
    cc_pne_flats,
    dense_constraints,
    dense_incentive_gains,
    enumerate_lp_vertices,
    eq_feasible,
    eq_margins,
    loop_incentive_gains,
    profiles,
    random_game,
    reference_ccce_program,
    solve_reduced_rank_lp,
    z_space_program,
)

Q0 = np.zeros(2)
Q1 = tightenings(1.0, 0.9, 2)
Q1_99 = tightenings(1.0, 0.99, 2)
Q90 = 1.2815515655446004


def canonical_ids(game):
    """(agent, recommended, alternative) of each incentive row, in row order."""
    return [(i, rec, alt) for i, m in enumerate(game.action_counts)
            for rec in range(m) for alt in range(m) if alt != rec]


def incentive_rows(game, quantiles):
    """The incentive rows of the selection program over z, its key marginals
    substituted out, densified; checks assemble_ce_constraints's column
    layout (n + 1 entries per z column, m_i per w column of agent i, row
    indices ascending within each column) and that the simplex row, over z,
    is all ones."""
    start, index, value = assemble_ce_constraints(game, quantiles)
    widths = np.diff(start)
    assert np.array_equal(widths, np.concatenate((
        np.full(game.num_joint, game.num_agents + 1),
        np.array(game.action_counts)[game.entry_agents])))
    assert index.size == value.size == start[-1]
    within = np.ones(index.size - 1, dtype=bool)
    within[start[1:-1] - 1] = False
    assert np.all(np.diff(index)[within] > 0)
    program = ccce_program(game, quantiles, np.zeros(game.num_joint))
    a_ub, _, a_eq, b_eq = dense_constraints(z_space_program(program, game.num_joint))
    assert np.array_equal(a_eq, np.ones((1, game.num_joint))) and np.array_equal(b_eq, [1.0])
    return a_ub


def test_assemble_row_order_canonical():
    game = FiniteGame((2, 3), np.arange(12.0).reshape(2, 6) ** 2)
    rows = incentive_rows(game, np.zeros(2))
    assert rows.shape == (2 * 1 + 3 * 2, 6)
    costs = game.costs.reshape(2, 2, 3)
    # first row: agent 0 told 0, tempted by 1; last: agent 1 told 2, tempted by 1
    assert np.array_equal(rows[0].reshape(2, 3)[0], costs[0, 0] - costs[0, 1])
    assert not rows[0].reshape(2, 3)[1].any()
    assert np.array_equal(rows[-1].reshape(2, 3)[:, 2], costs[1, :, 2] - costs[1, :, 1])
    assert not rows[-1].reshape(2, 3)[:, :2].any()


def test_assemble_nominal_intersection_game(intersection_game, half_device):
    rows = incentive_rows(intersection_game, np.zeros(2))
    assert rows.shape == (4, 4)
    # the half/half device satisfies every nominal row
    assert float((rows @ half_device.mass).max()) <= 1e-12


def test_assemble_tightened_intersection_game(intersection_game, half_device):
    rows = incentive_rows(intersection_game, Q1)
    assert float((rows @ half_device.mass).max()) <= 0.0  # margins -2, -4 vs 1.2816
    rows99 = incentive_rows(intersection_game, Q1_99)
    assert float((rows99 @ half_device.mass).max()) > 0.0  # -2 + 2.3263 > 0


def key_marginal_cases():
    """(game, sys_cost, q): random airport games, lowered through runway
    states, and random dense-table games, under random tightenings."""
    rng = np.random.default_rng(1414)
    cases = []
    for k in range(12):
        game, sys_cost = build_game(generate_instance(
            int(rng.integers(5, 9)), int(rng.integers(2, 5)), seed=1400 + k))
        cases.append((game, np.asarray(sys_cost)))
        game = random_game(rng, max_agents=4, max_actions=4)
        cases.append((game, game.costs.sum(axis=0)))
    return [(game, sys_cost, rng.choice([0.0, 1.0]) * rng.normal(size=game.num_agents))
            for game, sys_cost in cases]


def test_key_marginal_program_projects_onto_the_reference():
    # with w substituted out, the rows are exactly those written over the
    # joint actions alone, and both programs reach the same optimum
    infeasible = set()
    for game, sys_cost, q in key_marginal_cases():
        program = ccce_program(game, q, sys_cost)
        reference = reference_ccce_program(game, q, sys_cost)
        for ours, theirs in zip(dense_constraints(z_space_program(program, game.num_joint)),
                                dense_constraints(reference), strict=True):
            assert np.array_equal(ours, theirs)
        ours, theirs = lpmod.solve(program), lpmod.solve(reference)
        assert (ours.values is None) == (theirs.values is None)
        infeasible.add(ours.values is None)
        if ours.values is not None:
            assert ours.objective_value == pytest.approx(theirs.objective_value, rel=1e-9, abs=1e-9)
    assert infeasible == {False, True}


def test_nonzero_count_matches_the_assembled_program(intersection_game):
    for game, sys_cost, q in [*key_marginal_cases(),
                              (intersection_game, np.zeros(4), np.zeros(2))]:
        assert eqmod._selection_nonzeros(game) == ccce_program(game, q, sys_cost).value.size


def test_assemble_missing_tightening(intersection_game):
    # one tightening per agent: a vector missing an agent's entry is rejected
    with pytest.raises(ValueError):
        assemble_ce_constraints(intersection_game, np.zeros(1))


def test_check_intersection_game_values(intersection_game, half_device):
    ok, worst = check_ccce_feasibility(intersection_game, half_device, Q0)
    assert ok and worst == pytest.approx(-2.0, abs=1e-9)
    ok, worst = check_ccce_feasibility(intersection_game, half_device, Q1)
    assert ok and worst == pytest.approx(-2.0 + Q90, abs=1e-9)
    ok, worst = check_ccce_feasibility(intersection_game, half_device, Q1_99)
    assert not ok and worst == pytest.approx(-2.0 + 2.3263479, abs=1e-6)


def test_check_point_mass_stop_stop(intersection_game):
    z = JointDistribution.point_mass((1, 1), (2, 2))
    ok, worst = check_ccce_feasibility(intersection_game, z, Q0)
    assert not ok
    assert worst == pytest.approx(2.0, abs=1e-9)  # S -> G against S pays 2


def test_check_sigma_zero_matches_nominal_any_alpha(intersection_game):
    rng = np.random.default_rng(3)
    for _ in range(20):
        z = JointDistribution.from_mass(rng.dirichlet(np.ones(4)), (2, 2))
        base = check_ccce_feasibility(intersection_game, z, Q0)
        for alpha in (0.05, 0.5, 0.999):
            q = tightenings(0.0, alpha, 2)
            assert check_ccce_feasibility(intersection_game, z, q) == base


def test_full_solve_intersection_game_nominal(intersection_game, intersection_sys_cost):
    result = solve_full_ccce(intersection_game, Q0, intersection_sys_cost)
    assert result.distribution is not None
    assert result.objective == pytest.approx(0.0, abs=1e-9)
    mass = result.distribution.mass
    assert mass[0] + mass[3] <= 1e-9  # support within {(G,S), (S,G)}


def test_full_solve_intersection_game_tightened(intersection_game, intersection_sys_cost):
    result = solve_full_ccce(intersection_game, Q1, intersection_sys_cost)
    assert result.distribution is not None
    assert result.objective == pytest.approx(0.0, abs=1e-9)
    ok, _ = check_ccce_feasibility(intersection_game, result.distribution, Q1)
    assert ok


def test_full_solve_matches_vertex_oracle_on_random_games(intersection_game):
    rng = np.random.default_rng(33)
    for _ in range(10):
        counts = (2, 2)
        game = FiniteGame(counts, rng.integers(-5, 6, size=(2, 4)).astype(float))
        sys_cost = game.costs.sum(axis=0)
        program = z_space_program(ccce_program(game, np.zeros(2), sys_cost), 4)
        vertices = enumerate_lp_vertices(*dense_constraints(program), 4)
        oracle = min(float(program.objective @ v) for v in vertices)
        result = solve_full_ccce(game, np.zeros(2), sys_cost)
        assert result.distribution is not None
        assert result.objective == pytest.approx(oracle, abs=1e-6)


def test_cc_pne_membership_intersection_game(intersection_game):
    def members(q):
        return profiles(enumerate_cc_pne(intersection_game, q), (2, 2))

    assert (0, 1) in members(Q1)
    assert (0, 1) not in members(Q1_99)
    assert (0, 0) not in members(Q0)
    assert (1, 0) in members(Q0)


def test_enumerate_intersection_game(intersection_game):
    nominal = enumerate_cc_pne(intersection_game, Q0)
    assert profiles(nominal, (2, 2)) == ((0, 1), (1, 0))
    assert len(enumerate_cc_pne(intersection_game, Q1_99)) == 0
    for alpha in (0.1, 0.5, 0.95):
        q = tightenings(0.0, alpha, 2)
        assert np.array_equal(enumerate_cc_pne(intersection_game, q), nominal)


def test_enumerate_limit_and_order(intersection_game):
    limited = enumerate_cc_pne(intersection_game, Q0, limit=1)
    assert profiles(limited, (2, 2)) == ((0, 1),)
    assert len(enumerate_cc_pne(intersection_game, Q0, limit=0)) == 0
    with pytest.raises(ValueError, match="limit"):
        enumerate_cc_pne(intersection_game, Q0, limit=-1)


def test_enumerate_budget_cap(intersection_game, monkeypatch):
    monkeypatch.setattr(cceq.game, "JOINT_SPACE_CAP", 2)
    with pytest.raises(BudgetExceededError):
        enumerate_cc_pne(intersection_game, Q0)


def test_enumerate_matches_scalar_check():
    rng = np.random.default_rng(101)
    for _ in range(60):
        game = random_game(rng)
        n = game.num_agents
        sigma = float(rng.choice([0.0, 0.5, 1.0]))
        alpha = float(rng.choice([0.2, 0.5, 0.9, 0.99]))  # 0.2: negative tightenings
        q = tightenings(sigma, alpha, n)
        assert np.array_equal(enumerate_cc_pne(game, q), cc_pne_flats(game, q))


def test_enumerate_sub_ulp_tightening_admits_no_worse_action():
    # q = 1.28e-20 is below half an ulp of the costs, so cost + q == cost:
    # the two actions costing 2 are still beaten by the one costing 1
    game = FiniteGame((3,), np.array([[1.0, 2.0, 2.0]]))
    q = tightenings(1e-20, 0.9, 1)
    assert list(enumerate_cc_pne(game, q)) == list(cc_pne_flats(game, q)) == [0]


# Action counts covering one action, two, 3..16 and more than 16, an agent
# with one action between or after others, and joint spaces from 1 to 2160.
BRANCH_SHAPES = [
    (1,), (2,), (3,), (5, 2), (2, 17), (20, 3), (1, 3, 2), (2, 1, 20), (4, 16, 1),
    (17, 32), (5, 3, 7, 6), (4, 8, 20), (2, 20, 4, 4), (3, 2, 16, 6),
    (2047,), (17, 5, 25), (20, 6, 3, 6),
]
# (sigma, alpha): q < 0, q = 0, q > 0 below half an ulp of the costs,
# ordinary q > 0, and agents cycling through the kinds of q >= 0
TIGHTENINGS = [(1.0, 0.2), (0.0, 0.9), (1e-20, 0.9), (1.0, 0.9), ((0.0, 1e-20, 1.0, 0.5), 0.7)]


@pytest.mark.parametrize("counts", BRANCH_SHAPES, ids=str)
def test_enumerate_matches_brute_force_on_every_branch(counts):
    rng = np.random.default_rng(sum(counts))
    n, num_joint = len(counts), int(np.prod(counts))
    # all agents' costs random (tie-heavy integers, then continuous), then
    # each agent alone facing constant costs of the others, so that no other
    # agent's test can hide a wrong one, with fewer ties so that runner-ups
    # other than a tied minimum occur
    cases = [(rng.integers(0, 3, (n, num_joint)), None), (rng.normal(size=(n, num_joint)), None)]
    for i, m in enumerate(counts):
        costs = np.zeros((n, num_joint))
        costs[i] = rng.integers(0, 2 * m, num_joint)
        cases.append((costs, i))
    for costs, alone in cases:
        game = FiniteGame(counts, costs.astype(float))
        for sigma, alpha in TIGHTENINGS:
            sigmas = (sigma * n)[:n] if isinstance(sigma, tuple) else (sigma,) * n
            if alone is not None:  # the others, at sigma 0, pass everywhere
                sigmas = tuple(s if j == alone else 0.0 for j, s in enumerate(sigmas))
            q = tightenings(sigmas, alpha, n)
            expected = profiles(cc_pne_flats(game, q), counts)
            assert profiles(enumerate_cc_pne(game, q), counts) == expected, (sigmas, alpha, alone)


# (flight count, trial, sigma, alpha) of airport games, master seed 0, where
# every airline keeps more than one candidate action
MANY_CANDIDATES = [(12, 7, 5.0, 0.3), (12, 3, 10.0, 0.2), (13, 15, 5.0, 0.1),
                   (14, 28, 10.0, 0.2), (14, 0, 5.0, 0.1)]


@pytest.mark.parametrize("num_flights, trial, sigma, alpha", MANY_CANDIDATES)
def test_enumerate_on_airport_games_with_many_candidates(num_flights, trial, sigma, alpha):
    instance = generate_instance(num_flights, 5,
                                 seed=np.random.SeedSequence((0, 0, trial, num_flights)))
    game, _ = build_game(instance)
    q = tightenings(sigma, alpha, game.num_agents)
    bars = np.split(game.alternative_minima, np.cumsum([line.size for line in game.lines])[:-1])
    for line, q_i, bar in zip(game.lines, q, bars):
        assert (line + q_i <= bar.reshape(line.shape)).any(axis=1).sum() > 1
    assert np.array_equal(enumerate_cc_pne(game, q), cc_pne_flats(game, q))


def test_tightening_validation(intersection_game, half_device, intersection_sys_cost):
    # one finite tightening per agent, else every equilibrium function refuses
    for q in (np.zeros(1), np.zeros(3), np.zeros((2, 1)), [0.0, np.nan], [np.inf, 0.0]):
        with pytest.raises(ValueError, match="tightening"):
            enumerate_cc_pne(intersection_game, q)
        with pytest.raises(ValueError, match="tightening"):
            check_ccce_feasibility(intersection_game, half_device, q)
        with pytest.raises(ValueError, match="tightening"):
            solve_full_ccce(intersection_game, q, intersection_sys_cost)


def test_rr_intersection_game_tie_rule(intersection_game, intersection_sys_cost):
    pne = enumerate_cc_pne(intersection_game, Q0)
    rr = solve_reduced_rank(intersection_game, pne, intersection_sys_cost)
    assert rr.distribution is not None
    assert rr.objective == pytest.approx(0.0, abs=1e-12)
    assert list(pne) == [1, 2]  # (G,S) and (S,G)
    assert list(rr.distribution.support) == [1]  # tie broken toward (G,S)
    assert rr.distribution.mass[1] == 1.0


def test_rr_singleton_and_argmin():
    game = FiniteGame((3,), np.array([[5.0, 2.0, 7.0]]))
    rr = solve_reduced_rank(game, np.array([1]), np.array([5.0, 2.0, 7.0]))
    assert list(rr.distribution.support) == [1]
    assert rr.objective == 2.0
    rr = solve_reduced_rank(game, np.array([0, 1, 2]), np.array([5.0, 2.0, 7.0]))
    assert list(rr.distribution.support) == [1]
    assert rr.objective == 2.0


def test_rr_empty_is_infeasible(intersection_game, intersection_sys_cost):
    empty = np.array([], dtype=int)
    assert solve_reduced_rank(intersection_game, empty, intersection_sys_cost).distribution is None
    assert solve_reduced_rank_lp(intersection_game, empty, intersection_sys_cost).distribution is None


def test_rr_closed_form_agrees_with_lp():
    rng = np.random.default_rng(404)
    for _ in range(30):
        game = random_game(rng)
        pne = enumerate_cc_pne(game, np.zeros(game.num_agents))
        if len(pne) == 0:
            continue
        sys_cost = game.costs.sum(axis=0)
        closed = solve_reduced_rank(game, pne, sys_cost)
        via_lp = solve_reduced_rank_lp(game, pne, sys_cost)
        assert closed.objective == pytest.approx(via_lp.objective, abs=1e-9)


def test_ccpne_point_mass_is_valid_ccce():
    rng = np.random.default_rng(888)
    for _ in range(150):
        game = random_game(rng)
        n = game.num_agents
        sigma = float(rng.choice([0.0, 0.5, 1.0]))
        alpha = float(rng.choice([0.5, 0.9, 0.99]))
        q = tightenings(sigma, alpha, n)
        for profile in profiles(enumerate_cc_pne(game, q), game.action_counts):
            z = JointDistribution.point_mass(profile, game.action_counts)
            ok, worst = check_ccce_feasibility(game, z, q)
            assert ok, f"CC-PNE point mass violates CC-CE: worst {worst}"


def test_ccpne_convex_hull_within_ccce_set():
    rng = np.random.default_rng(999)
    games_done = 0
    while games_done < 60:
        game = random_game(rng)
        n = game.num_agents
        sigma = float(rng.choice([0.0, 0.5, 1.0]))
        alpha = float(rng.choice([0.5, 0.9, 0.99]))
        q = tightenings(sigma, alpha, n)
        flats = enumerate_cc_pne(game, q)
        if len(flats) == 0:
            continue
        games_done += 1
        for _ in range(50):
            lam = rng.dirichlet(np.ones(len(flats)))
            mass = np.zeros(game.num_joint)
            mass[flats] = lam
            z = JointDistribution.from_mass(mass, game.action_counts)
            ok, worst = check_ccce_feasibility(game, z, q)
            assert ok, f"hull point violates CC-CE: worst {worst}"


def test_alpha_monotonicity_of_enumeration():
    rng = np.random.default_rng(555)
    for _ in range(80):
        game = random_game(rng)
        low, mid, high = (set(enumerate_cc_pne(game, tightenings(1.0, alpha, game.num_agents)))
                          for alpha in (0.5, 0.9, 0.99))
        assert high <= mid <= low


def test_alpha_monotonicity_of_check():
    rng = np.random.default_rng(556)
    for _ in range(40):
        game = random_game(rng)
        z = JointDistribution.from_mass(rng.dirichlet(np.ones(game.num_joint)),
                                        game.action_counts)
        if check_ccce_feasibility(game, z, tightenings(1.0, 0.9, game.num_agents))[0]:
            assert check_ccce_feasibility(game, z, tightenings(1.0, 0.5, game.num_agents))[0]


def test_restriction_bound():
    rng = np.random.default_rng(31337)
    done = 0
    while done < 40:
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
        if full.distribution is None:
            continue
        rr = solve_reduced_rank(game, pne, sys_cost)
        assert rr.objective >= full.objective - 1e-6
        done += 1


def test_nominal_reduction_equivalence():
    rng = np.random.default_rng(808)
    for _ in range(30):
        game = random_game(rng)
        n = game.num_agents
        sys_cost = game.costs.sum(axis=0)
        nominal = solve_full_ccce(game, np.zeros(n), sys_cost)
        sigma_zero = solve_full_ccce(game, tightenings(0.0, 0.97, n), sys_cost)
        half = solve_full_ccce(game, tightenings(2.5, 0.5, n), sys_cost)
        assert nominal.objective == pytest.approx(sigma_zero.objective, abs=1e-7)
        assert nominal.objective == pytest.approx(half.objective, abs=1e-7)


def test_check_agrees_with_independent_oracle():
    rng = np.random.default_rng(2718)
    checks = 0
    for _ in range(40):
        counts = (2, 2)
        game = FiniteGame(counts, rng.integers(-2, 3, size=(2, 4)).astype(float))
        sigma = float(rng.choice([0.0, 0.5, 1.0]))
        alpha = float(rng.choice([0.5, 0.9, 0.99]))
        q = tightenings(sigma, alpha, 2)
        for _ in range(40):
            mass = rng.dirichlet(np.ones(4) * rng.uniform(0.3, 3.0))
            z = JointDistribution.from_mass(mass, counts)
            ours, worst = check_ccce_feasibility(game, z, q)
            oracle = eq_feasible(game, mass, [sigma, sigma], alpha)
            assert ours == oracle
            margins = eq_margins(game, mass, [sigma, sigma], alpha)
            if margins:
                assert worst == pytest.approx(max(margins.values()), abs=1e-9)
            checks += 1
    assert checks == 1600


def test_sample_recommendation_point_mass():
    z = JointDistribution.point_mass((1, 0), (2, 2))
    rng = substream(9)
    for _ in range(20):
        assert sample_recommendation(z, rng) == (1, 0)


def test_sample_recommendation_frequencies(half_device):
    rng = substream(77)
    hits = {(0, 1): 0, (1, 0): 0}
    draws = 100_000
    for _ in range(draws):
        hits[sample_recommendation(half_device, rng)] += 1
    assert abs(hits[(0, 1)] / draws - 0.5) < 0.01
    assert abs(hits[(1, 0)] / draws - 0.5) < 0.01


def test_sample_recommendation_never_zero_mass(half_device):
    rng = substream(78)
    for _ in range(5000):
        assert sample_recommendation(half_device, rng) in ((0, 1), (1, 0))


def test_sample_recommendation_deterministic(half_device):
    a = [sample_recommendation(half_device, substream(5, k)) for k in range(50)]
    b = [sample_recommendation(half_device, substream(5, k)) for k in range(50)]
    assert a == b


def test_assemble_rows_consistent_with_check_margins():
    # unnormalized LP row value == marginal * normalized margin, per
    # constraint; each live row's best margin, tightened, is the largest of
    # its constraints' margins, bit for bit the loop oracle's and the dense
    # oracle's up to its summation order, and the certificate's worst is
    # the largest of them
    rng = np.random.default_rng(4242)
    for _ in range(25):
        game = random_game(rng)
        sigma = float(rng.uniform(0, 2))
        alpha = float(rng.uniform(0.1, 0.95))
        quantiles = tightenings(sigma, alpha, game.num_agents)
        rows = incentive_rows(game, quantiles)
        mass = rng.dirichlet(np.ones(game.num_joint))
        z = JointDistribution.from_mass(mass, game.action_counts)
        margins = eq_margins(game, mass, [sigma] * game.num_agents, alpha)
        for row, (i, rec, alt) in zip(rows, canonical_ids(game), strict=True):
            marginal = float(np.moveaxis(mass.reshape(game.action_counts), i, 0)[rec].sum())
            if marginal <= 0.0:
                assert float(row @ mass) == pytest.approx(0.0, abs=1e-12)
            else:
                assert float(row @ mass) == pytest.approx(
                    marginal * margins[(i, rec, alt)], abs=1e-8)
        got = best_deviations(game, z, quantiles)
        loop = best_rows([loop_incentive_gains(game, z, i) for i in range(game.num_agents)],
                         quantiles)
        dense = best_rows([dense_incentive_gains(game, z, i) for i in range(game.num_agents)],
                          quantiles)
        assert all(np.array_equal(a, b) for a, b in zip(got, loop, strict=True))
        assert np.array_equal(got[0], dense[0])
        assert np.allclose(got[1], dense[1], rtol=1e-12, atol=1e-12)
        for row, best, alt in zip(*got, strict=True):
            i, rec = int(game.row_agents[row]), int(game.row_actions[row])
            assert best == pytest.approx(margins[(i, rec, int(alt))], abs=1e-9)
            assert best == pytest.approx(max(margins[(i, rec, a)] for a in
                                             range(game.action_counts[i]) if a != rec), abs=1e-9)
        assert check_ccce_feasibility(game, z, quantiles)[1] == got[1].max()


def test_check_worst_is_the_oracles_largest_best_margin():
    # games of 1-4 agents with 1-5 actions: rows with no alternative read
    # -inf, and a game where no agent has one reads worst -inf, feasible
    rng = np.random.default_rng(2121)
    lone = 0
    for case in range(300):
        game = random_game(rng, max_agents=4, max_actions=5, min_agents=1, min_actions=1)
        size = 1 if case % 3 == 0 else int(rng.integers(1, game.num_joint + 1))
        support = np.sort(rng.choice(game.num_joint, size=size, replace=False))
        z = JointDistribution(support, rng.dirichlet(np.ones(size)), game.action_counts)
        q = tightenings(float(rng.choice([0.0, 0.5, 1.0])), 0.9, game.num_agents)
        feasible, worst = check_ccce_feasibility(game, z, q)
        loop = best_rows([loop_incentive_gains(game, z, i) for i in range(game.num_agents)], q)
        dense = best_rows([dense_incentive_gains(game, z, i) for i in range(game.num_agents)], q)
        assert worst == loop[1].max() and feasible == (worst <= eqmod.FEASIBILITY_TOL)
        assert worst == pytest.approx(dense[1].max(), abs=1e-12)
        lone += game.num_agents == 1
    assert lone > 0
    one_action = FiniteGame((1,), np.array([[3.0]]))
    assert check_ccce_feasibility(one_action, JointDistribution.point_mass((0,), (1,)),
                                  np.ones(1)) == (True, -np.inf)


@pytest.mark.parametrize("master_seed, num_flights, trial",
                         [(0, 11, 2), (2, 9, 18), (0, 14, 9)])
def test_full_solve_result_passes_the_check_on_airport_games(master_seed, num_flights, trial):
    # OPTIMAL results on the first two games can carry sub-1e-9 "ghost"
    # masses with worst normalized margins near 95 unless purged; the third,
    # 16384 joint actions with 65308 incentive rows, is the default grid's
    # largest selection LP (1.08M nonzeros, about 190 MB to solve)
    instance = generate_instance(
        num_flights, 5, seed=np.random.SeedSequence((master_seed, 0, trial, num_flights)))
    game, sys_cost = build_game(instance)
    q = tightenings(1.0, 0.9, game.num_agents)
    result = solve_full_ccce(game, q, sys_cost)
    assert result.distribution is not None
    ok, worst = check_ccce_feasibility(game, result.distribution, q)
    assert ok, f"worst margin {worst}"


def test_full_solve_rejects_an_uncertified_result(intersection_game, intersection_sys_cost,
                                                  monkeypatch):
    # (S,S) is no CE: agent 0 gains 2 by switching to G
    fake = LpSolution(np.array([0.0, 0.0, 0.0, 1.0]), 2.0)
    monkeypatch.setattr("cceq.lp.solve", lambda program, deadline=None: fake)
    with pytest.raises(SolverFailureError, match="worst margin 2"):
        solve_full_ccce(intersection_game, Q0, intersection_sys_cost)


def test_results_compare_and_hash_without_raising(intersection_game, half_device,
                                                  intersection_sys_cost):
    # the frozen dataclasses that hold arrays compare by identity, so ==, !=
    # and hash work on them, and results can be kept in a set
    twin = JointDistribution(half_device.support, half_device.weights, (2, 2))
    solved = [solve_full_ccce(intersection_game, Q0, intersection_sys_cost) for _ in range(2)]
    pairs = [
        (half_device, twin),
        (ccce_program(intersection_game, Q0, intersection_sys_cost),
         ccce_program(intersection_game, Q0, intersection_sys_cost)),
        (LpSolution(np.ones(2), 1.0), LpSolution(np.ones(2), 1.0)),
        (EquilibriumResult(half_device, 1.0), EquilibriumResult(twin, 1.0)),
        tuple(solved),
    ]
    for a, b in pairs:
        assert a == a and not a != a
        assert a != b and not a == b
        assert hash(a) == hash(a)
        assert len({a, b, a}) == 2
    assert EquilibriumResult() == EquilibriumResult()
    assert len(set(solved)) == 2
