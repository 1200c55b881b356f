import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cceq.game import (
    BudgetExceededError,
    FiniteGame,
    JointDistribution,
    flat_index,
    game_from_dict,
    flat_incentive_gains,
    game_to_dict,
    gain_layout,
    load_game,
    save_game,
    unflatten,
)
from oracles import dense_incentive_gains, incentive_gains, loop_incentive_gains, random_game


def test_flat_index_examples():
    assert flat_index((0, 0), (2, 2)) == 0
    assert flat_index((1, 1), (2, 2)) == 3
    assert flat_index((1, 0, 2), (2, 2, 3)) == 8


def test_flat_index_bijective_small_space():
    counts = (2, 2, 3)
    seen = set()
    for a in range(2):
        for b in range(2):
            for c in range(3):
                k = flat_index((a, b, c), counts)
                assert unflatten(k, counts) == (a, b, c)
                seen.add(k)
    assert seen == set(range(12))


def test_flat_index_errors():
    with pytest.raises(ValueError):
        flat_index((2, 0), (2, 2))
    with pytest.raises(ValueError):
        flat_index((0, -1), (2, 2))
    with pytest.raises(ValueError):
        flat_index((0,), (2, 2))
    with pytest.raises(ValueError):
        unflatten(12, (2, 2, 3))


@settings(max_examples=30, deadline=None)
@given(st.lists(st.integers(1, 12), min_size=1, max_size=5).filter(
    lambda counts: np.prod(counts) <= 10_000))
def test_flat_unflatten_roundtrip_full_space(counts):
    counts = tuple(counts)
    size = int(np.prod(counts))
    for k in range(size):
        assert flat_index(unflatten(k, counts), counts) == k


def test_deviation_cost_intersection_game(intersection_game):
    # agent 1 of the paper's table is index 0 here; under a point mass the
    # gain is the plain cost change J_0(rec, x_1) - J_0(alt, x_1)
    gains, _ = incentive_gains(intersection_game, JointDistribution.point_mass((0, 1), (2, 2)))[0]
    assert gains[0, 1] == pytest.approx(-2.0)
    gains, _ = incentive_gains(intersection_game, JointDistribution.point_mass((1, 1), (2, 2)))[0]
    assert gains[1, 0] == pytest.approx(2.0)


def test_incentive_gains_diagonal_and_validation(intersection_game):
    rng = np.random.default_rng(5)
    for _ in range(20):
        game = FiniteGame((2, 3, 2), rng.normal(size=(3, 12)))
        z = JointDistribution.from_mass(rng.dirichlet(np.ones(12)), (2, 3, 2))
        for gains, _ in incentive_gains(game, z):
            assert np.all(np.diag(gains) == 0.0)
    with pytest.raises(ValueError):
        incentive_gains(intersection_game, JointDistribution.from_mass(np.ones(3) / 3, (3,)))


def test_incentive_gains_matches_dense_oracle():
    # one call covers every agent: exact on point masses, and on random
    # multi-support z equal up to the oracle's different summation order
    rng = np.random.default_rng(13)
    for _ in range(40):
        game = random_game(rng, max_agents=4, max_actions=4)
        counts = game.action_counts
        for flat in rng.choice(game.num_joint, size=3, replace=False):
            z = JointDistribution.point_mass(unflatten(flat, counts), counts)
            got = incentive_gains(game, z)
            assert len(got) == game.num_agents
            for agent, (gains, marginals) in enumerate(got):
                want = dense_incentive_gains(game, z, agent)
                assert gains.shape == (counts[agent], counts[agent])
                assert np.array_equal(gains, want[0]) and np.array_equal(marginals, want[1])
        for _ in range(3):
            support = rng.choice(game.num_joint, size=int(rng.integers(2, game.num_joint + 1)),
                                 replace=False)
            mass = np.zeros(game.num_joint)
            mass[support] = rng.dirichlet(np.ones(support.size))
            z = JointDistribution.from_mass(mass, counts)
            for agent, (gains, marginals) in enumerate(incentive_gains(game, z)):
                want = dense_incentive_gains(game, z, agent)
                assert np.allclose(gains, want[0], rtol=1e-12, atol=1e-12)
                assert np.allclose(marginals, want[1], rtol=1e-12, atol=1e-12)


def test_incentive_gains_equal_a_loop_over_the_support():
    # the flat kernel sums the loop's products in the loop's order: equal bit
    # for bit, and laid out where gain_layout places each (agent, rec, alt)
    rng = np.random.default_rng(31)
    for _ in range(40):
        game = random_game(rng, max_agents=4, max_actions=5)
        counts = game.action_counts
        support = np.sort(rng.choice(game.num_joint, size=int(rng.integers(1, game.num_joint + 1)),
                                     replace=False))
        z = JointDistribution(support, rng.dirichlet(np.ones(support.size)), counts)
        flat_gains, flat_marginals = flat_incentive_gains(game, z)
        layout = gain_layout(counts)
        assert flat_gains.size == layout.starts[-1] == sum(m * m for m in counts)
        for agent, (gains, marginals) in enumerate(incentive_gains(game, z)):
            want_gains, want_marginals = loop_incentive_gains(game, z, agent)
            assert np.array_equal(gains, want_gains)
            assert np.array_equal(marginals, want_marginals)
            pairs = layout.pair_agents == agent
            assert np.array_equal(flat_gains[pairs], want_gains.ravel())
            assert np.array_equal(flat_marginals[layout.pair_rows[pairs]],
                                  np.repeat(want_marginals, counts[agent]))
            assert np.array_equal(layout.off_diagonal[pairs], ~np.eye(counts[agent], dtype=bool).ravel())


def test_deviation_cost_antisymmetry():
    rng = np.random.default_rng(7)
    for _ in range(50):
        n = int(rng.integers(2, 4))
        counts = tuple(int(rng.integers(2, 4)) for _ in range(n))
        costs = rng.normal(size=(n, int(np.prod(counts))))
        game = FiniteGame(counts, costs)
        agent = int(rng.integers(n))
        a, b = (int(x) for x in rng.choice(counts[agent], size=2, replace=False))
        coords = [int(rng.integers(m)) for m in counts]
        coords[agent] = a
        fwd = incentive_gains(game, JointDistribution.point_mass(coords, counts))[agent][0][a, b]
        coords[agent] = b
        back = incentive_gains(game, JointDistribution.point_mass(coords, counts))[agent][0][b, a]
        assert fwd == pytest.approx(-back, abs=1e-9)


def test_conditional_expected_deviation_intersection_game(intersection_game, half_device):
    gains, marginals = incentive_gains(intersection_game, half_device)[0]
    assert np.array_equal(marginals, [0.5, 0.5])
    assert gains[0, 1] / marginals[0] == pytest.approx(-2.0)
    assert gains[1, 0] / marginals[1] == pytest.approx(-4.0)


def test_conditional_zero_marginal_is_vacuous(intersection_game):
    # never recommends G to agent 0
    z = JointDistribution.from_mass(np.array([0.0, 0.0, 0.5, 0.5]), (2, 2))
    gains, marginals = incentive_gains(intersection_game, z)[0]
    assert marginals[0] == 0.0
    assert np.array_equal(gains[0], [0.0, 0.0])


def test_unnormalized_is_linear_in_z(intersection_game):
    rng = np.random.default_rng(11)
    for _ in range(25):
        m1 = rng.dirichlet(np.ones(4))
        m2 = rng.dirichlet(np.ones(4))
        lam = float(rng.uniform())
        z1 = JointDistribution.from_mass(m1, (2, 2))
        z2 = JointDistribution.from_mass(m2, (2, 2))
        mix = JointDistribution.from_mass(lam * m1 + (1 - lam) * m2, (2, 2))
        for agent in (0, 1):
            blended = lam * incentive_gains(intersection_game, z1)[agent][0] \
                + (1 - lam) * incentive_gains(intersection_game, z2)[agent][0]
            direct = incentive_gains(intersection_game, mix)[agent][0]
            assert np.allclose(direct, blended, rtol=0.0, atol=1e-9)


def test_distribution_validation():
    with pytest.raises(ValueError):
        JointDistribution.from_mass(np.array([0.5, 0.6]), (2,))
    with pytest.raises(ValueError):
        JointDistribution.from_mass(np.array([-0.1, 1.1]), (2,))
    with pytest.raises(ValueError):
        JointDistribution.from_mass(np.array([0.5, 0.5, 0.0]), (2,))
    # a NaN total would pass the sum-to-one test, since NaN compares false
    for bad in ([np.nan, 0.5, 0.5, 0.0], [np.inf, 0.0, 0.0, 0.0], [0.5, 0.5, -np.inf, np.inf]):
        with pytest.raises(ValueError):
            JointDistribution.from_mass(np.array(bad), (2, 2))


@pytest.mark.parametrize("support, weights, match", [
    ([2, 1], [0.5, 0.5], "ascending"),              # unsorted
    ([1, 1], [0.5, 0.5], "ascending"),              # a duplicate index
    ([1, 4], [0.5, 0.5], "outside"),                # past the joint space
    ([-1, 1], [0.5, 0.5], "outside"),               # negative index
    ([0, 1, 2], [0.5, 0.5, 0.0], "positive"),       # a zero weight
    ([0, 1, 2], [0.75, 0.5, -0.25], "positive"),    # a negative weight
    ([0, 1], [np.nan, 1.0], "positive"),
    ([0, 1], [np.inf, -np.inf], "positive"),
    ([0, 1], [np.inf, 1.0], "sum"),
    ([0, 1], [0.5, 0.5 + 1e-8], "sum"),             # off by more than MASS_TOL
    ([], [], "positive"),                           # no support at all
    ([0, 1], [1.0], "length"),
])
def test_support_form_validation(support, weights, match):
    with pytest.raises(ValueError, match=match):
        JointDistribution(support, weights, (2, 2))


def test_support_form_round_trips_through_the_dense_mass():
    rng = np.random.default_rng(5)
    for counts in [(2, 2), (3, 1, 4), (5,)]:
        size = int(np.prod(counts))
        for _ in range(20):
            mass = rng.dirichlet(np.ones(size)) * (rng.random(size) < 0.6)
            if not mass.any():
                continue
            z = JointDistribution.from_mass(mass / mass.sum(), counts)
            again = JointDistribution.from_mass(z.mass, counts)
            assert again.support.dtype == np.int64
            assert again.support.tobytes() == z.support.tobytes()
            assert again.weights.tobytes() == z.weights.tobytes()
            assert again.action_counts == z.action_counts
            assert np.array_equal(z.support, np.flatnonzero(mass))
    assert z.mass is z.mass and not z.mass.flags.writeable


def test_point_mass_support_and_marginal():
    z = JointDistribution.point_mass((1, 0), (2, 2))
    assert list(z.support) == [2] and list(z.weights) == [1.0]
    assert "mass" not in vars(z)  # the dense view is built on first read
    assert z.mass[flat_index((1, 0), (2, 2))] == 1.0
    grid = z.mass.reshape(z.action_counts)
    assert grid[1].sum() == 1.0
    assert grid[0].sum() == 0.0


def test_point_mass_on_a_joint_space_at_the_int64_limit():
    # 63 two-action agents whose costs ignore the others: 2^63 joint
    # actions, the most whose flat indices fit int64; one agent more is refused
    lines = [np.array([[1.0], [0.0]])] * 63
    game = FiniteGame.from_lines((2,) * 63, lines, np.zeros((63, 126), dtype=np.intp))
    assert game.num_joint == 2 ** 63
    last = JointDistribution.point_mass((1,) * 63, game.action_counts)
    assert last.support.tolist() == [2 ** 63 - 1]
    gains = incentive_gains(game, last)
    assert all(g[1].tolist() == [-1.0, 0.0] and m.tolist() == [0.0, 1.0] for g, m in gains)
    with pytest.raises(BudgetExceededError, match="int64"):
        FiniteGame.from_lines((2,) * 64, lines + lines[:1], np.zeros((64, 128), dtype=np.intp))


def test_game_validation():
    with pytest.raises(ValueError):
        FiniteGame((2, 0), np.zeros((2, 0)))
    with pytest.raises(ValueError):
        FiniteGame((2, 2), np.zeros((2, 3)))
    with pytest.raises(ValueError):
        FiniteGame((2, 2), np.full((2, 4), np.nan))


def test_game_costs_are_immutable(intersection_game):
    with pytest.raises(ValueError):
        intersection_game.costs[0, 0] = 99.0


def test_game_json_roundtrip(tmp_path, intersection_game):
    path = tmp_path / "game.json"
    save_game(intersection_game, path)
    loaded = load_game(path)
    assert loaded.action_counts == intersection_game.action_counts
    assert np.array_equal(loaded.costs, intersection_game.costs)


def test_game_json_ignores_extra_keys(intersection_game):
    # files written with the former optional action labels still load
    doc = {**game_to_dict(intersection_game), "labels": [["G", "S"], ["G", "S"]]}
    assert np.array_equal(game_from_dict(doc).costs, intersection_game.costs)
    assert set(game_to_dict(intersection_game)) == {"agents", "action_counts", "costs"}


def test_game_dict_schema(intersection_game):
    doc = game_to_dict(intersection_game)
    assert doc["agents"] == 2
    assert doc["action_counts"] == [2, 2]
    assert doc["costs"][0][1] == -1.0
    doc["agents"] = 3
    with pytest.raises(ValueError):
        game_from_dict(doc)


def test_lines_and_keys_reproduce_the_dense_tables():
    # agent i's cost at a joint action is its line entry at (own action, key)
    rng = np.random.default_rng(17)
    for _ in range(20):
        game = random_game(rng, max_agents=4, max_actions=4)
        flats = np.arange(game.num_joint)
        coords = game.coordinates(flats)
        assert [tuple(c) for c in coords.T] == [unflatten(k, game.action_counts) for k in flats]
        for i, line in enumerate(game.lines):
            keys = sum(game.key_weights[i, game.offsets[j] + c] for j, c in enumerate(coords))
            assert np.array_equal(line[coords[i], keys], game.costs[i])
        assert np.array_equal(game.flat_lines[game.line_entries(coords)], game.costs)
        again = FiniteGame.from_lines(game.action_counts, game.lines, game.key_weights)
        assert "costs" not in vars(again)
        assert again.costs.tobytes() == game.costs.tobytes()


def test_from_lines_validation():
    lines = [np.zeros((2, 3)), np.zeros((3, 2))]
    weights = np.array([[0, 0, 0, 1, 2], [0, 1, 0, 0, 0]])
    assert FiniteGame.from_lines((2, 3), lines, weights).num_joint == 6
    for bad_lines, bad_weights in [
        (lines[:1], weights),                                   # one table for two agents
        ([np.zeros((3, 3)), lines[1]], weights),                 # wrong own-action count
        ([np.full((2, 3), np.nan), lines[1]], weights),          # NaN cost
        (lines, np.array([[0, 0, 0, 1, 3], [0, 1, 0, 0, 0]])),   # key 3 beyond 3 keys
        (lines, np.array([[0, 1, 0, 1, 2], [0, 1, 0, 0, 0]])),   # weight on an own row
        (lines, np.array([[0, 0, 0, 1, -1], [0, 1, 0, 0, 0]])),  # negative weight
        (lines, weights[:, :4]),                                 # a row missing
    ]:
        with pytest.raises(ValueError):
            FiniteGame.from_lines((2, 3), bad_lines, bad_weights)
