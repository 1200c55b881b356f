import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cceq.game import (
    BudgetExceededError,
    FiniteGame,
    JointDistribution,
    best_deviations,
    flat_index,
    game_from_dict,
    game_to_dict,
    load_game,
    save_game,
    unflatten,
)
from oracles import best_rows, dense_incentive_gains, loop_incentive_gains, random_game


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
    # gain is the plain cost change J_0(rec, x_1) - J_0(alt, x_1). Rows:
    # agent 0's G and S are 0 and 1, agent 1's are 2 and 3
    rows, best, alts = best_deviations(
        intersection_game, JointDistribution.point_mass((0, 1), (2, 2)), np.zeros(2))
    assert rows.tolist() == [0, 3] and best.tolist() == [-2.0, -4.0] and alts.tolist() == [1, 0]
    rows, best, alts = best_deviations(
        intersection_game, JointDistribution.point_mass((1, 1), (2, 2)), np.zeros(2))
    assert rows.tolist() == [1, 3] and best.tolist() == [2.0, 2.0] and alts.tolist() == [0, 0]


def test_incentive_gains_diagonal_and_validation(intersection_game):
    # the best deviation never stays put while the agent has an alternative
    rng = np.random.default_rng(5)
    for _ in range(20):
        game = FiniteGame((2, 3, 2), rng.normal(size=(3, 12)))
        z = JointDistribution.from_mass(rng.dirichlet(np.ones(12)), (2, 3, 2))
        rows, best, alts = best_deviations(game, z, rng.normal(size=3))
        assert rows.tolist() == list(range(7))
        assert np.isfinite(best).all() and (alts != game.row_actions).all()
    with pytest.raises(ValueError, match="action space"):
        best_deviations(intersection_game, JointDistribution.from_mass(np.ones(3) / 3, (3,)),
                        np.zeros(2))
    for shift in (np.zeros(1), np.zeros(3), np.zeros((2, 1))):
        with pytest.raises(ValueError, match="shift"):
            best_deviations(intersection_game, JointDistribution.point_mass((0, 0), (2, 2)), shift)


def random_cases(rng, count, exact):
    """Games of 1-4 agents with 1-5 actions each, so that some agent has no
    alternative and some game has one agent, each with a shift and with
    point masses and multi-support distributions. With ``exact``, costs are
    small integers and weights sixteenths, so every sum is exact."""
    for case in range(count):
        game = random_game(rng, max_agents=4, max_actions=5, min_agents=1, min_actions=1)
        counts = game.action_counts
        size = 1 if case % 3 == 0 else int(rng.integers(1, min(game.num_joint, 16) + 1))
        support = np.sort(rng.choice(game.num_joint, size=size, replace=False))
        if exact:
            weights = (rng.multinomial(16 - size, np.ones(size) / size) + 1) / 16
        else:
            weights = rng.dirichlet(np.ones(size))
        shift = rng.choice([0.0, 0.5, -1.25], size=len(counts)) if exact \
            else rng.normal(size=len(counts))
        yield game, JointDistribution(support, weights, counts), shift


def test_incentive_gains_matches_dense_oracle():
    # exact sums: equal to the dense oracle bit for bit, ties included;
    # otherwise equal up to its different summation order
    rng = np.random.default_rng(13)
    counts_seen = set()
    for exact in (True, False):
        for game, z, shift in random_cases(rng, 150, exact):
            counts_seen.update(game.action_counts)
            want = best_rows([dense_incentive_gains(game, z, i)
                              for i in range(game.num_agents)], shift)
            rows, best, alts = best_deviations(game, z, shift)
            assert np.array_equal(rows, want[0])
            if exact:
                assert np.array_equal(best, want[1]) and np.array_equal(alts, want[2])
            else:
                assert np.allclose(best, want[1], rtol=1e-12, atol=1e-12)
    assert 1 in counts_seen


def test_incentive_gains_equal_a_loop_over_the_support():
    # the same products summed in the same order as the loop: every live
    # row's best margin and its argmax equal the loop's bit for bit, on rows
    # with no alternative (best -inf) and in one-agent games too
    rng = np.random.default_rng(31)
    lone = one_agent = 0
    for game, z, shift in random_cases(rng, 300, exact=False):
        want = best_rows([loop_incentive_gains(game, z, i) for i in range(game.num_agents)], shift)
        got = best_deviations(game, z, shift)
        for a, b in zip(got, want, strict=True):
            assert a.dtype == b.dtype and np.array_equal(a, b)
        lone += int(np.isneginf(got[1]).sum())
        one_agent += game.num_agents == 1
    assert lone > 0 and one_agent > 0


def test_deviation_cost_antisymmetry():
    # an agent with two actions has one alternative, so its best margin at a
    # under a point mass is the plain gain a -> b, and at b the gain b -> a
    rng = np.random.default_rng(7)
    for _ in range(50):
        n = int(rng.integers(2, 4))
        agent = int(rng.integers(n))
        counts = tuple(2 if i == agent else int(rng.integers(2, 4)) for i in range(n))
        game = FiniteGame(counts, rng.normal(size=(n, int(np.prod(counts)))))
        coords = [int(rng.integers(m)) for m in counts]
        margins = []
        for a in (0, 1):
            coords[agent] = a
            rows, best, _ = best_deviations(game, JointDistribution.point_mass(coords, counts),
                                            np.zeros(n))
            margins.append(best[agent])
            assert rows[agent] == game.offsets[agent] + a
        assert margins[0] == pytest.approx(-margins[1], abs=1e-9)


def test_conditional_expected_deviation_intersection_game(intersection_game, half_device):
    rows, best, alts = best_deviations(intersection_game, half_device, np.zeros(2))
    assert rows.tolist() == [0, 1, 2, 3] and alts.tolist() == [1, 0, 1, 0]
    assert best[0] == pytest.approx(-2.0) and best[1] == pytest.approx(-4.0)


def test_conditional_zero_marginal_is_vacuous(intersection_game):
    # never recommends G to agent 0, so its row 0 is not live
    z = JointDistribution.from_mass(np.array([0.0, 0.0, 0.5, 0.5]), (2, 2))
    rows, _, _ = best_deviations(intersection_game, z, np.zeros(2))
    assert rows.tolist() == [1, 2, 3]


def test_unnormalized_is_linear_in_z(intersection_game):
    # each row has one alternative, so its best margin times its marginal is
    # the unnormalized gain, affine in z
    rng = np.random.default_rng(11)

    def unnormalized(mass):
        z = JointDistribution.from_mass(mass, (2, 2))
        rows, best, _ = best_deviations(intersection_game, z, np.zeros(2))
        assert rows.tolist() == [0, 1, 2, 3]
        grid = mass.reshape(2, 2)
        return best * np.concatenate((grid.sum(axis=1), grid.sum(axis=0)))

    for _ in range(25):
        m1 = rng.dirichlet(np.ones(4))
        m2 = rng.dirichlet(np.ones(4))
        lam = float(rng.uniform())
        blended = lam * unnormalized(m1) + (1 - lam) * unnormalized(m2)
        direct = unnormalized(lam * m1 + (1 - lam) * m2)
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
    rows, best, alts = best_deviations(game, last, np.zeros(63))
    assert rows.tolist() == (game.offsets + 1).tolist()
    assert best.tolist() == [-1.0] * 63 and alts.tolist() == [0] * 63
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
