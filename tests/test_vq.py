import numpy as np
import pytest

import cceq.game
from cceq.game import BudgetExceededError, unflatten
from cceq.vq import (
    AircraftClass,
    Flight,
    VQInstance,
    build_game,
    fcfs_profile,
    generate_instance,
    truncated_lateness,
)
from oracles import (
    action_space,
    airline_cost,
    congestion_penalty,
    flight_delay_cost,
    grid_build_game,
    pushback_counts,
    queue_delay,
    released_flights,
    system_cost,
)


def crafted_instance():
    """q=[3,4], mu=[2,2]; flights 0,1 sit on runway 0 and 2..5 on runway 1,
    so selective releases reproduce the worked delay numbers below."""
    flights = (
        Flight(0, 0, AircraftClass.HEAVY, 12.0),
        Flight(1, 0, AircraftClass.SMALL, 5.0),
        Flight(2, 1, AircraftClass.MEDIUM, 0.0),
        Flight(3, 1, AircraftClass.MEDIUM, 10.0),
        Flight(4, 1, AircraftClass.MEDIUM, 3.0),
        Flight(5, 1, AircraftClass.MEDIUM, 2.0),
    )
    airlines = ((0, 1), (2, 3), (4, 5))
    return VQInstance(
        service_rates=(2.0, 2.0),
        initial_queues=(3, 4),
        flights=flights,
        airlines=airlines,
    )


def test_generate_partition_repair():
    inst = generate_instance(6, 5, seed=0)
    assert inst.num_airlines == 5
    assert all(len(owned) >= 1 for owned in inst.airlines)
    assert sorted(fid for owned in inst.airlines for fid in owned) == list(range(6))


def test_generate_determinism_and_defaults():
    a = generate_instance(9, 5, seed=42)
    b = generate_instance(9, 5, seed=42)
    assert a == b
    assert a.service_rates == (2.0, 2.0)
    assert a.initial_queues == (3, 4)
    assert a.epoch_minutes == 4.0
    assert a.congestion_threshold == 4
    assert generate_instance(9, 5, seed=43) != a


def test_generate_invalid_partition():
    with pytest.raises(ValueError):
        generate_instance(4, 5, seed=0)


def test_generate_zero_queue_override():
    inst = generate_instance(6, 3, seed=1, initial_queues=(0, 0))
    coords = tuple(1 for _ in inst.airlines)  # release the first flight each
    for fid in released_flights(inst, coords):
        flight = inst.flight_by_id[fid]
        counts = pushback_counts(inst, coords)
        expected = counts[flight.runway] / 2.0 * 4.0
        assert queue_delay(inst, coords, fid) == pytest.approx(expected)


def test_truncated_lateness_matches_folded_normal_oracle():
    rng = np.random.default_rng(7)
    draws = np.array([truncated_lateness(rng) for _ in range(100_000)])
    assert draws.min() >= 0.0
    oracle = np.abs(np.random.default_rng(1234).normal(0.0, 10.0, size=1_000_000))
    assert abs(draws.mean() - oracle.mean()) / oracle.mean() < 0.01


def test_action_space_binary_order():
    inst = crafted_instance()
    assert action_space(inst, 1) == [(), (2,), (3,), (2, 3)]
    solo = generate_instance(1, 1, seed=0)
    assert action_space(solo, 0) == [(), (0,)]


def test_action_space_cap():
    flights = tuple(Flight(i, 0, AircraftClass.MEDIUM, 1.0) for i in range(21))
    inst = VQInstance((2.0,), (3,), flights, (tuple(range(21)),))
    with pytest.raises(BudgetExceededError):
        action_space(inst, 0)


def test_pushback_counts():
    inst = crafted_instance()
    # airline 0 releases both (runway 0), airline 1 releases flight 2 (runway 1)
    counts = pushback_counts(inst, (3, 1, 0))
    assert list(counts) == [2, 1]
    assert list(pushback_counts(inst, (0, 0, 0))) == [0, 0]
    full = pushback_counts(inst, fcfs_profile(inst))
    assert full.sum() == 6


def test_queue_delay_worked_values():
    inst = crafted_instance()
    coords = (3, 1, 0)  # a = [2, 1]
    assert queue_delay(inst, coords, 0) == pytest.approx(10.0)  # (3+2)/2*4
    assert queue_delay(inst, coords, 2) == pytest.approx(10.0)  # (4+1)/2*4
    with pytest.raises(ValueError):
        queue_delay(inst, coords, 3)  # not released


def test_congestion_penalty_threshold():
    inst = crafted_instance()
    assert congestion_penalty(inst, fcfs_profile(inst)) == pytest.approx(4.0)  # 6 releases
    assert congestion_penalty(inst, (1, 1, 1)) == 0.0  # 3 releases
    assert congestion_penalty(inst, (3, 1, 1)) == 0.0  # 4 releases, boundary


def test_flight_delay_cost_branches():
    inst = crafted_instance()
    full = fcfs_profile(inst)  # 6 releases: c = 4, a = [2, 4]
    # heavy, lateness 12 > 10: 144 + (3+2)/2*4 + 4 = 158
    assert flight_delay_cost(inst, full, 0) == pytest.approx(158.0)
    # small, lateness 5: 5 + 10 + 4 = 19
    assert flight_delay_cost(inst, full, 1) == pytest.approx(19.0)
    # lateness exactly 10 takes the linear branch
    delta3 = queue_delay(inst, full, 3)
    assert flight_delay_cost(inst, full, 3) == pytest.approx(10.0 + delta3 + 4.0)


def test_held_flight_waits_one_epoch():
    inst = crafted_instance()
    coords = (0, 0, 0)
    # flight 4: lateness 3 held -> (3+4) + 4 + 0
    assert flight_delay_cost(inst, coords, 4) == pytest.approx(7.0 + 4.0)
    # flight 0: lateness 12 held -> 16^2 + 4
    assert flight_delay_cost(inst, coords, 0) == pytest.approx(256.0 + 4.0)


def test_airline_cost_class_weights():
    inst = crafted_instance()
    full = fcfs_profile(inst)
    # airline 0 owns the heavy 158 flight and the small 19 flight
    assert airline_cost(inst, full, 0) == pytest.approx(1.2 * 158.0 + 0.75 * 19.0)


def test_system_cost_is_unweighted():
    inst = crafted_instance()
    full = fcfs_profile(inst)
    total = sum(flight_delay_cost(inst, full, f.id) for f in inst.flights)
    assert system_cost(inst, full) == pytest.approx(total)


def test_system_equals_airline_sum_with_unit_weights():
    unit = {AircraftClass.HEAVY: 1.0, AircraftClass.MEDIUM: 1.0, AircraftClass.SMALL: 1.0}
    inst = generate_instance(7, 3, seed=5, class_weights=unit)
    rng = np.random.default_rng(0)
    for _ in range(10):
        coords = tuple(int(rng.integers(m)) for m in inst.action_counts)
        total = sum(airline_cost(inst, coords, i) for i in range(3))
        assert total == pytest.approx(system_cost(inst, coords), abs=1e-9)


def test_monotonicity_of_counts_and_congestion():
    inst = generate_instance(8, 3, seed=9)
    rng = np.random.default_rng(2)
    for _ in range(30):
        coords = [int(rng.integers(m)) for m in inst.action_counts]
        i = int(rng.integers(3))
        extra = coords[i] | (1 << int(rng.integers(len(inst.airlines[i]))))
        bigger = list(coords)
        bigger[i] = extra
        assert congestion_penalty(inst, bigger) >= congestion_penalty(inst, coords)
        assert (pushback_counts(inst, bigger) >= pushback_counts(inst, coords)).all()


def test_queue_delay_depends_only_on_own_runway_count():
    inst = crafted_instance()
    # same a_0 = 1 with different runway-1 loads
    assert queue_delay(inst, (1, 0, 0), 0) == queue_delay(inst, (1, 3, 3), 0)


def test_build_game_shapes_and_values():
    inst = crafted_instance()
    game, sys_cost = build_game(inst)
    assert game.action_counts == (4, 4, 4)
    assert game.num_joint == 64
    assert np.asarray(sys_cost).shape == (64,)
    assert (game.costs >= 0).all() and (np.asarray(sys_cost) >= 0).all()
    for flat in range(64):
        coords = unflatten(flat, game.action_counts)
        for i in range(3):
            assert game.costs[i, flat] == pytest.approx(
                airline_cost(inst, coords, i), abs=1e-9)
        assert sys_cost[flat] == pytest.approx(system_cost(inst, coords), abs=1e-9)


def test_build_game_random_instance_cross_check():
    inst = generate_instance(8, 4, seed=77)
    game, sys_cost = build_game(inst)
    rng = np.random.default_rng(3)
    for _ in range(25):
        flat = int(rng.integers(game.num_joint))
        coords = unflatten(flat, game.action_counts)
        for i in range(4):
            assert game.costs[i, flat] == pytest.approx(airline_cost(inst, coords, i), abs=1e-9)
        assert sys_cost[flat] == pytest.approx(system_cost(inst, coords), abs=1e-9)


@pytest.mark.parametrize("scenario", [
    {},
    dict(service_rates=(2.0, 1.5, 3.0), initial_queues=(3, 0, 5)),
    dict(class_weights={"heavy": 1.7, "medium": 0.3, "small": 2.2}),
    dict(congestion_threshold=1, lateness_threshold=4.0, epoch_minutes=2.5),
])
def test_build_game_equals_the_grid_lowering_bit_for_bit(scenario):
    # runway-state lines must reproduce every float of the flight-by-flight
    # fold on the whole grid, for the agents' costs and the system cost, both
    # pointwise and materialized
    rng = np.random.default_rng(5)
    for master_seed in range(3):
        for num_flights in range(5, 15):
            for trial in range(2):
                seed = np.random.SeedSequence((master_seed, 0, trial, num_flights))
                inst = generate_instance(num_flights, 5, seed=seed, **scenario)
                game, sys_cost = build_game(inst)
                want_game, want_sys = grid_build_game(inst)
                flats = rng.integers(game.num_joint, size=20)
                assert game.action_counts == want_game.action_counts
                assert sys_cost[flats].tobytes() == want_sys[flats].tobytes()
                assert [sys_cost[int(k)] for k in flats] == list(want_sys[flats])
                assert game.costs.tobytes() == want_game.costs.tobytes()
                assert np.asarray(sys_cost).tobytes() == want_sys.tobytes()
                assert sys_cost[flats].tobytes() == want_sys[flats].tobytes()  # now read densely


def test_system_cost_rejects_out_of_range_indices():
    game, sys_cost = build_game(crafted_instance())
    for materialized in (False, True):
        if materialized:
            np.asarray(sys_cost)
        for bad in (-1, 64, [0, 64]):
            with pytest.raises(IndexError):
                sys_cost[bad]


def test_flights_are_kept_in_id_order():
    # the cost folds run in ascending flight id, however the flights are given
    inst = generate_instance(9, 3, seed=4)
    shuffled = VQInstance(inst.service_rates, inst.initial_queues, inst.flights[::-1],
                          inst.airlines)
    assert [f.id for f in shuffled.flights] == list(range(9))
    game, sys_cost = build_game(shuffled)
    want_game, want_sys = grid_build_game(inst)
    assert np.array_equal(game.costs, want_game.costs)
    assert np.array_equal(np.asarray(sys_cost), want_sys)


def test_build_game_budget(monkeypatch):
    monkeypatch.setattr(cceq.game, "JOINT_SPACE_CAP", 8)
    inst = generate_instance(10, 2, seed=0)
    with pytest.raises(BudgetExceededError):
        build_game(inst)


def test_fcfs_releases_everything():
    inst = crafted_instance()
    assert fcfs_profile(inst) == (3, 3, 3)
    assert len(released_flights(inst, fcfs_profile(inst))) == 6
    ten = generate_instance(10, 5, seed=11)
    assert congestion_penalty(ten, fcfs_profile(ten)) == pytest.approx(36.0)


def test_instance_validation():
    with pytest.raises(ValueError):
        VQInstance((2.0,), (3,), (Flight(0, 1, AircraftClass.SMALL, 1.0),), ((0,),))
    with pytest.raises(ValueError):
        VQInstance((2.0,), (3,), (Flight(0, 0, AircraftClass.SMALL, -1.0),), ((0,),))
    with pytest.raises(ValueError):
        VQInstance((2.0,), (3,),
                   (Flight(0, 0, AircraftClass.SMALL, 1.0), Flight(1, 0, AircraftClass.SMALL, 1.0)),
                   ((0,), ()))



@pytest.mark.parametrize("scenario", [
    dict(service_rates=("2", 2)),
    dict(service_rates=(2.0, float("inf"))),
    dict(initial_queues=(2.7, 0)),
    dict(initial_queues=(True, 0)),
    dict(epoch_minutes="4"),
    dict(epoch_minutes=-4),
    dict(epoch_minutes=float("inf")),
    dict(congestion_threshold=2.7),
    dict(congestion_threshold=True),
    dict(congestion_threshold=-1),
    dict(lateness_threshold=float("nan")),
    dict(class_weights={"heavy": float("inf"), "medium": 1.0, "small": 0.75}),
    dict(class_weights={"heavy": "1", "medium": 1.0, "small": 0.75}),
    dict(lateness_scale=float("inf")),
    dict(lateness_scale=-1.0),
])
def test_scenario_values_are_checked_not_coerced(scenario):
    with pytest.raises(ValueError):
        generate_instance(6, 3, seed=0, **scenario)


def test_scenario_values_are_stored_normalized():
    inst = generate_instance(6, 3, seed=0, service_rates=[2, 3], initial_queues=[1, 0],
                             epoch_minutes=4, lateness_threshold=10)
    assert inst.service_rates == (2.0, 3.0) and inst.initial_queues == (1, 0)
    assert isinstance(inst.epoch_minutes, float) and isinstance(inst.lateness_threshold, float)
    assert inst == generate_instance(6, 3, seed=0, service_rates=(2.0, 3.0),
                                     initial_queues=(1, 0))
