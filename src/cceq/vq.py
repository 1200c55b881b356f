"""Airport virtual-queue departure coordination scenario.

Each airline chooses which subset of its eligible flights to push back this
epoch. Released flights join their runway's queue and pay a queue delay;
every flight pays a shared taxiway congestion penalty that kicks in above a
release-count threshold, and heavily late flights pay quadratically in their
schedule lateness. Airlines minimize class-weighted delay over their own
fleet; the coordinator tracks the unweighted total.

Flights held back this epoch wait at the gate: their delay term is one epoch
of holding instead of a queue delay, and their lateness term is evaluated one
epoch later (holding makes the flight later). The queue model itself only
defines delay for released flights, so this holding rule is what makes fleet
costs total over all flights; pricing the lateness growth is also what
preserves the incentive to release, since with the standing queues in this
scenario a pure gate-wait would always undercut the runway queue. Held
flights still share the congestion penalty.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import cached_property

import numpy as np

from .game import FiniteGame, check_joint_space

__all__ = [
    "AircraftClass",
    "DEFAULT_CLASS_WEIGHTS",
    "Flight",
    "VQInstance",
    "build_game",
    "fcfs_profile",
    "generate_instance",
    "truncated_lateness",
]


class AircraftClass(str, Enum):
    SMALL = "small"
    MEDIUM = "medium"
    HEAVY = "heavy"


# Draw order for random class assignment.
_CLASS_ORDER = (AircraftClass.SMALL, AircraftClass.MEDIUM, AircraftClass.HEAVY)

DEFAULT_CLASS_WEIGHTS = {
    AircraftClass.HEAVY: 1.2,
    AircraftClass.MEDIUM: 1.0,
    AircraftClass.SMALL: 0.75,
}
DEFAULT_SERVICE_RATES = (2.0, 2.0)
DEFAULT_INITIAL_QUEUES = (3, 4)
DEFAULT_EPOCH_MINUTES = 4.0
DEFAULT_CONGESTION_THRESHOLD = 4
DEFAULT_LATENESS_THRESHOLD = 10.0
DEFAULT_LATENESS_SCALE = 10.0


@dataclass(frozen=True)
class Flight:
    id: int
    runway: int
    aircraft_class: AircraftClass
    lateness: float


@dataclass(frozen=True)
class VQInstance:
    """One departure epoch: runways, eligible flights, and airline ownership."""

    service_rates: tuple[float, ...]
    initial_queues: tuple[int, ...]
    flights: tuple[Flight, ...]
    airlines: tuple[tuple[int, ...], ...]
    epoch_minutes: float = DEFAULT_EPOCH_MINUTES
    congestion_threshold: int = DEFAULT_CONGESTION_THRESHOLD
    lateness_threshold: float = DEFAULT_LATENESS_THRESHOLD
    class_weights: dict | None = None

    def __post_init__(self):
        rates = tuple(float(r) for r in self.service_rates)
        queues = tuple(int(q) for q in self.initial_queues)
        if not rates or any(r <= 0 for r in rates):
            raise ValueError("service rates must be positive, one per runway")
        if len(queues) != len(rates) or any(q < 0 for q in queues):
            raise ValueError("initial queues must be nonnegative, one per runway")
        object.__setattr__(self, "service_rates", rates)
        object.__setattr__(self, "initial_queues", queues)

        flights = tuple(sorted(self.flights, key=lambda f: f.id))  # the cost folds' order
        ids = [f.id for f in flights]
        if len(set(ids)) != len(ids):
            raise ValueError("flight ids must be unique")
        for f in flights:
            if not 0 <= f.runway < len(rates):
                raise ValueError(f"flight {f.id} assigned to unknown runway {f.runway}")
            if f.lateness < 0:
                raise ValueError(f"flight {f.id} has negative lateness")
        object.__setattr__(self, "flights", flights)

        airlines = tuple(tuple(sorted(int(i) for i in owned)) for owned in self.airlines)
        owned_ids = [fid for owned in airlines for fid in owned]
        if any(not owned for owned in airlines):
            raise ValueError("every airline must own at least one flight")
        if sorted(owned_ids) != sorted(ids):
            raise ValueError("airlines must partition the flight set")
        object.__setattr__(self, "airlines", airlines)

        weights = dict(DEFAULT_CLASS_WEIGHTS if self.class_weights is None else self.class_weights)
        weights = {AircraftClass(k): float(v) for k, v in weights.items()}
        if set(weights) != set(AircraftClass) or any(w < 0 for w in weights.values()):
            raise ValueError("class_weights needs one nonnegative weight per aircraft class")
        object.__setattr__(self, "class_weights", weights)

    @property
    def num_runways(self) -> int:
        return len(self.service_rates)

    @property
    def num_airlines(self) -> int:
        return len(self.airlines)

    @property
    def num_flights(self) -> int:
        return len(self.flights)

    @cached_property
    def flight_by_id(self) -> dict:
        return {f.id: f for f in self.flights}

    @cached_property
    def owner_of(self) -> dict:
        """flight id -> (airline index, bit position in its subset encoding)."""
        out = {}
        for i, owned in enumerate(self.airlines):
            for bit, fid in enumerate(owned):
                out[fid] = (i, bit)
        return out

    @property
    def action_counts(self) -> tuple[int, ...]:
        return tuple(2 ** len(owned) for owned in self.airlines)


def truncated_lateness(rng: np.random.Generator, scale: float = DEFAULT_LATENESS_SCALE) -> float:
    """One schedule-lateness draw: N(0, scale^2) resampled until nonnegative."""
    while True:
        value = rng.normal(0.0, scale)
        if value >= 0.0:
            return float(value)


def generate_instance(
    num_flights: int,
    num_airlines: int,
    seed,
    *,
    service_rates=DEFAULT_SERVICE_RATES,
    initial_queues=DEFAULT_INITIAL_QUEUES,
    epoch_minutes: float = DEFAULT_EPOCH_MINUTES,
    congestion_threshold: int = DEFAULT_CONGESTION_THRESHOLD,
    lateness_threshold: float = DEFAULT_LATENESS_THRESHOLD,
    class_weights=None,
    lateness_scale: float = DEFAULT_LATENESS_SCALE,
) -> VQInstance:
    """Randomly generate one epoch instance, deterministic under the seed.

    Per flight (in id order): lateness from the truncated Gaussian, runway
    uniform, class uniform. Airline ownership is drawn uniformly and then
    repaired so every airline owns at least one flight: while some airline is
    empty, the currently largest airline (lowest index on ties) hands its
    highest-id flight to the lowest-index empty airline.
    """
    if num_airlines < 1 or num_flights < num_airlines:
        raise ValueError("need num_flights >= num_airlines >= 1")
    rng = np.random.default_rng(seed)
    num_runways = len(service_rates)
    flights = []
    for fid in range(num_flights):
        lateness = truncated_lateness(rng, lateness_scale)
        runway = int(rng.integers(num_runways))
        klass = _CLASS_ORDER[int(rng.integers(len(_CLASS_ORDER)))]
        flights.append(Flight(fid, runway, klass, lateness))

    owners = rng.integers(num_airlines, size=num_flights)
    counts = np.bincount(owners, minlength=num_airlines)
    while (counts == 0).any():
        empty = int(np.argmax(counts == 0))
        donor = int(np.argmax(counts))
        moved = int(np.nonzero(owners == donor)[0].max())
        owners[moved] = empty
        counts[donor] -= 1
        counts[empty] += 1
    airlines = tuple(
        tuple(int(fid) for fid in np.nonzero(owners == i)[0]) for i in range(num_airlines)
    )
    return VQInstance(
        service_rates=tuple(service_rates),
        initial_queues=tuple(initial_queues),
        flights=tuple(flights),
        airlines=airlines,
        epoch_minutes=epoch_minutes,
        congestion_threshold=congestion_threshold,
        lateness_threshold=lateness_threshold,
        class_weights=class_weights,
    )


def _lateness_term(instance: VQInstance, lateness: float) -> float:
    if lateness > instance.lateness_threshold:
        return lateness ** 2
    return lateness


def fcfs_profile(instance: VQInstance) -> tuple[int, ...]:
    """Uncoordinated baseline: every airline releases its whole fleet."""
    return tuple(m - 1 for m in instance.action_counts)


def build_game(instance: VQInstance):
    """Lower the instance to a FiniteGame plus the coordinator's cost table.

    Returns ``(game, sys_cost)`` where agent i's cost table is its
    class-weighted fleet delay and ``sys_cost[k]`` is the unweighted total at
    flat joint index k. A joint space above ``JOINT_SPACE_CAP`` raises
    :class:`BudgetExceededError`.

    A flight's cost depends on the other airlines only through the runway
    state, the number of flights released on each runway. So each flight is
    priced once per (held or released, runway state), each airline's costs
    are folded over its flights on an (own action, runway state) table, and
    one gather per airline fills its joint table; the system cost is folded
    on the joint grid, one index, one gather and one add per flight, in
    buffers allocated once per call. Both folds run in
    ascending flight id with the same float operations as pricing every
    joint action flight by flight, so the tables are bit-identical to that.
    """
    counts = instance.action_counts
    check_joint_space(counts)
    n = len(counts)
    flights = instance.flights
    epoch = instance.epoch_minutes
    runway = np.array([f.runway for f in flights], dtype=np.intp)
    radix = np.bincount(runway, minlength=instance.num_runways) + 1
    strides = np.cumprod(np.concatenate(([1], radix[:-1])))
    num_states = int(np.prod(radix))
    # pushbacks[r, s]: flights released on runway r in runway state s
    pushbacks = (np.arange(num_states) // strides[:, None] % radix[:, None]).astype(float)
    congestion = np.maximum(0.0, sum(pushbacks) - instance.congestion_threshold) ** 2
    delay = ((np.array(instance.initial_queues)[:, None] + pushbacks)
             / np.array(instance.service_rates)[:, None] * epoch)

    # cost[j, released, s]: flight j's cost, held or released, in runway
    # state s; a held flight waits out the epoch and is that much later
    held = [_lateness_term(instance, f.lateness + epoch) + epoch for f in flights]
    lateness = [_lateness_term(instance, f.lateness) for f in flights]
    cost = np.empty((len(flights), 2, num_states))
    cost[:, 0] = np.array(held)[:, None] + congestion
    cost[:, 1] = np.array(lateness)[:, None] + delay[runway] + congestion
    weights = np.array([instance.class_weights[f.aircraft_class] for f in flights])
    weighted = weights[:, None, None] * cost

    # bits[i][b, a]: whether agent i's action a releases its b-th flight;
    # state[k]: the runway state at flat joint index k
    bits = [(np.arange(m) >> np.arange(len(owned))[:, None]) & 1
            for m, owned in zip(counts, instance.airlines)]
    state = np.zeros(counts, dtype=np.intp)
    for i, owned in enumerate(instance.airlines):
        steps = strides[[instance.flight_by_id[fid].runway for fid in owned]]
        state += _along_axis((bits[i] * steps[:, None]).sum(axis=0), i, n)
    # per gather: the table entry read at each joint index; the indices are
    # in range, and mode="clip" lets np.take write to `out` unbuffered
    index = np.empty_like(state)
    gathered = np.empty(state.size)

    # tables[i][a, s]: agent i's cost in runway state s; its b-th flight
    # (ascending id) is folded into rows [0, 2^b) and copied, released, into
    # rows [2^b, 2^(b+1))
    tables = [np.zeros((m, num_states)) for m in counts]
    sys_cost = np.zeros(state.size)
    for j, flight in enumerate(flights):  # ascending id, as VQInstance sorts them
        i, bit = instance.owner_of[flight.id]
        low = tables[i][:1 << bit]
        np.add(low, weighted[j, 1], out=tables[i][1 << bit:2 << bit])
        low += weighted[j, 0]
        np.add(state, _along_axis(num_states * bits[i][bit], i, n), out=index)
        sys_cost += np.take(cost[j].reshape(-1), index.reshape(-1), out=gathered, mode="clip")

    costs = np.empty((n, state.size))
    for i, table in enumerate(tables):
        np.add(state, _along_axis(num_states * np.arange(counts[i]), i, n), out=index)
        np.take(table.reshape(-1), index.reshape(-1), out=costs[i], mode="clip")
    return FiniteGame(action_counts=counts, costs=costs), sys_cost


def _along_axis(vector: np.ndarray, axis: int, ndim: int) -> np.ndarray:
    """``vector`` as a view spanning ``axis`` of an ``ndim``-dimensional grid."""
    shape = [1] * ndim
    shape[axis] = vector.size
    return vector.reshape(shape)
