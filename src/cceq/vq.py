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

import itertools
from dataclasses import dataclass
from enum import Enum
from functools import cached_property

import numpy as np

from .game import FiniteGame, check_joint_space

__all__ = [
    "AircraftClass",
    "DEFAULT_CLASS_WEIGHTS",
    "Flight",
    "SystemCost",
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

    Returns ``(game, sys_cost)``: agent i's cost is its class-weighted fleet
    delay, and ``sys_cost``, a :class:`SystemCost`, is the unweighted total
    by flat joint index. An (action row, runway state) table above
    ``JOINT_SPACE_CAP`` entries, or a joint space whose flat indices do not
    fit int64, raises :class:`BudgetExceededError`.

    A flight's cost depends on the other airlines only through the runway
    state, the number of flights released on each runway. So each flight is
    priced once per (held or released, runway state), and each airline's
    costs are folded over its flights on an (own action, runway state)
    table. Its lines are read from that table, keyed by the runway states
    the other airlines can produce: the mixed radix over their per-runway
    flight counts, so that every key is reachable. No table over the joint
    space is built. Both folds run in ascending flight id with the same float
    operations as pricing every joint action flight by flight, so the games'
    dense tables and the system cost are bit-identical to that.
    """
    counts = instance.action_counts
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

    # rows offsets[i] + a stand for airline i's action a, all airlines in turn
    n, num_rows = len(counts), sum(counts)
    check_joint_space((num_rows, num_states))
    first_rows = [0, *itertools.accumulate(counts[:-1])]
    owned = [instance.owner_of[f.id] for f in flights]  # (airline, bit), ascending id

    # table[row, s]: the row's airline's cost in runway state s; its b-th
    # flight (ascending id) is folded into the action rows [0, 2^b) and
    # copied, released, into rows [2^b, 2^(b+1))
    table = np.zeros((num_rows, num_states))
    for j, (i, bit) in enumerate(owned):
        first = first_rows[i]
        low = table[first:first + (1 << bit)]
        np.add(low, weighted[j, 1], out=table[first + (1 << bit):first + (2 << bit)])
        low += weighted[j, 0]

    # on_runway[r, row]: flights the row's action releases on runway r
    owner, bit = np.array(owned).T
    row_agent = np.arange(n).repeat(counts)
    offsets = np.array(first_rows)
    released = ((np.arange(num_rows) - offsets[row_agent]) >> bit[:, None] & 1) * (
        row_agent == owner[:, None])
    on_runway = (runway == np.arange(len(radix))[:, None]).astype(np.intp) @ released

    # the others' radix per runway, and the strides of their mixed-radix key
    others = radix - on_runway[:, offsets + np.array(counts) - 1].T
    key_strides = np.cumprod(np.concatenate((np.ones((n, 1), np.intp), others[:, :-1]), axis=1),
                             axis=1)
    num_keys = others.prod(axis=1)
    # the runway state at key k: own releases plus the key's per-runway digits
    digits = np.arange(num_keys.max()) // key_strides[:, :, None] % others[:, :, None]
    state = (strides @ on_runway)[:, None] + (strides @ digits)[row_agent]
    entries = np.take(table, np.arange(num_rows)[:, None] * num_states + state)
    lines = [entries[first:first + m, :k] for first, m, k in zip(offsets, counts, num_keys)]
    key_weights = (key_strides @ on_runway) * (row_agent != np.arange(n)[:, None])
    game = FiniteGame.from_lines(counts, lines, key_weights)

    # flight j is bit `position` of the flat index: each agent's action
    # occupies the bits above the later agents'
    later_bits = [*itertools.accumulate((m.bit_length() - 1 for m in counts[:0:-1]), initial=0)]
    return game, SystemCost(cost, np.array(later_bits[::-1])[owner] + bit, strides[runway])


class SystemCost:
    """The coordinator's cost table of :func:`build_game`, the unweighted
    delay total by flat joint index, evaluated where it is read.

    ``cost[j, released, s]`` is flight j's cost in runway state s, flight j
    is bit ``positions[j]`` of the flat index, and releasing it moves the
    runway state by ``steps[j]``. Indexing by a flat index or an index array
    prices those joint actions only: one gather and one accumulation over
    the flights in ascending id. ``np.asarray`` folds the flights, in the
    same order, over the whole joint space, each time it is called; both
    are bit-identical.
    """

    def __init__(self, cost: np.ndarray, positions: np.ndarray, steps: np.ndarray):
        num_flights, _, num_states = cost.shape
        self._cost = cost.reshape(-1)
        self._num_states = num_states
        self._num_bits = int(positions.max()) + 1
        self._positions = positions[:, None]
        self._steps = steps
        # flight j's entry in _cost at a joint action whose flights' bits are
        # `released`: base[j] + released[j] * num_states + runway state, that
        # is base + columns @ released (exact in floats, a BLAS product)
        self._base = (np.arange(num_flights) * 2 * num_states)[:, None]
        self._columns = steps + num_states * np.eye(num_flights)

    def __getitem__(self, flats):
        """The system cost at a flat index (a float) or at an array of them."""
        flats = np.asarray(flats)
        if (flats >> self._num_bits).any():  # negative or past the joint space
            raise IndexError(f"flat index out of range [0, {1 << self._num_bits})")
        released = np.ravel(flats) >> self._positions & 1  # one row per flight
        entries = (self._columns @ released).astype(np.intp) + self._base
        total = np.add.accumulate(np.take(self._cost, entries), axis=0)[-1]
        return total.reshape(flats.shape)[()]

    def __array__(self, dtype=None, copy=None):
        # the same fold over the whole joint space, flight by flight, in
        # buffers the size of the table
        flats = np.arange(1 << self._num_bits)
        positions = self._positions.ravel().tolist()
        state = sum((flats >> position & 1) * step
                    for position, step in zip(positions, self._steps.tolist()))
        total = 0.0
        for position, base in zip(positions, self._base.ravel().tolist()):
            total = total + self._cost[base + self._num_states * (flats >> position & 1) + state]
        return total.astype(dtype or float, copy=False)
