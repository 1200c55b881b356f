"""Finite normal-form games, stored per agent as lines of its own actions' costs.

Joint actions are indexed two ways: as per-agent coordinate tuples and as a
flat mixed-radix index with agent 0 most significant. The flat order matches
C-order raveling, so reshaping a flat table to the action-shaped grid (and
back) is free. Costs are minimized throughout: lower is better for every
agent.
"""

from __future__ import annotations

import itertools
import json
import math
import numbers
import operator
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path

import numpy as np

__all__ = [
    "BudgetExceededError",
    "FiniteGame",
    "JOINT_SPACE_CAP",
    "JointDistribution",
    "MASS_TOL",
    "best_deviations",
    "check_joint_space",
    "check_number",
    "flat_index",
    "game_from_dict",
    "game_to_dict",
    "load_game",
    "save_game",
    "unflatten",
]

# Probability masses must sum to one within this tolerance; selection
# results drop masses below it before they are certified.
MASS_TOL = 1e-9
# Most entries of a table that one step builds: the airport lowering's
# (action row, runway state) table, the CC-PNE candidate product and the
# full selection program's joint space.
JOINT_SPACE_CAP = 2 ** 24


class BudgetExceededError(RuntimeError):
    """Raised when a table a step would build exceeds its size cap."""


def check_joint_space(sizes) -> None:
    """Raise :class:`BudgetExceededError` if a table of shape ``sizes``, the
    product of their entries, would exceed JOINT_SPACE_CAP."""
    size = math.prod(int(m) for m in sizes)
    if size > JOINT_SPACE_CAP:
        raise BudgetExceededError(f"table of size {size} exceeds the cap of {JOINT_SPACE_CAP}")


def flat_index(coords, action_counts) -> int:
    """Mixed-radix flat index of a joint action (agent 0 most significant)."""
    if len(coords) != len(action_counts):
        raise ValueError(
            f"coords has {len(coords)} entries for {len(action_counts)} agents"
        )
    flat = 0
    for c, m in zip(coords, action_counts):
        c = int(c)
        if not 0 <= c < m:
            raise ValueError(f"coordinate {c} out of range [0, {m})")
        flat = flat * int(m) + c
    return flat


def unflatten(flat, action_counts) -> tuple[int, ...]:
    """Inverse of :func:`flat_index`."""
    flat = int(flat)
    size = math.prod(int(m) for m in action_counts)
    if not 0 <= flat < size:
        raise ValueError(f"flat index {flat} out of range [0, {size})")
    coords = []
    for m in reversed(action_counts):
        coords.append(flat % int(m))
        flat //= int(m)
    return tuple(reversed(coords))


class FiniteGame:
    """A finite game, stored per agent as cost lines over opponent keys.

    ``lines[i][a, k]`` is agent i's cost for its action a when the others
    play a joint action with key k. Row ``offsets[i] + a`` stands for agent
    i's action a (``row_agents`` and ``row_actions`` hold each row's i and
    a), and agent i's key at the joint action x is
    ``sum_j key_weights[i, offsets[j] + x_j]`` (zero over agent i's own
    rows). Column k of ``lines[i]`` is the line of agent i's own actions
    against one play of the others, so every incentive an agent has is read
    off its lines. ``FiniteGame(action_counts, costs)`` takes dense tables
    and keys each agent's lines by the others' mixed-radix index;
    :meth:`from_lines` takes lines directly. ``costs[i, k]``, agent i's cost
    at flat joint index k, is gathered from the lines on first access and
    cached. Arrays are read-only. Flat indices are int64: a joint space past
    that raises :class:`BudgetExceededError`.
    """

    def __init__(self, action_counts, costs):
        counts = _action_counts(action_counts)
        costs = np.ascontiguousarray(costs, dtype=float)
        expected = (len(counts), math.prod(counts))
        if costs.shape != expected:
            raise ValueError(f"costs shape {costs.shape}, expected {expected}")
        lines = [np.moveaxis(costs[i].reshape(counts), i, 0).reshape(m, -1)
                 for i, m in enumerate(counts)]
        offsets = [0, *itertools.accumulate(counts[:-1])]
        key_weights = np.zeros((len(counts), sum(counts)), dtype=np.intp)
        for i in range(len(counts)):  # the others' mixed-radix index, agent 0 most significant
            stride = 1
            for j in reversed(range(len(counts))):
                if j != i:
                    start = offsets[j]
                    key_weights[i, start:start + counts[j]] = stride * np.arange(counts[j])
                    stride *= counts[j]
        self._setup(counts, lines, key_weights)
        costs.setflags(write=False)
        self.__dict__["costs"] = costs

    @classmethod
    def from_lines(cls, action_counts, lines, key_weights) -> "FiniteGame":
        """A game from per-agent lines, ``lines[i]`` of shape (m_i, K_i), and
        integer key weights of shape (agents, sum_i m_i) that map every joint
        action to a key in [0, K_i) for each agent i."""
        game = cls.__new__(cls)
        game._setup(_action_counts(action_counts), lines, key_weights)
        return game

    def _setup(self, counts, lines, key_weights):
        n = len(counts)
        lines = [np.asarray(line, dtype=float) for line in lines]
        if len(lines) != n or any(line.ndim != 2 or len(line) != m
                                  for line, m in zip(lines, counts)):
            raise ValueError("need one (own actions, keys) line table per agent")
        self.action_counts = counts
        self.num_joint = math.prod(counts)
        if self.num_joint > 1 << 63:
            raise BudgetExceededError(f"{self.num_joint} joint actions: flat indices past int64")
        self.offsets = np.array([0, *itertools.accumulate(counts[:-1])])
        # of the flat joint index, agent 0 most significant
        self.strides = np.array([*itertools.accumulate(counts[:0:-1], operator.mul,
                                                       initial=1)][::-1])
        widths = [line.shape[1] for line in lines]
        # every agent's lines, key by key: a slot, one per (agent i, key) in
        # that order, holds agent i's costs at the key, counts[i] entries
        # from key_starts[slot]
        self.flat_lines = np.concatenate([line.T.reshape(-1) for line in lines])
        if not np.isfinite(self.flat_lines).all():
            raise ValueError("costs must be finite for every agent and joint action")
        self.flat_lines.setflags(write=False)
        slot_agents = np.repeat(np.arange(n), np.array(widths))
        slot_lengths = np.array(counts)[slot_agents]
        self.key_starts = np.cumsum(slot_lengths) - slot_lengths
        starts = self.key_starts[[0, *itertools.accumulate(widths[:-1])]]
        self.lines = tuple(self.flat_lines[start:start + m * width].reshape(width, m).T
                           for start, m, width in zip(starts.tolist(), counts, widths))
        weights = np.asarray(key_weights, dtype=np.intp)
        row_agents = self.row_agents = np.repeat(np.arange(n), np.array(counts))
        own = row_agents == np.arange(n)[:, None]
        if (weights.shape != (n, len(row_agents)) or weights.min() < 0 or weights[own].any()
                or (np.maximum.reduceat(weights, self.offsets, axis=1).sum(axis=1)
                    >= widths).any()):
            raise ValueError("key weights must map every joint action into each agent's keys")
        weights.setflags(write=False)
        self.key_weights = weights
        # sum_j point_weights[:, offsets[j] + x_j] holds, at the joint action
        # x, each agent's entry in flat_lines (its first slot's start, plus
        # counts[i] entries per key, plus x_i) and, last, x's flat index
        actions = self.row_actions = np.arange(len(row_agents)) - self.offsets[row_agents]
        self.point_weights = np.vstack((weights * np.array(counts)[:, None],
                                        self.strides[row_agents] * actions))
        self.point_weights[:-1][own] = starts[row_agents] + actions
        # of each entry of flat_lines: its slot, its agent and its row
        self.entry_slots = np.repeat(np.arange(len(slot_lengths)), slot_lengths)
        self.entry_agents = slot_agents[self.entry_slots]
        self.entry_rows = np.arange(len(self.flat_lines)) - (
            self.key_starts - self.offsets[slot_agents])[self.entry_slots]

    @property
    def num_agents(self) -> int:
        return len(self.action_counts)

    def coordinates(self, flats) -> np.ndarray:
        """Agents' actions, shape (agents, points), at the vector of flat
        joint indices ``flats``."""
        return np.asarray(flats) // self.strides[:, None] % np.array(self.action_counts)[:, None]

    def line_entries(self, coords) -> np.ndarray:
        """Positions in ``flat_lines`` of each agent's cost, shape (agents,
        points), at the joint actions with coordinates ``coords``, shape
        (agents, points); agent i's whole line through the joint action
        starts ``coords[i]`` before."""
        return self.point_weights[:-1, coords + self.offsets[:, None]].sum(axis=1)

    def joint_entries(self) -> np.ndarray:
        """Positions in ``flat_lines`` of each agent's cost at every joint
        action, shape (agents, num_joint), in flat order."""
        n = self.num_agents
        # summed along the joint grid's axes
        entries = sum(self.point_weights[:-1, self.offsets[j] + np.arange(m).reshape(
            [m if k == j else 1 for k in range(n)])] for j, m in enumerate(self.action_counts))
        return entries.reshape(n, -1)

    @cached_property
    def costs(self) -> np.ndarray:
        """Dense tables, ``costs[i, k]`` agent i's cost at flat joint index k."""
        costs = self.flat_lines[self.joint_entries()]
        costs.setflags(write=False)
        return costs

    @cached_property
    def alternative_minima(self) -> np.ndarray:
        """Laid out like ``flat_lines``: at agent i's action a and key k, the
        least cost of the agent's other actions at k (inf with no other).
        Every agent's line minima and runner-ups (a tied minimum counting
        twice) come from a few calls over all lines at once."""
        flat, starts, slots = self.flat_lines, self.key_starts, self.entry_slots
        low = np.minimum.reduceat(flat, starts)
        low_at = low[slots]
        is_low = flat == low_at
        second = np.minimum.reduceat(np.where(is_low, np.inf, flat), starts)
        second = np.where(np.bincount(slots, is_low, len(starts)) > 1, low, second)
        bars = np.where(is_low, second[slots], low_at)
        bars.setflags(write=False)
        return bars


def _action_counts(action_counts) -> tuple[int, ...]:
    counts = tuple(int(m) for m in action_counts)
    if len(counts) < 1:
        raise ValueError("game needs at least one agent")
    if any(m < 1 for m in counts):
        raise ValueError("every agent needs at least one action")
    return counts


@dataclass(frozen=True, eq=False)
class JointDistribution:
    """Probability mass over joint actions, held by its support: ascending
    int64 flat indices and their positive weights, which sum to one within
    MASS_TOL. Checked in O(|support|); the dense ``mass`` is built only when
    read. Equality is identity, so that a distribution can be hashed."""

    support: np.ndarray
    weights: np.ndarray
    action_counts: tuple[int, ...]

    def __post_init__(self):
        counts = tuple(int(m) for m in self.action_counts)
        support = np.ascontiguousarray(self.support, dtype=np.int64)
        weights = np.ascontiguousarray(self.weights, dtype=float)
        if support.ndim != 1 or weights.shape != support.shape:
            raise ValueError("support and weights must be vectors of one length")
        if (support[1:] <= support[:-1]).any():
            raise ValueError("support must be strictly ascending")
        if support.size and not 0 <= int(support[0]) <= int(support[-1]) < math.prod(counts):
            raise ValueError(f"support outside the joint space of size {math.prod(counts)}")
        if not (weights.size and weights.min() > 0.0):  # NaN fails too
            raise ValueError("a distribution needs positive weights")
        total = float(weights.sum())
        if not abs(total - 1.0) <= MASS_TOL:  # inf and NaN fail too
            raise ValueError(f"weights sum to {total!r}, expected 1 within {MASS_TOL}")
        support.setflags(write=False)
        weights.setflags(write=False)
        object.__setattr__(self, "support", support)
        object.__setattr__(self, "weights", weights)
        object.__setattr__(self, "action_counts", counts)

    @classmethod
    def from_mass(cls, mass, action_counts) -> "JointDistribution":
        """The distribution with the dense masses ``mass``, one per flat joint index."""
        mass = np.asarray(mass, dtype=float)
        size = math.prod(int(m) for m in action_counts)
        if mass.shape != (size,):
            raise ValueError(f"mass has shape {mass.shape}, joint space is {size}")
        support = np.flatnonzero(mass)
        return cls(support, mass[support], action_counts)

    @classmethod
    def point_mass(cls, coords, action_counts) -> "JointDistribution":
        """Distribution concentrated on a single joint action."""
        return cls([flat_index(coords, action_counts)], [1.0], action_counts)

    @cached_property
    def mass(self) -> np.ndarray:
        """Dense masses by flat index, one per joint action (built once)."""
        mass = np.zeros(math.prod(self.action_counts))
        mass[self.support] = self.weights
        mass.setflags(write=False)
        return mass


def best_deviations(game: FiniteGame, z: JointDistribution,
                    shift) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Every agent's best deviation under z, one per live row.

    A live row is agent i's action r, row ``offsets[i] + r`` as in
    :class:`FiniteGame`, that z recommends with positive marginal. Its best
    margin is the largest, over agent i's actions alt != r, of

        sum_{x: x_i = r} z(x) * (J_i(x) - J_i(alt, x_-i)) / marginal(r)

    plus ``shift[i]``, one shift per agent (a tightening or a perturbation);
    a positive margin means switching from r to alt pays off in expectation.
    Every sum runs over the support of z in ascending order, so a margin is
    the same number whichever caller reads it.

    Returns ``(rows, best, alts)``: the live rows, ascending, their best
    margins and, for each, the lowest alt that reaches it. A row whose agent
    has no other action reads -inf and its own action. The gather costs
    O(|support| * sum_i m_i) and the sums, padded to the widest agent, at
    most O(n * |support| * max_i m_i): O(n * max_i m_i) for a point mass.
    """
    if z.action_counts != game.action_counts:
        raise ValueError("distribution does not match the game's action space")
    shift = np.asarray(shift, dtype=float)
    if shift.shape != (game.num_agents,):
        raise ValueError(f"need one shift per agent, got shape {shift.shape}")
    agents, actions = game.row_agents, game.row_actions
    coords = game.coordinates(z.support)
    entries = game.line_entries(coords)
    # at support point x and column (agent i, alt), numbered like the rows:
    # z(x) * (J_i(x) - J_i(alt, x_-i))
    own = game.flat_lines[entries][agents].T
    swapped = game.flat_lines[(entries - coords)[agents].T + actions]
    gains = z.weights[:, None] * (own - swapped)
    point_rows = coords + game.offsets[:, None]
    marginals = np.bincount(point_rows.ravel(),
                            np.repeat(z.weights[None], len(coords), axis=0).ravel(), len(agents))
    rows = np.flatnonzero(marginals)
    # live row l's sums at slots l * width + alt, padded to the widest agent
    # so that one argmax reads every row
    width = max(game.action_counts)
    live = np.arange(len(rows))
    slots = np.zeros(len(agents), dtype=np.intp)
    slots[rows] = live * width
    sums = np.bincount((slots[point_rows][agents].T + actions).ravel(), gains.ravel(),
                       len(rows) * width).reshape(len(rows), width)
    row_agents = agents[rows]
    margins = sums / marginals[rows, None] + shift[row_agents, None]
    margins[live, actions[rows]] = -np.inf  # alt == r
    margins[np.arange(width) >= np.array(game.action_counts)[row_agents, None]] = -np.inf
    alts = margins.argmax(axis=1)  # the first maximum: the lowest-index tie rule
    return rows, margins[live, alts], alts


# --- JSON serialization -----------------------------------------------------
#
# Schema (used by the CLI's --game-file option):
#   {"agents": n,
#    "action_counts": [m_0, ..., m_{n-1}],
#    "costs": [[...one value per flat joint index...]  per agent]}
# Other keys are ignored.


def game_to_dict(game: FiniteGame) -> dict:
    return {
        "agents": game.num_agents,
        "action_counts": list(game.action_counts),
        "costs": [list(map(float, row)) for row in game.costs],
    }


def game_from_dict(doc: dict) -> FiniteGame:
    if not isinstance(doc, dict):
        raise ValueError(f"a game must be a JSON object, got {type(doc).__name__}")
    counts = tuple(check_number("an action count", m, numbers.Integral)
                   for m in doc["action_counts"])
    if check_number("'agents'", doc["agents"], numbers.Integral) != len(counts):
        raise ValueError("'agents' disagrees with the length of 'action_counts'")
    return FiniteGame(counts, np.asarray(doc["costs"], dtype=float))


def check_number(name: str, value, kind=numbers.Real):
    """``value`` as an int or a float if it is a ``kind`` (numbers.Integral or
    numbers.Real); ValueError for a bool, a string, a float for an integer (2.0 too)."""
    if isinstance(value, bool) or not isinstance(value, kind):
        noun = "an integer" if kind is numbers.Integral else "a real number"
        raise ValueError(f"{name} must be {noun}, got {value!r}")
    return int(value) if kind is numbers.Integral else float(value)


def save_game(game: FiniteGame, path) -> None:
    Path(path).write_text(json.dumps(game_to_dict(game), indent=2) + "\n")


def load_game(path) -> FiniteGame:
    return game_from_dict(json.loads(Path(path).read_text()))
