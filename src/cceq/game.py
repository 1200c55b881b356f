"""Finite normal-form games with dense joint-action cost tables.

Joint actions are indexed two ways: as per-agent coordinate tuples and as a
flat mixed-radix index with agent 0 most significant. The flat order matches
C-order raveling, so reshaping a flat table to the action-shaped grid (and
back) is free. Costs are minimized throughout: lower is better for every
agent.
"""

from __future__ import annotations

import json
import math
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
    "check_joint_space",
    "flat_index",
    "game_from_dict",
    "game_to_dict",
    "incentive_gains",
    "joint_space_size",
    "load_game",
    "save_game",
    "unflatten",
]

# Probability masses must sum to one within this tolerance; selection
# results drop masses below it before they are certified.
MASS_TOL = 1e-9
# Largest joint action space that is lowered to a game or enumerated.
JOINT_SPACE_CAP = 2 ** 24


class BudgetExceededError(RuntimeError):
    """Raised when an action space exceeds its configured size cap."""


def joint_space_size(action_counts) -> int:
    """Number of joint actions, the product of per-agent action counts."""
    return math.prod(int(m) for m in action_counts)


def check_joint_space(action_counts) -> None:
    """Raise :class:`BudgetExceededError` if the joint space exceeds JOINT_SPACE_CAP."""
    size = joint_space_size(action_counts)
    if size > JOINT_SPACE_CAP:
        raise BudgetExceededError(f"joint space of size {size} exceeds the cap of {JOINT_SPACE_CAP}")


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
    size = joint_space_size(action_counts)
    if not 0 <= flat < size:
        raise ValueError(f"flat index {flat} out of range [0, {size})")
    coords = []
    for m in reversed(action_counts):
        coords.append(flat % int(m))
        flat //= int(m)
    return tuple(reversed(coords))


@dataclass(frozen=True)
class FiniteGame:
    """A finite game: per-agent costs over the full joint action space.

    ``costs[i, k]`` is agent ``i``'s cost at the joint action with flat index
    ``k``. Instances are immutable (arrays are marked read-only) and safe to
    share across threads.
    """

    action_counts: tuple[int, ...]
    costs: np.ndarray
    action_labels: tuple[tuple[str, ...], ...] | None = None

    def __post_init__(self):
        counts = tuple(int(m) for m in self.action_counts)
        if len(counts) < 1:
            raise ValueError("game needs at least one agent")
        if any(m < 1 for m in counts):
            raise ValueError("every agent needs at least one action")
        object.__setattr__(self, "action_counts", counts)

        costs = np.ascontiguousarray(self.costs, dtype=float)
        expected = (len(counts), joint_space_size(counts))
        if costs.shape != expected:
            raise ValueError(f"costs shape {costs.shape}, expected {expected}")
        if not np.all(np.isfinite(costs)):
            raise ValueError("costs must be finite for every agent and joint action")
        costs.setflags(write=False)
        object.__setattr__(self, "costs", costs)

        if self.action_labels is not None:
            labels = tuple(tuple(str(s) for s in own) for own in self.action_labels)
            if len(labels) != len(counts) or any(
                len(own) != m for own, m in zip(labels, counts)
            ):
                raise ValueError("action_labels must match action_counts")
            object.__setattr__(self, "action_labels", labels)

    @property
    def num_agents(self) -> int:
        return len(self.action_counts)

    @property
    def num_joint(self) -> int:
        return self.costs.shape[1]

    def cost_grid(self, agent: int) -> np.ndarray:
        """Agent's cost table reshaped to the action-counts grid (read-only view)."""
        return self.costs[agent].reshape(self.action_counts)


@dataclass(frozen=True)
class JointDistribution:
    """Probability mass over joint actions, stored densely by flat index."""

    mass: np.ndarray
    action_counts: tuple[int, ...]

    def __post_init__(self):
        counts = tuple(int(m) for m in self.action_counts)
        object.__setattr__(self, "action_counts", counts)
        mass = np.ascontiguousarray(self.mass, dtype=float)
        if mass.shape != (joint_space_size(counts),):
            raise ValueError(
                f"mass has length {mass.shape}, joint space is {joint_space_size(counts)}"
            )
        if mass.size and float(mass.min()) < 0.0:
            raise ValueError("probability masses must be nonnegative")
        total = float(mass.sum())
        if abs(total - 1.0) > MASS_TOL:
            raise ValueError(f"masses sum to {total!r}, expected 1 within {MASS_TOL}")
        mass.setflags(write=False)
        object.__setattr__(self, "mass", mass)

    @classmethod
    def point_mass(cls, coords, action_counts) -> "JointDistribution":
        """Distribution concentrated on a single joint action."""
        mass = np.zeros(joint_space_size(action_counts))
        mass[flat_index(coords, action_counts)] = 1.0
        return cls(mass, tuple(action_counts))

    @property
    def grid(self) -> np.ndarray:
        return self.mass.reshape(self.action_counts)

    @cached_property
    def support(self) -> np.ndarray:
        """Flat indices carrying strictly positive mass, ascending (computed once)."""
        return np.nonzero(self.mass > 0.0)[0]

    def prob(self, coords) -> float:
        return float(self.mass[flat_index(coords, self.action_counts)])

    def marginal(self, agent: int, action: int) -> float:
        """Probability that ``agent`` is recommended ``action``."""
        sliced = np.moveaxis(self.grid, agent, 0)[action]
        return float(sliced.sum())


def incentive_gains(game: FiniteGame, z: JointDistribution):
    """Every agent's unnormalized deviation gains under z, and its recommendation marginals.

    Returns one ``(gains, marginals)`` pair per agent. For agent i,
    ``gains[rec, alt]`` is the sum over the other agents' actions x of
    z(rec, x) * (J_i(rec, x) - J_i(alt, x)), computed over the support of z
    only, so a point mass costs O(sum_i m_i); a positive entry means
    switching from ``rec`` to ``alt`` pays off in expectation. It is affine
    in z, the form the equilibrium LP rows take; dividing row ``rec`` by
    ``marginals[rec]`` gives the expected gain conditioned on the
    recommendation. A zero-marginal row is all zeros (its constraints are
    vacuous) and the diagonal is zero. One call covers every agent and reads
    the support of z once.
    """
    if z.action_counts != game.action_counts:
        raise ValueError("distribution does not match the game's action space")
    support = z.support
    weight = z.mass[support]
    out = []
    stride = game.num_joint
    for i, m in enumerate(game.action_counts):
        stride //= m
        own = support // stride % m
        cost = game.costs[i]
        # swapped[k, alt]: agent i's cost at support point k with its own action set to alt
        swapped = cost[(support - own * stride)[:, None] + stride * np.arange(m)]
        gains = np.zeros((m, m))
        np.add.at(gains, own, weight[:, None] * (cost[support][:, None] - swapped))
        out.append((gains, np.bincount(own, weights=weight, minlength=m)))
    return out


# --- JSON serialization -----------------------------------------------------
#
# Schema (used by the CLI's --game-file option):
#   {"agents": n,
#    "action_counts": [m_0, ..., m_{n-1}],
#    "costs": [[...one value per flat joint index...]  per agent],
#    "labels": [[...m_i strings...] per agent]}        # optional


def game_to_dict(game: FiniteGame) -> dict:
    doc = {
        "agents": game.num_agents,
        "action_counts": list(game.action_counts),
        "costs": [list(map(float, row)) for row in game.costs],
    }
    if game.action_labels is not None:
        doc["labels"] = [list(own) for own in game.action_labels]
    return doc


def game_from_dict(doc: dict) -> FiniteGame:
    counts = tuple(int(m) for m in doc["action_counts"])
    if int(doc["agents"]) != len(counts):
        raise ValueError("'agents' disagrees with the length of 'action_counts'")
    labels = doc.get("labels")
    return FiniteGame(
        action_counts=counts,
        costs=np.asarray(doc["costs"], dtype=float),
        action_labels=tuple(tuple(own) for own in labels) if labels else None,
    )


def save_game(game: FiniteGame, path) -> None:
    Path(path).write_text(json.dumps(game_to_dict(game), indent=2) + "\n")


def load_game(path) -> FiniteGame:
    return game_from_dict(json.loads(Path(path).read_text()))
