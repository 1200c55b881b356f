import numpy as np
import pytest

from cceq.game import FiniteGame, JointDistribution

# Two drivers at an intersection, actions {Go=0, Stop=1}; costs
# (G,G)=(5,5), (G,S)=(-1,1), (S,G)=(1,-1), (S,S)=(1,1).
INTERSECTION_COSTS = np.array([
    [5.0, -1.0, 1.0, 1.0],
    [5.0, 1.0, -1.0, 1.0],
])


@pytest.fixture
def intersection_game() -> FiniteGame:
    return FiniteGame((2, 2), INTERSECTION_COSTS)


@pytest.fixture
def intersection_sys_cost() -> np.ndarray:
    return INTERSECTION_COSTS.sum(axis=0)


@pytest.fixture
def half_device() -> JointDistribution:
    """The 1/2-1/2 correlation device over (G,S) and (S,G)."""
    return JointDistribution.from_mass(np.array([0.0, 0.5, 0.5, 0.0]), (2, 2))
