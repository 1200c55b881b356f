"""Per-agent additive perturbations of deviation costs.

Each agent's perturbation is a single zero-mean Gaussian draw, N(0, sigma_i^2),
shared across all of its deviation comparisons within a trial; sigma_i = 0 is
the identically zero perturbation. Downstream code needs two things from the
model: each agent's alpha-quantile sigma_i * Phi^-1(alpha), which tightens its
incentive constraints, and one seeded draw per agent per trial. Phi^-1 is the
standard library's ``statistics.NormalDist.inv_cdf`` (Wichura's AS241).

Reproducibility: all randomness flows through numpy PCG64 generators keyed by
an explicit integer path, see :func:`substream`. Identical paths give
identical streams on any run of the same build, independent of execution
order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from statistics import NormalDist

import numpy as np

__all__ = ["UncertaintyModel", "substream"]


@dataclass(frozen=True)
class UncertaintyModel:
    """One Gaussian perturbation scale sigma_i >= 0 per agent."""

    sigmas: tuple[float, ...]

    def __post_init__(self):
        sigmas = tuple(float(s) for s in self.sigmas)
        if not sigmas:
            raise ValueError("need at least one agent")
        if not all(math.isfinite(s) and s >= 0.0 for s in sigmas):
            raise ValueError(f"sigma must be finite and nonnegative, got {sigmas!r}")
        object.__setattr__(self, "sigmas", sigmas)

    @classmethod
    def zero(cls, num_agents: int) -> "UncertaintyModel":
        """No perturbation: sigma = 0 for every agent."""
        return cls.gaussian(0.0, num_agents)

    @classmethod
    def gaussian(cls, sigma, num_agents: int) -> "UncertaintyModel":
        """Gaussian perturbations; scalar sigma applies to all agents."""
        if np.isscalar(sigma):
            return cls((sigma,) * num_agents)
        sigmas = tuple(sigma)
        if len(sigmas) != num_agents:
            raise ValueError(f"got {len(sigmas)} sigmas for {num_agents} agents")
        return cls(sigmas)

    @property
    def num_agents(self) -> int:
        return len(self.sigmas)

    def quantiles(self, alpha: float) -> np.ndarray:
        """Per-agent alpha-quantiles sigma_i * Phi^-1(alpha), the constraint tightenings."""
        if not 0.0 < alpha < 1.0:
            raise ValueError(f"alpha must lie strictly in (0, 1), got {alpha!r}")
        return np.array(self.sigmas) * NormalDist().inv_cdf(alpha)

    def sample_eta(self, agent: int, rng: np.random.Generator) -> float:
        """One draw of ``agent``'s perturbation from ``rng``."""
        return float(self.sigmas[agent] * rng.standard_normal())


def substream(*path: int) -> np.random.Generator:
    """Deterministic PCG64 generator keyed by an integer path.

    Substreams are derived as seed = hash(path) via numpy's SeedSequence, so
    e.g. ``substream(master_seed, trial_index, agent_index)`` is reproducible
    regardless of how many other streams were consumed before it.
    """
    entropy = tuple(int(x) for x in path)
    if any(x < 0 for x in entropy):
        raise ValueError("substream path entries must be nonnegative integers")
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(entropy)))
