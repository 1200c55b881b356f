"""Per-agent additive perturbations of deviation costs.

Each agent's perturbation is a single zero-mean Gaussian draw, N(0, sigma_i^2),
shared across all of its deviation comparisons within a trial; sigma_i = 0 is
the identically zero perturbation. The equilibrium code needs only each
agent's alpha-quantile q_i = sigma_i * Phi^-1(alpha), which tightens its
incentive constraints (:func:`tightenings`); the harness draws each agent's
perturbation as sigma_i times one standard normal from the agent's
:func:`substream`. Phi^-1 is the standard library's
``statistics.NormalDist.inv_cdf`` (Wichura's AS241).

Reproducibility: all randomness flows through numpy PCG64 generators keyed by
an explicit integer path, see :func:`substream`. Identical paths give
identical streams on any run of the same build, independent of execution
order.
"""

from __future__ import annotations

import math
from statistics import NormalDist

import numpy as np

__all__ = ["substream", "tightenings"]


def tightenings(sigma, alpha: float, num_agents: int) -> np.ndarray:
    """Per-agent alpha-quantiles sigma_i * Phi^-1(alpha), the constraint tightenings.

    ``sigma`` is one perturbation scale per agent, or a scalar that applies
    to all ``num_agents``; each must be finite and nonnegative, and alpha
    must lie strictly in (0, 1).
    """
    if np.isscalar(sigma):
        sigmas = (float(sigma),) * num_agents
    else:
        sigmas = tuple(float(s) for s in sigma)
        if len(sigmas) != num_agents:
            raise ValueError(f"got {len(sigmas)} sigmas for {num_agents} agents")
    if not sigmas:
        raise ValueError("need at least one agent")
    if not all(math.isfinite(s) and s >= 0.0 for s in sigmas):
        raise ValueError(f"sigma must be finite and nonnegative, got {sigmas!r}")
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must lie strictly in (0, 1), got {alpha!r}")
    return np.array(sigmas) * NormalDist().inv_cdf(alpha)


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
