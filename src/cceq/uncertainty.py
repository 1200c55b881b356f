"""Per-agent additive perturbations of deviation costs.

Each agent's perturbation is a single zero-mean draw shared across all of its
deviation comparisons within a trial. Only Gaussian perturbations are
supported, sigma = 0 being the identically zero one; downstream code needs
two things from a perturbation: its alpha-quantile, used to tighten
incentive constraints, and seeded sampling for Monte Carlo trials.

Reproducibility: all randomness flows through numpy PCG64 generators keyed by
an explicit integer path, see :func:`substream`. Identical paths give
identical streams on any run of the same build, independent of execution
order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "PerturbationDist",
    "UncertaintyModel",
    "standard_normal_cdf",
    "standard_normal_quantile",
    "substream",
]

_SQRT2 = math.sqrt(2.0)
_INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)

# Acklam's rational approximation to the standard normal inverse CDF
# (central region and symmetric tails), refined below by one Newton step.
_A = (-3.969683028665376e+01, 2.209460984245205e+02, -2.759285104469687e+02,
      1.383577518672690e+02, -3.066479806614716e+01, 2.506628277459239e+00)
_B = (-5.447609879822406e+01, 1.615858368580409e+02, -1.556989798598866e+02,
      6.680131188771972e+01, -1.328068155288572e+01)
_C = (-7.784894002430293e-03, -3.223964580411365e-01, -2.400758277161838e+00,
      -2.549732539343734e+00, 4.374664141464968e+00, 2.938163982698783e+00)
_D = (7.784695709041462e-03, 3.224671290700398e-01, 2.445134137142996e+00,
      3.754408661907416e+00)
_P_LOW = 0.02425


def standard_normal_cdf(x: float) -> float:
    """CDF of the standard normal distribution."""
    return 0.5 * math.erfc(-x / _SQRT2)


def standard_normal_quantile(p: float) -> float:
    """Inverse standard normal CDF on (0, 1), absolute error well below 1e-8.

    Acklam's rational approximation followed by one Newton step on the
    erfc-based CDF; exact at p = 0.5.
    """
    if not 0.0 < p < 1.0:
        raise ValueError(f"quantile level must lie strictly in (0, 1), got {p!r}")
    if p < _P_LOW:
        q = math.sqrt(-2.0 * math.log(p))
        z = ((((((_C[0] * q + _C[1]) * q + _C[2]) * q + _C[3]) * q + _C[4]) * q + _C[5])
             / ((((_D[0] * q + _D[1]) * q + _D[2]) * q + _D[3]) * q + 1.0))
    elif p <= 1.0 - _P_LOW:
        q = p - 0.5
        r = q * q
        z = ((((((_A[0] * r + _A[1]) * r + _A[2]) * r + _A[3]) * r + _A[4]) * r + _A[5]) * q
             / (((((_B[0] * r + _B[1]) * r + _B[2]) * r + _B[3]) * r + _B[4]) * r + 1.0))
    else:
        q = math.sqrt(-2.0 * math.log(1.0 - p))
        z = -((((((_C[0] * q + _C[1]) * q + _C[2]) * q + _C[3]) * q + _C[4]) * q + _C[5])
              / ((((_D[0] * q + _D[1]) * q + _D[2]) * q + _D[3]) * q + 1.0))
    pdf = _INV_SQRT_2PI * math.exp(-0.5 * z * z)
    if pdf > 1e-280:
        z -= (standard_normal_cdf(z) - p) / pdf
    return z


@dataclass(frozen=True)
class PerturbationDist:
    """One agent's perturbation: zero-mean Gaussian; sigma = 0 is identically zero."""

    sigma: float = 0.0

    def __post_init__(self):
        sigma = float(self.sigma)
        if not (math.isfinite(sigma) and sigma >= 0.0):
            raise ValueError(f"sigma must be finite and nonnegative, got {sigma!r}")
        object.__setattr__(self, "sigma", sigma)

    @classmethod
    def gaussian(cls, sigma: float) -> "PerturbationDist":
        return cls(sigma)

    def quantile(self, alpha: float) -> float:
        """alpha-quantile, sigma * Phi^-1(alpha); 0 when sigma = 0."""
        if not 0.0 < alpha < 1.0:
            raise ValueError(f"alpha must lie strictly in (0, 1), got {alpha!r}")
        if self.sigma == 0.0:
            return 0.0
        return self.sigma * standard_normal_quantile(alpha)

    def sample(self, rng: np.random.Generator, size: int | None = None):
        """Draw one perturbation value (or ``size`` of them) from ``rng``."""
        if size is None:
            return float(self.sigma * rng.standard_normal())
        return self.sigma * rng.standard_normal(size)


@dataclass(frozen=True)
class UncertaintyModel:
    """One perturbation distribution per agent."""

    per_agent: tuple[PerturbationDist, ...]

    def __post_init__(self):
        per_agent = tuple(self.per_agent)
        if not per_agent:
            raise ValueError("need at least one agent")
        object.__setattr__(self, "per_agent", per_agent)

    @classmethod
    def zero(cls, num_agents: int) -> "UncertaintyModel":
        """No perturbation: sigma = 0 for every agent."""
        return cls.gaussian(0.0, num_agents)

    @classmethod
    def gaussian(cls, sigma, num_agents: int) -> "UncertaintyModel":
        """Gaussian perturbations; scalar sigma applies to all agents."""
        if np.isscalar(sigma):
            sigmas = [float(sigma)] * num_agents
        else:
            sigmas = [float(s) for s in sigma]
            if len(sigmas) != num_agents:
                raise ValueError(
                    f"got {len(sigmas)} sigmas for {num_agents} agents"
                )
        return cls(tuple(PerturbationDist.gaussian(s) for s in sigmas))

    @property
    def num_agents(self) -> int:
        return len(self.per_agent)

    def quantile(self, agent: int, alpha: float) -> float:
        return self.per_agent[agent].quantile(alpha)

    def quantiles(self, alpha: float) -> np.ndarray:
        """Per-agent alpha-quantiles (the constraint tightenings)."""
        return np.array([d.quantile(alpha) for d in self.per_agent])

    def sample_eta(self, agent: int, rng: np.random.Generator) -> float:
        return float(self.per_agent[agent].sample(rng))


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
