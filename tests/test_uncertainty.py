import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cceq.uncertainty import (
    PerturbationDist,
    UncertaintyModel,
    standard_normal_quantile,
    substream,
)
from oracles import bisect_normal_quantile


def test_quantile_frozen_values():
    # frozen from the bisection oracle
    assert PerturbationDist.gaussian(1.0).quantile(0.5) == 0.0
    assert PerturbationDist.gaussian(1.0).quantile(0.9) == pytest.approx(1.2815516, abs=1e-7)
    assert PerturbationDist.gaussian(2.0).quantile(0.9) == pytest.approx(2.5631031, abs=1e-7)
    assert PerturbationDist.gaussian(1.0).quantile(0.99) == pytest.approx(2.3263479, abs=1e-7)


def test_quantile_matches_bisection_oracle():
    for alpha in (0.001, 0.01, 0.0242, 0.0243, 0.1, 0.3, 0.5, 0.7, 0.9, 0.975, 0.99, 0.999):
        oracle = bisect_normal_quantile(alpha)
        assert standard_normal_quantile(alpha) == pytest.approx(oracle, abs=1e-8)


def test_quantile_scaling_property():
    base = PerturbationDist.gaussian(1.0)
    for sigma in (0.25, 0.5, 2.0, 7.5):
        scaled = PerturbationDist.gaussian(sigma)
        for alpha in (0.1, 0.55, 0.9, 0.99):
            assert scaled.quantile(alpha) == pytest.approx(sigma * base.quantile(alpha), abs=1e-9)


def test_quantile_symmetry():
    dist = PerturbationDist.gaussian(1.3)
    for alpha in (0.01, 0.2, 0.45, 0.6, 0.9):
        assert dist.quantile(1.0 - alpha) == pytest.approx(-dist.quantile(alpha), abs=1e-8)


@settings(max_examples=60, deadline=None)
@given(st.floats(0.001, 0.999), st.floats(0.001, 0.999))
def test_quantile_monotone_in_alpha(a, b):
    lo, hi = sorted((a, b))
    dist = PerturbationDist.gaussian(1.0)
    assert dist.quantile(lo) <= dist.quantile(hi) + 1e-12
    if hi - lo > 1e-9:
        assert dist.quantile(lo) < dist.quantile(hi)


def test_quantile_invalid_alpha():
    dist = PerturbationDist.gaussian(1.0)
    for alpha in (0.0, 1.0, -0.1, 1.5):
        with pytest.raises(ValueError):
            dist.quantile(alpha)


def test_degenerate_dist():
    # sigma = 0 is the degenerate, identically zero perturbation
    dist = PerturbationDist.gaussian(0.0)
    assert dist.quantile(0.99) == 0.0
    assert dist.quantile(0.01) == 0.0
    assert dist.sample(substream(1)) == 0.0
    assert not dist.sample(substream(1), size=5).any()
    with pytest.raises(ValueError):
        PerturbationDist.gaussian(-1.0)


def test_zero_sigma_gaussian_samples_zero():
    dist = PerturbationDist.gaussian(0.0)
    for seed in (0, 1, 99):
        assert dist.sample(substream(seed)) == 0.0


def test_sampling_is_deterministic_per_path():
    dist = PerturbationDist.gaussian(1.0)
    a = dist.sample(substream(42, 3, 1))
    b = dist.sample(substream(42, 3, 1))
    c = dist.sample(substream(42, 3, 2))
    assert a == b
    assert a != c


def test_sampling_law_of_large_numbers():
    dist = PerturbationDist.gaussian(1.0)
    draws = dist.sample(substream(2024), size=1_000_000)
    assert -0.005 < draws.mean() < 0.005
    assert 0.995 < draws.std() < 1.005


def test_uncertainty_model_builders():
    model = UncertaintyModel.gaussian(1.5, 3)
    assert model.num_agents == 3
    assert model.quantile(2, 0.9) == pytest.approx(1.5 * 1.2815516, abs=1e-6)
    per_agent = UncertaintyModel.gaussian((1.0, 2.0), 2)
    assert per_agent.quantiles(0.9)[1] == pytest.approx(2.5631031, abs=1e-6)
    zero = UncertaintyModel.zero(4)
    assert zero.per_agent == (PerturbationDist.gaussian(0.0),) * 4
    assert list(zero.quantiles(0.73)) == [0.0] * 4
    with pytest.raises(ValueError):
        UncertaintyModel.gaussian((1.0, 2.0), 3)


def test_substream_rejects_negative_path():
    with pytest.raises(ValueError):
        substream(-1, 2)
