import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cceq.uncertainty import UncertaintyModel, substream
from oracles import bisect_normal_quantile


def quantile(sigma, alpha):
    """alpha-quantile of one agent's N(0, sigma^2) perturbation."""
    return float(UncertaintyModel.gaussian(sigma, 1).quantiles(alpha)[0])


def test_quantile_frozen_values():
    # frozen from the bisection oracle
    assert quantile(1.0, 0.5) == 0.0
    assert quantile(1.0, 0.9) == pytest.approx(1.2815516, abs=1e-7)
    assert quantile(2.0, 0.9) == pytest.approx(2.5631031, abs=1e-7)
    assert quantile(1.0, 0.99) == pytest.approx(2.3263479, abs=1e-7)
    # exactly zero, not merely close: the RR methods coincide at alpha = 0.5
    assert not UncertaintyModel.gaussian((0.5, 2.0, 7.0), 3).quantiles(0.5).any()


def test_quantile_matches_bisection_oracle():
    for alpha in (0.001, 0.01, 0.0242, 0.0243, 0.1, 0.3, 0.5, 0.7, 0.9, 0.975, 0.99, 0.999):
        oracle = bisect_normal_quantile(alpha)
        assert quantile(1.0, alpha) == pytest.approx(oracle, abs=1e-8)


def test_quantile_scaling_property():
    for sigma in (0.25, 0.5, 2.0, 7.5):
        for alpha in (0.1, 0.55, 0.9, 0.99):
            assert quantile(sigma, alpha) == pytest.approx(sigma * quantile(1.0, alpha), abs=1e-9)


def test_quantile_symmetry():
    for alpha in (0.01, 0.2, 0.45, 0.6, 0.9):
        assert quantile(1.3, 1.0 - alpha) == pytest.approx(-quantile(1.3, alpha), abs=1e-8)


@settings(max_examples=60, deadline=None)
@given(st.floats(0.001, 0.999), st.floats(0.001, 0.999))
def test_quantile_monotone_in_alpha(a, b):
    lo, hi = sorted((a, b))
    assert quantile(1.0, lo) <= quantile(1.0, hi) + 1e-12
    if hi - lo > 1e-9:
        assert quantile(1.0, lo) < quantile(1.0, hi)


def test_quantile_invalid_alpha():
    model = UncertaintyModel.gaussian(1.0, 2)
    for alpha in (0.0, 1.0, -0.1, 1.5, float("nan")):
        with pytest.raises(ValueError):
            model.quantiles(alpha)


def test_degenerate_dist():
    # sigma = 0 is the degenerate, identically zero perturbation
    model = UncertaintyModel.gaussian(0.0, 1)
    assert quantile(0.0, 0.99) == 0.0
    assert quantile(0.0, 0.01) == 0.0
    assert model.sample_eta(0, substream(1)) == 0.0
    for bad in (-1.0, float("nan"), float("inf")):
        with pytest.raises(ValueError):
            UncertaintyModel.gaussian(bad, 1)
    with pytest.raises(ValueError):
        UncertaintyModel(())


def test_zero_sigma_gaussian_samples_zero():
    model = UncertaintyModel.zero(3)
    for seed in (0, 1, 99):
        assert [model.sample_eta(i, substream(seed)) for i in range(3)] == [0.0] * 3


def test_sampling_is_deterministic_per_path():
    model = UncertaintyModel.gaussian(1.0, 1)
    a = model.sample_eta(0, substream(42, 3, 1))
    b = model.sample_eta(0, substream(42, 3, 1))
    c = model.sample_eta(0, substream(42, 3, 2))
    assert a == b
    assert a != c


def test_sample_eta_frozen_draw():
    # one standard normal draw per call, scaled by the agent's sigma; frozen,
    # because a different draw would change the CSVs of every sigma > 0 run
    model = UncertaintyModel.gaussian((1.0, 2.5), 2)
    assert model.sample_eta(0, substream(42, 3, 1)) == -0.10219432284683475
    assert model.sample_eta(1, substream(42, 3, 1)) == 2.5 * -0.10219432284683475


def test_sampling_law_of_large_numbers():
    model = UncertaintyModel.gaussian(1.0, 1)
    rng = substream(2024)
    draws = np.array([model.sample_eta(0, rng) for _ in range(1_000_000)])
    assert -0.005 < draws.mean() < 0.005
    assert 0.995 < draws.std() < 1.005


def test_uncertainty_model_builders():
    model = UncertaintyModel.gaussian(1.5, 3)
    assert model.num_agents == 3
    assert model.sigmas == (1.5, 1.5, 1.5)
    assert model.quantiles(0.9)[2] == pytest.approx(1.5 * 1.2815516, abs=1e-6)
    per_agent = UncertaintyModel.gaussian((1.0, 2.0), 2)
    assert per_agent.quantiles(0.9)[1] == pytest.approx(2.5631031, abs=1e-6)
    zero = UncertaintyModel.zero(4)
    assert zero.sigmas == (0.0,) * 4
    assert list(zero.quantiles(0.73)) == [0.0] * 4
    with pytest.raises(ValueError):
        UncertaintyModel.gaussian((1.0, 2.0), 3)


def test_substream_rejects_negative_path():
    with pytest.raises(ValueError):
        substream(-1, 2)
