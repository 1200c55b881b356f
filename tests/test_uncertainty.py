import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cceq.harness import ExperimentConfig, lower_trial
from cceq.uncertainty import substream, tightenings
from oracles import bisect_normal_quantile


def quantile(sigma, alpha):
    """alpha-quantile of one agent's N(0, sigma^2) perturbation."""
    return float(tightenings(sigma, alpha, 1)[0])


def etas(sigma, trial=3, num_flights=6, master_seed=42):
    """The per-agent perturbation draws of one lowered 3-airline trial."""
    config = ExperimentConfig(num_trials=trial + 1, flight_counts=(num_flights,),
                              num_airlines=3, sigma=sigma, master_seed=master_seed,
                              out_path="unused.csv")
    return lower_trial(config, trial, num_flights).etas


def test_quantile_frozen_values():
    # frozen from the bisection oracle
    assert quantile(1.0, 0.5) == 0.0
    assert quantile(1.0, 0.9) == pytest.approx(1.2815516, abs=1e-7)
    assert quantile(2.0, 0.9) == pytest.approx(2.5631031, abs=1e-7)
    assert quantile(1.0, 0.99) == pytest.approx(2.3263479, abs=1e-7)
    # exactly zero, not merely close: the RR methods coincide at alpha = 0.5
    assert not tightenings((0.5, 2.0, 7.0), 0.5, 3).any()


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
    for alpha in (0.0, 1.0, -0.1, 1.5, float("nan")):
        with pytest.raises(ValueError):
            tightenings(1.0, alpha, 2)


def test_degenerate_dist():
    # sigma = 0 is the degenerate, identically zero perturbation
    assert quantile(0.0, 0.99) == 0.0
    assert quantile(0.0, 0.01) == 0.0
    for master_seed in (0, 1, 99):
        assert etas(0.0, master_seed=master_seed) == (0.0, 0.0, 0.0)
    for bad in (-1.0, float("nan"), float("inf")):
        with pytest.raises(ValueError):
            tightenings(bad, 0.9, 1)
        with pytest.raises(ValueError):
            tightenings((1.0, bad), 0.9, 2)
    with pytest.raises(ValueError):
        tightenings((), 0.9, 0)
    with pytest.raises(ValueError):
        tightenings(1.0, 0.9, 0)


def test_sampling_is_deterministic_per_path():
    # the draws depend only on (master seed, trial, flight count, agent)
    a = etas(1.0, trial=3)
    assert a == etas(1.0, trial=3)
    assert a != etas(1.0, trial=4)
    assert a != etas(1.0, num_flights=7)
    assert len(set(a)) == 3


def test_sample_eta_frozen_draw():
    # one standard normal draw per agent and trial, scaled by the agent's
    # sigma; frozen, because a different draw would change the CSVs of every
    # sigma > 0 run
    assert etas((1.0, 2.5, 0.0)) == (-0.8054399159996694, 2.5 * 1.9550898977365718, -0.0)
    assert etas(1.0) == (-0.8054399159996694, 1.9550898977365718, -0.5650470731008)


def test_sampling_law_of_large_numbers():
    draws = substream(2024).standard_normal(1_000_000)
    assert -0.005 < draws.mean() < 0.005
    assert 0.995 < draws.std() < 1.005


def test_tightenings_per_agent():
    q = tightenings(1.5, 0.9, 3)
    assert q.shape == (3,)
    assert q[2] == pytest.approx(1.5 * 1.2815516, abs=1e-6)
    assert tightenings((1.0, 2.0), 0.9, 2)[1] == pytest.approx(2.5631031, abs=1e-6)
    assert list(tightenings(0.0, 0.73, 4)) == [0.0] * 4
    with pytest.raises(ValueError):
        tightenings((1.0, 2.0), 0.9, 3)


def test_substream_rejects_negative_path():
    with pytest.raises(ValueError):
        substream(-1, 2)
