"""Tests for the viral-load mixture model and Ct conversion."""

import copy
import tracemalloc

import numpy as np
import pytest

from corrpool.viral import (
    _BLOCK,
    DEFAULT_GMM,
    GmmParams,
    ct_to_log10_viral_load,
    sample_log10_viral_load,
    sample_viral_load,
)

# analytic moments of the default mixture (computed by hand from the weights)
MIXTURE_MEAN = 0.33 * 8.09 + 0.54 * 5.35 + 0.13 * 3.75  # 6.0462
MIXTURE_VAR = (
    0.33 * (1.06**2 + 8.09**2) + 0.54 * (0.89**2 + 5.35**2) + 0.13 * (0.39**2 + 3.75**2)
) - MIXTURE_MEAN**2


def test_ct_conversion_matches_fitted_component_means():
    assert ct_to_log10_viral_load(20.13) == pytest.approx(8.09, abs=0.005)
    assert ct_to_log10_viral_load(29.41) == pytest.approx(5.35, abs=0.005)
    assert ct_to_log10_viral_load(34.81) == pytest.approx(3.75, abs=0.005)


def test_ct_conversion_strictly_decreasing():
    ct = np.linspace(0.0, 45.0, 200)
    values = ct_to_log10_viral_load(ct)
    assert np.all(np.diff(values) < 0)


def test_ct_conversion_rejects_non_finite():
    with pytest.raises(ValueError):
        ct_to_log10_viral_load(np.inf)


def test_gmm_validation():
    with pytest.raises(ValueError):
        GmmParams((0.5, 0.6), (1.0, 2.0), (1.0, 1.0))  # weights sum > 1
    with pytest.raises(ValueError):
        GmmParams((0.5, 0.5), (1.0, 2.0), (1.0, 0.0))  # zero sigma
    with pytest.raises(ValueError):
        GmmParams((1.0,), (1.0,), (1.0, 1.0))  # length mismatch
    nan, inf = float("nan"), float("inf")
    for weights, mus, sigmas in [
        ((nan, 1.0), (1.0, 2.0), (1.0, 1.0)),
        ((inf, 1.0), (1.0, 2.0), (1.0, 1.0)),
        ((1.0,), (nan,), (1.0,)),
        ((1.0,), (inf,), (1.0,)),
        ((1.0,), (1.0,), (nan,)),
        ((1.0,), (1.0,), (inf,)),
    ]:
        with pytest.raises(ValueError):
            GmmParams(weights, mus, sigmas)


def test_degenerate_single_component_draws():
    params = GmmParams((1.0,), (5.0,), (1e-9,))
    rng = np.random.default_rng(1)
    draws = sample_log10_viral_load(params, rng, size=1000)
    assert np.allclose(draws, 5.0, atol=1e-6)


@pytest.mark.parametrize(
    "params",
    [
        DEFAULT_GMM,
        GmmParams((1.0,), (5.0,), (0.7,)),
        GmmParams((0.3, 0.0, 0.7), (3.0, 4.0, 6.0), (1.0, 2.0, 0.5)),
    ],
    ids=["default", "one_component", "zero_weight"],
)
def test_draws_equal_normal_with_per_draw_parameters(params):
    # the sampler picks components and scales standard normals itself;
    # rng.choice then rng.normal(mu[comp], sd[comp]) on a copy of the generator
    # is the reference, bits and stream position, also at sizes around the
    # sampler's block
    w, mu, sd = params.as_arrays()
    for size in (0, 1, 10**5, _BLOCK - 1, _BLOCK, _BLOCK + 1, 3 * _BLOCK + 7):
        rng = np.random.default_rng(6)
        ref = copy.deepcopy(rng)
        draws = sample_log10_viral_load(params, rng, size)
        comp = ref.choice(len(w), size=size, p=w)
        expected = ref.normal(mu[comp], sd[comp])
        assert draws.shape == (size,)
        assert draws.tobytes() == expected.tobytes()
        assert rng.random() == ref.random()


def test_draws_hold_little_beyond_the_loads_returned():
    # the loads (8 bytes each), their one-byte components and block-sized
    # scratch: about 10.1 bytes per load at 10**6 draws
    size = 10**6
    rng = np.random.default_rng(5)
    tracemalloc.start()
    try:
        sample_viral_load(DEFAULT_GMM, rng, size)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak / size < 11.5


@pytest.fixture(scope="module")
def million_draws():
    rng = np.random.default_rng(42)
    return sample_log10_viral_load(DEFAULT_GMM, rng, size=10**6)


def test_sample_mean_matches_analytic(million_draws):
    se = np.sqrt(MIXTURE_VAR / million_draws.size)
    assert abs(million_draws.mean() - MIXTURE_MEAN) < 3 * se


def test_sample_variance_matches_analytic(million_draws):
    sample_var = million_draws.var(ddof=1)
    # SE of the sample variance via the fourth central moment
    fourth = np.mean((million_draws - million_draws.mean()) ** 4)
    se = np.sqrt((fourth - MIXTURE_VAR**2) / million_draws.size)
    assert abs(sample_var - MIXTURE_VAR) < 3 * se


def test_empirical_cdf_matches_mixture_cdf(million_draws):
    sorted_draws = np.sort(million_draws)
    quantiles = np.quantile(sorted_draws, np.linspace(0.05, 0.95, 10))
    empirical = np.searchsorted(sorted_draws, quantiles, side="right") / sorted_draws.size
    analytic = DEFAULT_GMM.cdf(quantiles)
    assert np.max(np.abs(empirical - analytic)) < 0.005


def test_fraction_in_marginal_detection_band(million_draws):
    frac = np.mean((million_draws > 3.45) & (million_draws < 3.65))
    assert frac == pytest.approx(0.028, abs=0.003)
