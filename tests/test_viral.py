"""Tests for the viral-load mixture model."""

import copy

import numpy as np
import pytest

from corrpool.pcr import _BLOCK
from corrpool.viral import (
    DEFAULT_GMM,
    GmmParams,
    category_stream,
    count_pmf,
    sample_log10_viral_load,
    sample_viral_load,
)

# analytic moments of the default mixture (computed by hand from the weights)
MIXTURE_MEAN = 0.33 * 8.09 + 0.54 * 5.35 + 0.13 * 3.75  # 6.0462
MIXTURE_VAR = (
    0.33 * (1.06**2 + 8.09**2) + 0.54 * (0.89**2 + 5.35**2) + 0.13 * (0.39**2 + 3.75**2)
) - MIXTURE_MEAN**2


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
    # is the reference, bits and stream position, also for a shaped size
    w, mu, sd = params.as_arrays()
    for size in (0, 1, 10**5, (3, 70_000)):
        rng = np.random.default_rng(6)
        ref = copy.deepcopy(rng)
        draws = sample_log10_viral_load(params, rng, size)
        comp = ref.choice(len(w), size=size, p=w)
        expected = ref.normal(mu[comp], sd[comp])
        assert draws.shape == expected.shape
        assert draws.tobytes() == expected.tobytes()
        assert rng.random() == ref.random()


@pytest.mark.parametrize("size", [_BLOCK - 1, _BLOCK, _BLOCK + 1, 3 * _BLOCK + 7])
def test_draws_from_given_components_block_by_block_equal_one_call(size):
    # loads a block at a time, their categories from a given generator: the
    # bits and the positions of both streams of one call given that generator,
    # whose categories are rng.choice's on it, the normals rng.normal's on rng
    rng, categories = np.random.default_rng(8), np.random.default_rng(9)
    ref, ref_categories = copy.deepcopy(rng), copy.deepcopy(categories)
    blocks = [
        sample_viral_load(DEFAULT_GMM, rng, min(_BLOCK, size - start), categories)
        for start in range(0, size, _BLOCK)
    ]
    one_call = sample_viral_load(DEFAULT_GMM, copy.deepcopy(ref), size, copy.deepcopy(ref_categories))
    w, mu, sd = DEFAULT_GMM.as_arrays()
    comp = ref_categories.choice(len(w), size=size, p=w)
    expected = np.power(10.0, ref.normal(mu[comp], sd[comp]))
    assert np.concatenate(blocks).tobytes() == one_call.tobytes() == expected.tobytes()
    assert rng.bit_generator.state == ref.bit_generator.state
    assert categories.bit_generator.state == ref_categories.bit_generator.state


@pytest.mark.parametrize("buffered", [False, True], ids=["plain", "uint32_buffered"])
@pytest.mark.parametrize("size", [1, _BLOCK, _BLOCK + 1, 3 * _BLOCK + 7, 10**6])
def test_category_stream_blocks_equal_one_call(size, buffered):
    # each block's loads with its categories from the helper's generator: the
    # bits and stream state of one call, including the half of a 64-bit
    # output that a 32-bit draw left buffered. The reference is rng.choice
    # and rng.normal on a twin, which skips nothing.
    rng = np.random.default_rng(11)
    if buffered:
        rng.integers(0, 5, 3, dtype=np.uint32)
    ref = copy.deepcopy(rng)
    categories = category_stream(rng, size)
    blocks = [
        sample_viral_load(DEFAULT_GMM, rng, min(_BLOCK, size - start), categories)
        for start in range(0, size, _BLOCK)
    ]
    w, mu, sd = DEFAULT_GMM.as_arrays()
    comp = ref.choice(len(w), size=size, p=w)
    expected = np.power(10.0, ref.normal(mu[comp], sd[comp]))
    assert np.concatenate(blocks).tobytes() == expected.tobytes()
    assert rng.bit_generator.state == ref.bit_generator.state
    assert rng.integers(0, 2**32 - 1, 3, dtype=np.uint32).tobytes() == ref.integers(0, 2**32 - 1, 3, dtype=np.uint32).tobytes()


def test_category_stream_needs_pcg64_to_skip_ahead():
    # a bit generator whose outputs advance() does not count one per double
    # would draw another stream, so it is refused at any size
    for bits in (np.random.MT19937(0), np.random.Philox(0)):
        for size in (1, _BLOCK + 1):
            with pytest.raises(TypeError, match="PCG64"):
                category_stream(np.random.Generator(bits), size)


def test_count_pmf_is_the_distribution_of_rounded_loads():
    # the masses and the tail add to one, agree with CDF differences, and
    # match the frequencies of rint(V) on 10**6 draws within sampling error
    size = 20_000
    pmf, above = count_pmf(DEFAULT_GMM, size)
    assert pmf.shape == (size,) and (pmf >= 0).all()
    assert abs(pmf.sum() + above - 1.0) < 1e-12
    edges = np.log10(np.arange(size) + 0.5)
    assert np.allclose(pmf, np.diff(DEFAULT_GMM.cdf(edges), prepend=0.0), rtol=0, atol=1e-15)
    assert above == pytest.approx(DEFAULT_GMM.sf(edges[-1]), rel=1e-12)
    K = np.rint(sample_viral_load(DEFAULT_GMM, np.random.default_rng(2), 10**6))
    freq = np.bincount(K[K < 200].astype(np.intp), minlength=200) / K.size
    se = np.sqrt(pmf[:200] * (1 - pmf[:200]) / K.size)
    assert (np.abs(freq - pmf[:200]) <= 5 * se + 1e-6).all()
    assert abs((K >= size).mean() - above) < 5 * np.sqrt(above / K.size)


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
