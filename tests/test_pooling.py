"""Tests for naive and correlated pool assignment."""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from corrpool import pooling
from corrpool.pooling import PoolingAssignment, assign_correlated, assign_naive
from corrpool.population import HOUSEHOLD_DISTS, HouseholdDist, Population, generate_population

US = HOUSEHOLD_DISTS["US"]


def _population_from_sizes(sizes):
    sizes = np.asarray(sizes, dtype=np.int64)
    N = int(sizes.sum())
    return Population(
        household_sizes=sizes,
        household_id=np.repeat(np.arange(sizes.size), sizes),
        infected=np.zeros(N, dtype=bool),
        viral_load=np.zeros(N),
    )


def test_naive_basic_partition():
    rng = np.random.default_rng(0)
    a = assign_naive(4, 2, rng)
    a.validate()
    assert a.num_pools == 2


@pytest.mark.parametrize(
    "pool_of, message",
    [
        ([0, -1, 1], "pool index out of range"),
        ([0, 1, 2], "pool index out of range"),
        ([0, 0, 0], "pool exceeds capacity"),
    ],
    ids=["negative_index", "index_past_the_last_pool", "over_capacity"],
)
def test_validate_names_each_fault(pool_of, message):
    # three persons in pools of two: the pool count is derived, pools 0 and 1
    a = PoolingAssignment(np.array(pool_of), 2)
    assert a.num_pools == 2
    with pytest.raises(AssertionError, match=message):
        a.validate()


def test_naive_share_probability_small_case():
    # among 4 people in 2 pools of 2, persons 0 and 1 share a pool w.p. 1/3
    rng = np.random.default_rng(1)
    hits = 0
    trials = 10**5
    for _ in range(trials):
        pool_of = assign_naive(4, 2, rng).pool_of
        hits += pool_of[0] == pool_of[1]
    assert hits / trials == pytest.approx(1.0 / 3.0, abs=0.01)


def test_naive_full_pools_at_baseline_size():
    rng = np.random.default_rng(2)
    a = assign_naive(12000, 6, rng)
    assert a.num_pools == 2000
    assert np.all(a.pool_sizes() == 6)


def test_correlated_exact_fit_two_households():
    rng = np.random.default_rng(3)
    pop = _population_from_sizes([3, 3])
    a = assign_correlated(pop, 6, rng)
    a.validate()
    assert a.num_pools == 1
    assert a.split_households == 0


def test_correlated_splitting_trace():
    # three households of 4 into two pools of 6: exactly one household splits,
    # leaving two full pools that each hold one whole household plus two spillovers
    rng = np.random.default_rng(4)
    pop = _population_from_sizes([4, 4, 4])
    a = assign_correlated(pop, 6, rng)
    a.validate()
    assert a.num_pools == 2
    assert np.all(a.pool_sizes() == 6)
    assert a.split_households == 1
    whole = sum(
        len(set(a.pool_of[pop.household_id == h])) == 1 for h in range(3)
    )
    assert whole == 2


def test_correlated_household_larger_than_pool():
    # households that cannot fit whole are split immediately
    rng = np.random.default_rng(5)
    pop = _population_from_sizes([5, 6, 5, 6, 2])
    a = assign_correlated(pop, 4, rng)
    a.validate()


def _first_fit_reference(population, n, rng):
    """First-fit without pointers: scan every pool from the start each time."""
    sizes = population.household_sizes
    starts = population.household_starts()
    N = int(sizes.sum())
    P = -(-N // n)
    free = [n] * P
    pool_of = np.empty(N, dtype=np.int64)
    splits = 0
    for h in rng.permutation(sizes.size):
        s, start = int(sizes[h]), int(starts[h])
        fits = [j for j in range(P) if free[j] >= s]
        if fits:
            pool_of[start : start + s] = fits[0]
            free[fits[0]] -= s
            continue
        splits += 1
        for person in range(start, start + s):
            k = next(k for k in range(P) if free[k] > 0)
            pool_of[person] = k
            free[k] -= 1
    return pool_of, splits


@pytest.mark.parametrize("dist", ["US", "CN", "FR", "US+2"])
def test_correlated_matches_first_fit_reference(dist):
    for N in (1, 7, 100, 613):
        for n in (1, 2, 3, 4, 6, 12, 40):
            for seed in range(6):
                pop = generate_population(
                    N, HOUSEHOLD_DISTS[dist], 0.05, 0.3, rng=np.random.default_rng(seed)
                )
                a = assign_correlated(pop, n, np.random.default_rng(100 + seed))
                pool_of, splits = _first_fit_reference(pop, n, np.random.default_rng(100 + seed))
                assert a.pool_of.dtype == pool_of.dtype
                assert np.array_equal(a.pool_of, pool_of), (dist, N, n, seed)
                assert a.split_households == splits, (dist, N, n, seed)
                assert a.num_pools == -(-N // n)


def _assign_by_loop(population, n, seed):
    """assign_correlated with the int loop standing in for the n <= 2 closed form."""
    with mock.patch.object(pooling, "_first_fit_pairs", pooling._first_fit_loop):
        return assign_correlated(population, n, np.random.default_rng(seed))


def _assert_same_assignment(a, b):
    assert a.pool_of.dtype == b.pool_of.dtype
    assert np.array_equal(a.pool_of, b.pool_of)
    assert a.split_households == b.split_households
    assert a.num_pools == b.num_pools


@settings(max_examples=200, deadline=None)
@given(
    sizes=st.lists(st.integers(min_value=1, max_value=9), min_size=1, max_size=2000),
    n=st.sampled_from([1, 2]),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_closed_form_matches_loop_on_any_sizes(sizes, n, seed):
    # the longest prefix of at most 2000 members (odd or even)
    sizes = sizes[: np.searchsorted(np.cumsum(sizes), 2000, side="right")]
    pop = _population_from_sizes(sizes)
    _assert_same_assignment(
        assign_correlated(pop, n, np.random.default_rng(seed)), _assign_by_loop(pop, n, seed)
    )


@pytest.mark.parametrize("alpha", [0.01, 0.1])
def test_closed_form_matches_loop_at_baseline_size(alpha):
    for seed in range(20):
        pop = generate_population(12000, US, alpha, 0.3, rng=np.random.default_rng(seed))
        a = assign_correlated(pop, 2, np.random.default_rng(500 + seed))
        _assert_same_assignment(a, _assign_by_loop(pop, 2, 500 + seed))
        assert a.split_households > 0


def test_small_pools_never_enter_the_loop(monkeypatch):
    def no_loop(*args):
        raise AssertionError("the int loop ran at n <= 2")

    monkeypatch.setattr(pooling, "_first_fit_loop", no_loop)
    pop = generate_population(613, US, 0.05, 0.3, rng=np.random.default_rng(9))
    for n in (1, 2):
        assign_correlated(pop, n, np.random.default_rng(n)).validate()
    with pytest.raises(AssertionError, match="int loop"):
        assign_correlated(pop, 3, np.random.default_rng(3))


def test_split_households_bounded_by_pool_count():
    rng = np.random.default_rng(6)
    for _ in range(20):
        pop = generate_population(500, US, 0.05, 0.3, rng=rng)
        a = assign_correlated(pop, 6, rng)
        a.validate()
        assert a.split_households <= a.num_pools


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(min_value=1, max_value=12),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    big_n=st.integers(min_value=1, max_value=400),
)
def test_partition_validity_randomized(n, seed, big_n):
    rng = np.random.default_rng(seed)
    pop = generate_population(big_n, US, 0.05, 0.3, rng=rng)
    assign_naive(big_n, n, rng).validate()
    assign_correlated(pop, n, rng).validate()


def test_singleton_households_match_naive_in_law():
    # with all-singleton households the correlated rule degenerates to a
    # uniform partition; compare pool-level infected-count histograms
    singles = HouseholdDist((1.0, 0.0, 0.0, 0.0, 0.0, 0.0))
    rng = np.random.default_rng(7)
    counts = {"naive": np.zeros(7), "correlated": np.zeros(7)}
    for _ in range(300):
        pop = generate_population(600, singles, 0.05, 0.3, rng=rng)
        for name, a in (
            ("naive", assign_naive(600, 6, rng)),
            ("correlated", assign_correlated(pop, 6, rng)),
        ):
            per_pool = np.bincount(a.pool_of, weights=pop.infected.astype(float), minlength=100)
            hist = np.bincount(per_pool.astype(int), minlength=7)[:7]
            counts[name] += hist
    expected = counts["naive"] / counts["naive"].sum()
    observed = counts["correlated"] / counts["correlated"].sum()
    # chi-square style distance on the pooled histograms
    mask = expected > 1e-4
    chi2 = np.sum((observed[mask] - expected[mask]) ** 2 / expected[mask])
    assert chi2 < 0.01


@pytest.mark.parametrize("N", [1, 7, 613, 12000])
@pytest.mark.parametrize("n", [1, 2, 3, 6, 40])
def test_singleton_households_match_naive_exactly(N, n):
    # with every household of size 1, first-fit fills the pools in visit
    # order, so either producer gives naive's pools from the same generator
    # state
    singles = HouseholdDist((1.0, 0.0, 0.0, 0.0, 0.0, 0.0))
    for seed in range(3):
        pop = generate_population(N, singles, 0.05, 0.3, rng=np.random.default_rng(seed))
        rng, ref = np.random.default_rng(100 + seed), np.random.default_rng(100 + seed)
        got = assign_correlated(pop, n, rng)
        expected = assign_naive(N, n, ref)
        assert np.array_equal(got.pool_of, expected.pool_of)
        assert (got.num_pools, got.split_households) == (expected.num_pools, 0)
        assert rng.bit_generator.state == ref.bit_generator.state


def test_marginal_viral_load_identical_across_strategies():
    # a uniformly chosen pool's member loads have the same marginal under both
    # strategies (assignment permutes people, it never changes loads)
    rng = np.random.default_rng(8)
    naive_loads, corr_loads = [], []
    for _ in range(400):
        pop = generate_population(300, US, 0.2, 0.3, rng=rng)
        a0 = assign_naive(300, 6, rng)
        a1 = assign_correlated(pop, 6, rng)
        j0 = rng.integers(a0.num_pools)
        j1 = rng.integers(a1.num_pools)
        naive_loads.extend(np.log10(pop.viral_load[a0.pool_of == j0] + 1.0))
        corr_loads.extend(np.log10(pop.viral_load[a1.pool_of == j1] + 1.0))
    from scipy import stats

    d = stats.ks_2samp(naive_loads, corr_loads).statistic
    # KS tolerance 0.01 plus two-sample sampling allowance
    assert d < 0.01 + 2.0 / np.sqrt(len(naive_loads))
