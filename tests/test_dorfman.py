"""Tests for the two-stage testing protocol."""

import numpy as np
import pytest

from corrpool.dorfman import run_dorfman
from corrpool.pcr import RealisticSensitivity, StepSensitivity
from corrpool.pooling import assign_correlated, assign_naive
from corrpool.population import HOUSEHOLD_DISTS, Population, generate_population

US = HOUSEHOLD_DISTS["US"]


def _manual_population(viral_loads):
    loads = np.asarray(viral_loads, dtype=float)
    N = loads.size
    return Population(
        household_sizes=np.ones(N, dtype=np.int64),
        household_id=np.arange(N),
        infected=loads > 0,
        viral_load=loads,
    )


def test_all_negative_population():
    rng = np.random.default_rng(0)
    pop = _manual_population([0.0] * 60)
    a = assign_naive(60, 6, rng)
    out = run_dorfman(pop, a, RealisticSensitivity(174), rng)
    assert not out.pool_positive.any()
    assert out.total_D == 0
    assert out.total_followup == 0
    assert out.pooled_tests + out.total_followup == out.pooled_tests == a.num_pools == 10


def test_step_threshold_met_exactly_after_dilution():
    # one infected member with load n*u0 in a pool of negatives: the pool mean
    # hits u0 exactly, so pool and follow-up are both deterministic positives
    rng = np.random.default_rng(1)
    u0 = 100.0
    n = 5
    pop = _manual_population([n * u0] + [0.0] * (n - 1))
    a = assign_naive(n, n, rng)
    out = run_dorfman(pop, a, StepSensitivity(u0), rng)
    assert out.pool_positive.all()
    assert out.total_D == 1
    assert out.total_followup == n


def test_detected_bounded_by_infected_and_individual_positives():
    rng = np.random.default_rng(2)
    for _ in range(30):
        pop = generate_population(600, US, 0.05, 0.3, rng=rng)
        a = assign_correlated(pop, 6, rng)
        out = run_dorfman(pop, a, RealisticSensitivity(174), rng)
        assert np.all(out.detected <= out.s_count)
        assert np.all(out.detected <= out.individual_positive_count)
        assert np.all(out.detected[~out.pool_positive] == 0)
        assert np.all(
            out.followup_tests[out.pool_positive]
            == np.bincount(a.pool_of, minlength=a.num_pools)[out.pool_positive]
        )
        assert np.all(out.followup_tests[~out.pool_positive] == 0)


def test_mismatched_sizes_rejected():
    rng = np.random.default_rng(3)
    pop = _manual_population([0.0] * 10)
    a = assign_naive(12, 6, rng)
    with pytest.raises(ValueError):
        run_dorfman(pop, a, StepSensitivity(1.0), rng)


def test_aggregates_permutation_invariant_in_pool_order():
    rng = np.random.default_rng(4)
    pop = generate_population(600, US, 0.05, 0.3, rng=rng)
    a = assign_naive(600, 6, rng)
    out = run_dorfman(pop, a, RealisticSensitivity(174), rng)
    perm = np.random.default_rng(5).permutation(out.s_count.size)
    assert out.s_count[perm].sum() == out.total_S
    assert out.detected[perm].sum() == out.total_D
    assert out.followup_tests[perm].sum() == out.total_followup


def test_pad_last_pool_changes_only_ragged_dilution():
    # a single pool of 3 with nominal size 6: padding dilutes the sample 6-fold
    # instead of 3-fold (the realistic subsample shrinks to 100/6 uL; the step
    # model sees a mean load of 7000/6 < u0 <= 7000/3), so detection drops
    load = 7000.0
    rng = np.random.default_rng(6)
    pop = _manual_population([load, 0.0, 0.0])
    a = assign_naive(3, 6, rng)
    trials = 4000
    for sens in (RealisticSensitivity(174), StepSensitivity(2000.0)):
        p_actual = sens.success_probability(load, 3)
        p_padded = sens.success_probability(load, 6)
        assert p_padded < p_actual
        hits_pad = hits_plain = 0
        for _ in range(trials):
            hits_plain += run_dorfman(pop, a, sens, rng).pool_positive[0]
            hits_pad += run_dorfman(pop, a, sens, rng, pad_last_pool=True).pool_positive[0]
        assert hits_plain / trials == pytest.approx(p_actual, abs=0.03)
        assert hits_pad / trials == pytest.approx(p_padded, abs=0.03)


def _dense_dorfman(population, assignment, sensitivity, rng, pad_last_pool=False):
    """Tallies by float-weighted bincounts over every member, for comparison."""
    pool_of, P = assignment.pool_of, assignment.num_pools
    pool_size = np.bincount(pool_of, minlength=P)
    pool_load = np.bincount(pool_of, weights=population.viral_load, minlength=P)
    s_count = np.bincount(pool_of, weights=population.infected.astype(float), minlength=P)
    dilution = np.full(P, assignment.n) if pad_last_pool else pool_size
    pool_positive = sensitivity.draw(pool_load, dilution, rng)
    w = np.zeros(pool_of.size, dtype=bool)
    inf_idx = np.flatnonzero(population.infected)
    if inf_idx.size:
        p_ind = sensitivity.success_probability(population.viral_load[inf_idx], 1)
        w[inf_idx] = rng.random(inf_idx.size) < p_ind
    individual = np.bincount(pool_of, weights=w.astype(float), minlength=P).astype(np.int64)
    return (
        s_count.astype(np.int64),
        pool_positive,
        individual,
        np.where(pool_positive, individual, 0),
        np.where(pool_positive, pool_size, 0),
    )


@pytest.mark.parametrize("alpha", [0.0, 0.01, 0.1])
def test_tallies_match_dense_reference(alpha):
    sens = RealisticSensitivity(174)
    for seed in range(6):
        pop = generate_population(613, US, alpha or 0.01, 0.3, rng=np.random.default_rng(seed))
        if alpha == 0.0:
            pop = _manual_population(np.zeros(pop.size))
        for a in (
            assign_naive(pop.size, 6, np.random.default_rng(seed)),
            assign_correlated(pop, 2, np.random.default_rng(seed)),
            assign_correlated(pop, 40, np.random.default_rng(seed)),
        ):
            for pad in (False, True):
                rng, ref_rng = np.random.default_rng(seed + 1), np.random.default_rng(seed + 1)
                out = run_dorfman(pop, a, sens, rng, pad_last_pool=pad)
                ref = _dense_dorfman(pop, a, sens, ref_rng, pad_last_pool=pad)
                fields = (
                    out.s_count,
                    out.pool_positive,
                    out.individual_positive_count,
                    out.detected,
                    out.followup_tests,
                )
                for got, want in zip(fields, ref):
                    assert got.dtype == want.dtype
                    assert np.array_equal(got, want)
                assert rng.bit_generator.state == ref_rng.bit_generator.state
