"""Tests for household-structured population generation."""

import numpy as np
import pytest

from corrpool.errors import InfeasibleScenarioError
from corrpool.population import (
    _SIZES,
    HOUSEHOLD_DISTS,
    HouseholdDist,
    generate_population,
    household_infection_prob,
)
from corrpool.viral import sample_categories

US = HOUSEHOLD_DISTS["US"]
SINGLETONS = HouseholdDist((1.0, 0.0, 0.0, 0.0, 0.0, 0.0))


def test_builtin_distributions_valid():
    for name, dist in HOUSEHOLD_DISTS.items():
        assert abs(sum(dist.weights) - 1.0) < 1e-9, name
        assert all(w >= 0 for w in dist.weights), name
    assert US.mean_size() == pytest.approx(2.435, abs=1e-9)


def test_us_variants_shift_weight_off_singletons():
    plus1 = HOUSEHOLD_DISTS["US+1"]
    assert plus1.weights[0] == pytest.approx(0.284 - 0.075)
    assert plus1.weights[1] == pytest.approx(0.345 + 0.015)
    minus2 = HOUSEHOLD_DISTS["US-2"]
    assert minus2.weights[0] == pytest.approx(0.284 + 0.15)


def test_household_infection_prob_solves_for_person_prevalence():
    # p_h * (1 + q(E[H]-1)) / E[H] must equal alpha
    for alpha, q, dist in [(0.01, 0.166, US), (0.05, 0.3, HOUSEHOLD_DISTS["CN"]), (0.001, 0.0, US)]:
        ph = household_infection_prob(alpha, q, dist)
        eh = dist.mean_size()
        assert ph * (1 + q * (eh - 1)) / eh == pytest.approx(alpha, rel=1e-12)


def test_household_infection_prob_special_cases():
    # no secondary transmission: each infected household has exactly one case
    assert household_infection_prob(0.01, 0.0, US) == pytest.approx(0.01 * US.mean_size())
    # all-singleton households: household and person prevalence coincide
    assert household_infection_prob(0.01, 0.5, SINGLETONS) == pytest.approx(0.01)


def test_household_infection_prob_baseline_value():
    ph = household_infection_prob(0.01, 0.166, US)
    assert ph == pytest.approx(0.01 * 2.435 / 1.23821, abs=1e-6)


def test_infeasible_prevalence_raises():
    with pytest.raises(InfeasibleScenarioError):
        household_infection_prob(0.9, 0.0, US)


def test_population_shape_and_consistency():
    rng = np.random.default_rng(5)
    pop = generate_population(1000, US, 0.05, 0.3, rng=rng)
    assert pop.size == 1000
    assert pop.household_sizes.sum() == 1000
    assert np.all(pop.household_sizes >= 1) and np.all(pop.household_sizes <= 6)
    assert np.all((pop.viral_load > 0) == pop.infected)
    # household_id covers households contiguously
    assert np.array_equal(
        np.bincount(pop.household_id, minlength=pop.household_sizes.size), pop.household_sizes
    )


def test_exactly_one_index_case_per_infected_household():
    rng = np.random.default_rng(9)
    pop = generate_population(20000, US, 0.05, 0.0, rng=rng)
    counts = np.bincount(pop.household_id, weights=pop.infected.astype(float))
    # with q=0 an infected household has exactly one case
    assert set(np.unique(counts)) <= {0.0, 1.0}


def test_mean_infected_fraction_matches_alpha():
    rng = np.random.default_rng(13)
    fractions = [
        generate_population(12000, US, 0.01, 0.166, rng=rng).infected.mean() for _ in range(200)
    ]
    assert np.mean(fractions) == pytest.approx(0.01, abs=0.0005)


def test_secondary_infections_binomial_mean():
    rng = np.random.default_rng(99)
    q = 0.3
    # pool many replications to get >1e5 infected households
    totals = {h: [0.0, 0] for h in range(2, 7)}
    for _ in range(100):
        pop = generate_population(8000, US, 0.2, q, rng=rng)
        counts = np.bincount(pop.household_id, weights=pop.infected.astype(float))
        infected_hh = counts > 0
        for h in range(2, 7):
            mask = infected_hh & (pop.household_sizes == h)
            totals[h][0] += (counts[mask] - 1).sum()
            totals[h][1] += int(mask.sum())
    for h, (secondary, households) in totals.items():
        mean = secondary / households
        se = np.sqrt((h - 1) * q * (1 - q) / households)  # exact binomial SE
        assert abs(mean - (h - 1) * q) < 3.5 * se, f"household size {h}"


def test_cross_household_infection_independence():
    rng = np.random.default_rng(21)
    # empirical covariance of infection indicators of the first member of
    # household 0 and household 1 across replications
    a, b = [], []
    for _ in range(3000):
        pop = generate_population(40, US, 0.2, 0.3, rng=rng)
        starts = pop.household_starts()
        a.append(pop.infected[starts[0]])
        b.append(pop.infected[starts[1]])
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    cov = np.mean(a * b) - a.mean() * b.mean()
    se = np.sqrt(a.var() * b.var() / a.size)
    assert abs(cov) < 3 * se + 1e-9


def test_viral_loads_only_for_infected():
    rng = np.random.default_rng(23)
    pop = generate_population(500, US, 0.1, 0.3, rng=rng)
    assert np.all(pop.viral_load[~pop.infected] == 0)
    assert np.all(pop.viral_load[pop.infected] > 0)


@pytest.mark.parametrize("weights", [d.weights for d in HOUSEHOLD_DISTS.values()] + [(0.5, 0.5, 0, 0, 0, 0)])
def test_household_size_draw_matches_rng_choice(weights):
    # generate_population's size draw: rng.choice's values and generator
    # position, also for a shaped size
    rng, ref = np.random.default_rng(11), np.random.default_rng(11)
    for size in (1, 7, 5000, 10**5 + 1, (3, 70_000)):
        got = _SIZES[sample_categories(weights, rng, size)]
        assert np.array_equal(got, ref.choice(_SIZES, size=size, p=np.asarray(weights)))
        assert rng.bit_generator.state == ref.bit_generator.state


def test_households_do_not_depend_on_alpha_or_q():
    # the runner shares one pool assignment between cells of different alpha
    pops = [
        generate_population(5000, US, alpha, q, rng=np.random.default_rng(3))
        for alpha, q in [(0.001, 0.0), (0.01, 0.166), (0.1, 0.5), (0.3, 1.0)]
    ]
    for pop in pops[1:]:
        assert np.array_equal(pop.household_sizes, pops[0].household_sizes)
        assert np.array_equal(pop.household_id, pops[0].household_id)
