"""Household-structured population with index-case and secondary infections.

Households are drawn i.i.d. from a size distribution on {1..6} until the
target population size is reached (the last household is truncated to fit).
Each household is infected independently with probability p_h; an infected
household gets one index case chosen uniformly among its members, and each
remaining member is infected independently with the secondary attack rate q.
p_h is chosen so that the expected fraction of infected *persons* equals the
target prevalence alpha. Infected persons receive independent viral loads from
the mixture model.
"""

from dataclasses import dataclass

import numpy as np

from .errors import InfeasibleScenarioError
from .viral import GmmParams, DEFAULT_GMM, sample_categories, sample_viral_load

_SIZES = np.arange(1, 7)


@dataclass(frozen=True)
class HouseholdDist:
    """Distribution of household sizes 1..6."""

    weights: tuple[float, ...]

    def __post_init__(self):
        if len(self.weights) != 6:
            raise ValueError("household distribution needs exactly 6 weights (sizes 1..6)")
        if any(w < 0 for w in self.weights):
            raise ValueError("household weights must be non-negative")
        if abs(sum(self.weights) - 1.0) > 1e-12:
            raise ValueError("household weights must sum to 1")

    def mean_size(self) -> float:
        return float(np.dot(self.weights, _SIZES))


def _us_variant(shift: float) -> HouseholdDist:
    """Move `shift` weight off household size 1, spread evenly over sizes 2..6."""
    base = (0.284, 0.345, 0.151, 0.127, 0.058, 0.035)
    w = [base[0] - shift] + [b + shift / 5.0 for b in base[1:]]
    return HouseholdDist(tuple(round(x, 12) for x in w))


HOUSEHOLD_DISTS: dict[str, HouseholdDist] = {
    "US": HouseholdDist((0.284, 0.345, 0.151, 0.127, 0.058, 0.035)),
    "CN": HouseholdDist((0.156, 0.272, 0.247, 0.171, 0.089, 0.065)),
    "AUS": HouseholdDist((0.244, 0.334, 0.162, 0.159, 0.067, 0.034)),
    "FR": HouseholdDist((0.364, 0.327, 0.136, 0.115, 0.042, 0.016)),
    "US+1": _us_variant(0.075),
    "US-1": _us_variant(-0.075),
    "US+2": _us_variant(0.15),
    "US-2": _us_variant(-0.15),
}


@dataclass
class Population:
    """A generated population snapshot.

    household_sizes[h] is the size of household h; household_id[i] maps person
    i to their household; viral_load is in copies/mL and positive iff infected.
    """

    household_sizes: np.ndarray
    household_id: np.ndarray
    infected: np.ndarray
    viral_load: np.ndarray

    @property
    def size(self) -> int:
        return self.infected.size

    def household_starts(self) -> np.ndarray:
        return np.concatenate(([0], np.cumsum(self.household_sizes)[:-1]))


def household_infection_prob(alpha: float, q: float, dist: HouseholdDist) -> float:
    """Household infection probability yielding expected person-level prevalence alpha.

    A person in an infected household of size h is infected with probability
    1/h + (1-1/h)q (index case or secondary), so the expected infected fraction
    is p_h * (1 + q(E[H]-1)) / E[H]; solving for p_h gives the formula below.
    """
    if not 0 < alpha < 1:
        raise ValueError("alpha must be in (0, 1)")
    if not 0 <= q <= 1:
        raise ValueError("q must be in [0, 1]")
    eh = dist.mean_size()
    ph = alpha * eh / (1.0 + q * (eh - 1.0))
    if ph > 1.0:
        raise InfeasibleScenarioError(
            f"household infection probability {ph:.4f} exceeds 1 for alpha={alpha}, q={q}"
        )
    return ph


def generate_population(
    N: int,
    dist: HouseholdDist,
    alpha: float,
    q: float,
    gmm: GmmParams = DEFAULT_GMM,
    *,
    rng: np.random.Generator,
) -> Population:
    """Generate a population of exactly N persons with household-correlated infections."""
    if N < 1:
        raise ValueError("N must be at least 1")
    ph = household_infection_prob(alpha, q, dist)

    # draw household sizes in chunks until they cover N persons
    chunk = max(int(N / dist.mean_size() * 1.2) + 16, 16)
    parts = []
    total = 0
    while total < N:
        s = _SIZES[sample_categories(dist.weights, rng, chunk)]
        parts.append(s)
        total += int(s.sum())
    sizes = np.concatenate(parts)
    cum = np.cumsum(sizes)
    last = int(np.searchsorted(cum, N))
    sizes = sizes[: last + 1].astype(np.int64)
    if cum[last] > N:
        sizes[last] -= cum[last] - N  # truncate the final household to fit exactly

    H = sizes.size
    household_id = np.repeat(np.arange(H), sizes)
    starts = np.concatenate(([0], np.cumsum(sizes)[:-1]))

    hh_infected = rng.random(H) < ph
    infected = np.zeros(N, dtype=bool)
    idx_hh = np.flatnonzero(hh_infected)
    index_case = starts[idx_hh] + rng.integers(0, sizes[idx_hh])
    infected[index_case] = True
    secondary = (rng.random(N) < q) & hh_infected[household_id] & ~infected
    infected |= secondary

    viral_load = np.zeros(N)
    n_inf = int(infected.sum())
    if n_inf:
        viral_load[infected] = sample_viral_load(gmm, rng, size=n_inf)
    return Population(sizes, household_id, infected, viral_load)
