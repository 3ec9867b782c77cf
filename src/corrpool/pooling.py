"""Pool assignment strategies.

Both strategies partition N persons into exactly ceil(N / n) pools of capacity
n. Naive assignment permutes everyone uniformly and fills pools sequentially.
Correlated assignment visits households in a uniformly shuffled order and
places each household whole into the first pool with enough free capacity;
when no pool can hold it whole (including because the household is larger than
n), the household is split greedily across the earliest pools with free slots.
Capping the pool count keeps efficiency comparisons like-for-like with naive
assignment.
"""

from dataclasses import dataclass

import numpy as np

from .population import Population


@dataclass
class PoolingAssignment:
    """Partition of person indices into pools.

    pool_of[i] is the pool index of person i; all pools have size <= n and the
    number of pools is ceil(N / n).
    """

    pool_of: np.ndarray
    n: int
    num_pools: int
    split_households: int = 0

    def pool_sizes(self) -> np.ndarray:
        return np.bincount(self.pool_of, minlength=self.num_pools)

    def validate(self):
        sizes = self.pool_sizes()
        if self.pool_of.min() < 0 or self.pool_of.max() >= self.num_pools:
            raise AssertionError("pool index out of range")
        if sizes.sum() != self.pool_of.size:
            raise AssertionError("assignment does not cover the population")
        if sizes.max() > self.n:
            raise AssertionError("pool exceeds capacity")
        if self.num_pools != -(-self.pool_of.size // self.n):
            raise AssertionError("wrong number of pools")


def assign_naive(N: int, n: int, rng: np.random.Generator) -> PoolingAssignment:
    """Uniform random permutation chunked into consecutive pools of size n."""
    if n < 1:
        raise ValueError("pool size must be at least 1")
    perm = rng.permutation(N)
    pool_of = np.empty(N, dtype=np.int64)
    pool_of[perm] = np.arange(N) // n
    return PoolingAssignment(pool_of, n, -(-N // n))


def assign_correlated(population: Population, n: int, rng: np.random.Generator) -> PoolingAssignment:
    """Whole-household first-fit with greedy splitting fallback."""
    if n < 1:
        raise ValueError("pool size must be at least 1")
    sizes = population.household_sizes
    starts = population.household_starts()
    N = int(sizes.sum())
    P = -(-N // n)
    order = rng.permutation(sizes.size)

    free = np.full(P, n, dtype=np.int64)
    # first_fit[s]: first pool that might still hold s more members. free only
    # ever decreases, so each pointer moves monotonically right and the whole
    # pass is O(n*P + H).
    first_fit = [0] * (n + 1)
    pool_of = np.empty(N, dtype=np.int64)
    splits = 0

    for h in order:
        s = int(sizes[h])
        members = np.arange(starts[h], starts[h] + s)
        j = P
        if s <= n:
            j = first_fit[s]
            while j < P and free[j] < s:
                j += 1
            first_fit[s] = j
        if j < P:
            pool_of[members] = j
            free[j] -= s
        else:
            # no pool fits the household whole: spill into the earliest free slots
            splits += 1
            k = first_fit[1]
            placed = 0
            while placed < s:
                while free[k] == 0:
                    k += 1
                take = min(int(free[k]), s - placed)
                pool_of[members[placed : placed + take]] = k
                free[k] -= take
                placed += take
            first_fit[1] = k
    return PoolingAssignment(pool_of, n, P, split_households=splits)
