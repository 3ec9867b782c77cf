"""Pool assignment strategies.

Both strategies partition N persons into exactly ceil(N / n) pools of capacity
n. Naive assignment permutes everyone uniformly and fills pools sequentially.
Correlated assignment visits households in a uniformly shuffled order and
places each household whole into the first pool with enough free capacity;
when no pool can hold it whole (including because the household is larger than
n), the household is split greedily across the earliest pools with free slots.
Capping the pool count keeps efficiency comparisons like-for-like with naive
assignment.

For n >= 3 the correlated pass is a loop over households on plain Python ints,
O(n*P + H) for P pools and H households. For n <= 2 the same first-fit has a
closed form in numpy: the empty pools always form a suffix, starting at
ceil(S / n) once S members are placed, and at most one pool is half full,
which exists iff S % n != 0, so every placement follows from prefix sums of the
visit-order sizes. Either way pool_of is then built by one np.repeat over
households plus one scatter for the members of split households.
"""

from array import array
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
    """Whole-household first-fit with greedy splitting fallback.

    Households are visited in rng.permutation order. One of two producers runs
    first-fit over the visit-order sizes (the closed form at n <= 2, the int
    loop above that); numpy then turns their output into pool_of: one scatter
    to household order, one np.repeat to members, and one scatter for the
    members of split households.
    """
    if n < 1:
        raise ValueError("pool size must be at least 1")
    sizes = population.household_sizes
    order = rng.permutation(sizes.size)
    first_fit = _first_fit_pairs if n <= 2 else _first_fit_loop
    visit_pool, split_visits, split_pools = first_fit(sizes[order], n)

    hh_pool = np.empty(sizes.size, dtype=np.int64)
    hh_pool[order] = visit_pool
    pool_of = np.repeat(hh_pool, sizes)
    if split_visits.size:
        # members of the split households, household by household in visit order
        split = order[split_visits]
        split_sizes = sizes[split]
        before = np.cumsum(split_sizes) - split_sizes
        shift = np.repeat(population.household_starts()[split] - before, split_sizes)
        pool_of[shift + np.arange(shift.size)] = split_pools
    return PoolingAssignment(pool_of, n, -(-pool_of.size // n), split_households=split_visits.size)


def _first_fit_loop(visit_sizes: np.ndarray, n: int):
    """First-fit over households of visit_sizes, in that order, for any n.

    Returns the pool of each visited household (0 for split ones), the visit
    indices of split households, and the pools of the split households'
    members in visit order. The pass runs on Python ints, because indexing
    numpy scalars costs more than the algorithm itself.
    """
    N = int(visit_sizes.sum())
    P = -(-N // n)
    # a sentinel pool past the last one holds any household, so the scan for
    # a whole-household fit stops at index P without a bounds test
    free = [n] * P + [N + 1]
    # first_fit[s]: first pool that might still hold s more members. free only
    # ever decreases, so each pointer moves monotonically right and the whole
    # pass is O(n*P + H).
    first_fit = [0] * (n + 1)
    # visit_pool is a list because list.append is cheaper than array.append;
    # its int objects, about 0.2 MB for 5,000 households, are freed on return.
    # The rare split entries stay int64 arrays.
    visit_pool = []
    split_visits = array("q")
    chunk_pool = array("q")  # split households' members go to these pools, chunk_count at a time
    chunk_count = array("q")

    for s in visit_sizes.tolist():
        if s <= n:
            j = first_fit[s]
            while free[j] < s:
                j += 1
            first_fit[s] = j
            if j < P:
                visit_pool.append(j)
                free[j] -= s
                continue
        # no pool fits the household whole: spill into the earliest free slots
        split_visits.append(len(visit_pool))
        visit_pool.append(0)
        k = first_fit[1]
        while s:
            while free[k] == 0:
                k += 1
            take = free[k]
            if take > s:
                take = s
            chunk_pool.append(k)
            chunk_count.append(take)
            free[k] -= take
            s -= take
        first_fit[1] = k
    return np.array(visit_pool, dtype=np.int64), np.asarray(split_visits), np.repeat(chunk_pool, chunk_count)


def _first_fit_pairs(visit_sizes: np.ndarray, n: int):
    """_first_fit_loop's output at n <= 2, from prefix sums of visit_sizes.

    Whole placement and the split spill both take the earliest pool that
    qualifies, and an empty pool qualifies for anything that fits at all, so
    the empty pools are always a suffix: from F = ceil(S / n) once S members
    are placed. At n <= 2 at most one pool q is half full, iff S % n != 0.
    Split visits get pool F instead of the loop's 0; assign_correlated
    overwrites it.
    """
    s = visit_sizes
    after = np.cumsum(s)
    before = after - s
    fresh = -(-before // n)
    half = before % n != 0
    # a visit ending on an odd total leaves its last pool half full, unless it
    # was a pair placed in a fresh pool past the existing half-full one; F only
    # grows, so a running maximum carries q forward to the next visits
    opened = (after % n != 0) & ~(half & (s == 2))
    q = np.maximum.accumulate(np.where(opened, -(-after // n) - 1, -1))
    q = np.concatenate(([-1], q[:-1]))
    visit_pool = np.where(half & (s == 1), q, fresh)

    # a split household puts one member into q if there is one, the rest
    # into fresh pools n at a time
    split_visits = np.flatnonzero(s > n)
    split_sizes = s[split_visits]
    first = np.cumsum(split_sizes) - split_sizes
    slot = np.arange(split_sizes.sum()) - np.repeat(first + half[split_visits], split_sizes)
    split_pools = np.where(
        slot < 0,
        np.repeat(q[split_visits], split_sizes),
        np.repeat(fresh[split_visits], split_sizes) + slot // n,
    )
    return visit_pool, split_visits, split_pools
