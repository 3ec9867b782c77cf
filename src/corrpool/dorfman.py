"""Two-stage (Dorfman) pooled testing protocol.

Each pool gets one pooled test; every member of a positive pool gets an
individual follow-up test. Follow-up tests reuse each person's viral load (no
resampling), and pooled and individual outcomes are conditionally independent
given the loads. A positive is identified iff their pool tests positive and
their individual test is positive.
"""

from dataclasses import dataclass

import numpy as np

from .pooling import PoolingAssignment
from .population import Population


@dataclass
class ProtocolOutcome:
    """Per-pool tallies of one protocol run.

    s_count[j]: infected members of pool j; pool_positive[j]: pooled-test
    outcome; individual_positive_count[j]: members whose individual test would
    be positive; detected[j]: positives identified (0 unless the pool is
    positive); followup_tests[j]: individual tests consumed.
    """

    s_count: np.ndarray
    pool_positive: np.ndarray
    individual_positive_count: np.ndarray
    detected: np.ndarray
    followup_tests: np.ndarray

    @property
    def pooled_tests(self) -> int:
        return self.s_count.size

    @property
    def total_S(self) -> int:
        return int(self.s_count.sum())

    @property
    def total_D(self) -> int:
        return int(self.detected.sum())

    @property
    def total_followup(self) -> int:
        return int(self.followup_tests.sum())


def run_dorfman(
    population: Population,
    assignment: PoolingAssignment,
    sensitivity,
    rng: np.random.Generator,
    pad_last_pool: bool = False,
) -> ProtocolOutcome:
    """Run the two-stage protocol over an assignment and tally outcomes.

    `sensitivity` is any model from corrpool.pcr. A pooled test passes the
    pool's total load with its actual size as the dilution, or its nominal size
    n when pad_last_pool; an individual test passes one load with size 1.
    """
    V = population.viral_load
    if V.size != assignment.pool_of.size:
        raise ValueError("population and assignment sizes do not match")
    pool_of = assignment.pool_of
    P = assignment.num_pools
    n = assignment.n

    # tallies over infected members only: everyone else has load exactly 0.0,
    # and bincount adds in index order, so the sums keep their bits
    inf_idx = np.flatnonzero(population.infected)
    inf_pool = pool_of[inf_idx]
    inf_load = V[inf_idx]
    pool_size = np.bincount(pool_of, minlength=P)
    pool_load = np.bincount(inf_pool, weights=inf_load, minlength=P)
    s_count = np.bincount(inf_pool, minlength=P)

    dilution = np.full(P, n) if pad_last_pool else pool_size
    pool_positive = sensitivity.draw(pool_load, dilution, rng)

    # individual outcomes: only infected persons can test positive (p(0) = 0)
    individual_positive_count = np.zeros(P, dtype=np.int64)
    if inf_idx.size:
        p_ind = sensitivity.success_probability(inf_load, 1)
        w = rng.random(inf_idx.size) < p_ind
        individual_positive_count = np.bincount(inf_pool[w], minlength=P)
    detected = np.where(pool_positive, individual_positive_count, 0)
    followup = np.where(pool_positive, pool_size, 0)
    return ProtocolOutcome(
        s_count=s_count,
        pool_positive=pool_positive,
        individual_positive_count=individual_positive_count,
        detected=detected,
        followup_tests=followup,
    )
