"""Evaluation metrics for protocol outcomes.

Per replication, metrics are ratios of tallies pooled across all pools of that
replication (NOT means of per-pool ratios): sensitivity = D/S, efficiency =
N/(pooled + followup tests), gamma = D per test, eta = follow-up tests per
identified positive. Across replications the per-replication ratios are
averaged; replications where a ratio is undefined (no positives) are excluded
from that average and counted.
"""

from dataclasses import dataclass

import numpy as np

# Probability that an individual test on a negative person misfires.
_PER_TEST_FPR = 1e-4


@dataclass
class ReplicationSummary:
    """Cross-replication averages of per-replication metrics."""

    sensitivity: float | None
    sensitivity_se: float | None
    efficiency: float
    efficiency_se: float
    gamma: float
    eta: float | None
    replications: int
    undefined_sensitivity: int
    undefined_eta: int

    @property
    def objective(self) -> float | None:
        if self.sensitivity is None:
            return None
        return self.sensitivity * self.efficiency


def _mean_se(values: np.ndarray):
    if values.size == 0:
        return None, None
    mean = float(values.mean())
    se = float(values.std(ddof=1) / np.sqrt(values.size)) if values.size > 1 else 0.0
    return mean, se


def summarize_replications(S, D, pooled, followup, N) -> ReplicationSummary:
    """Average per-replication metrics over arrays of per-replication tallies."""
    S = np.asarray(S, dtype=float)
    D = np.asarray(D, dtype=float)
    pooled = np.asarray(pooled, dtype=float)
    followup = np.asarray(followup, dtype=float)
    tests = pooled + followup
    reps = S.size

    defined_s = S > 0
    sens, sens_se = _mean_se(D[defined_s] / S[defined_s])
    eff, eff_se = _mean_se(N / tests)
    gamma = float((D / tests).mean())
    defined_eta = D > 0
    eta, _ = _mean_se(followup[defined_eta] / D[defined_eta])
    return ReplicationSummary(
        sensitivity=sens,
        sensitivity_se=sens_se,
        efficiency=eff,
        efficiency_se=eff_se,
        gamma=gamma,
        eta=eta,
        replications=reps,
        undefined_sensitivity=int(reps - defined_s.sum()),
        undefined_eta=int(reps - defined_eta.sum()),
    )


def estimate_fpr(sensitivity: float, efficiency: float, n: int, alpha: float) -> float:
    """Estimated fraction of negative persons falsely declared positive.

    A negative person is falsely declared positive only if they receive an
    individual follow-up test and it misfires, which it does with probability
    _PER_TEST_FPR. The fraction of persons tested individually is
    1/efficiency - 1/n; subtracting the (true-positive) fraction
    alpha * sensitivity leaves the negatives tested individually, floored at 0
    against sampling noise.
    """
    frac_indiv = 1.0 / efficiency - 1.0 / n
    frac_neg_indiv = max(frac_indiv - alpha * sensitivity, 0.0)
    return _PER_TEST_FPR * frac_neg_indiv / (1.0 - alpha)
