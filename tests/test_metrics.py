"""Tests for metric computation and the analytic FPR estimate."""

import numpy as np
import pytest

from corrpool.dorfman import run_dorfman
from corrpool.metrics import estimate_fpr, summarize_replications
from corrpool.pcr import RealisticSensitivity
from corrpool.pooling import assign_correlated
from corrpool.population import HOUSEHOLD_DISTS, generate_population

US = HOUSEHOLD_DISTS["US"]


def _summarize(outcome, N):
    """One-replication summary of a protocol run's totals over N persons."""
    return summarize_replications(
        [outcome.total_S], [outcome.total_D], [outcome.pooled_tests], [outcome.total_followup], N
    )


def test_definitional_arithmetic():
    m = summarize_replications(S=[12], D=[10], pooled=[100], followup=[30], N=600)
    assert m.sensitivity == pytest.approx(10 / 12, abs=1e-4)
    assert m.efficiency == pytest.approx(600 / 130)
    assert m.eta == pytest.approx(3.0)
    assert m.gamma == pytest.approx(10 / 130)


def test_all_negative_outcome_flags():
    m = summarize_replications(S=[0], D=[0], pooled=[100], followup=[0], N=600)
    assert m.sensitivity is None
    assert m.eta is None
    assert m.efficiency == 6.0


def test_efficiency_identity_on_raw_tallies():
    # with all pools full, N/(pooled+followup) == (1/n + alpha_hat*eta_hat*(1-beta_hat))^-1
    rng = np.random.default_rng(1)
    sens = RealisticSensitivity(174)
    for _ in range(20):
        pop = generate_population(600, US, 0.05, 0.3, rng=rng)
        assignment = assign_correlated(pop, 6, rng)
        out = run_dorfman(pop, assignment, sens, rng)
        m = _summarize(out, pop.size)
        if m.eta is None:
            continue
        alpha_hat = out.total_S / pop.size
        identity = 1.0 / (1.0 / assignment.n + alpha_hat * m.eta * m.sensitivity)
        assert abs(m.efficiency - identity) < 1e-9


def test_gamma_identity_from_per_pool_tallies():
    rng = np.random.default_rng(2)
    sens = RealisticSensitivity(174)
    pop = generate_population(600, US, 0.05, 0.3, rng=rng)
    out = run_dorfman(pop, assign_correlated(pop, 6, rng), sens, rng)
    m = _summarize(out, pop.size)
    recomputed = out.detected.sum() / (out.pool_positive.size + out.followup_tests.sum())
    assert abs(m.gamma - recomputed) < 1e-12


def test_summarize_excludes_undefined_and_counts_them():
    S = [10, 0, 8]
    D = [8, 0, 0]
    pooled = [100, 100, 100]
    followup = [30, 0, 10]
    s = summarize_replications(S, D, pooled, followup, N=600)
    assert s.sensitivity == pytest.approx((8 / 10 + 0.0) / 2)
    assert s.undefined_sensitivity == 1
    assert s.undefined_eta == 2
    assert s.efficiency == pytest.approx(np.mean([600 / 130, 6.0, 600 / 110]))
    assert s.replications == 3


def test_fpr_baseline_values():
    assert estimate_fpr(0.86, 4.83, 6, 0.01) == pytest.approx(3.20e-6, rel=0.10)
    assert estimate_fpr(0.819, 4.67, 6, 0.01) == pytest.approx(3.97e-6, rel=0.10)


def test_fpr_edge_cases():
    # no positive pools: everyone stops at the pooled stage
    assert estimate_fpr(0.9, 6.0, 6, 0.01) == 0.0
    # noisy inputs that would push the negative-individual fraction below zero
    assert estimate_fpr(1.0, 5.99, 6, 0.5) == 0.0
