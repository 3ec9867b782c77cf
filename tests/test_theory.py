"""Tests for the counterexample closed forms and the delta' bound estimator."""

from dataclasses import astuple

import numpy as np
import pytest

from corrpool.pcr import calibrate_tau
from corrpool.theory import (
    counterexample_closed_form,
    counterexample_enumerate,
    estimate_delta_prime,
)
from corrpool.viral import DEFAULT_GMM


def test_closed_form_reference_point():
    res = counterexample_closed_form(0.2, 0.9, 0.01)
    assert res.beta1 == pytest.approx(0.495, abs=1e-12)
    assert res.beta0 == pytest.approx(0.8031, abs=1e-4)


def test_enumeration_matches_closed_form_at_reference_point():
    cf = counterexample_closed_form(0.2, 0.9, 0.01)
    en = counterexample_enumerate(0.2, 0.9, 0.01)
    assert np.allclose(astuple(cf), astuple(en), atol=1e-12, rtol=0)


def test_enumeration_matches_closed_form_on_small_grid():
    thetas = np.linspace(0.1, 0.9, 5)
    for alpha in (0.01, 0.1):
        for t1 in thetas:
            for t2 in thetas:
                if not t1 < t2:
                    continue
                cf = counterexample_closed_form(t1, t2, alpha)
                en = counterexample_enumerate(t1, t2, alpha)
                assert np.allclose(astuple(cf), astuple(en), atol=1e-12, rtol=0)


def test_perfect_test_limit():
    res = counterexample_closed_form(1 - 1e-9, 1 - 1e-10, 0.01)
    assert res.beta1 == pytest.approx(0.0, abs=1e-8)


def test_counterexample_regions_exist():
    # a known point inside region A (correlated pooling less efficient)
    res = counterexample_enumerate(0.05, 0.95, 0.01)
    assert res.eff1 < res.eff0
    # region B (correlated pooling needs more follow-up tests per positive)
    grid = np.linspace(0.05, 0.95, 15)
    results = [
        counterexample_enumerate(t1, t2, 0.01) for t1 in grid for t2 in grid if t1 < t2
    ]
    assert any(r.eta1 > r.eta0 for r in results)


def test_counterexample_argument_validation():
    with pytest.raises(ValueError):
        counterexample_closed_form(0.9, 0.2, 0.01)
    with pytest.raises(ValueError):
        counterexample_closed_form(0.2, 0.9, 0.7)
    with pytest.raises(ValueError):
        counterexample_enumerate(0.0, 0.9, 0.01)


def test_delta_prime_smoke():
    # small-B smoke test; the acceptance suite pins the table values
    rng = np.random.default_rng(0)
    beta_bar = 0.05
    tau = calibrate_tau(beta_bar, DEFAULT_GMM, rng, draws=2 * 10**5)
    est = estimate_delta_prime(
        6, beta_bar, tau, DEFAULT_GMM, B=10**5, bootstrap_reps=200, rng=rng
    )
    assert est.delta_prime_hat > 0
    assert est.ci_low <= est.delta_prime_hat <= est.ci_high
    # order of magnitude of the n=6, beta_bar=5% table entry
    assert 1e-6 < est.delta_prime_hat < 1e-4


def test_delta_prime_rejects_bad_args():
    rng = np.random.default_rng(0)
    with pytest.raises(ValueError):
        estimate_delta_prime(1, 0.05, 174, DEFAULT_GMM, rng=rng)
    with pytest.raises(ValueError):
        estimate_delta_prime(2, 0.05, 174, DEFAULT_GMM, B=10**3, rng=rng)
    with pytest.raises(ValueError):
        estimate_delta_prime(2, 0.05, 174, DEFAULT_GMM, B=10**5, bootstrap_reps=0, rng=rng)
