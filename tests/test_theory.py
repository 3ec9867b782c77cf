"""Tests for the counterexample closed forms and the delta' bound estimator."""

import copy
import tracemalloc
from dataclasses import astuple

import numpy as np
import pytest

import corrpool.theory
from corrpool.pcr import binomial_tail, calibrate_tau, capture_probability
from corrpool.theory import (
    _sample_conditional,
    counterexample_closed_form,
    counterexample_enumerate,
    estimate_delta_prime,
)
from corrpool.viral import DEFAULT_GMM, sample_viral_load


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
    (tau,) = calibrate_tau([beta_bar], DEFAULT_GMM, rng, draws=2 * 10**5)
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


def _sample_conditional_full_evaluation(gmm, tau, needed, keep_missed, rng, max_draws):
    # the sampler as it was before the certain-hit screen: every load's tail
    # is evaluated and compared with its uniform
    p_ind = float(capture_probability(1))
    kept = []
    total_kept = 0
    drawn = 0
    chunk = max(min(needed * 4, 4_000_000), 100_000)
    while total_kept < needed and drawn < max_draws:
        v = sample_viral_load(gmm, rng, size=chunk)
        hit = rng.random(chunk) < binomial_tail(np.rint(v), p_ind, tau)
        sel = v[~hit] if keep_missed else v[hit]
        kept.append(sel)
        total_kept += sel.size
        drawn += chunk
    return np.concatenate(kept)[:needed]


@pytest.mark.parametrize("keep_missed", [True, False], ids=["missed", "hit"])
@pytest.mark.parametrize(
    "tau, needed, max_draws, block",
    [
        pytest.param(174, 30_000, 10**9, corrpool.theory._BLOCK, id="174-30000-1000000000"),
        pytest.param(1241, 10**5, 10**5, corrpool.theory._BLOCK, id="1241-100000-100000"),
        # 120,000-load chunks: whole blocks, a short last block, one short block
        pytest.param(174, 30_000, 10**9, 30_000, id="174-30000-1000000000-exact_blocks"),
        pytest.param(174, 30_000, 10**9, 1007, id="174-30000-1000000000-ragged_blocks"),
        pytest.param(174, 30_000, 10**9, 2**17, id="174-30000-1000000000-one_short_block"),
    ],
)
def test_sample_conditional_equals_full_evaluation(monkeypatch, keep_missed, tau, needed, max_draws, block):
    monkeypatch.setattr(corrpool.theory, "_BLOCK", block)
    rng = np.random.default_rng(9)
    ref = copy.deepcopy(rng)
    got = _sample_conditional(DEFAULT_GMM, tau, needed, keep_missed, rng, max_draws)
    expected = _sample_conditional_full_evaluation(DEFAULT_GMM, tau, needed, keep_missed, ref, max_draws)
    assert got.size > 0
    assert got.tobytes() == expected.tobytes()
    assert rng.random() == ref.random()


@pytest.mark.parametrize(
    "keep_missed, needed, bytes_per_load",
    [(True, 600_000, 13.0), (False, 250_000, 13.0)],
    ids=["missed", "hit"],
)
def test_sample_conditional_peak_memory(keep_missed, needed, bytes_per_load):
    # a chunk of 4 * needed loads holds the loads, their one-byte components
    # and block-sized scratch, never a chunk-sized array of uniforms or
    # normals, and the loads are freed before the next chunk is drawn; the
    # hit pass copies only the hits it needs. Measured: about 11.3 bytes per
    # chunk load in either pass.
    chunk = 4 * needed
    rng = np.random.default_rng(5)
    tracemalloc.start()
    try:
        _sample_conditional(DEFAULT_GMM, 176, needed, keep_missed, rng, 10**9)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak / chunk < bytes_per_load


@pytest.mark.parametrize("keep_missed", [True, False], ids=["missed", "hit"])
def test_sample_conditional_returns_an_owned_array_of_the_loads_needed(keep_missed):
    # no view that keeps the surplus of the last chunk alive
    got = _sample_conditional(DEFAULT_GMM, 174, 30_000, keep_missed, np.random.default_rng(3), 10**9)
    assert got.size == 30_000
    assert got.flags.owndata


def test_delta_prime_draws_every_load_through_the_theory_sampler(monkeypatch):
    # perfbench wraps corrpool.theory.sample_viral_load to count the delta'
    # draws and its acceptance ratio; the estimate must reach loads only there
    def run():
        rng = np.random.default_rng(4)
        return estimate_delta_prime(2, 0.05, 174, DEFAULT_GMM, B=10**5, bootstrap_reps=5, rng=rng)

    expected = run()
    draws = []

    def counting_sampler(*args, **kwargs):
        loads = sample_viral_load(*args, **kwargs)
        draws.append(loads.size)
        return loads

    monkeypatch.setattr(corrpool.theory, "sample_viral_load", counting_sampler)
    assert run() == expected
    kept = 10**5 + 2 * expected.achieved_b
    assert len(draws) > 1
    assert 0.03 < kept / sum(draws) < 0.08


def test_delta_prime_evaluates_each_distinct_pooled_count_once(monkeypatch):
    # X's tail goes through binomial_tail once per distinct rounded pool
    # total, with the bits of evaluating every pool
    n, tau = 2, 174
    p_pool = float(capture_probability(n))
    samples, calls = [], []

    def recording_sampler(gmm, tau, needed, keep_missed, rng, max_draws):
        loads = _sample_conditional(gmm, tau, needed, keep_missed, rng, max_draws)
        samples.append(loads)
        return loads

    def recording_tail(counts, p, tau):
        out = binomial_tail(counts, p, tau)
        calls.append((np.array(counts), out))
        return out

    monkeypatch.setattr(corrpool.theory, "_sample_conditional", recording_sampler)
    monkeypatch.setattr(corrpool.theory, "binomial_tail", recording_tail)
    est = estimate_delta_prime(n, 0.05, tau, DEFAULT_GMM, B=10**5, bootstrap_reps=5, rng=np.random.default_rng(4))
    v_miss = samples[-1]
    counts = np.rint(v_miss[: est.achieved_b * n].reshape(-1, n).sum(axis=1))
    distinct, tails = calls[-1]
    assert np.array_equal(distinct, np.unique(counts)) and distinct.size < counts.size
    expected = binomial_tail(counts, p_pool, tau)
    assert np.array_equal(tails[np.searchsorted(distinct, counts)], expected)
    assert est.x_bar == float(expected.mean())
