"""Tests for the counterexample closed forms and the delta' bound estimator."""

import copy
import threading
import tracemalloc
from dataclasses import astuple

import numpy as np
import pytest

import corrpool.pcr
import corrpool.theory
from corrpool.pcr import _certain_count, binomial_tail, calibrate_tau, capture_probability
from corrpool.theory import (
    _bootstrap_means,
    _sample_conditional,
    counterexample_closed_form,
    counterexample_enumerate,
    delta_prime_quadrature,
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


def test_delta_prime_smoke(monkeypatch):
    # small-B smoke test; the acceptance suite pins the table values
    monkeypatch.setattr(corrpool.pcr, "_DRAWS", 2 * 10**5)
    rng = np.random.default_rng(0)
    beta_bar = 0.05
    (tau,) = calibrate_tau([beta_bar], DEFAULT_GMM, rng)
    threads = threading.active_count()
    est = estimate_delta_prime(
        6, beta_bar, tau, DEFAULT_GMM, B=10**5, bootstrap_reps=200, rng=rng
    )
    # the bootstrap's helper thread is gone once the estimate returns
    assert threading.active_count() == threads
    assert est.delta_prime_hat > 0
    assert est.ci_low <= est.delta_prime_hat <= est.ci_high
    # order of magnitude of the n=6, beta_bar=5% table entry
    assert 1e-6 < est.delta_prime_hat < 1e-4


@pytest.mark.parametrize(
    "n, beta_bar, tau",
    [(2, 0.025, 108), (6, 0.05, 175), (4, 0.1, 342)],
    ids=["n2-2.5%", "n6-5%", "n4-10%"],
)
def test_sampler_interval_covers_the_quadrature(n, beta_bar, tau):
    # the quadrature is an oracle for the sampler: at B = 1e5 the sampler's
    # 95% interval covers it (tau is each beta_bar's exact threshold)
    exact = delta_prime_quadrature(n, beta_bar, tau, DEFAULT_GMM)
    est = estimate_delta_prime(n, beta_bar, tau, DEFAULT_GMM, B=10**5, bootstrap_reps=200, rng=np.random.default_rng(0))
    assert est.ci_low <= exact <= est.ci_high
    assert exact == pytest.approx(est.delta_prime_hat, rel=0.1)


def test_delta_prime_rejects_bad_args():
    rng = np.random.default_rng(0)
    with pytest.raises(ValueError):
        estimate_delta_prime(1, 0.05, 174, DEFAULT_GMM, rng=rng)
    with pytest.raises(ValueError):
        estimate_delta_prime(2, 0.05, 174, DEFAULT_GMM, B=10**3, rng=rng)
    with pytest.raises(ValueError):
        estimate_delta_prime(2, 0.05, 174, DEFAULT_GMM, B=10**5, bootstrap_reps=0, rng=rng)
    with pytest.raises(ValueError):
        delta_prime_quadrature(1, 0.05, 174, DEFAULT_GMM)


def test_delta_prime_rejects_tau_past_exact_doubles(monkeypatch):
    # past 2**53 there is no certain count (see _certain_count): both entry
    # points name tau before any load is drawn
    def never_sample(*args, **kwargs):
        raise AssertionError("loads drawn for a tau past 2**53")

    monkeypatch.setattr(corrpool.theory, "sample_viral_load", never_sample)
    rng = np.random.default_rng(0)
    with pytest.raises(ValueError, match=f"tau = {10**17} is too large"):
        estimate_delta_prime(6, 0.05, 10**17, DEFAULT_GMM, rng=rng)
    with pytest.raises(ValueError, match=f"tau = {10**17} is too large"):
        delta_prime_quadrature(6, 0.05, 10**17, DEFAULT_GMM)


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


def _quota_ending_on_a_sure_hit(tau, block, offset, rng):
    # the quota whose last hit is a sure hit at `offset` in a block after the
    # first, with no hit under K_c before it in the chunk: the load that the
    # hit pass keeps last is then the last one it returns
    p_ind = float(capture_probability(1))
    v = sample_viral_load(DEFAULT_GMM, rng, size=100_000)
    hit = rng.random(v.size) < binomial_tail(np.rint(v), p_ind, tau)
    sure = v >= _certain_count(p_ind, tau)
    i = np.arange(v.size)
    last = np.flatnonzero(sure & (np.cumsum(hit & ~sure) == 0) & (i % block == offset) & (i >= block))[0]
    return int(sure[: last + 1].sum())


@pytest.mark.parametrize("keep_missed", [True, False], ids=["missed", "hit"])
@pytest.mark.parametrize(
    "tau, needed, max_draws, block, seed",
    [
        pytest.param(174, 30_000, 10**9, corrpool.theory._BLOCK, 9, id="174-30000-1000000000"),
        pytest.param(1241, 10**5, 10**5, corrpool.theory._BLOCK, 9, id="1241-100000-100000"),
        # 120,000-load chunks: whole blocks, a short last block, one short block
        pytest.param(174, 30_000, 10**9, 30_000, 9, id="174-30000-1000000000-exact_blocks"),
        pytest.param(174, 30_000, 10**9, 1007, 9, id="174-30000-1000000000-ragged_blocks"),
        pytest.param(174, 30_000, 10**9, 2**17, 9, id="174-30000-1000000000-one_short_block"),
        # the hit pass's quota completes on a sure hit first or last in its
        # block (see _quota_ending_on_a_sure_hit)
        pytest.param(174, ("sure hit at offset", 0), 10**9, 16, 0, id="174-sure_hit_first_in_block"),
        pytest.param(174, ("sure hit at offset", 15), 10**9, 16, 0, id="174-sure_hit_last_in_block"),
    ],
)
def test_sample_conditional_equals_full_evaluation(monkeypatch, keep_missed, tau, needed, max_draws, block, seed):
    monkeypatch.setattr(corrpool.theory, "_BLOCK", block)
    rng = np.random.default_rng(seed)
    if isinstance(needed, tuple):
        needed = _quota_ending_on_a_sure_hit(tau, block, needed[1], copy.deepcopy(rng))
    ref = copy.deepcopy(rng)
    got = _sample_conditional(DEFAULT_GMM, tau, needed, keep_missed, rng, max_draws)
    expected = _sample_conditional_full_evaluation(DEFAULT_GMM, tau, needed, keep_missed, ref, max_draws)
    assert got.size > 0
    assert got.tobytes() == expected.tobytes()
    assert rng.random() == ref.random()


def test_hit_pass_keeps_the_sure_hit_that_completes_it():
    # with no hit under K_c before it, the limit-th hit is the limit-th sure
    # hit, the last load the hit pass keeps; one load on several seeds has
    # that case, a first load at or above K_c
    for seed in range(5):
        rng = np.random.default_rng(seed)
        ref = copy.deepcopy(rng)
        got = _sample_conditional(DEFAULT_GMM, 174, 1, False, rng, 10**9)
        expected = _sample_conditional_full_evaluation(DEFAULT_GMM, 174, 1, False, ref, 10**9)
        assert got.tobytes() == expected.tobytes()
        assert rng.random() == ref.random()


@pytest.mark.parametrize("n", [2, 6, 8, 12, 40])
@pytest.mark.parametrize(
    "block, max_draws",
    [
        pytest.param(corrpool.theory._BLOCK, 10**9, id="default_blocks"),
        # pools straddle blocks and chunks
        pytest.param(1007, 10**9, id="ragged_blocks"),
        # one chunk, whose accepted loads end in the middle of a pool
        pytest.param(1007, 1, id="capped_mid_pool"),
    ],
)
def test_miss_pass_pool_sums_equal_the_reshaped_loads(monkeypatch, n, block, max_draws):
    # the sums of pools as the miss pass accepts them have the bits of
    # keeping every accepted load and summing the complete pools by one
    # reshape, as the estimator did; a pool left short by the cap is dropped
    monkeypatch.setattr(corrpool.theory, "_BLOCK", block)
    needed = 40_000
    rng = np.random.default_rng(14)
    ref = copy.deepcopy(rng)
    got = _sample_conditional(DEFAULT_GMM, 174, needed, True, rng, max_draws, group=n)
    loads = _sample_conditional_full_evaluation(DEFAULT_GMM, 174, needed, True, ref, max_draws)
    if max_draws == 1:
        assert loads.size < needed and loads.size % n
    b = loads.size // n
    expected = loads[: b * n].reshape(b, n).sum(axis=1)
    assert got.size == b and got.flags.owndata
    assert got.tobytes() == expected.tobytes()
    assert rng.bit_generator.state == ref.bit_generator.state


@pytest.mark.parametrize(
    "keep_missed, needed, group, bytes_per_load",
    [(True, 600_000, 1, 4.7), (False, 250_000, 1, 8.5), (True, 600_000, 6, 2.8)],
    ids=["missed", "hit", "pooled"],
)
def test_sample_conditional_peak_memory(keep_missed, needed, group, bytes_per_load):
    # a chunk of 4 * needed loads holds the result of needed // group sums,
    # the loads the pass can return with their two-byte offsets in the block
    # and block-sized scratch, each block's categories included, never a
    # chunk-sized array of categories, loads, uniforms or normals. Measured:
    # about 4.1 bytes per chunk load in the miss pass, 2.4 when it sums pools
    # of 6 and 7.4 in the hit pass, which keeps every load up to its
    # limit-th sure hit (5.1, 3.4 and 8.3 when a chunk held its one-byte
    # categories).
    chunk = 4 * needed
    rng = np.random.default_rng(5)
    tracemalloc.start()
    try:
        _sample_conditional(DEFAULT_GMM, 176, needed, keep_missed, rng, 10**9, group=group)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak / chunk < bytes_per_load


def test_delta_prime_peak_memory():
    # the whole estimate peaks in its miss pass, a chunk of 2.4e6 loads
    # here: about 2.4 bytes per chunk load. Finding X's distinct counts by
    # argsort holds the rounded sums, their order and one more B-sized array,
    # under that peak; np.unique's temporaries and a chunk's one-byte
    # categories took it to 3.4.
    n, B = 6, 10**5
    chunk = min(4 * n * B, 4_000_000)
    tracemalloc.start()
    try:
        estimate_delta_prime(n, 0.05, 176, DEFAULT_GMM, B=B, bootstrap_reps=5, rng=np.random.default_rng(0))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak / chunk < 2.8


def _serial_bootstrap_means(x, reps, rng):
    # reference: one replicate drawn and averaged at a time, on one thread
    boot = np.empty(reps)
    for r in range(reps):
        boot[r] = x.take(rng.integers(0, x.size, x.size)).mean()
    return boot


@pytest.mark.parametrize("size", [10**5, 180_000])
@pytest.mark.parametrize("reps", [1, 2, 3, 64])
def test_bootstrap_means_equal_the_serial_loop(size, reps):
    # x is mostly zeros, like X's tails, with a few values in (0, 1)
    data = np.random.default_rng(size)
    x = np.where(data.random(size) < 0.03, data.random(size), 0.0)
    rng, twin = np.random.default_rng(reps), np.random.default_rng(reps)
    assert np.array_equal(_bootstrap_means(x, reps, rng), _serial_bootstrap_means(x, reps, twin))
    assert rng.bit_generator.state == twin.bit_generator.state


class _ThirdDrawFails:
    """A generator whose third integers call raises."""

    def __init__(self):
        self.rng = np.random.default_rng(0)
        self.calls = 0

    def integers(self, *args):
        self.calls += 1
        if self.calls == 3:
            raise RuntimeError("third draw failed")
        return self.rng.integers(*args)


def test_bootstrap_draw_error_reaches_the_caller_with_no_thread_left():
    threads = threading.active_count()
    with pytest.raises(RuntimeError, match="third draw failed"):
        _bootstrap_means(np.linspace(0.0, 1.0, 1000), 5, _ThirdDrawFails())
    assert threading.active_count() == threads


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
    assert 0.03 < kept / sum(draws) < 0.08
    # block by block, in whole chunks: one hit-pass chunk of 4 * B loads,
    # then miss-pass chunks of 4 * 2B loads
    block = corrpool.theory._BLOCK

    def blocks(chunk):
        return [min(block, chunk - start) for start in range(0, chunk, block)]

    hit, miss = blocks(4 * 10**5), blocks(8 * 10**5)
    chunks = (len(draws) - len(hit)) // len(miss)
    assert chunks >= 1 and draws == hit + miss * chunks


def test_delta_prime_evaluates_each_distinct_pooled_count_once(monkeypatch):
    # X's tail goes through binomial_tail once per distinct rounded pool
    # total, with the bits of evaluating every pool
    n, tau = 2, 174
    p_pool = float(capture_probability(n))
    samples, calls = [], []

    def recording_sampler(gmm, tau, needed, keep_missed, rng, max_draws, group=1):
        sums = _sample_conditional(gmm, tau, needed, keep_missed, rng, max_draws, group)
        samples.append(sums)
        return sums

    def recording_tail(counts, p, tau):
        out = binomial_tail(counts, p, tau)
        calls.append((np.array(counts), out))
        return out

    monkeypatch.setattr(corrpool.theory, "_sample_conditional", recording_sampler)
    monkeypatch.setattr(corrpool.theory, "binomial_tail", recording_tail)
    est = estimate_delta_prime(n, 0.05, tau, DEFAULT_GMM, B=10**5, bootstrap_reps=5, rng=np.random.default_rng(4))
    counts = np.rint(samples[-1])
    assert counts.size == est.achieved_b
    distinct, tails = calls[-1]
    assert np.array_equal(distinct, np.unique(counts)) and distinct.size < counts.size
    expected = binomial_tail(counts, p_pool, tau)
    assert np.array_equal(tails[np.searchsorted(distinct, counts)], expected)
    assert est.x_bar == float(expected.mean())
