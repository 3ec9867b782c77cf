"""Tests for the PCR sensitivity models and threshold calibration."""

import copy
import math
import tracemalloc

import numpy as np
import pytest
from scipy import stats
from scipy.special import betainc

import corrpool.pcr
from corrpool.pcr import (
    _certain_count,
    binomial_tail,
    capture_probability,
    draw_positive,
    PiecewiseSensitivity,
    RealisticSensitivity,
    StepSensitivity,
    calibrate_tau,
)
from corrpool.runner import ScenarioConfig
from corrpool.viral import DEFAULT_GMM, GmmParams, sample_viral_load


def test_zero_loads_always_negative():
    rng = np.random.default_rng(0)
    for n in (1, 6, 40):
        assert not draw_positive(np.zeros(50), n, 174, rng).any()


def test_saturated_load_positive():
    assert RealisticSensitivity(174).success_probability(1e9, 1) > 1 - 1e-12
    rng = np.random.default_rng(0)
    assert draw_positive(1e9, 1, 174, rng).all()


def test_individual_fnr_at_calibrated_tau():
    rng = np.random.default_rng(7)
    loads = sample_viral_load(DEFAULT_GMM, rng, size=10**6)
    positive_fraction = RealisticSensitivity(174).success_probability(loads, 1).mean()
    assert positive_fraction == pytest.approx(0.95, abs=0.005)


def test_tail_near_threshold_matches_poisson():
    # mean count exactly tau: K*p = 3480 * 0.05 = 174
    assert capture_probability(1) == 0.05
    prob = RealisticSensitivity(174).success_probability(3480.0, 1)
    poisson_tail = 1.0 - stats.poisson.cdf(173, 174)
    assert poisson_tail == pytest.approx(0.51, abs=0.01)
    assert prob == pytest.approx(poisson_tail, abs=0.02)


def test_piecewise_evaluation():
    fn = PiecewiseSensitivity(0.2, 0.9)
    assert fn.success_probability(0.0) == 0.0
    assert fn.success_probability(1.0) == 0.2
    assert fn.success_probability(2.5) == 0.9
    assert fn.success_probability(3.0) == 1.0
    with pytest.raises(ValueError):
        fn.success_probability(-1.0)
    with pytest.raises(ValueError):
        PiecewiseSensitivity(0.9, 0.2)


def test_step_evaluation():
    fn = StepSensitivity(100.0)
    assert fn.success_probability(99.9) == 0.0
    assert fn.success_probability(100.0) == 1.0
    assert fn.success_probability(0.0) == 0.0


def test_monotonicity_in_load():
    realistic = RealisticSensitivity(174)
    grid = np.logspace(0, 10, 200)
    for fn in (
        lambda v: realistic.success_probability(v, 1),
        lambda v: realistic.success_probability(v, 6),
        PiecewiseSensitivity(0.2, 0.9).success_probability,
        StepSensitivity(1e4).success_probability,
    ):
        values = fn(grid)
        assert np.all(np.diff(values) >= -1e-15)


def _piecewise(v):
    return 0.0 if v == 0 else 0.2 if v < 2 else 0.9 if v < 3 else 1.0


def test_every_model_shares_success_probability_and_draw():
    # success_probability(total, n) is the model's function of total / n (for
    # the realistic model, the binomial tail of the total count at the n-fold
    # diluted capture probability); draw samples exactly those outcomes
    realistic = RealisticSensitivity(174)
    mean_load_models = [
        (StepSensitivity(1e4), lambda v: float(v >= 1e4)),
        (StepSensitivity(0.0), lambda v: float(v > 0)),
        (PiecewiseSensitivity(0.2, 0.9), _piecewise),
    ]
    totals = np.array([0.0, 6.0, 12.0, 15.0, 18.0, 7000.0, 20880.0, 59994.0, 6e4, 1e9])
    ragged = np.array([6] * 9 + [3])
    for n in (1, 6, ragged):
        expected = binomial_tail(np.rint(totals), capture_probability(n), 174)
        assert np.array_equal(realistic.success_probability(totals, n), expected)
        rng = np.random.default_rng(8)
        clone = copy.deepcopy(rng)
        assert np.array_equal(realistic.draw(totals, n, rng), draw_positive(totals, n, 174, clone))
        for model, fn in mean_load_models:
            p = model.success_probability(totals, n)
            assert np.array_equal(p, [fn(v) for v in totals / n])
            rng = np.random.default_rng(8)
            clone = copy.deepcopy(rng)
            assert np.array_equal(model.draw(totals, n, rng), clone.random(totals.size) < p)


def test_dilution_non_increasing_in_pool_size():
    sens = RealisticSensitivity(174)
    for load in (1e3, 1e4, 1e5, 1e6):
        probs = [sens.success_probability(load, n) for n in (1, 2, 6, 12, 40)]
        assert np.all(np.diff(probs) <= 1e-15)


def test_sampled_outcomes_match_analytic_tail():
    rng = np.random.default_rng(3)
    trials = 10**5
    for load in (2000.0, 3480.0, 5000.0, 2e4, 1e6):
        analytic = RealisticSensitivity(174).success_probability(load, 1)
        hits = draw_positive(np.full(trials, load), 1, 174, rng).sum()
        se = np.sqrt(max(analytic * (1 - analytic), 1e-12) / trials)
        assert abs(hits / trials - analytic) < max(3 * se, 1e-3)


def test_sampled_outcomes_match_analytic_tail_at_a_high_threshold():
    # at a beta_bar = 0.5-scale tau the undecided counts have means near 28,500,
    # and their draws still follow the exact binomial tail
    tau = 28_500
    rng = np.random.default_rng(8)
    trials = 10**5
    for load in (5.66e5, 5.7e5, 5.74e5):
        analytic = RealisticSensitivity(tau).success_probability(load, 1)
        hits = draw_positive(np.full(trials, load), 1, tau, rng).sum()
        se = np.sqrt(analytic * (1 - analytic) / trials)
        assert abs(hits / trials - analytic) < 3 * se


def test_calibrate_tau_hits_target():
    rng = np.random.default_rng(11)
    (tau,) = calibrate_tau([0.05], DEFAULT_GMM, rng)
    assert abs(tau - 174) <= 0.03 * 174


def _betainc_tail(counts, p, tau):
    """Reference tail: every K >= tau through betainc, nothing screened."""
    K = np.asarray(counts, dtype=float)
    p = np.broadcast_to(np.asarray(p, dtype=float), K.shape)
    out = np.zeros_like(K)
    m = K >= tau
    out[m] = betainc(float(tau), K[m] - tau + 1.0, p[m])
    return out


@pytest.fixture(scope="module")
def gmm_counts():
    rng = np.random.default_rng(2024)
    return np.rint(sample_viral_load(DEFAULT_GMM, rng, size=10**6))


@pytest.mark.parametrize("tau", [1, 2, 174, 1240, 10**5])
@pytest.mark.parametrize("n", [1, 2, 6, 40])
def test_binomial_tail_bit_identical_to_betainc(gmm_counts, n, tau):
    p = float(capture_probability(n))
    cutoff = _certain_count(p, tau)
    # 10^6 GMM-drawn counts plus every count within 2000 of the cutoff
    counts = np.concatenate([gmm_counts, np.arange(max(tau, cutoff - 2000), cutoff + 2000)])
    got = binomial_tail(counts, p, tau)
    assert np.array_equal(got, _betainc_tail(counts, p, tau))
    assert np.all(got[counts >= cutoff] == 1.0)


def test_binomial_tail_bit_identical_for_per_pool_p(gmm_counts):
    # shaped like draw_positive's input: per-pool totals with the pool's own
    # dilution, most pools full and a ragged remainder; plus, for each pool
    # size, the counts within 300 of its own cutoff at its own p. The one
    # cutoff comes from the smallest p, so a count past its own cutoff but
    # below that one goes through betainc, which must give exactly 1.0 there
    rng = np.random.default_rng(5)
    for largest in (6, 40):
        sizes = np.where(rng.random(20000) < 0.9, largest, rng.integers(1, largest, 20000))
        totals = np.add.reduceat(gmm_counts[: sizes.sum()], np.cumsum(sizes) - sizes)
        for tau in (1, 174, 1240):
            counts, pool_sizes, own_cutoff = [totals], [sizes], [np.full(sizes.size, np.inf)]
            for n in np.unique(sizes):
                cutoff = _certain_count(float(capture_probability(n)), tau)
                near = np.arange(max(0.0, cutoff - 300), cutoff + 300)
                counts.append(near)
                pool_sizes.append(np.full(near.size, n))
                own_cutoff.append(np.full(near.size, cutoff))
            counts, p = np.concatenate(counts), capture_probability(np.concatenate(pool_sizes))
            got = binomial_tail(counts, p, tau)
            assert np.array_equal(got, _betainc_tail(counts, p, tau))
            assert np.all(got[counts >= np.concatenate(own_cutoff)] == 1.0)


def _bisection_tau(beta_bar, rng, draws=10**6, gmm=DEFAULT_GMM):
    """Reference search on float counts: gallop tau = 1, 2, 4, ... to a
    bracket of the target, then bisect it. Returns the tau and the number of
    tau probed."""
    K = np.rint(sample_viral_load(gmm, rng, size=draws))
    p = float(capture_probability(1))
    probed = []

    def reaches_target(tau):
        probed.append(tau)
        return 1.0 - binomial_tail(K, p, tau).mean() >= beta_bar

    if reaches_target(1):
        return 1, len(probed)
    lo, hi = 1, 2
    while not reaches_target(hi):
        lo, hi = hi, 2 * hi
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if reaches_target(mid):
            hi = mid
        else:
            lo = mid
    return hi, len(probed)


@pytest.mark.parametrize(
    "seed, beta_bar, expected_tau", [(0, 0.025, 108), (1, 0.2, 1241), (2, 0.1, 341), (3, 0.05, 175)]
)
def test_calibrate_tau_matches_unscreened_kernel(seed, beta_bar, expected_tau):
    # expected values were calibrated with every tail evaluated through betainc
    rng = np.random.default_rng(seed)
    assert calibrate_tau([beta_bar], DEFAULT_GMM, rng) == [expected_tau]
    assert _bisection_tau(beta_bar, np.random.default_rng(seed))[0] == expected_tau


@pytest.mark.parametrize("extra", [-1, 0, 1])
def test_binomial_tail_calls_betainc_once_on_the_window(monkeypatch, extra):
    # the window [tau, K_c) holds width - 1, width or width + 1 elements; one
    # betainc call gets exactly those counts, in order, whatever their number
    p, tau = float(capture_probability(6)), 174
    cutoff = int(_certain_count(p, tau))
    window = np.arange(tau, cutoff, dtype=float)
    window = window[1:] if extra < 0 else np.concatenate([window, window[: extra]])
    counts = np.concatenate([[0.0, tau - 1.0, cutoff, 1e9], window[::-1]])
    calls = []

    def recording_betainc(a, b, x):
        calls.append(np.array(b))
        return betainc(a, b, x)

    monkeypatch.setattr(corrpool.pcr, "betainc", recording_betainc)
    got = binomial_tail(counts, p, tau)
    assert len(calls) == 1
    assert np.array_equal(calls[0], window[::-1] - tau + 1.0)
    assert np.array_equal(got, _betainc_tail(counts, p, tau))


def test_binomial_tail_bit_identical_at_the_edges():
    p, tau = float(capture_probability(1)), 174
    cutoff = _certain_count(p, tau)
    # an infinite cutoff (p = 1) leaves every count from tau on to betainc;
    # non-integer counts get the same arguments as the reference
    for counts, q in [
        (np.arange(0.0, 400.0), 1.0),
        (np.arange(tau, cutoff) + 0.5, p),
        (np.array([]), p),
        (np.float64(tau + 30), p),
        (np.float64(cutoff), p),
        (np.float64(3.0), p),
    ]:
        got = binomial_tail(counts, q, tau)
        assert got.shape == np.shape(counts)
        assert np.array_equal(got, _betainc_tail(counts, q, tau))


def _runner_stream(seed):
    """The stream the runner seeds calibration with: SeedSequence((master_seed, 3))."""
    return np.random.default_rng(np.random.SeedSequence((seed, 3)))


@pytest.mark.parametrize(
    "seed, expected", [(0, [108, 176, 343, 1234]), (1, [109, 175, 343, 1241]), (2, [109, 174, 341, 1236])]
)
def test_calibrate_tau_on_the_runner_stream(seed, expected):
    # the expected values were recorded with a bisection of [1, 10**7]; one
    # call searches every target on one draw, the bisection draws per target
    betas = (0.025, 0.05, 0.1, 0.2)
    assert calibrate_tau(betas, DEFAULT_GMM, _runner_stream(seed)) == expected
    assert [_bisection_tau(beta_bar, _runner_stream(seed))[0] for beta_bar in betas] == expected


def test_calibrate_tau_evaluates_tails_on_distinct_counts_only(monkeypatch):
    # the curve is summed over the distinct counts: no tail is ever
    # evaluated on the whole sample of 10**6 draws
    sizes = []
    tail = corrpool.pcr.binomial_tail

    def recording_tail(counts, p, tau):
        sizes.append(np.size(counts))
        return tail(counts, p, tau)

    monkeypatch.setattr(corrpool.pcr, "binomial_tail", recording_tail)
    (tau,) = calibrate_tau([0.05], DEFAULT_GMM, _runner_stream(0))
    monkeypatch.undo()
    assert tau == _bisection_tau(0.05, _runner_stream(0))[0] == 176
    assert sizes and max(sizes) < 10**5


def test_calibrate_tau_targets_in_any_order(monkeypatch):
    # every target gets the tau of a call of its own on the same stream,
    # whatever the targets before it probed
    monkeypatch.setattr(corrpool.pcr, "_DRAWS", 10**5)
    alone = {b: calibrate_tau([b], DEFAULT_GMM, _runner_stream(0))[0] for b in (0.05, 0.5)}
    for targets in ([0.5, 0.05], [0.05, 0.5]):
        got = calibrate_tau(targets, DEFAULT_GMM, _runner_stream(0))
        assert got == [alone[b] for b in targets]


def test_fnr_curve_matches_the_mean_over_every_draw():
    # the curve on the distinct counts is the full-sample mean up to
    # summation order, and a function of tau alone: probing in either order
    # gives the same bits
    K = np.sort(np.rint(sample_viral_load(DEFAULT_GMM, _runner_stream(0), size=10**6)))
    p = float(capture_probability(1))
    taus = [1, 108, 176, 1240, 28533]
    up = corrpool.pcr._fnr_curve(K, p)
    rising = [up(tau) for tau in taus]
    down = corrpool.pcr._fnr_curve(K, p)
    assert [down(tau) for tau in taus[::-1]][::-1] == rising
    for tau, beta in zip(taus, rising):
        assert abs(beta - (1.0 - binomial_tail(K, p, tau).mean())) <= 1e-12


def test_calibration_holds_little_beyond_its_counts():
    # the 4-byte counts and block-sized scratch while drawing, each block's
    # categories included: about 6.2 bytes per draw (7.1 when the one-byte
    # categories of every draw were drawn at once, 16.0 with float loads
    # rounded into a second float array)
    for seed in (0, 1):
        tracemalloc.start()
        try:
            calibrate_tau([0.05], DEFAULT_GMM, _runner_stream(seed))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak / corrpool.pcr._DRAWS < 7.1


@pytest.mark.parametrize("draws", [None, 2**16 + 3], ids=["default", "ragged_last_block"])
def test_calibration_draws_every_load_through_pcr_in_blocks(monkeypatch, draws):
    # perfbench wraps corrpool.pcr.sample_viral_load to count calibration's
    # draws; calibration must reach every load there, a block at a time,
    # also when the last block is short
    if draws is not None:
        monkeypatch.setattr(corrpool.pcr, "_DRAWS", draws)

    def run():
        return calibrate_tau([0.05], DEFAULT_GMM, _runner_stream(0))

    expected = run()
    sizes = []

    def counting_sampler(*args, **kwargs):
        loads = sample_viral_load(*args, **kwargs)
        sizes.append(loads.size)
        return loads

    monkeypatch.setattr(corrpool.pcr, "sample_viral_load", counting_sampler)
    assert run() == expected
    assert max(sizes) <= corrpool.pcr._BLOCK
    assert sum(sizes) == corrpool.pcr._DRAWS


# about 29% of its loads hold more than 2**32 copies
_HIGH_GMM = GmmParams((0.3, 0.7), (10.5, 4.0), (0.5, 1.0))


def test_fnr_curve_on_capped_uint32_counts_equals_float_counts():
    # counts above 2**32 - 1 are stored as the cap; every certain count up to
    # tau = _TAU_MAX lies below it, so each probe sees the same distinct
    # counts below K_c, the same multiplicities and the same number of sure
    # hits as on the float counts
    p = float(capture_probability(1))
    assert _certain_count(p, corrpool.pcr._TAU_MAX) < corrpool.pcr._COUNT_MAX
    for gmm, draws in ((DEFAULT_GMM, 10**6), (_HIGH_GMM, 10**5)):
        counts = corrpool.pcr._draw_counts(gmm, _runner_stream(4), draws)
        floats = np.rint(sample_viral_load(gmm, _runner_stream(4), size=draws))
        assert counts.dtype == np.uint32
        assert (floats > 2**32).any()
        assert np.array_equal(counts, np.minimum(floats, corrpool.pcr._COUNT_MAX))
        counts.sort()
        floats.sort()
        capped, exact = corrpool.pcr._fnr_curve(counts, p), corrpool.pcr._fnr_curve(floats, p)
        for tau in (1, 108, 176, 1240, 28533, 10**6, corrpool.pcr._TAU_MAX):
            assert capped(tau) == exact(tau)


def test_calibrate_tau_with_counts_above_the_cap_matches_bisection(monkeypatch):
    draws = 10**5
    monkeypatch.setattr(corrpool.pcr, "_DRAWS", draws)
    targets = (0.05, 0.3, 0.5)
    got = calibrate_tau(targets, _HIGH_GMM, _runner_stream(0))
    assert got == [_bisection_tau(b, _runner_stream(0), draws, _HIGH_GMM)[0] for b in targets]


def test_distinct_sorted_equals_unique():
    # values, counts and dtypes of np.unique on sorted arrays, down to the
    # empty, single-value and all-equal prefixes that _fnr_curve can take
    K = np.sort(np.rint(sample_viral_load(DEFAULT_GMM, _runner_stream(1), size=10**4)))
    arrays = [K[:below] for below in (0, 1, 2, 17, 5000, K.size)]
    arrays += [np.full(7, 3.0), np.array([0.0, 0.0, 1.0]), np.array([1.0, 2.0, 2.0])]
    for a in arrays:
        got = corrpool.pcr._distinct_sorted(a)
        expected = np.unique(a, return_counts=True)
        for g, e in zip(got, expected):
            assert g.dtype == e.dtype and g.tobytes() == e.tobytes()


def test_golden_tau():
    # the stored benchmark artifacts were made at these two thresholds
    assert ScenarioConfig(beta_bar=0.05, master_seed=0).resolve_tau() == 176
    assert calibrate_tau([0.05], DEFAULT_GMM, np.random.default_rng(0)) == [175]


def test_first_reaching_on_a_step_curve():
    # a monotone step curve: the search from tau = 1 ends at the first tau at
    # which it reaches the target, up to the end of the range
    search = corrpool.pcr._first_reaching
    tau_max = corrpool.pcr._TAU_MAX
    for answer in (1, 2, 3, 175, 4096, 4097, 999_999, tau_max - 1, tau_max):
        probed = []

        def beta(tau):
            probed.append(tau)
            return 0.5 + 0.1 * (tau >= answer) + 1e-9 * tau

        assert search(beta, 0.6, 0, 1, tau_max) == answer
        assert probed[0] == 1 and all(1 <= tau <= tau_max for tau in probed)
    with pytest.raises(ValueError, match="unreachable"):
        search(lambda tau: 0.0, 0.05, 0, 1, tau_max)
    # from a non-zero float lo the probes are hi, 2 hi, 4 hi, ... and then
    # floored midpoints, all floats inside the bracket
    for answer in (100.0, 101.0, 150.0, 199.0, 200.0, 201.0, 1234.0):
        probed = []

        def f(x):
            probed.append(x)
            return float(x >= answer)

        assert search(f, 1.0, 99.0, 100.0) == answer
        k = next(k for k in range(5) if 100.0 * 2**k >= answer)
        assert probed[: k + 1] == [100.0 * 2**j for j in range(k + 1)]
        assert all(isinstance(x, float) and 99.0 < x <= 100.0 * 2**k for x in probed)
    with pytest.raises(ValueError, match="unreachable"):
        search(lambda x: 0.0, 1.0, 99.0, 100.0, cap=500.0)


_CERTAIN_PS = [0.05 / n for n in (1, 2, 3, 6, 12, 40, 1000)] + [0.5, 0.999, 1e-6]


@pytest.mark.parametrize("p", _CERTAIN_PS)
def test_certain_count_is_the_first_count_past_the_bound(p):
    # K_c is the first count from start = max(tau, floor(a/p) + 1) whose
    # Chernoff exponent reaches 60 ln 2
    target = 60.0 * math.log(2.0)
    for tau in [*range(1, 60), 174, 175, 1240, 28643, 10**5, 10**7]:
        a = tau - 1.0

        def exponent(K):
            upper = (K - a) * (math.log1p(-a / K) - math.log1p(-p))
            return upper if a == 0.0 else upper + a * (math.log(a / K) - math.log(p))

        start = max(float(tau), math.floor(a / p) + 1.0)
        cutoff = _certain_count(p, tau)
        assert cutoff == int(cutoff) and cutoff >= start
        assert exponent(cutoff) >= target
        assert cutoff == start or exponent(cutoff - 1.0) < target


def test_certain_count_returns_beyond_exact_doubles():
    # past 2**53 a double no longer holds every count, so there is no
    # shortcut and every count from tau on goes through betainc
    for p, tau in ((0.05 / 6, 10**17), (5e-15, 176), (0.05 / 6, 5 * 10**15)):
        assert _certain_count(p, tau) == math.inf
    assert np.array_equal(binomial_tail([10.0], 0.05 / 6, 10**17), [0.0])


def test_calibrate_tau_at_half_fnr_matches_bisection(monkeypatch):
    # at beta_bar = 0.5 tau is in the tens of thousands, so the probes reach
    # certain counts far above those of the common targets
    monkeypatch.setattr(corrpool.pcr, "_DRAWS", 10**5)
    for seed in (0, 1):
        expected = _bisection_tau(0.5, _runner_stream(seed), draws=10**5)[0]
        assert calibrate_tau([0.5], DEFAULT_GMM, _runner_stream(seed)) == [expected]


def test_calibrate_tau_bracket_ends(monkeypatch):
    monkeypatch.setattr(corrpool.pcr, "_DRAWS", 10**5)
    # nearly every load rounds to zero copies: already tau = 1 misses the target
    rng = np.random.default_rng(0)
    assert calibrate_tau([0.05], GmmParams((1.0,), (-3.0,), (0.1,)), rng) == [1]
    # every load holds ~10**12 copies: no tau up to the search limit misses enough
    with pytest.raises(ValueError, match="unreachable"):
        calibrate_tau([0.05], GmmParams((1.0,), (12.0,), (0.1,)), np.random.default_rng(0))
    probed = []
    tail = corrpool.pcr.binomial_tail

    def recording_tail(counts, p, tau):
        probed.append(tau)
        return tail(counts, p, tau)

    monkeypatch.setattr(corrpool.pcr, "binomial_tail", recording_tail)
    (tau,) = calibrate_tau([0.05], DEFAULT_GMM, np.random.default_rng(0))
    assert probed[0] == 1 and max(probed) <= 2 * tau


def test_calibrate_tau_rejects_bad_target(monkeypatch):
    # every target is checked before the loads are drawn
    def never_sample(*args, **kwargs):
        raise AssertionError("loads drawn before every target was checked")

    monkeypatch.setattr(corrpool.pcr, "sample_viral_load", never_sample)
    for targets in ([0.0], [0.6], [0.05, 0.6]):
        with pytest.raises(ValueError):
            calibrate_tau(targets, DEFAULT_GMM, np.random.default_rng(0))


def test_params_validation():
    for tau in (0, True, 174.5):
        with pytest.raises(ValueError):
            RealisticSensitivity(tau)
    for u0 in (-1.0, float("nan"), float("inf")):
        with pytest.raises(ValueError):
            StepSensitivity(u0)


@pytest.mark.parametrize("tau", [1, 174, 1240])
def test_binomial_tail_equal_valued_p_matches_the_scalar(gmm_counts, tau):
    # draw_positive passes one p per pool, all equal when n divides N
    counts = gmm_counts[:3000]
    p = float(capture_probability(6))
    got = binomial_tail(counts, np.full(counts.shape, p), tau)
    assert got.shape == counts.shape
    assert np.array_equal(got, binomial_tail(counts, p, tau))
    # counts broadcast against p's shape
    column = binomial_tail(counts[:5, None], np.full((5, 3), p), tau)
    assert column.shape == (5, 3)
    assert np.array_equal(column, np.repeat(binomial_tail(counts[:5], p, tau)[:, None], 3, axis=1))
    mixed = capture_probability(np.where(np.arange(counts.size) % 7 == 0, 5, 6))
    assert np.array_equal(binomial_tail(counts, mixed, tau), _betainc_tail(counts, mixed, tau))
