"""Exact counterexample analysis and the follow-up-cost bound estimator.

Counterexample: pools of size 2 under a piecewise-constant sensitivity applied
to the pool's mean load, with a joint viral-load table that correlates the two
members. Closed-form metrics are checked against exhaustive enumeration over
the joint table and all test outcomes.

delta-prime bound: delta' = (E[X]/E[Z]) * beta_bar/(1 - beta_bar), where
X = p(pool of n loads drawn conditional on an individual-test miss) and
Z = p(one load drawn conditional on an individual-test hit, diluted n-fold).
Conditional loads come from one rejection sampler for both passes (see
_sample_conditional): a chunk of up to 4e6 loads is drawn in blocks of
2**16, keeping only the loads the pass can return, and a load is a hit iff
its accept uniform lies below the tail of min(rint(v), K_c). The tail at the
individual test's certain count K_c is exactly 1.0, so a load at or above
it, about nine in ten at beta_bar = 5%, is a hit without evaluating its own
tail, bit-identically. The miss pass sums each pool of n accepted loads as
it accepts them, so it returns B sums, not n*B loads, and X's tails are
evaluated once per distinct rounded sum, found by one argsort. The
confidence interval combines a normal interval for E[Z] with a bootstrap
percentile interval for E[X] into a conservative ratio interval.
The bootstrap of E[X] is a two-stage pipeline (see _bootstrap_means): the
calling thread draws every replicate's indices, in replicate order, while one
helper thread gathers and averages the previous replicate's resample, so the
draws, the stream position and every replicate mean are those of the serial
loop. The helper calls only take and mean, no function that perfbench traces.
delta_prime_quadrature computes the same delta' exactly over integer counts;
it is the sampler's oracle and is not wired into the CLI.
"""

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .pcr import _BLOCK, PiecewiseSensitivity, _certain_count, _distinct_sorted, binomial_tail, capture_probability
from .viral import GmmParams, category_stream, count_pmf, sample_viral_load

_POOL_SIZE = 2  # the counterexample is built on pools of two


@dataclass(frozen=True)
class CounterexampleResult:
    """Metrics of the size-2 counterexample; index 0 = naive, 1 = correlated."""

    beta0: float
    beta1: float
    ey0: float
    ey1: float
    eta0: float
    eta1: float
    eff0: float
    eff1: float


def _validate_counterexample_args(theta1, theta2, alpha) -> PiecewiseSensitivity:
    sens = PiecewiseSensitivity(theta1, theta2)
    if not 0 < alpha < 2.0 / 3.0:
        raise ValueError("alpha must be in (0, 2/3) so the joint table is a distribution")
    return sens


def _eta_and_efficiency(e_y: float, beta: float, alpha: float) -> tuple[float, float]:
    """eta = n E[Y] / (E[S] (1 - beta)) and efficiency = 1 / (1/n + alpha eta (1 - beta))
    of a size-2 pool, whose expected infected count is E[S] = n alpha."""
    n = _POOL_SIZE
    eta = n * e_y / (n * alpha * (1.0 - beta))
    return eta, 1.0 / (1.0 / n + alpha * eta * (1.0 - beta))


def counterexample_closed_form(theta1: float, theta2: float, alpha: float) -> CounterexampleResult:
    """Closed-form counterexample metrics at (theta1, theta2, alpha)."""
    _validate_counterexample_args(theta1, theta2, alpha)
    t1, t2, a = theta1, theta2, alpha
    beta1 = 1.0 - (t2**2 / 2.0 + t1 / 2.0)
    beta0 = 1.0 - a * (t2**2 / 2.0 + t2 / 4.0 + 0.25) - (1.0 - a) * (t1 * t2 / 2.0 + t1 / 2.0)
    ey0 = 2.0 * a * (1.0 - a) * t1 + 0.75 * a**2 * t2 + a**2 / 4.0
    ey1 = a * t1 + a * t2 / 2.0
    eta0, eff0 = _eta_and_efficiency(ey0, beta0, a)
    eta1, eff1 = _eta_and_efficiency(ey1, beta1, a)
    return CounterexampleResult(beta0, beta1, ey0, ey1, eta0, eta1, eff0, eff1)


def _enumerate_pool(joint, sens: PiecewiseSensitivity, alpha: float):
    """Expectations over a size-2 pool: exhaustive sum over the joint load
    table and every (pooled, individual, individual) outcome triple."""
    e_y = 0.0
    e_d = 0.0
    e_fn = 0.0
    for (v1, v2), prob in joint:
        p_pool = sens.success_probability(v1 + v2, _POOL_SIZE)
        p1 = sens.success_probability(v1)
        p2 = sens.success_probability(v2)
        for y in (0, 1):
            py = p_pool if y else 1.0 - p_pool
            for w1 in (0, 1):
                pw1 = p1 if w1 else 1.0 - p1
                for w2 in (0, 1):
                    pw2 = p2 if w2 else 1.0 - p2
                    p_out = prob * py * pw1 * pw2
                    e_y += p_out * y
                    e_d += p_out * y * (w1 + w2)
                    e_fn += p_out * ((v1 > 0) * (1 - y * w1) + (v2 > 0) * (1 - y * w2))
    beta = e_fn / (_POOL_SIZE * alpha)
    return beta, e_y, *_eta_and_efficiency(e_y, beta, alpha)


def counterexample_enumerate(theta1: float, theta2: float, alpha: float) -> CounterexampleResult:
    """Independent oracle for the closed forms via exhaustive enumeration."""
    sens = _validate_counterexample_args(theta1, theta2, alpha)
    a = alpha
    correlated = [((0, 0), 1.0 - 1.5 * a), ((0, 3), a / 2.0), ((3, 0), a / 2.0), ((2, 2), a / 2.0)]
    marginal = [(0, 1.0 - a), (2, a / 2.0), (3, a / 2.0)]
    naive = [((v1, v2), p1 * p2) for v1, p1 in marginal for v2, p2 in marginal]
    beta0, ey0, eta0, eff0 = _enumerate_pool(naive, sens, a)
    beta1, ey1, eta1, eff1 = _enumerate_pool(correlated, sens, a)
    return CounterexampleResult(beta0, beta1, ey0, ey1, eta0, eta1, eff0, eff1)


@dataclass
class DeltaPrimeEstimate:
    """Point estimate and 95% confidence interval for the delta' bound."""

    x_bar: float
    z_bar: float
    delta_prime_hat: float
    ci_low: float
    ci_high: float
    achieved_b: int
    ci_reliable: bool = True


def _sample_conditional(
    gmm: GmmParams,
    tau: int,
    needed: int,
    keep_missed: bool,
    rng: np.random.Generator,
    max_draws: int,
    group: int = 1,
):
    """Viral loads conditional on the individual test missing (keep_missed) or
    hitting, via rejection sampling of (V, W) pairs, summed in pools of
    `group` consecutive loads as they are accepted.

    A load is a hit iff its uniform lies below tails[min(rint(v), K_c)], the
    tails of the counts 0..K_c evaluated once per pass; binomial_tail gives
    each count the same bits alone or in an array, and the tail at the
    certain count K_c, an integer, is exactly 1.0, so a load at or above it
    is a hit. A chunk draws its loads block by block, each block's
    categories from category_stream(rng, chunk), keeping per block only the
    loads the pass can return: the miss pass those under K_c, with their
    offsets in the block; the hit pass every load up to the sure hit that
    completes its quota, since no later load can be needed. It then draws
    one uniform per load, block by block, and tests the kept loads; it never
    holds a chunk-sized array of categories, loads, normals or uniforms.
    Each block's complete pools are summed by the row sums of one reshape,
    the last filled % group accepted loads carried to the next block.

    The result is an owned array of at most needed // group sums, one per
    complete pool of the first `needed` accepted loads; a pool left short by
    max_draws is dropped. The accepted loads and the stream position are
    those of drawing the chunk's loads and uniforms at once and evaluating
    every load's tail, and each sum has the bits of reshaping those loads
    into rows of `group` and summing the rows. A tau whose K_c lies beyond
    2**53 (see _certain_count) raises ValueError before anything is drawn.
    """
    p_ind = float(capture_probability(1))
    certain = _certain_count(p_ind, tau)
    if math.isinf(certain):
        raise ValueError(f"tau = {tau} is too large: its certain count lies beyond 2**53")
    tails = binomial_tail(np.arange(int(certain) + 1), p_ind, tau)
    out = np.empty(needed // group)
    filled = 0
    carry = np.empty(0)
    drawn = 0
    chunk = max(min(needed * 4, 4_000_000), 100_000)
    while filled < needed and drawn < max_draws:
        categories = category_stream(rng, chunk)
        blocks = range(0, chunk, _BLOCK)
        kept = []
        sure = 0
        quota = needed - filled
        for start in blocks:
            v = sample_viral_load(gmm, rng, min(_BLOCK, chunk - start), categories)
            if keep_missed:
                low = np.flatnonzero(v < certain)
                kept.append((v[low], low.astype(np.min_scalar_type(_BLOCK - 1))))
            elif sure < quota:
                high = np.flatnonzero(v >= certain)
                if sure + high.size >= quota:
                    v = v[: high[quota - sure - 1] + 1]
                sure += high.size
                kept.append((v, slice(v.size)))
        for start in blocks:
            u = rng.random(min(_BLOCK, chunk - start))
            if not kept or filled == needed:
                continue
            v, offsets = kept.pop(0)
            hit = u[offsets] < tails[np.minimum(np.rint(v), certain).astype(np.intp)]
            v = np.concatenate((carry, v[~hit if keep_missed else hit][: needed - filled]))
            pools = filled // group
            filled += v.size - carry.size
            m = v.size // group
            out[pools : pools + m] = v[: m * group].reshape(m, group).sum(axis=1)
            carry = v[m * group :].copy()
        drawn += chunk
    pools = filled // group
    return out if pools == out.size else out[:pools].copy()


def delta_prime_quadrature(n: int, beta_bar: float, tau: int, gmm: GmmParams) -> float:
    """delta' for pool size n at tau by quadrature over the integer counts
    K = rint(V), with no sampling; an oracle for estimate_delta_prime.

    With P(K) from count_pmf, T_1 and T_n the individual and pooled tails:
    E[X] = sum_s m*n(s) T_n(s), where m(K) is proportional to P(K)(1 - T_1(K))
    below the individual test's certain count and m*n, its n-fold
    convolution, is the n-th power of its real FFT;
    E[Z] = (sum_K P(K) T_1(K) T_n(K) + M) / (sum_K P(K) T_1(K) + M), summed
    below the pooled test's certain count, with M the mass at or above it.
    The sampler rounds the sum of n loads where this sums n rounded counts.
    The FFT's round-off, about 1e-16 of the convolution's peak, bounds the
    E[X] that it can resolve. A tau whose pooled certain count lies beyond
    2**53 raises ValueError.
    """
    if n < 2:
        raise ValueError("n must be at least 2")
    p_ind = float(capture_probability(1))
    p_pool = float(capture_probability(n))
    certain = _certain_count(p_pool, tau)
    if math.isinf(certain):
        raise ValueError(f"tau = {tau} is too large: its certain count lies beyond 2**53")
    counts = np.arange(int(certain))
    pmf, above = count_pmf(gmm, counts.size)
    t_ind = binomial_tail(counts, p_ind, tau)
    hit = pmf * t_ind
    e_z = ((hit * binomial_tail(counts, p_pool, tau)).sum() + above) / (hit.sum() + above)
    miss = (pmf - hit)[: int(_certain_count(p_ind, tau))]
    miss /= miss.sum()
    size = n * (miss.size - 1) + 1
    pooled = np.fft.irfft(np.fft.rfft(miss, size) ** n, size)
    e_x = pooled @ binomial_tail(np.arange(size), p_pool, tau)
    return float(e_x / e_z * beta_bar / (1.0 - beta_bar))


def check_delta_prime(n: int, B: int, bootstrap_reps: int):
    """Raise ValueError unless estimate_delta_prime accepts these sizes."""
    if B < 10**5:
        raise ValueError("B must be at least 1e5")
    if n < 2:
        raise ValueError("n must be at least 2")
    if bootstrap_reps < 1:
        raise ValueError("bootstrap_reps must be at least 1")


def _bootstrap_means(x: np.ndarray, reps: int, rng: np.random.Generator) -> np.ndarray:
    """Means of `reps` bootstrap resamples of x, replicate r resampling
    x.take(rng.integers(0, x.size, x.size)).

    The calling thread makes every draw, in replicate order, while one
    helper thread gathers and averages the previous replicate's resample
    into one reused buffer; take and mean release the GIL, so the two
    overlap. It waits for replicate r's mean before handing replicate r + 1
    to the helper, so at most one resample is in flight and the buffer is
    never shared. The draws, the stream position and each mean's bits are
    those of drawing and averaging one replicate at a time. The helper calls
    nothing that perfbench traces, since its tracer keeps one span stack per
    process.
    """
    boot = np.empty(reps)
    gathered = np.empty_like(x)

    def resample_mean(idx):
        # every index is in range: "clip" changes no value, and unlike the
        # default "raise" it gathers straight into `out` without a copy
        return x.take(idx, out=gathered, mode="clip").mean()

    with ThreadPoolExecutor(1) as helper:
        idx = rng.integers(0, x.size, x.size)
        for r in range(reps):
            mean = helper.submit(resample_mean, idx)
            if r + 1 < reps:
                idx = rng.integers(0, x.size, x.size)
            boot[r] = mean.result()
    return boot


def estimate_delta_prime(
    n: int,
    beta_bar: float,
    tau: int,
    gmm: GmmParams,
    B: int = 10**6,
    bootstrap_reps: int = 10**4,
    *,
    rng: np.random.Generator,
) -> DeltaPrimeEstimate:
    """Estimate delta' for pool size n with tau pre-calibrated to beta_bar.

    Returns the point estimate (X_bar/Z_bar) * beta_bar/(1-beta_bar) and a 95%
    interval built from a 99.99% normal interval for E[Z] and a (95/99.99)%
    bootstrap percentile interval for E[X], combined as [L_X/U_Z, U_X/L_Z].
    ci_reliable is False when the point estimate is below 1e-12 or the
    interval misses it, as a bootstrap of very few replicates can.

    The bootstrap runs on this thread and one helper thread: this thread
    draws each replicate's indices from rng, the same draws in the same order
    as one replicate at a time, while the helper gathers and averages the
    replicate before it. The helper is shut down before this returns or
    raises, and calls nothing that perfbench traces.
    """
    check_delta_prime(n, B, bootstrap_reps)
    max_draws = 1000 * B  # cap rejection-sampler cost; report achieved sample size

    p_pool = float(capture_probability(n))

    # Z: one load conditional on an individual-test hit, diluted n-fold
    v_hit = _sample_conditional(gmm, tau, B, keep_missed=False, rng=rng, max_draws=max_draws)
    z = binomial_tail(np.rint(v_hit), p_pool, tau)
    del v_hit
    z_bar = float(z.mean())
    if z_bar <= 0:
        raise ValueError("E[Z] estimate is zero; tau is miscalibrated")
    se_z = float(z.std(ddof=1) / np.sqrt(z.size))
    del z

    # X: pool of n loads, each conditional on an individual-test miss,
    # summed pool by pool as the miss pass accepts them
    pooled = _sample_conditional(gmm, tau, n * B, keep_missed=True, rng=rng, max_draws=max_draws, group=n)
    # the pooled counts repeat: evaluate each distinct one once, found in
    # sorted order, and write each pool's tail back in pool order
    np.rint(pooled, out=pooled)
    order = pooled.argsort()
    counts, multiplicities = _distinct_sorted(pooled[order])
    del pooled
    x = np.empty(order.size)
    x[order] = np.repeat(binomial_tail(counts, p_pool, tau), multiplicities)
    del order
    x_bar = float(x.mean())
    factor = beta_bar / (1.0 - beta_bar)
    point = (x_bar / z_bar) * factor

    # 99.99% normal interval for E[Z]
    z_crit = 3.891  # two-sided 99.99% normal quantile
    l_z = max(z_bar - z_crit * se_z, 0.0)
    u_z = z_bar + z_crit * se_z

    # (95/99.99)% bootstrap percentile interval for E[X]
    level = 0.95 / 0.9999
    tail_prob = (1.0 - level) / 2.0
    boot = _bootstrap_means(x, bootstrap_reps, rng)
    l_x = float(np.quantile(boot, tail_prob))
    u_x = float(np.quantile(boot, 1.0 - tail_prob))
    l_x = max(l_x, 0.0)

    ci_low = (l_x / u_z) * factor
    ci_high = (u_x / l_z) * factor if l_z > 0 else float("inf")
    return DeltaPrimeEstimate(
        x_bar=x_bar,
        z_bar=z_bar,
        delta_prime_hat=point,
        ci_low=ci_low,
        ci_high=ci_high,
        achieved_b=int(x.size),
        ci_reliable=point >= 1e-12 and ci_low <= point <= ci_high,
    )
