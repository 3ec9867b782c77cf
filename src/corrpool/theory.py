"""Exact counterexample analysis and the follow-up-cost bound estimator.

Counterexample: pools of size 2 under a piecewise-constant sensitivity applied
to the pool's mean load, with a joint viral-load table that correlates the two
members. Closed-form metrics are checked against exhaustive enumeration over
the joint table and all test outcomes.

delta-prime bound: delta' = (E[X]/E[Z]) * beta_bar/(1 - beta_bar), where
X = p(pool of n loads drawn conditional on an individual-test miss) and
Z = p(one load drawn conditional on an individual-test hit, diluted n-fold).
Conditional loads come from rejection sampling; the confidence interval
combines a normal interval for E[Z] with a bootstrap percentile interval for
E[X] into a conservative ratio interval. The sampler screens out certain
hits: a load at or above the individual test's certain count K_c, about nine
in ten at beta_bar = 5%, is a hit without evaluating its tail, and the result
is bit-identical to evaluating every tail (see _sample_conditional). It draws
up to 4e6 loads per chunk, and their normals and accept uniforms in blocks of
2**16. By tracemalloc, drawing the loads peaks at about 10.1 bytes per load
and either pass at about 11.3 bytes per chunk load (tests/test_theory.py
holds it under 13).
"""

from dataclasses import dataclass

import numpy as np

from .pcr import PiecewiseSensitivity, _certain_count, binomial_tail, capture_probability
from .viral import _BLOCK, GmmParams, sample_viral_load

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


def _validate_counterexample_args(theta1, theta2, alpha):
    if not 0 < theta1 < theta2 < 1:
        raise ValueError("need 0 < theta1 < theta2 < 1")
    if not 0 < alpha < 2.0 / 3.0:
        raise ValueError("alpha must be in (0, 2/3) so the joint table is a distribution")


def counterexample_closed_form(theta1: float, theta2: float, alpha: float) -> CounterexampleResult:
    """Closed-form counterexample metrics at (theta1, theta2, alpha)."""
    _validate_counterexample_args(theta1, theta2, alpha)
    t1, t2, a = theta1, theta2, alpha
    beta1 = 1.0 - (t2**2 / 2.0 + t1 / 2.0)
    beta0 = 1.0 - a * (t2**2 / 2.0 + t2 / 4.0 + 0.25) - (1.0 - a) * (t1 * t2 / 2.0 + t1 / 2.0)
    ey0 = 2.0 * a * (1.0 - a) * t1 + 0.75 * a**2 * t2 + a**2 / 4.0
    ey1 = a * t1 + a * t2 / 2.0
    n = _POOL_SIZE
    eta0 = n * ey0 / (n * a * (1.0 - beta0))
    eta1 = n * ey1 / (n * a * (1.0 - beta1))
    eff0 = 1.0 / (1.0 / n + a * eta0 * (1.0 - beta0))
    eff1 = 1.0 / (1.0 / n + a * eta1 * (1.0 - beta1))
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
    e_s = 2.0 * alpha
    beta = e_fn / e_s
    eta = _POOL_SIZE * e_y / (e_s * (1.0 - beta))
    eff = 1.0 / (1.0 / _POOL_SIZE + alpha * eta * (1.0 - beta))
    return beta, e_y, eta, eff


def counterexample_enumerate(theta1: float, theta2: float, alpha: float) -> CounterexampleResult:
    """Independent oracle for the closed forms via exhaustive enumeration."""
    _validate_counterexample_args(theta1, theta2, alpha)
    sens = PiecewiseSensitivity(theta1, theta2)
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


def _accept(v, keep_missed, tails, certain, rng, buf, limit):
    """The first `limit` loads of one chunk that the individual test misses
    (keep_missed) or hits, in order, drawing one uniform per load from rng.

    The uniforms are drawn buf.size at a time into buf, which gives the same
    doubles in the same stream order as one rng.random(v.size). A block looks
    up the tails of its loads under the certain count in `tails`, indexed by
    rint(v), and keeps only the indices of its misses; the hit pass deletes
    the misses before the limit-th hit from the loads up to it.
    """
    missed = []
    for start in range(0, v.size, buf.size):
        u = buf[: v.size - start]
        rng.random(out=u)
        block = v[start : start + u.size]
        low = np.flatnonzero(block < certain)
        low = low[u[low] >= tails[np.rint(block[low]).astype(np.intp)]]
        missed.append(low + start)
    missed = np.concatenate(missed)
    if keep_missed:
        return v[missed[:limit]]
    # miss j has missed[j] - j hits before it; the limit-th hit follows the
    # misses with fewer than limit hits before them
    cut = int(np.searchsorted(missed - np.arange(missed.size), limit))
    return np.delete(v[: limit + cut], missed[:cut])


def _sample_conditional(
    gmm: GmmParams,
    tau: int,
    needed: int,
    keep_missed: bool,
    rng: np.random.Generator,
    max_draws: int,
):
    """Viral loads conditional on the individual test missing (keep_missed) or
    hitting, via rejection sampling of (V, W) pairs.

    A load at or above the certain count K_c of the individual test is a hit
    without evaluating its tail: K_c is an integer, so rint(v) >= K_c, the
    tail is exactly 1.0 and every uniform lies below it. The tails of the
    counts 0..K_c are evaluated once per pass; binomial_tail gives each count
    the same bits alone or in an array. Besides its loads a chunk holds
    block-sized scratch and the indices of its misses, never a chunk-sized
    array of uniforms or normals, and its loads are freed before the next
    chunk is drawn. The result is an owned array of at most `needed` loads;
    the kept loads and the stream position are those of drawing the chunk's
    uniforms at once and evaluating every load's tail.
    """
    p_ind = float(capture_probability(1))
    certain = _certain_count(p_ind, tau)
    tails = binomial_tail(np.arange(int(certain) + 1), p_ind, tau)
    kept = []
    total_kept = 0
    drawn = 0
    chunk = max(min(needed * 4, 4_000_000), 100_000)
    buf = np.empty(_BLOCK)
    while total_kept < needed and drawn < max_draws:
        v = sample_viral_load(gmm, rng, size=chunk)
        sel = _accept(v, keep_missed, tails, certain, rng, buf, needed - total_kept)
        del v  # freed before the next chunk is drawn
        kept.append(sel)
        total_kept += sel.size
        drawn += chunk
    return np.concatenate(kept)


def check_delta_prime(n: int, B: int, bootstrap_reps: int):
    """Raise ValueError unless estimate_delta_prime accepts these sizes."""
    if B < 10**5:
        raise ValueError("B must be at least 1e5")
    if n < 2:
        raise ValueError("n must be at least 2")
    if bootstrap_reps < 1:
        raise ValueError("bootstrap_reps must be at least 1")


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
    """
    check_delta_prime(n, B, bootstrap_reps)
    max_draws = 1000 * B  # cap rejection-sampler cost; report achieved sample size

    p_pool = float(capture_probability(n))

    # Z: one load conditional on an individual-test hit, diluted n-fold
    v_hit = _sample_conditional(gmm, tau, B, keep_missed=False, rng=rng, max_draws=max_draws)
    z = binomial_tail(np.rint(v_hit), p_pool, tau)

    # X: pool of n loads, each conditional on an individual-test miss
    v_miss = _sample_conditional(gmm, tau, n * B, keep_missed=True, rng=rng, max_draws=max_draws)
    b_x = v_miss.size // n
    pooled = v_miss[: b_x * n].reshape(b_x, n).sum(axis=1)
    # the pooled counts repeat: evaluate each distinct one once
    counts, index = np.unique(np.rint(pooled), return_inverse=True)
    x = binomial_tail(counts, p_pool, tau)[index]

    z_bar = float(z.mean())
    x_bar = float(x.mean())
    if z_bar <= 0:
        raise ValueError("E[Z] estimate is zero; tau is miscalibrated")
    factor = beta_bar / (1.0 - beta_bar)
    point = (x_bar / z_bar) * factor

    # 99.99% normal interval for E[Z]
    se_z = float(z.std(ddof=1) / np.sqrt(z.size))
    z_crit = 3.891  # two-sided 99.99% normal quantile
    l_z = max(z_bar - z_crit * se_z, 0.0)
    u_z = z_bar + z_crit * se_z

    # (95/99.99)% bootstrap percentile interval for E[X]
    level = 0.95 / 0.9999
    tail_prob = (1.0 - level) / 2.0
    boot = np.empty(bootstrap_reps)
    for r in range(bootstrap_reps):
        idx = rng.integers(0, x.size, x.size)
        boot[r] = x.take(idx).mean()
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
        achieved_b=int(b_x),
        ci_reliable=point >= 1e-12,
    )
