"""PCR sensitivity models.

Three variants of the per-test sensitivity function p(v), each with the same
method pair: success_probability(total_load, pool_size=1), the probability
that a test on pool_size samples with summed load total_load is positive, and
draw(total_load, pool_size, rng), which samples those outcomes:

- realistic: a physical chain where the machine counts template copies from a
  subsample. Each person gives a 1 mL sample, so the pooled sample holds
  K = round(sum of member loads) copies (loads are in copies/mL). An individual
  test amplifies a 100 uL subsample with binding efficiency 0.5, so each copy
  independently makes it into the amplified subsample with probability
  0.5 * 100 uL / 1000 uL = 0.05; a pool of n subsamples 1/n of that volume,
  which is how dilution enters, and capture_probability(n) = 0.05 / n. The
  test is positive iff the count reaches the detection threshold tau, the
  model's only parameter.
- step: deterministic threshold on viral load, p(v) = 1{v >= u0}.
- piecewise: a piecewise-constant function used by the exact counterexample
  analysis: 0 at v=0, theta1 on (0,2), theta2 on [2,3), 1 on [3,inf).

The step and piecewise functions are applied to the pool's mean load
total_load / pool_size, and their draws compare one uniform per test with it.

All variants satisfy p(0) = 0 (no intrinsic false positives) and are monotone
non-decreasing in v. The module also calibrates tau so that the mean
individual-test false-negative rate over infected loads hits a target. One
call draws the infected loads once, block by block, into one array of 4-byte
counts (each block's mixture categories come from a copy of the stream, see
category_stream) and sorts it; each target's search probes tau = 1, 2, 4, ...
and then bisects (_first_reaching), and each probe sums the rate over the
distinct counts below that tau's certain count.

The binomial tail P(Binomial(K, p) >= tau) is the hot kernel of calibration,
the delta' sampler and pooled-test draws. Most loads sit so far above the
threshold that the tail is exactly 1.0 in double precision; a Chernoff bound
gives, per (p, tau), a count beyond which that is certain (found by the
search that finds tau), and those elements skip the incomplete-beta
evaluation without changing a bit of the result. The counts left between tau
and that cutoff go through betainc once per element, so callers with many
repeated counts pass each distinct count once: calibration sums its curve
over the distinct counts, and the delta' estimator evaluates the distinct
pooled counts of X.
"""

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.special import betainc

from .viral import GmmParams, category_stream, sample_viral_load

_SURE_POSITIVE = 1.0 - 1e-12
# Upper end of calibrate_tau's search range.
_TAU_MAX = 10**7
# calibrate_tau's counts are uint32: a larger count is stored as this cap.
_COUNT_MAX = np.iinfo(np.uint32).max
# Loads per block of calibration's and the delta' sampler's draws: 512 KB of doubles.
_BLOCK = 1 << 16


# Per-copy capture probability of an individual test: binding efficiency 0.5
# times the 100 uL subsample's share of the 1 mL sample.
_CAPTURE = 0.5 * 100.0 / 1000.0


def capture_probability(pool_size=1):
    """Per-copy probability of entering the amplified subsample of a pooled test."""
    return _CAPTURE / np.asarray(pool_size, dtype=float)


# A lower tail P(Binomial(K, p) < tau) of at most 2**-60 is 1/128 of the gap
# between 1.0 and the next double below it, so the tail rounds to exactly 1.0
# with room left for rounding in the bound and in betainc.
_CERTAIN_LOG_TAIL = 60.0 * math.log(2.0)


def _first_reaching(f, target, lo, hi, cap=math.inf):
    """Smallest integer x in (lo, cap] with f(x) >= target, for a non-decreasing
    f with f(lo) < target and lo < hi: probes hi, 2 hi, 4 hi, ... (capped at
    cap) until f reaches the target, then bisects the last bracket at
    (lo + hi) // 2. Raises ValueError if hi exceeds cap or f(cap) misses."""
    while hi > cap or f(hi) < target:
        if hi >= cap:
            raise ValueError(f"target {target} unreachable up to {cap}")
        lo, hi = hi, min(2 * hi, cap)
    # invariant: f(lo) < target <= f(hi)
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if f(mid) >= target:
            hi = mid
        else:
            lo = mid
    return hi


@lru_cache(maxsize=4096)
def _certain_count(p: float, tau: int) -> float:
    """Smallest count K_c with P(Binomial(K, p) >= tau) == 1.0 exactly for all K >= K_c.

    The Chernoff bound P(Binomial(K, p) <= a) <= exp(-K * D(a/K || p)), with
    a = tau - 1 and D the Bernoulli relative entropy, holds for K > a/p, where
    its exponent K * D(a/K || p) increases with K; the cutoff is the first
    integer K at which the exponent reaches 60 ln 2. Returns inf (no shortcut)
    when p is not in (0, 1) or the cutoff lies beyond 2**53, where doubles no
    longer hold every integer.
    """
    if not 0.0 < p < 1.0:
        return math.inf
    a = float(tau - 1)
    log_q = math.log1p(-p)

    def exponent(K):
        upper = (K - a) * (math.log1p(-a / K) - log_q)
        return upper if a == 0.0 else upper + a * (math.log(a / K) - math.log(p))

    start = max(float(tau), math.floor(a / p) + 1.0)  # exponent(start) may fall short
    try:
        return _first_reaching(exponent, _CERTAIN_LOG_TAIL, start - 1.0, start, cap=2.0**53)
    except ValueError:
        return math.inf


def binomial_tail(counts, p, tau):
    """P(Binomial(K, p) >= tau), vectorized over K and p; 0 where K < tau.

    Counts and p are broadcast together, and one Chernoff cutoff K_c is taken
    from the smallest p. The lower tail falls as p grows, so at K >= K_c every
    element's lower tail is below 2**-60 and it gets 1.0 without calling
    betainc; betainc, which then evaluates the small complement and subtracts
    it from 1, returns exactly 1.0 there too, also for an element whose own
    p has a smaller cutoff. The counts left in the window [tau, K_c) go
    through betainc once per element, so the result is bit-identical to
    evaluating every K >= tau through betainc.
    """
    K, p = np.broadcast_arrays(np.asarray(counts, dtype=float), np.asarray(p, dtype=float))
    cutoff = _certain_count(float(p.min()), int(tau)) if p.size else math.inf
    out = np.asarray(K >= cutoff, dtype=float)
    m = (K >= tau) & (K < cutoff)
    # regularized incomplete beta: P(Binom(K,p) >= tau) = I_p(tau, K - tau + 1)
    out[m] = betainc(float(tau), K[m] - tau + 1.0, p[m])
    return out


def _loads(total_load) -> np.ndarray:
    total_load = np.asarray(total_load, dtype=float)
    if np.any(total_load < 0):
        raise ValueError("viral loads must be non-negative")
    return total_load


def draw_positive(total_load, pool_size, tau: int, rng: np.random.Generator):
    """Sample pooled-test outcomes for an array of total loads.

    Loads whose analytic tail exceeds 1 - 1e-12 are declared positive
    outright and counts below tau negative; every other count is drawn from
    the exact binomial.
    """
    total_load = np.atleast_1d(_loads(total_load))
    K = np.rint(total_load)
    p = np.broadcast_to(capture_probability(pool_size), K.shape)
    tail = binomial_tail(K, p, tau)

    out = tail > _SURE_POSITIVE
    undecided = ~out & (K >= tau)
    if np.any(undecided):
        m = rng.binomial(K[undecided].astype(np.int64), p[undecided])
        out[undecided] = m >= tau
    return out


@dataclass(frozen=True)
class RealisticSensitivity:
    """Realistic binomial-subsampling sensitivity at detection threshold tau;
    dilution emerges from the shrinking subsample volume, so pooled tests pass
    the raw total load."""

    tau: int

    def __post_init__(self):
        if isinstance(self.tau, bool) or self.tau != int(self.tau) or self.tau < 1:
            raise ValueError(f"tau must be a positive integer, got {self.tau!r}")

    def success_probability(self, total_load, pool_size=1):
        """Analytic probability that a test on the given total load is positive.

        total_load is the sum of member viral loads in copies/mL; pool_size may
        be a scalar or an array matched to total_load.
        """
        out = binomial_tail(np.rint(_loads(total_load)), capture_probability(pool_size), self.tau)
        return float(out) if out.ndim == 0 else out

    def draw(self, total_load, pool_size, rng):
        return draw_positive(total_load, pool_size, self.tau, rng)


class _MeanLoadSensitivity:
    """A sensitivity function p(v) applied to the pool's mean load."""

    def success_probability(self, total_load, pool_size=1):
        out = self._p(_loads(total_load) / pool_size)
        return float(out) if out.ndim == 0 else out

    def draw(self, total_load, pool_size, rng):
        p = self.success_probability(total_load, pool_size)
        return rng.random(np.shape(p)) < p


@dataclass(frozen=True)
class StepSensitivity(_MeanLoadSensitivity):
    """Deterministic threshold sensitivity: p(v) = 1 when v >= u0 (and v > 0)."""

    u0: float

    def __post_init__(self):
        if not 0 <= self.u0 < math.inf:
            raise ValueError("u0 must be non-negative and finite")

    def _p(self, v):
        return np.where((v >= self.u0) & (v > 0), 1.0, 0.0)


@dataclass(frozen=True)
class PiecewiseSensitivity(_MeanLoadSensitivity):
    """Piecewise-constant sensitivity: 0 at 0, theta1 on (0,2), theta2 on [2,3), 1 on [3,inf)."""

    theta1: float
    theta2: float

    def __post_init__(self):
        if not 0 < self.theta1 < self.theta2 < 1:
            raise ValueError("need 0 < theta1 < theta2 < 1")

    def _p(self, v):
        return np.select(
            [v == 0, v < 2, v < 3],
            [0.0, self.theta1, self.theta2],
            default=1.0,
        )


def check_calibration(beta_bar: float, draws: int = 10**6):
    """Raise ValueError unless calibrate_tau accepts this target FNR and draw count."""
    if not 0 < beta_bar <= 0.5:
        raise ValueError(f"beta_bar must be in (0, 0.5], got {beta_bar!r}")
    if draws < 10**5:
        raise ValueError("calibration needs at least 1e5 draws")


def _distinct_sorted(a):
    """np.unique(a, return_counts=True) of a sorted 1-d array, without sorting
    it again: a run of equal values starts where neighbours differ."""
    starts = np.flatnonzero(a[1:] != a[:-1]) + 1
    if a.size:
        starts = np.concatenate(([0], starts))
    return a[starts], np.diff(np.append(starts, a.size))


def _fnr_curve(K, p):
    """calibrate_tau's FNR estimate on the sorted counts K, as a function of tau.

    Counts at or above K_c(p, tau) have a tail of exactly 1.0 and count as
    sure hits, an exact integer; each probe takes the distinct counts below
    K_c, the prefix of K that searchsorted finds (see _distinct_sorted),
    weights their tails by their multiplicities and sums them by numpy, not
    BLAS. The search key has K's own dtype: a Python number would make
    searchsorted convert all of a uint32 K, a copy per probe. The curve keeps
    no state between probes, so it depends on K and tau alone.
    """

    def beta_bar(tau):
        below = int(np.searchsorted(K, K.dtype.type(_certain_count(p, tau))))
        values, counts = _distinct_sorted(K[:below])
        tails = binomial_tail(values, p, tau)
        return 1.0 - (K.size - below + (counts * tails).sum()) / K.size

    return beta_bar


def _draw_counts(gmm, rng, draws):
    """rint of `draws` loads, capped at _COUNT_MAX, as one uint32 array.

    The loads are drawn _BLOCK at a time, each block's mixture categories
    from category_stream(rng, draws), the bits and stream position of one
    sample_viral_load call; each block is rounded and capped in place and
    stored into the counts.
    """
    categories = category_stream(rng, draws)
    K = np.empty(draws, dtype=np.uint32)
    for start in range(0, draws, _BLOCK):
        v = sample_viral_load(gmm, rng, min(_BLOCK, draws - start), categories)
        np.rint(v, out=v)
        K[start : start + v.size] = np.minimum(v, _COUNT_MAX, out=v)
    return K


def calibrate_tau(
    targets,
    gmm: GmmParams,
    rng: np.random.Generator,
    draws: int = 10**6,
) -> list[int]:
    """For each target, the smallest integer tau whose estimated individual-test
    FNR reaches it.

    Every target is checked before anything is drawn. The estimate
    beta_bar(tau), the mean of 1 - P(positive | V) over `draws` infected viral
    loads, uses one set of draws for every target and tau, so it is monotone
    in tau, each search (_first_reaching over [1, _TAU_MAX]) is exact and the
    result deterministic given the rng seed. Every target searches the same
    curve (see _fnr_curve), so it gets the tau of a call of its own on the
    same rng state.

    The counts come from _draw_counts and are sorted in place, so no float
    array of every load exists. The cap on them changes no tau: every count a
    probe can weigh lies below K_c(p, _TAU_MAX), about 2.0e8, far under the
    cap, so a capped count stays a sure hit.
    """
    for target in targets:
        check_calibration(target, draws)
    K = _draw_counts(gmm, rng, draws)
    K.sort()
    beta_bar = _fnr_curve(K, float(capture_probability(1)))
    # beta_bar(0) = 0 < target: at tau = 0 every test is positive
    return [_first_reaching(beta_bar, target, 0, 1, _TAU_MAX) for target in targets]
