"""Viral-load model for infected individuals.

Viral loads are drawn from a Gaussian mixture on log10 copies/mL and
exponentiated once at population generation; downstream PCR math works in
linear copies.
"""

import copy
import math
from dataclasses import dataclass

import numpy as np
from scipy.special import ndtr

@dataclass(frozen=True)
class GmmParams:
    """Gaussian mixture on log10 viral load (copies/mL) among infected individuals."""

    weights: tuple[float, ...]
    mus: tuple[float, ...]
    sigmas: tuple[float, ...]

    def __post_init__(self):
        if not (len(self.weights) == len(self.mus) == len(self.sigmas)):
            raise ValueError("weights, mus, sigmas must have equal length")
        if len(self.weights) == 0:
            raise ValueError("mixture needs at least one component")
        if any(w < 0 for w in self.weights):
            raise ValueError("mixture weights must be non-negative")
        if not abs(sum(self.weights) - 1.0) <= 1e-12:
            raise ValueError("mixture weights must sum to 1")
        if not all(math.isfinite(m) for m in self.mus):
            raise ValueError("mixture means must be finite")
        if not all(0 < s < math.inf for s in self.sigmas):
            raise ValueError("mixture sigmas must be positive and finite")

    def as_arrays(self):
        return (np.asarray(self.weights), np.asarray(self.mus), np.asarray(self.sigmas))

    def cdf(self, x) -> np.ndarray:
        """Mixture CDF of log10 viral load, vectorized over x."""
        w, mu, sd = self.as_arrays()
        x = np.asarray(x, dtype=float)
        z = (x[..., None] - mu) / sd
        return ndtr(z) @ w

    def sf(self, x) -> np.ndarray:
        """Mixture survival function 1 - cdf(x), summed from the upper normal tails."""
        w, mu, sd = self.as_arrays()
        x = np.asarray(x, dtype=float)
        z = (x[..., None] - mu) / sd
        return ndtr(-z) @ w


# the means are log10 VL at Ct 20.13, 29.41 and 34.81 under the calibration
# curve log10 VL = 14 + log10(1.105) - 0.681 * Ct / ln(10)
DEFAULT_GMM = GmmParams(
    weights=(0.33, 0.54, 0.13),
    mus=(8.09, 5.35, 3.75),
    sigmas=(1.06, 0.89, 0.39),
)


def count_pmf(params: GmmParams, size: int):
    """P(K = k) for k = 0..size-1 and P(K >= size), where K = rint(V) is the
    integer count of a load V whose log10 follows the mixture.

    K = k takes the loads in [k - 1/2, k + 1/2). A difference of CDF values
    near 1 loses digits, so once the CDF passes 1/2 the masses are taken from
    differences of the survival function instead.
    """
    edges = np.log10(np.arange(size) + 0.5)
    cdf = np.concatenate(([0.0], params.cdf(edges)))
    sf = np.concatenate(([1.0], params.sf(edges)))
    return np.where(cdf[1:] <= 0.5, np.diff(cdf), -np.diff(sf)), float(sf[-1])


def sample_categories(weights, rng: np.random.Generator, size) -> np.ndarray:
    """The values and stream position of rng.choice(len(weights), size, p=weights), faster.

    The category of a uniform u is the number of CDF entries at or below it,
    which is what choice's searchsorted(side="right") returns, counted here
    with one comparison per category boundary into an index just wide enough
    for the category count.
    """
    cdf = np.cumsum(weights, dtype=float)
    cdf /= cdf[-1]
    u = rng.random(size)
    out = np.zeros(size, dtype=np.min_scalar_type(len(cdf) - 1))
    for c in cdf[:-1]:
        out += u >= c
    return out


def category_stream(rng: np.random.Generator, size: int) -> np.random.Generator:
    """The generator from which a caller drawing `size` loads in blocks, each
    block through sample_viral_load(..., categories), takes the categories.

    It is a copy of rng, still at the category uniforms, and rng skips past
    those uniforms, so the loads' normals follow from where one call would
    draw them. Generator.random takes one 64-bit PCG64 output per double, so
    rng.bit_generator.advance(size) lands exactly after `size` uniforms;
    advance also drops the half of a 64-bit output that a 32-bit draw left
    buffered, which no double consumes, so it is restored. Only PCG64, the
    bit generator of np.random.default_rng, is accepted.
    """
    bits = rng.bit_generator
    if not isinstance(bits, np.random.PCG64):
        raise TypeError(f"categories are drawn ahead on PCG64 streams only, not {type(bits).__name__}")
    categories = copy.deepcopy(rng)
    state = bits.state
    bits.advance(size)
    ahead = bits.state
    ahead["has_uint32"], ahead["uinteger"] = state["has_uint32"], state["uinteger"]
    bits.state = ahead
    return categories


def sample_log10_viral_load(params: GmmParams, rng: np.random.Generator, size, categories=None):
    """Draw log10 viral loads for infected individuals from the mixture.

    The same bits and stream position as rng.normal(mu[comp], sd[comp]) with
    comp = rng.choice(len(w), size, p=w), drawn by sample_categories from the
    generator `categories` (rng by default), then rng's standard normals
    scaled per component. The components are converted to intp once for both
    lookups: take or indexing with one-byte indices is several times slower.
    """
    w, mu, sd = params.as_arrays()
    k = sample_categories(w, rng if categories is None else categories, size).astype(np.intp)
    x = rng.standard_normal(size)
    x *= sd.take(k)
    x += mu.take(k)
    return x


def sample_viral_load(params: GmmParams, rng: np.random.Generator, size, categories=None):
    """Draw viral loads in linear copies/mL for infected individuals."""
    x = sample_log10_viral_load(params, rng, size, categories)
    return np.power(10.0, x, out=x)
