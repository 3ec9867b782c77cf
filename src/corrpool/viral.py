"""Viral-load model for infected individuals.

Viral loads are drawn from a Gaussian mixture on log10 copies/mL and
exponentiated once at population generation; downstream PCR math works in
linear copies. Cycle-threshold (Ct) values convert to log10 viral load via an
affine calibration curve.
"""

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import ndtr

# log10 VL = CT_INTERCEPT + CT_SLOPE * Ct
CT_INTERCEPT = 14.0 + np.log10(1.105)
CT_SLOPE = -0.681 / np.log(10.0)
# Draws per block of the samplers below: 512 KB of doubles.
_BLOCK = 1 << 16


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


DEFAULT_GMM = GmmParams(
    weights=(0.33, 0.54, 0.13),
    mus=(8.09, 5.35, 3.75),
    sigmas=(1.06, 0.89, 0.39),
)


def ct_to_log10_viral_load(ct):
    """Convert a PCR cycle-threshold value to log10 viral load (copies/mL).

    Affine calibration; strictly decreasing in Ct.
    """
    ct = np.asarray(ct, dtype=float)
    if not np.all(np.isfinite(ct)):
        raise ValueError("ct must be finite")
    out = CT_INTERCEPT + CT_SLOPE * ct
    return float(out) if out.ndim == 0 else out


def sample_categories(weights, rng: np.random.Generator, size) -> np.ndarray:
    """The values and stream position of rng.choice(len(weights), size, p=weights), faster.

    The category of a uniform u is the number of CDF entries at or below it,
    which is what choice's searchsorted(side="right") returns, counted here
    with one comparison per category boundary into an index just wide enough
    for the category count. The uniforms are drawn _BLOCK at a time into one
    reused buffer, the same doubles in the same order as one rng.random(size).
    """
    cdf = np.cumsum(weights, dtype=float)
    cdf /= cdf[-1]
    out = np.zeros(size, dtype=np.min_scalar_type(len(cdf) - 1))
    flat = out.reshape(-1)
    buf = np.empty(min(flat.size, _BLOCK))
    for start in range(0, flat.size, _BLOCK):
        u = buf[: flat.size - start]
        rng.random(out=u)
        for c in cdf[:-1]:
            flat[start : start + u.size] += u >= c
    return out


def sample_log10_viral_load(params: GmmParams, rng: np.random.Generator, size):
    """Draw log10 viral loads for infected individuals from the mixture.

    The same bits and stream position as rng.normal(mu[comp], sd[comp]) with
    comp = rng.choice(len(w), size, p=w), drawn by sample_categories. The
    normals are drawn _BLOCK at a time into the output and scaled through one
    reused buffer, so a call holds its output, the components and block scratch.
    """
    w, mu, sd = params.as_arrays()
    out = np.empty(size)
    comp = sample_categories(w, rng, out.shape).reshape(-1)
    flat = out.reshape(-1)
    buf = np.empty(min(flat.size, _BLOCK))
    for start in range(0, flat.size, _BLOCK):
        x = flat[start : start + _BLOCK]
        k = comp[start : start + _BLOCK]
        rng.standard_normal(out=x)
        x *= sd.take(k, out=buf[: x.size], mode="clip")
        x += mu.take(k, out=buf[: x.size], mode="clip")
    return out


def sample_viral_load(params: GmmParams, rng: np.random.Generator, size):
    """Draw viral loads in linear copies/mL for infected individuals."""
    x = sample_log10_viral_load(params, rng, size)
    return np.power(10.0, x, out=x)
