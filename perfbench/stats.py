"""Order statistics and artifact hashing used by the benchmark."""

from __future__ import annotations

import hashlib
import math


def percentile(values, q: float) -> tuple[float, int]:
    """The q-th percentile (0..100, linear interpolation) and the sample count.

    An empty sample gives (0.0, 0): the layer was not reached.
    """
    xs = sorted(values)
    if not xs:
        return 0.0, 0
    if not 0 <= q <= 100:
        raise ValueError("q must be in [0, 100]")
    pos = (len(xs) - 1) * q / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo), len(xs)


def median(values) -> tuple[float, int]:
    return percentile(values, 50)


def sha256_file(path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 16), b""):
            digest.update(block)
    return digest.hexdigest()


def hash_mismatches(actual: dict[str, str], expected: dict[str, str]) -> list[str]:
    """Names whose hash differs from the expected one, or is missing on either side."""
    return sorted(name for name in set(actual) | set(expected) if actual.get(name) != expected.get(name))
