"""Balls-into-bins experiments: location vectors, loads, and expected counts.

k balls are assigned to n bins independently and uniformly at random.  The
location vector is an int64 array whose entry i is the bin of ball i + 1,
with bins labelled 1..n; the load array counts balls per bin, loads[j - 1]
being the load of bin j.
"""

from __future__ import annotations

import math

import numpy as np


def sample_locations(n_bins: int, k: int, rng: np.random.Generator) -> np.ndarray:
    """k independent uniform draws from the bins 1..n_bins, as int64 entries."""
    if n_bins < 1:
        raise ValueError(f"n_bins must be a positive integer, got {n_bins}")
    if k < 0:
        raise ValueError(f"k must be non-negative, got {k}")
    return rng.integers(1, n_bins + 1, size=k, dtype=np.int64)


def loads(entries: np.ndarray, n_bins: int) -> np.ndarray:
    """Load array of a location vector: loads[j - 1] = multiplicity of bin j.

    ``entries`` must be one-dimensional integers in [1, n_bins].
    """
    if n_bins < 1:
        raise ValueError(f"n_bins must be a positive integer, got {n_bins}")
    entries = np.asarray(entries)
    if entries.ndim != 1:
        raise ValueError(f"entries must be one-dimensional, got shape {entries.shape}")
    if entries.size:
        if entries.dtype.kind not in "iu":
            raise ValueError(f"entries must be integers, got {entries.dtype}")
        if entries.min() < 1 or entries.max() > n_bins:
            raise ValueError(f"entries must lie in [1, {n_bins}]")
    counts = np.bincount(entries.astype(np.int64, copy=False), minlength=n_bins + 1)
    return counts[1:]


def max_load(loads: np.ndarray) -> int:
    """Maximum load over all bins."""
    return int(loads.max())


def expected_bins_with_load(l: int, n_bins: int, k: int) -> float:
    """Expected number of bins with load exactly l.

    Equals ``n * C(k, l) * (1/n)^l * (1 - 1/n)^(k-l)``, evaluated in log
    space via log-gamma so it stays finite for ball counts up to 1e8.
    """
    if n_bins < 1:
        raise ValueError(f"n_bins must be a positive integer, got {n_bins}")
    if k < 0:
        raise ValueError(f"k must be non-negative, got {k}")
    if not 0 <= l <= k:
        raise ValueError(f"l must lie in [0, k={k}], got {l}")
    if n_bins == 1:
        return 1.0 if l == k else 0.0
    log_binom = (
        math.lgamma(k + 1) - math.lgamma(l + 1) - math.lgamma(k - l + 1)
    )
    log_value = (
        math.log(n_bins)
        + log_binom
        - l * math.log(n_bins)
        + (k - l) * math.log1p(-1.0 / n_bins)
    )
    return math.exp(log_value)
