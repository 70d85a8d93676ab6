"""Balls-into-bins experiments: location vectors, loads, and expected counts.

k balls are assigned to n bins independently and uniformly at random.  The
location vector records the bin of each ball; the load vector counts balls
per bin.  Loads are kept as a dense integer array.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True, eq=False)
class LocationVector:
    """Outcome of a balls-into-bins experiment: entries[i] is the bin of ball i+1.

    Bins are labelled 1..n_bins.
    """

    n_bins: int
    entries: np.ndarray

    def __post_init__(self) -> None:
        if self.n_bins < 1:
            raise ValueError(f"n_bins must be a positive integer, got {self.n_bins}")
        entries = np.asarray(self.entries, dtype=np.int64)
        if entries.ndim != 1:
            raise ValueError("entries must be a one-dimensional sequence")
        if entries.size and (entries.min() < 1 or entries.max() > self.n_bins):
            raise ValueError("entries must lie in [1, n_bins]")
        entries.flags.writeable = False
        object.__setattr__(self, "entries", entries)

    @property
    def k(self) -> int:
        return int(self.entries.size)


@dataclass(frozen=True, eq=False)
class LoadVector:
    """Per-bin ball counts; loads[j-1] is the load of bin j."""

    loads: np.ndarray

    def __post_init__(self) -> None:
        loads = np.asarray(self.loads, dtype=np.int64)
        if loads.ndim != 1 or loads.size < 1:
            raise ValueError("loads must be a non-empty one-dimensional sequence")
        if loads.min() < 0:
            raise ValueError("loads must be non-negative")
        loads.flags.writeable = False
        object.__setattr__(self, "loads", loads)

    @property
    def n_bins(self) -> int:
        return int(self.loads.size)

    @property
    def total(self) -> int:
        return int(self.loads.sum())


def sample_locations(n_bins: int, k: int, rng: np.random.Generator) -> LocationVector:
    """k independent uniform draws from the bins 1..n_bins."""
    if n_bins < 1:
        raise ValueError(f"n_bins must be a positive integer, got {n_bins}")
    if k < 0:
        raise ValueError(f"k must be non-negative, got {k}")
    entries = rng.integers(1, n_bins + 1, size=k, dtype=np.int64)
    return LocationVector(n_bins=n_bins, entries=entries)


def loads(location: LocationVector) -> LoadVector:
    """Load vector of a location vector: loads[j-1] = multiplicity of bin j."""
    counts = np.bincount(location.entries, minlength=location.n_bins + 1)[1:]
    return LoadVector(loads=counts)


def max_load(load_vector: LoadVector) -> int:
    """Maximum load over all bins."""
    return int(load_vector.loads.max())


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
