"""Reproducible random streams for experiments.

All sampling in the package takes an explicit ``numpy.random.Generator``.
Experiments derive one independent generator per trial by mixing the campaign
seed with the trial index through a 64-bit bijective finalizer, so per-trial
streams are pairwise distinct and independent of execution order or
parallelism.
"""

from __future__ import annotations

import numpy as np
from numpy.random import default_rng

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15


def mix64(value: int) -> int:
    """Bijective 64-bit finalizer (splitmix64 output stage)."""
    z = value & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


def derive_seed(seed: int, index: int) -> int:
    """Per-trial seed derived from a campaign seed and a trial index.

    The map index -> derived seed is injective for a fixed campaign seed, so
    distinct trials never share a stream.
    """
    if index < 0:
        raise ValueError(f"index must be non-negative, got {index}")
    return mix64((seed + _GOLDEN * (index + 1)) & _MASK64)


def derive_rng(seed: int, index: int) -> np.random.Generator:
    """Generator for trial ``index`` of a campaign with the given seed."""
    return default_rng(derive_seed(seed, index))
