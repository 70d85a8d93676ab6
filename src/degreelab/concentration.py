"""Concentration point of the maximum load in a balls-into-bins experiment.

For k balls thrown independently and uniformly into n bins, the expected
number of bins with load exactly x grows like exp(load_exponent(x, n, k)) up
to a constant factor.  The unique positive zero of that exponent marks where
bins of a given load stop appearing, and the maximum load (equivalently the
maximum degree of the random multigraph built by pairing up ball locations)
concentrates on the two integers around it.

This module evaluates the exponent, solves for its zero, and turns the zero
into a predicted window and two-point anchor for the maximum degree of a
sparse random planar graph below the critical density, that is with at most
n/2 + O(n^{2/3}) edges.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

#: Window half-width such that a +/- eps window is guaranteed to span at most
#: two consecutive integers after flooring.
TWO_POINT_EPS = 1.0 / 3.0


def _validate_counts(n_bins: int, n_balls: int) -> None:
    if n_bins < 1:
        raise ValueError(f"n_bins must be a positive integer, got {n_bins}")
    if n_balls < 1:
        raise ValueError(f"n_balls must be a positive integer, got {n_balls}")


def load_exponent(x: float, n_bins: int, n_balls: int) -> float:
    """Log-scale exponent of the expected number of bins with load x.

    Evaluates ``x*log(k) + x - (x + 1/2)*log(x) - (x - 1)*log(n)`` (natural
    logarithms) for n = n_bins and k = n_balls.  The function is positive on
    (0, 1], strictly concave for x >= 1, and tends to -infinity, so it has a
    unique positive zero.

    Raises ValueError for non-positive x.
    """
    _validate_counts(n_bins, n_balls)
    if x <= 0:
        raise ValueError(f"x must be positive, got {x}")
    return (
        x * math.log(n_balls)
        + x
        - (x + 0.5) * math.log(x)
        - (x - 1.0) * math.log(n_bins)
    )


def concentration_point(n_bins: int, n_balls: int) -> float:
    """Unique positive zero of ``load_exponent`` for the given bin/ball counts.

    Solved by bracketed bisection to float resolution: the exponent is
    positive at x = 1 (it equals log(n_balls) + 1 there), so the zero is
    bracketed by [1, x_hi] where x_hi doubles until the exponent goes
    negative, and the bracket is bisected until its ends are adjacent
    floats.  The returned value always exceeds 1.
    """
    _validate_counts(n_bins, n_balls)

    lo = 1.0
    hi = 2.0
    while load_exponent(hi, n_bins, n_balls) > 0.0:
        lo = hi
        hi *= 2.0
    while True:
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            return mid
        if load_exponent(mid, n_bins, n_balls) > 0.0:
            lo = mid
        else:
            hi = mid


def balanced_concentration(n: int) -> float:
    """Concentration point for the balanced case of n balls in n bins."""
    return concentration_point(n, n)


@dataclass(frozen=True)
class PredictedInterval:
    """Predicted window for a maximum degree, plus its two-point anchor.

    The window is [lo, hi]; delta_star is the anchor such that the two-point
    prediction is {delta_star, delta_star + 1}.
    """

    lo: int
    hi: int
    delta_star: int

    def __post_init__(self) -> None:
        if self.lo > self.hi:
            raise ValueError(f"lo={self.lo} exceeds hi={self.hi}")


def predicted_interval_sparse(n: int, m: int, eps: float) -> PredictedInterval:
    """Predicted max-degree window for a uniform planar graph below n/2 edges.

    Valid when m <= n/2 + O(n^{2/3}); only n >= 1, 1 <= m <= n(n-1)/2 and a
    finite eps >= 0 are checked here, in that order.  The window is
    [floor(c - eps), floor(c + eps)] with c the concentration point for 2m
    balls in n bins, and delta_star = floor(c - 1/3).
    """
    if n < 1:
        raise ValueError(f"n must be a positive integer, got {n}")
    if m < 1:
        raise ValueError(f"m must be a positive integer, got {m}")
    if m > n * (n - 1) // 2:
        raise ValueError(f"m must be at most n(n-1)/2 = {n * (n - 1) // 2}, got {m}")
    if not math.isfinite(eps):
        raise ValueError(f"eps must be finite, got {eps}")
    if eps < 0:
        raise ValueError(f"eps must be non-negative, got {eps}")
    c = concentration_point(n, 2 * m)
    return PredictedInterval(
        lo=math.floor(c - eps),
        hi=math.floor(c + eps),
        delta_star=math.floor(c - TWO_POINT_EPS),
    )

