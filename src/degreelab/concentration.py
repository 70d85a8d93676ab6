"""Concentration point of the maximum load in a balls-into-bins experiment.

For k balls thrown independently and uniformly into n bins, the expected
number of bins with load exactly x grows like exp(load_exponent(x, n, k)) up
to a constant factor.  The unique positive zero of that exponent marks where
bins of a given load stop appearing, and the maximum load (equivalently the
maximum degree of the random multigraph built by pairing up ball locations)
concentrates on the two integers around it.

This module evaluates the exponent, solves for its zero, and turns the zero
into predicted two-point windows for the maximum degree of sparse random
planar graphs, both below the critical density and in the five named regimes
between n/2 and n + o(n) edges.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

DEFAULT_TOL = 1e-9

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


def concentration_point(n_bins: int, n_balls: int, tol: float = DEFAULT_TOL) -> float:
    """Unique positive zero of ``load_exponent`` for the given bin/ball counts.

    Solved by bracketed bisection: the exponent is positive at x = 1 (it
    equals log(n_balls) + 1 there), so the zero is bracketed by [1, x_hi]
    where x_hi doubles until the exponent goes negative, and the bracket is
    bisected until its width is at most ``tol``, or until its ends are
    adjacent floats (above x ~ 8e6 their spacing exceeds the default tol).
    The returned value always exceeds 1.
    """
    _validate_counts(n_bins, n_balls)
    if tol <= 0:
        raise ValueError(f"tol must be positive, got {tol}")

    lo = 1.0
    hi = 2.0
    while load_exponent(hi, n_bins, n_balls) > 0.0:
        lo = hi
        hi *= 2.0
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            break
        if load_exponent(mid, n_bins, n_balls) > 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def balanced_concentration(n: int, tol: float = DEFAULT_TOL) -> float:
    """Concentration point for the balanced case of n balls in n bins."""
    return concentration_point(n, n, tol)


class Regime(Enum):
    """Edge-density regimes between n/2 + omega(n^{2/3}) and n + o(n) edges.

    The letters match the conventional split of the sparse window:
    (A) weakly supercritical m = n/2 + s, (B) intermediate m = d*n/2 with
    d in (1, 2), and m = n + t with t negative (C), critical |t| ~ n^{3/5}
    (D), or positive (E).
    """

    SUPERCRITICAL = "A_supercritical"
    INTERMEDIATE = "B_intermediate"
    BELOW_N = "C_below_n"
    CRITICAL_T = "D_critical_t"
    ABOVE_N = "E_above_n"


@dataclass(frozen=True)
class RegimeSpec:
    """A regime together with the parameters that pin it down.

    ``s_or_t`` is the shift s for regime A and t for regimes C/D/E (unused
    for B).  ``d`` is the limiting average degree for regime B only and must
    lie strictly between 1 and 2 when given.
    """

    regime: Regime
    n: int
    s_or_t: int | None = None
    d: float | None = None

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError(f"n must be a positive integer, got {self.n}")
        if self.d is not None:
            if self.regime is not Regime.INTERMEDIATE:
                raise ValueError("d is only meaningful for the intermediate regime")
            if not 1.0 < self.d < 2.0:
                raise ValueError(f"d must lie in (1, 2), got {self.d}")
        if self.regime is Regime.SUPERCRITICAL:
            if self.s_or_t is None or self.s_or_t <= 0:
                raise ValueError("regime A requires s > 0")
        elif self.regime is Regime.BELOW_N:
            if self.s_or_t is None or self.s_or_t >= 0:
                raise ValueError("regime C requires t < 0")
        elif self.regime is Regime.ABOVE_N:
            if self.s_or_t is None or self.s_or_t <= 0:
                raise ValueError("regime E requires t > 0")


def regime_parameters(spec: RegimeSpec) -> tuple[float, float]:
    """Component-scale parameters (N_L, N_R) for a regime.

    N_L and N_R are the orders of magnitude of the largest component and of
    the rest of the graph: (A) (s, n); (B) (n, n); (C) (n, |t|);
    (D) (n, n^{3/5}); (E) (n, n^{3/2} * t^{-3/2}).  Returned as floats; round
    up to integers before feeding them to ``balanced_concentration``.
    """
    n = float(spec.n)
    if spec.regime is Regime.SUPERCRITICAL:
        return float(spec.s_or_t), n
    if spec.regime is Regime.INTERMEDIATE:
        return n, n
    if spec.regime is Regime.BELOW_N:
        return n, float(abs(spec.s_or_t))
    if spec.regime is Regime.CRITICAL_T:
        return n, n ** 0.6
    if spec.regime is Regime.ABOVE_N:
        return n, n ** 1.5 * float(spec.s_or_t) ** -1.5
    raise ValueError(f"unknown regime {spec.regime!r}")


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


def predicted_interval_sparse(
    n: int, m: int, eps: float, tol: float = DEFAULT_TOL
) -> PredictedInterval:
    """Predicted max-degree window for a uniform planar graph below n/2 edges.

    Valid when m <= n/2 + O(n^{2/3}); only m >= 1 is checked here.  The
    window is [floor(c - eps), floor(c + eps)] with c the concentration point
    for 2m balls in n bins, and delta_star = floor(c - 1/3).
    """
    if m < 1:
        raise ValueError(f"m must be a positive integer, got {m}")
    if eps < 0:
        raise ValueError(f"eps must be non-negative, got {eps}")
    c = concentration_point(n, 2 * m, tol)
    return PredictedInterval(
        lo=math.floor(c - eps),
        hi=math.floor(c + eps),
        delta_star=math.floor(c - TWO_POINT_EPS),
    )


def predicted_two_point(spec: RegimeSpec, tol: float = DEFAULT_TOL) -> int:
    """Two-point anchor for the max degree in one of the named regimes.

    Returns max(floor(c_hat(N_L) + 2/3), floor(c_hat(N_R) - 1/3)) where c_hat
    is the balanced concentration point and N_L, N_R come from
    ``regime_parameters`` (rounded up to integers).
    """
    big, rest = regime_parameters(spec)
    c_big = balanced_concentration(math.ceil(big), tol)
    c_rest = balanced_concentration(math.ceil(rest), tol)
    return max(
        math.floor(c_big + 2.0 * TWO_POINT_EPS),
        math.floor(c_rest - TWO_POINT_EPS),
    )
