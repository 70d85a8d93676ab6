"""Tests for the concentration point and predicted windows."""

from __future__ import annotations

import math

import numpy as np
import pytest

from degreelab.concentration import (
    TWO_POINT_EPS,
    PredictedInterval,
    balanced_concentration,
    concentration_point,
    load_exponent,
    predicted_interval_sparse,
)


class TestLoadExponent:
    def test_at_one_the_log_terms_vanish(self):
        assert load_exponent(1.0, 100, 5) == pytest.approx(math.log(5) + 1.0)

    def test_sign_change_bracket_at_balanced_million(self):
        # Direct evaluations of the defining formula, written out by hand.
        n = k = 10**6
        value_9 = math.log(10**6) + 9 - 9.5 * math.log(9)
        value_10 = math.log(10**6) + 10 - 10.5 * math.log(10)
        assert value_9 > 0 > value_10
        assert load_exponent(9.0, n, k) == pytest.approx(value_9)
        assert load_exponent(10.0, n, k) == pytest.approx(value_10)

    def test_positive_on_unit_interval(self):
        rng = np.random.default_rng(2024)
        for _ in range(300):
            n = int(rng.integers(1, 10**9))
            k = int(rng.integers(1, 10**9))
            x = float(rng.uniform(1e-9, 1.0))
            assert load_exponent(x, n, k) > 0.0

    def test_rejects_non_positive_x(self):
        with pytest.raises(ValueError):
            load_exponent(0.0, 10, 10)
        with pytest.raises(ValueError):
            load_exponent(-1.0, 10, 10)

    def test_rejects_bad_counts(self):
        with pytest.raises(ValueError):
            load_exponent(1.0, 0, 5)
        with pytest.raises(ValueError):
            load_exponent(1.0, 5, 0)


class TestConcentrationPoint:
    def test_balanced_million_lies_between_nine_and_ten(self):
        value = concentration_point(10**6, 10**6)
        assert 9.0 < value < 10.0

    def test_few_balls_stay_below_five_thirds(self):
        value = concentration_point(10**6, 100)
        assert 1.0 < value < 5.0 / 3.0

    def test_always_exceeds_one(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            n = int(rng.integers(1, 10**8))
            k = int(rng.integers(1, 10**8))
            assert concentration_point(n, k) > 1.0

    def test_residual_is_within_tolerance_scale(self):
        rng = np.random.default_rng(99)
        for _ in range(100):
            n = int(rng.integers(2, 10**8))
            k = int(rng.integers(1, 10**8))
            value = concentration_point(n, k)
            # The bracket ends at adjacent floats, so |f| is at most |f'|
            # times one float spacing; 20e-9 covers every slope on this
            # range of inputs.
            assert abs(load_exponent(value, n, k)) <= 20 * 1e-9

    def test_terminates_when_floats_cannot_resolve_tol(self):
        # Near x = 2.7e9 adjacent floats lie 4.8e-7 apart: the bisection
        # stops at adjacent ends instead of looping forever.
        value = concentration_point(10**9, 10**18)
        assert abs(load_exponent(value, 10**9, 10**18)) < 1e-3

    def test_balanced_shorthand_matches(self):
        assert balanced_concentration(12345) == concentration_point(12345, 12345)

    def test_matches_independent_root_finder(self):
        from scipy import optimize

        rng = np.random.default_rng(31337)
        for _ in range(50):
            n = int(rng.integers(2, 10**8))
            k = int(rng.integers(1, 10**8))
            ours = concentration_point(n, k)
            hi = 2.0
            while load_exponent(hi, n, k) > 0:
                hi *= 2.0
            reference = optimize.brentq(
                load_exponent, 1.0, hi, args=(n, k), xtol=1e-12
            )
            assert ours == pytest.approx(reference, abs=1e-9)

    def test_strictly_increasing_in_ball_count(self):
        for n in (10**3, 10**6):
            for k in (1, 2, 10, n // 2, n, 2 * n):
                a = concentration_point(n, k)
                b = concentration_point(n, k + 1)
                assert a < b

    def test_balanced_strictly_increasing(self):
        sizes = (2, 3, 10, 11, 100, 101, 10**6, 10**6 + 1)
        values = [balanced_concentration(n) for n in sizes]
        for a, b in zip(values, values[1:]):
            assert a < b


class TestPredictedIntervals:
    def test_sparse_window_at_half_density(self):
        n = 10**6
        interval = predicted_interval_sparse(n, n // 2, eps=1.0 / 3.0)
        value = balanced_concentration(n)
        assert interval.delta_star == math.floor(value - 1.0 / 3.0)
        assert 9 <= interval.delta_star <= 10

    def test_zero_eps_degenerates_to_floor(self):
        interval = predicted_interval_sparse(10**4, 10**3, eps=0.0)
        value = concentration_point(10**4, 2 * 10**3)
        assert interval.lo == interval.hi == math.floor(value)

    def test_window_width_at_most_one_for_small_eps(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            n = int(rng.integers(10, 10**7))
            m = int(rng.integers(1, max(2, n // 2)))
            interval = predicted_interval_sparse(n, m, eps=1.0 / 3.0)
            assert 0 <= interval.hi - interval.lo <= 1

    def test_interval_validates_ordering(self):
        with pytest.raises(ValueError):
            PredictedInterval(lo=3, hi=2, delta_star=2)

    @pytest.mark.parametrize(
        "n,m,eps,message",
        [
            (100, 0, 0.3, "m must be a positive integer, got 0"),
            (100, 5, -0.1, "eps must be non-negative, got -0.1"),
            (100, 4951, 0.3, "m must be at most n\\(n-1\\)/2 = 4950, got 4951"),
            # n is checked first, so a bad n is not blamed on m.
            (0, 1, 0.25, "n must be a positive integer, got 0"),
            (-3, 1, 0.25, "n must be a positive integer, got -3"),
        ],
    )
    def test_sparse_rejects_bad_arguments(self, n, m, eps, message):
        with pytest.raises(ValueError, match=message):
            predicted_interval_sparse(n, m, eps)

    def test_sparse_accepts_the_complete_graph_edge_count(self):
        interval = predicted_interval_sparse(100, 4950, 0.3)
        assert interval.lo <= interval.hi

    @pytest.mark.parametrize("eps", [math.inf, -math.inf, math.nan])
    def test_sparse_rejects_non_finite_eps(self, eps):
        # floor(c + eps) would raise OverflowError or ValueError from math.
        with pytest.raises(ValueError, match=f"eps must be finite, got {eps}"):
            predicted_interval_sparse(100, 5, eps)

    def test_anchor_is_window_low_end_at_two_point_eps(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            n = int(rng.integers(10, 10**7))
            m = int(rng.integers(1, max(2, n // 2)))
            interval = predicted_interval_sparse(n, m, eps=TWO_POINT_EPS)
            assert interval.lo == interval.delta_star
            assert interval.hi in (interval.delta_star, interval.delta_star + 1)
