"""Tests for balls-into-bins sampling, loads, and expected counts."""

from __future__ import annotations

import math
from collections import Counter
from fractions import Fraction
from itertools import product

import numpy as np
import pytest
from scipy import stats

from degreelab.balls_bins import (
    expected_bins_with_load,
    loads,
    max_load,
    sample_locations,
)
from degreelab.concentration import balanced_concentration
from degreelab.rng import derive_rng

from oracles import complex_part_max_degree_cdf, forest_degree_law, max_load_cdf


class TestLocationsAndLoads:
    def test_zero_balls_gives_empty_vector(self):
        rng = np.random.default_rng(0)
        entries = sample_locations(5, 0, rng)
        assert entries.shape == (0,)
        assert loads(entries, 5).tolist() == [0, 0, 0, 0, 0]

    def test_single_bin_takes_everything(self):
        rng = np.random.default_rng(0)
        entries = sample_locations(1, 5, rng)
        assert entries.tolist() == [1, 1, 1, 1, 1]
        assert max_load(loads(entries, 1)) == 5

    def test_five_bins_eight_balls_worked_example(self):
        counts = loads(np.array([5, 3, 5, 1, 2, 5, 2, 3]), 5)
        assert counts.tolist() == [1, 2, 2, 0, 3]
        assert counts.dtype == np.int64
        assert max_load(counts) == 3

    def test_distinct_entries_give_zero_one_loads(self):
        assert set(loads(np.array([2, 4, 6]), 6).tolist()) <= {0, 1}

    def test_load_sum_is_ball_count(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            n = int(rng.integers(1, 50))
            k = int(rng.integers(0, 200))
            entries = sample_locations(n, k, rng)
            assert entries.dtype == np.int64 and entries.shape == (k,)
            assert loads(entries, n).sum() == k

    def test_entries_out_of_range_rejected(self):
        with pytest.raises(ValueError, match="entries must lie in \\[1, 3\\]"):
            loads(np.array([1, 4]), 3)
        with pytest.raises(ValueError, match="entries must lie in \\[1, 3\\]"):
            loads(np.array([0, 2]), 3)

    @pytest.mark.parametrize(
        "entries,n_bins,message",
        [
            (np.array([[1, 2], [2, 3]]), 3, "entries must be one-dimensional"),
            (np.array([1.0, 2.0]), 3, "entries must be integers, got float64"),
            (np.zeros(0, dtype=np.int64), 0, "n_bins must be a positive integer"),
        ],
        ids=["two-dimensional", "float", "no-bins"],
    )
    def test_malformed_input_rejected(self, entries, n_bins, message):
        with pytest.raises(ValueError, match=message):
            loads(entries, n_bins)


class TestSamplingDistribution:
    def test_all_27_outcomes_equally_likely(self):
        # Exact check at tiny scale: every location vector for 3 balls in 3
        # bins should appear with frequency 1/27 up to 3 sigma.
        rng = derive_rng(9091, 0)
        draws = rng.integers(0, 3, size=(10**6, 3))
        codes = draws[:, 0] * 9 + draws[:, 1] * 3 + draws[:, 2]
        counts = np.bincount(codes, minlength=27)
        p = 1.0 / 27.0
        sigma = math.sqrt(10**6 * p * (1 - p))
        assert counts.size == 27
        assert np.all(np.abs(counts - 10**6 * p) <= 3 * sigma)

    def test_marginals_pass_chi_square(self):
        rng = derive_rng(424242, 0)
        entries = sample_locations(10, 10**6, rng)
        counts = np.bincount(entries, minlength=11)[1:]
        result = stats.chisquare(counts)
        assert result.pvalue >= 0.001


class TestExpectedBinsWithLoad:
    def test_load_zero_matches_closed_form(self):
        n, k = 17, 40
        expected = n * (1 - 1 / n) ** k
        assert expected_bins_with_load(0, n, k) == pytest.approx(expected)

    def test_load_k_matches_closed_form(self):
        n, k = 9, 6
        assert expected_bins_with_load(k, n, k) == pytest.approx(n * n**-k)

    def test_counts_sum_to_bin_count(self):
        rng = np.random.default_rng(5)
        for _ in range(25):
            n = int(rng.integers(1, 100))
            k = int(rng.integers(0, 100))
            total = sum(expected_bins_with_load(l, n, k) for l in range(k + 1))
            assert total == pytest.approx(n, rel=1e-6)

    def test_crosses_one_near_the_concentration_point(self):
        # The expected count of bins at load l crosses 1 within one unit of
        # the concentration point: at n = k = 1e4 the point is ~7.78 and the
        # counts are mu(6) ~ 5.2, mu(7) ~ 0.73, mu(9) ~ 0.01.
        n = k = 10**4
        anchor = math.floor(balanced_concentration(n))
        assert expected_bins_with_load(anchor - 1, n, k) >= 1.0
        assert expected_bins_with_load(anchor + 2, n, k) < 1.0

    def test_large_counts_stay_finite(self):
        value = expected_bins_with_load(10, 10**8, 10**8)
        assert 0.0 < value < 10**8


class TestMaxLoadConcentration:
    def test_desk_scale_window_hit_rates(self):
        # 200 trials at n = k = 1e5 with eps = 0.25.  The exact floor window
        # [c - eps, c + eps] captures the bulk but not 90% of the mass at this
        # scale (the expected count of bins at the window's lower edge is
        # still Theta(1)); widening the window one integer down is enough.
        n = k = 10**5
        c = balanced_concentration(n)
        lo, hi = math.floor(c - 0.25), math.floor(c + 0.25)
        hits = wide_hits = 0
        trials = 200
        for i in range(trials):
            rng = derive_rng(515151, i)
            entries = rng.integers(1, n + 1, size=k)
            top = int(np.bincount(entries, minlength=n + 1)[1:].max())
            hits += lo <= top <= hi
            wide_hits += lo - 1 <= top <= hi
        assert hits / trials >= 0.55
        assert wide_hits / trials >= 0.95

    def test_prefix_gap_grows_with_n(self):
        # Median of (max load) - (max load of the first t bins) for
        # t = ceil(n^0.7) increases from n = 1e4 to n = 1e6.
        medians = {}
        for offset, n in ((0, 10**4), (100, 10**6)):
            t = math.ceil(n**0.7)
            gaps = []
            for i in range(100):
                rng = derive_rng(616161, offset + i)
                counts = loads(sample_locations(n, n, rng), n)
                gaps.append(max_load(counts) - max_load(counts[:t]))
            medians[n] = float(np.median(gaps))
        assert medians[10**6] > medians[10**4]


class TestMaxLoadLaw:
    """The exact max-load law in ``oracles`` that the acceptance gates use."""

    @pytest.mark.parametrize("n,k", [(1, 3), (2, 5), (3, 4), (4, 4), (3, 6)])
    def test_rationals_match_enumeration(self, n, k):
        tops = Counter(
            max(Counter(entries).values(), default=0)
            for entries in product(range(n), repeat=k)
        )
        below = 0
        for x in range(k + 1):
            below += tops[x]
            assert max_load_cdf(n, k, x, exact=True) == Fraction(below, n**k)

    @pytest.mark.parametrize("q", [5, 6, 7])
    def test_complex_part_rationals_match_forest_enumeration(self, q):
        # Triangle core on [3]: each root gains core degree 2 over its
        # degree in a uniform forest of F(q, 3).
        law = forest_degree_law(q, 3)
        for y in range(q + 2):
            below = sum(
                prob
                for degrees, prob in law.items()
                if max(d + 2 * (v < 3) for v, d in enumerate(degrees)) <= y
            )
            assert complex_part_max_degree_cdf(q, 3, 2, y, exact=True) == below

    @pytest.mark.parametrize("n,k", [(20, 20), (50, 50), (50, 25)])
    def test_poissonisation_matches_rationals(self, n, k):
        for x in range(k + 1):
            exact = float(max_load_cdf(n, k, x, exact=True))
            assert max_load_cdf(n, k, x) == pytest.approx(exact, abs=1e-4)

    @pytest.mark.parametrize("q", [20, 50])
    def test_complex_part_poissonisation_matches_rationals(self, q):
        for y in range(q + 1):
            exact = float(complex_part_max_degree_cdf(q, 3, 2, y, exact=True))
            approx = complex_part_max_degree_cdf(q, 3, 2, y)
            assert approx == pytest.approx(exact, abs=1e-4)
