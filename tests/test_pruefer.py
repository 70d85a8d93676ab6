"""Tests for the rooted-forest codec, counting, and sampling."""

from __future__ import annotations

import math
from collections import Counter
from itertools import combinations, product

import numpy as np
import pytest
from hypothesis import Phase, given, settings
from hypothesis import strategies as st

from degreelab.concentration import balanced_concentration
from degreelab.graphs import SimpleGraph, degree_sequence
from degreelab.pruefer import (
    _VECTOR_DECODE,
    _pointer_leaves,
    _release_leaves,
    codeword_degrees,
    count_forests,
    decode,
    decode_arrays,
    encode,
    sample_forest_degrees,
    sample_uniform_forest,
    validate_forest,
)
from degreelab.rng import derive_rng

from oracles import (
    ReplayRng,
    all_forests,
    forest_degree_law,
    forest_degrees,
    heap_decode,
    is_rooted_forest,
    loads_plus_roots_law,
    naive_largest_leaf_peeling,
)

# Nine vertices, three roots; drawn-out worked example used across the suite.
EXAMPLE_EDGES = frozenset({(1, 5), (2, 8), (4, 8), (8, 9), (4, 7), (6, 9)})
EXAMPLE_CODEWORD = (4, 9, 8, 1, 8, 2)


class TestEncode:
    def test_worked_example(self):
        forest = SimpleGraph.from_edges(9, EXAMPLE_EDGES)
        assert encode(forest, 3) == EXAMPLE_CODEWORD

    def test_single_edge(self):
        forest = SimpleGraph.from_edges(2, [(1, 2)])
        assert encode(forest, 1) == (1,)

    def test_one_extra_vertex_records_its_root(self):
        for t in (1, 2, 3):
            for root in range(1, t + 1):
                forest = SimpleGraph.from_edges(t + 1, [(root, t + 1)])
                assert encode(forest, t) == (root,)

    def test_rejects_n_equal_t(self):
        forest = SimpleGraph.from_edges(3)
        with pytest.raises(ValueError):
            encode(forest, 3)

    def test_rejects_cycle(self):
        with pytest.raises(ValueError, match="the edges close a cycle"):
            validate_forest(SimpleGraph.from_edges(4, [(1, 2), (2, 3), (1, 3)]), 1)

    def test_rejects_roots_in_same_component(self):
        forest = SimpleGraph.from_edges(4, [(1, 2), (3, 4)])
        with pytest.raises(ValueError, match="two roots share a component"):
            encode(forest, 2)

    def test_wrong_edge_count_rejected(self):
        with pytest.raises(ValueError, match="must have 2 edges, got 1"):
            validate_forest(SimpleGraph.from_edges(4, [(1, 3)]), 2)

    @pytest.mark.parametrize(
        "vertices,t,message",
        [
            ((1, 2, 4), 2, "vertex set \\[1, n\\] exactly"),
            ((1, 2, 3), 0, "need 1 <= t <= n, got t=0, n=3"),
            ((1, 2, 3), 4, "need 1 <= t <= n, got t=4, n=3"),
        ],
    )
    def test_rejects_vertex_set_and_root_count(self, vertices, t, message):
        forest = SimpleGraph(vertices=vertices, edges=frozenset())
        with pytest.raises(ValueError, match=message):
            validate_forest(forest, t)

    def test_matches_naive_peeling_oracle(self):
        for n, t in ((4, 1), (4, 2), (5, 2), (5, 3), (6, 1)):
            for edges in all_forests(n, t):
                recorded, removed = naive_largest_leaf_peeling(n, t, edges)
                forest = SimpleGraph.from_edges(n, edges)
                assert encode(forest, t) == tuple(recorded)
                # removed leaves are exactly the non-roots, each exactly once
                assert sorted(removed) == list(range(t + 1, n + 1))


class TestDecode:
    def test_worked_example(self):
        forest = decode(EXAMPLE_CODEWORD, n=9, t=3)
        assert forest.edges == EXAMPLE_EDGES

    def test_single_edge(self):
        assert decode((1,), n=2, t=1).edges == frozenset({(1, 2)})

    def test_rejects_last_entry_beyond_roots(self):
        with pytest.raises(ValueError):
            decode((4, 3), n=4, t=2)

    def test_rejects_wrong_length(self):
        with pytest.raises(ValueError):
            decode((1, 1, 1), n=4, t=2)

    def test_rejects_out_of_range_entry(self):
        with pytest.raises(ValueError):
            decode((5, 1), n=4, t=2)

    def test_roundtrip_all_codewords_small(self):
        for n in range(2, 7):
            for t in range(1, n):
                forests = set()
                for body in product(range(1, n + 1), repeat=n - t - 1):
                    for last in range(1, t + 1):
                        codeword = body + (last,)
                        forest = decode(codeword, n, t)
                        validate_forest(forest, t)
                        assert encode(forest, t) == codeword
                        forests.add(forest.edges)
                assert len(forests) == count_forests(n, t)

    def test_pointer_decode_matches_heap_decode_exhaustively(self):
        for n in range(2, 7):
            for t in range(1, n):
                for body in product(range(1, n + 1), repeat=n - t - 1):
                    for last in range(1, t + 1):
                        codeword = body + (last,)
                        lo, hi = decode_arrays(codeword, n, t)
                        assert (lo < hi).all()
                        edges = frozenset(zip(lo.tolist(), hi.tolist()))
                        assert edges == heap_decode(codeword, n, t)

    def test_decode_matches_heap_decode_at_1e4(self):
        rng = np.random.default_rng(10_000)
        n = 10_000
        for t in (1, 3, 100, 5_000, n - 1):
            codeword = np.append(
                rng.integers(1, n + 1, size=n - t - 1), rng.integers(1, t + 1)
            )
            lo, hi = decode_arrays(codeword, n, t)
            edges = frozenset(zip(lo.tolist(), hi.tolist()))
            assert len(edges) == n - t
            assert edges == heap_decode(codeword.tolist(), n, t)

    def test_roundtrip_all_forests_small(self):
        for n, t in ((4, 2), (5, 1), (5, 2), (5, 4), (6, 3)):
            for edges in all_forests(n, t):
                forest = SimpleGraph.from_edges(n, edges)
                assert decode(encode(forest, t), n, t).edges == edges


def _bodies(n: int, t: int, rng: np.random.Generator) -> dict[str, np.ndarray]:
    """Codeword bodies of length n - t - 1 that strain the release criterion."""
    size = n - t - 1
    drawn = np.sort(rng.integers(1, n + 1, size=size))
    return {
        "uniform": rng.integers(1, n + 1, size=size),
        "constant": np.full(size, n // 2),
        "sorted": drawn,
        "reverse_sorted": drawn[::-1].copy(),
        "top_ten": rng.integers(n - 9, n + 1, size=size),
        "bottom_ten": rng.integers(1, 11, size=size),
    }


def _codeword(body: np.ndarray, t: int, rng: np.random.Generator) -> np.ndarray:
    return np.append(body, rng.integers(1, t + 1)).astype(np.int64)


class TestReleaseStepDecode:
    """The NumPy release-step decode against the heap oracle and the loop."""

    def test_matches_heap_decode_exhaustively(self):
        # Below the cut-off too, where decode_arrays itself never takes it.
        for n in range(2, 8):
            for t in range(1, n):
                for body in product(range(1, n + 1), repeat=n - t - 1):
                    for last in range(1, t + 1):
                        entries = np.array((*body, last), dtype=np.int64)
                        leaves = _release_leaves(entries, n, t, budget=math.inf)
                        edges = frozenset(
                            zip(
                                np.minimum(entries, leaves).tolist(),
                                np.maximum(entries, leaves).tolist(),
                            )
                        )
                        assert edges == heap_decode(entries.tolist(), n, t)

    @pytest.mark.parametrize("n", [_VECTOR_DECODE + 1, 4_099, 20_000, 70_000])
    def test_matches_pointer_loop_on_adversarial_bodies(self, n):
        rng = derive_rng(17, n)
        for t in (1, n // 3, n - 1):
            for name, body in _bodies(n, t, rng).items():
                entries = _codeword(body, t, rng)
                # About 40k of the 7e4 vertices of a reverse-sorted body with
                # one root straddle their bounds; that case is the fallback's
                # (below), and its exact counts would take hundreds of MB here.
                if name == "reverse_sorted" and t == 1 and n == 70_000:
                    continue
                leaves = _release_leaves(entries, n, t, budget=math.inf)
                expected = _pointer_leaves(entries, n, t)
                assert np.array_equal(leaves, expected), (name, t)

    def test_falls_back_to_the_pointer_loop_when_too_many_are_open(self):
        n, t = 70_000, 1
        rng = derive_rng(18, 0)
        entries = _codeword(_bodies(n, t, rng)["reverse_sorted"], t, rng)
        assert _release_leaves(entries, n, t) is None
        leaves = _pointer_leaves(entries, n, t)
        lo, hi = decode_arrays(entries, n, t)
        assert np.array_equal(lo, np.minimum(entries, leaves))
        assert np.array_equal(hi, np.maximum(entries, leaves))

    @pytest.mark.parametrize("offset", [-1, 0, 1])
    def test_both_paths_agree_at_the_cut_off(self, offset):
        n = _VECTOR_DECODE + offset
        rng = derive_rng(19, n)
        for t in (1, 3, n // 3, n - 2):
            for body in _bodies(n, t, rng).values():
                entries = _codeword(body, t, rng)
                expected = _pointer_leaves(entries, n, t)
                released = _release_leaves(entries, n, t, budget=math.inf)
                assert np.array_equal(released, expected)
                lo, hi = decode_arrays(entries, n, t)
                assert np.array_equal(lo, np.minimum(entries, expected))
                assert np.array_equal(hi, np.maximum(entries, expected))


@st.composite
def codewords(draw, min_n: int = 2, max_n: int = 60):
    """(n, t, codeword) with min_n <= n <= max_n, 1 <= t < n, any codeword."""
    n = draw(st.integers(min_n, max_n))
    t = draw(st.integers(1, n - 1))
    body = draw(st.lists(st.integers(1, n), min_size=n - t - 1, max_size=n - t - 1))
    return n, t, (*body, draw(st.integers(1, t)))


class TestCodecProperties:
    @settings(deadline=None)
    @given(drawn=codewords())
    def test_decode_is_a_valid_forest_that_encodes_back(self, drawn):
        n, t, codeword = drawn
        forest = decode(codeword, n, t)
        validate_forest(forest, t)
        assert encode(forest, t) == codeword
        counts = Counter(codeword)
        expected = tuple(counts[v] + (v > t) for v in range(1, n + 1))
        assert degree_sequence(forest) == expected

    # No shrink phase: shrinking a failing ~1000-entry codeword takes minutes,
    # and TestReleaseStepDecode finds a small counterexample in a second.
    @settings(
        deadline=None,
        max_examples=15,
        phases=(Phase.explicit, Phase.reuse, Phase.generate),
    )
    @given(drawn=codewords(_VECTOR_DECODE - 8, _VECTOR_DECODE + 64))
    def test_round_trip_across_the_cut_off(self, drawn):
        n, t, codeword = drawn
        forest = decode(codeword, n, t)
        validate_forest(forest, t)
        assert encode(forest, t) == codeword

    @settings(deadline=None)
    @given(drawn=codewords(min_n=3), data=st.data())
    def test_edge_swap_is_refused_exactly_off_the_forests(self, drawn, data):
        # Replace one edge of a decoded forest with an absent edge: the
        # result is still in F(n, t) or not, as the union-find oracle says.
        n, t, codeword = drawn
        edges = decode(codeword, n, t).edges
        absent = sorted(set(combinations(range(1, n + 1), 2)) - edges)
        dropped = data.draw(st.sampled_from(sorted(edges)))
        added = data.draw(st.sampled_from(absent))
        swapped = (edges - {dropped}) | {added}
        forest = SimpleGraph.from_edges(n, swapped)
        if is_rooted_forest(n, t, swapped):
            validate_forest(forest, t)
        else:
            with pytest.raises(ValueError):
                validate_forest(forest, t)


def _codeword_degrees(codeword, n, t) -> list[int]:
    """Degrees that ``sample_forest_degrees`` reads off exactly this codeword."""
    rng = ReplayRng(codeword[:-1], codeword[-1])
    return sample_forest_degrees(n, t, rng).tolist()


class TestDegreeFormula:
    """Degrees read off a codeword: occurrence count, plus one for non-roots."""

    def test_worked_example_vertex_eight(self):
        assert _codeword_degrees(EXAMPLE_CODEWORD, n=9, t=3)[8 - 1] == 3

    def test_absent_root_is_isolated(self):
        assert _codeword_degrees((2, 2, 1), n=6, t=3)[3 - 1] == 0

    def test_absent_non_root_is_a_leaf(self):
        assert _codeword_degrees((2, 2, 1), n=6, t=3)[5 - 1] == 1

    def test_matches_decoded_degrees_exhaustively(self):
        pairs = [(n, t) for n in range(2, 7) for t in range(1, n)] + [(7, 3)]
        for n, t in pairs:
            for edges in all_forests(n, t):
                codeword = encode(SimpleGraph.from_edges(n, edges), t)
                degrees = forest_degrees(n, edges)
                assert _codeword_degrees(codeword, n, t) == list(degrees)
                body = np.array(codeword[:-1], dtype=np.int64)
                read_off = codeword_degrees(body, codeword[-1], n, t)
                assert read_off.tolist() == list(degrees)


class TestCounting:
    def test_cayley_trees(self):
        assert count_forests(3, 1) == 3

    @pytest.mark.parametrize(
        "n,t,expected", [(4, 2, 8), (5, 2, 50), (2, 1, 1), (5, 4, 4)]
    )
    def test_formula_values(self, n, t, expected):
        assert count_forests(n, t) == expected

    def test_matches_enumeration(self):
        for n in range(2, 7):
            for t in range(1, n):
                assert count_forests(n, t) == len(all_forests(n, t))

    def test_large_counts_are_exact_integers(self):
        value = count_forests(50, 3)
        assert value == 3 * 50**46

    def test_rejects_n_at_most_t(self):
        with pytest.raises(ValueError):
            count_forests(3, 3)


class TestSampling:
    def test_two_vertices_always_the_edge(self):
        rng = derive_rng(1, 0)
        for _ in range(10):
            forest = sample_uniform_forest(2, 1, rng)
            assert forest.edges == frozenset({(1, 2)})

    def test_uniform_over_f_4_2(self):
        rng = derive_rng(2, 0)
        counts = Counter()
        draws = 10**5
        for _ in range(draws):
            counts[sample_uniform_forest(4, 2, rng).edges] += 1
        assert len(counts) == 8
        p = 1.0 / 8.0
        sigma = math.sqrt(draws * p * (1 - p))
        for value in counts.values():
            assert abs(value - draws * p) <= 3 * sigma

    def test_rejects_degenerate_sizes(self):
        rng = derive_rng(3, 0)
        with pytest.raises(ValueError):
            sample_uniform_forest(2, 2, rng)

    def test_degree_law_matches_loads_plus_roots_exactly(self):
        # The degree-sequence law of a uniform forest equals the law of
        # (loads of n-t-1 balls in n bins) + (uniform root indicator) + (+1
        # for non-roots), verified by exact enumeration of both sides.
        for n, t in ((4, 2), (5, 2), (5, 3)):
            assert forest_degree_law(n, t) == loads_plus_roots_law(n, t)

    def test_degree_shortcut_tracks_full_sampler(self):
        for i in range(25):
            full = sample_uniform_forest(30, 4, derive_rng(7, i))
            quick = sample_forest_degrees(30, 4, derive_rng(7, i))
            assert list(quick) == [
                forest_degrees(30, full.edges)[v] for v in range(30)
            ]

    def test_round_trip_at_scale(self):
        # Exercise the heap bookkeeping well beyond the exhaustive range.
        for i, (n, t) in enumerate([(500, 1), (500, 7), (2000, 450)]):
            rng = derive_rng(123, i)
            body = rng.integers(1, n + 1, size=n - t - 1).tolist()
            last = int(rng.integers(1, t + 1))
            codeword = tuple(body) + (last,)
            forest = decode(codeword, n, t)
            validate_forest(forest, t)
            assert encode(forest, t) == codeword


class TestDeskScaleMaxDegree:
    def test_single_root_upper_bound(self):
        # 200 trials at n = 1e5, t = 1: max degree at most floor(c) + 2 in at
        # least 95% of trials.
        n = 10**5
        bound = math.floor(balanced_concentration(n)) + 2
        hits = sum(
            int(sample_forest_degrees(n, 1, derive_rng(717171, i)).max()) <= bound
            for i in range(200)
        )
        assert hits / 200 >= 0.95

    def test_many_roots_window_and_gap(self):
        # t = ceil(n^0.7): the shifted floor window [floor(c-eps)+1,
        # floor(c+eps)+1] captures about half the mass at this scale (the
        # codeword has n-t-1 < n balls, which drags the maximum slightly
        # below the balanced window); one integer wider down reaches 95%.
        n = 10**5
        t = math.ceil(n**0.7)
        c = balanced_concentration(n)
        lo = math.floor(c - 0.25) + 1
        hi = math.floor(c + 0.25) + 1
        hits = wide = 0
        for i in range(200):
            degrees = sample_forest_degrees(n, t, derive_rng(818181, i))
            top = int(degrees.max())
            hits += lo <= top <= hi
            wide += lo - 1 <= top <= hi
        assert hits / 200 >= 0.45
        assert wide / 200 >= 0.95

    def test_root_gap_median_grows(self):
        medians = {}
        for offset, n in ((0, 10**4), (100, 10**6)):
            t = math.ceil(n**0.7)
            gaps = []
            for i in range(100):
                degrees = sample_forest_degrees(n, t, derive_rng(42, offset + i))
                gaps.append(int(degrees.max()) - int(degrees[:t].max()))
            medians[n] = float(np.median(gaps))
        assert medians[10**6] > medians[10**4]
