"""Tests for the rejection samplers and the complex-part builder."""

from __future__ import annotations

import math
from collections import Counter
from itertools import combinations, product

import numpy as np
import pytest

from degreelab.concentration import balanced_concentration, concentration_point
from degreelab import graphs
from degreelab.graphs import (
    SimpleGraph,
    complete_graph_edges,
    max_degree,
    peeled_core,
    two_core,
)
from degreelab.pruefer import (
    _VECTOR_DECODE,
    decode,
    decode_arrays,
    sample_codeword,
    sample_uniform_forest,
    validate_forest,
)
from degreelab.rng import derive_rng
from degreelab.samplers import (
    RejectionLimitError,
    _graft,
    build_complex_part,
    complex_part_arrays,
    complex_part_degrees,
    complex_part_from_forest,
    sample_gnm,
    sample_gnm_arrays,
    sample_noncomplex,
)

from oracles import (
    ReplayRng,
    forest_degrees,
    has_complex_component,
    networkx_planar,
    unique_rejection_loop,
)

TRIANGLE = SimpleGraph.from_edges(3, [(1, 2), (1, 3), (2, 3)])
BOWTIE = SimpleGraph.from_edges(5, [(1, 2), (1, 3), (2, 3), (1, 4), (1, 5), (4, 5)])


class _ConstantRng:
    """Minimal generator stand-in that always returns ones (all loops)."""

    def integers(self, low, high=None, size=None, dtype=np.int64):
        return np.ones(size if size is not None else 1, dtype=dtype)


class TestMultigraphFromLocations:
    """The pairing inside ``sample_gnm_arrays``: locations 2i-1, 2i make edge i."""

    def test_worked_example(self):
        us, vs, loads, report = sample_gnm_arrays(
            5, 4, ReplayRng([5, 3, 5, 1, 2, 5, 2, 3]), max_attempts=1
        )
        assert list(zip(us.tolist(), vs.tolist())) == [(5, 3), (5, 1), (2, 5), (2, 3)]
        assert loads.tolist() == [1, 2, 2, 0, 3]
        assert report.attempts == 1

    def test_pair_becomes_loop(self):
        with pytest.raises(RejectionLimitError) as info:
            sample_gnm_arrays(2, 1, ReplayRng([1, 1]), max_attempts=1)
        assert info.value.report.reject_reasons["loop"] == 1

    def test_degrees_equal_loads(self):
        rng = derive_rng(31, 0)
        for _ in range(20):
            n = int(rng.integers(2, 30))
            m = int(rng.integers(0, min(20, n)))
            us, vs, loads, _ = sample_gnm_arrays(n, m, rng)
            degrees = np.bincount(np.concatenate((us, vs)), minlength=n + 1)[1:]
            assert loads.tolist() == degrees.tolist()


class TestSampleGnm:
    def test_zero_edges_first_attempt(self):
        graph, report = sample_gnm(4, 0, derive_rng(1, 0))
        assert graph == SimpleGraph.from_edges(4)
        assert report.attempts == 1
        assert report.accepted

    def test_exhaustive_uniformity_n4_m3(self):
        # Over all 4^6 location vectors, each of the 20 simple graphs with 3
        # edges arises from exactly 2^3 * 3! = 48 vectors.
        counts: Counter = Counter()
        for entries in product(range(1, 5), repeat=6):
            try:
                us, vs, _, _ = sample_gnm_arrays(
                    4, 3, ReplayRng(entries), max_attempts=1
                )
            except RejectionLimitError:
                continue
            counts[frozenset(map(frozenset, zip(us.tolist(), vs.tolist())))] += 1
        assert len(counts) == 20
        assert set(counts.values()) == {48}

    def test_acceptance_rate_above_simplicity_bound(self):
        # The probability that the paired multigraph is simple is at least
        # exp(-2m/n - 4m^2/n^2); check the empirical rate clears it with
        # margin at n = 1e4, m = n/2.
        n = 10**4
        m = n // 2
        accepted = attempts = 0
        for i in range(100):
            _, _, _, report = sample_gnm_arrays(n, m, derive_rng(32, i))
            accepted += 1
            attempts += report.attempts
        bound = math.exp(-2 * m / n - 4 * m**2 / n**2)
        assert accepted / attempts >= bound - 0.05

    def test_budget_exhaustion_raises_with_report(self):
        with pytest.raises(RejectionLimitError) as info:
            sample_gnm(2, 1, _ConstantRng(), max_attempts=3)
        assert info.value.report.attempts == 3
        assert info.value.report.reject_reasons["loop"] == 3
        assert not info.value.report.accepted

    def test_validates_edge_range(self):
        with pytest.raises(ValueError):
            sample_gnm(3, 4, derive_rng(1, 0))

    def test_report_accounting_is_consistent(self):
        for i in range(30):
            _, report = sample_gnm(25, 20, derive_rng(44, i))
            assert report.accepted
            assert report.attempts == 1 + sum(report.reject_reasons.values())
            assert report.reject_reasons["complex_component"] == 0
        for i in range(15):
            _, report = sample_noncomplex(25, 20, derive_rng(45, i))
            assert report.attempts == 1 + sum(report.reject_reasons.values())

    def test_desk_scale_max_degree_window(self):
        # 200 trials at n = 1e5, m = n/2: the floor window around the
        # concentration point for 2m balls catches the bulk; one wider down
        # is near-certain.  (The exact window provably cannot reach 90% at
        # this scale.)
        n = 10**5
        m = n // 2
        c = concentration_point(n, 2 * m)
        lo, hi = math.floor(c - 0.25), math.floor(c + 0.25)
        hits = wide = 0
        for i in range(200):
            _, _, loads, _ = sample_gnm_arrays(n, m, derive_rng(333, i))
            top = int(loads.max())
            hits += lo <= top <= hi
            wide += lo - 1 <= top <= hi
        assert hits / 200 >= 0.5
        assert wide / 200 >= 0.95


class TestSampleNoncomplex:
    def test_zero_edges(self):
        graph, report = sample_noncomplex(5, 0, derive_rng(2, 0))
        assert graph == SimpleGraph.from_edges(5)
        assert report.attempts == 1

    def test_edge_budget_validated(self):
        with pytest.raises(ValueError):
            sample_noncomplex(4, 4, derive_rng(3, 0))

    def test_filter_matches_rank_oracle_exhaustively(self):
        # The acceptance predicate keeps exactly the graphs whose components
        # all have cycle rank <= 1, over every 3- and 7-edge graph on [6].
        all_edges = complete_graph_edges(6)
        for m in (3, 7):
            for chosen in combinations(all_edges, m):
                us = np.array([e[0] for e in chosen])
                vs = np.array([e[1] for e in chosen])
                assert graphs.has_complex_component(6, us, vs) == has_complex_component(
                    6, set(chosen)
                )

    def test_acceptance_rate_bounded_away_from_zero(self):
        n = 10**4
        m = n // 2
        accepted = attempts = 0
        for i in range(100):
            _, _, _, report = sample_gnm_arrays(
                n, m, derive_rng(34, i), require_noncomplex=True
            )
            accepted += 1
            attempts += report.attempts
        assert accepted / attempts >= 0.01

    def test_samples_have_no_complex_component_and_are_planar(self):
        for i in range(10):
            graph, _ = sample_noncomplex(12, 11, derive_rng(35, i))
            assert not has_complex_component(12, graph.edges)
            assert networkx_planar(12, graph.edges)
        for i in range(5):
            graph, _ = sample_noncomplex(300, 150, derive_rng(36, i))
            assert not has_complex_component(300, graph.edges)

    def test_desk_scale_max_degree_window(self):
        n = 10**5
        m = n // 2
        c = balanced_concentration(n)
        lo, hi = math.floor(c - 0.25), math.floor(c + 0.25)
        hits = wide = 0
        for i in range(200):
            _, _, loads, _ = sample_gnm_arrays(
                n, m, derive_rng(373, i), require_noncomplex=True
            )
            top = int(loads.max())
            hits += lo <= top <= hi
            wide += lo - 1 <= top <= hi
        assert hits / 200 >= 0.5
        assert wide / 200 >= 0.95


class TestRejectionLoopReference:
    # (n, m, require_noncomplex): dense cases where loops, parallel edges and
    # complex components are all common, sparse ones, and m = 0 and m = 1.
    CASES = (
        (30, 40, False),
        (8, 20, False),
        (200, 100, False),
        (30, 25, True),
        (12, 11, True),
        (200, 100, True),
        (5, 0, False),
        (5, 0, True),
        (5, 1, False),
        (5, 1, True),
    )

    def test_matches_hash_unique_loop(self):
        # A budget of 50 attempts exhausts some of the dense draws, so the
        # reports of failed runs are compared as well.
        seen = Counter()
        for case, (n, m, noncomplex) in enumerate(self.CASES):
            for i in range(25):
                expected = unique_rejection_loop(
                    n, m, derive_rng(5100 + case, i), 50, noncomplex
                )
                try:
                    us, vs, loads, report = sample_gnm_arrays(
                        n, m, derive_rng(5100 + case, i), 50, noncomplex
                    )
                except RejectionLimitError as err:
                    us = vs = loads = None
                    report = err.report
                for got, want in zip((us, vs, loads), expected[:3]):
                    if want is None:
                        assert got is None
                    else:
                        np.testing.assert_array_equal(got, want)
                assert (report.attempts, report.accepted) == expected[3:5]
                assert report.reject_reasons == expected[5]
                seen["accepted" if report.accepted else "exhausted"] += 1
                seen.update(k for k, v in report.reject_reasons.items() if v)
        assert seen["accepted"] + seen["exhausted"] == 250
        outcomes = ("accepted", "exhausted", *report.reject_reasons)
        assert all(seen[k] >= 5 for k in outcomes), seen


class TestComplexPart:
    def test_worked_example_construction(self):
        # Core = triangle on [3], q = 9, forest decoded from the worked
        # codeword; the grafted graph has the 3 core edges plus 6 tree edges.
        forest = decode((4, 9, 8, 1, 8, 2), n=9, t=3)
        graph = complex_part_from_forest(TRIANGLE, forest)
        expected = SimpleGraph.from_edges(
            9,
            [(1, 2), (1, 3), (2, 3), (1, 5), (2, 8), (4, 8), (8, 9), (4, 7), (6, 9)],
        )
        assert graph == expected
        assert graph.size == 9

    @pytest.mark.parametrize(
        "edges,message",
        [
            pytest.param([(4, 5), (5, 6), (4, 6)], "the edges close a cycle", id="cycle"),
            pytest.param(
                [(1, 4), (2, 4), (5, 6)], "two roots share a component", id="shared-tree"
            ),
            # A forest in F(6, 4): one root more than the triangle has vertices.
            pytest.param(
                [(1, 5), (2, 6)], "F\\(6, 3\\) must have 3 edges, got 2", id="four-roots"
            ),
        ],
    )
    def test_refuses_a_graph_outside_the_forests(self, edges, message):
        forest = SimpleGraph.from_edges(6, edges)
        with pytest.raises(ValueError, match=message):
            complex_part_from_forest(TRIANGLE, forest)

    def test_draws_match_grafting_a_sampled_forest(self):
        # One uniform codeword per complex part, drawn as sample_uniform_forest
        # draws it; the arrays list the core's edges first.
        for i in range(20):
            us, vs = complex_part_arrays(BOWTIE, 30, derive_rng(43, i))
            forest = sample_uniform_forest(30, 5, derive_rng(43, i))
            graph = build_complex_part(BOWTIE, 30, derive_rng(43, i))
            assert set(zip(us[:6].tolist(), vs[:6].tolist())) == BOWTIE.edges
            assert graph == SimpleGraph.from_arrays(30, us, vs)
            assert graph == complex_part_from_forest(BOWTIE, forest)
            assert graph.edges == BOWTIE.edges | forest.edges

    def test_single_extra_vertex_attaches_to_some_root(self):
        seen = set()
        for i in range(40):
            graph = build_complex_part(TRIANGLE, 4, derive_rng(37, i))
            extra_edges = graph.edges - TRIANGLE.edges
            assert len(extra_edges) == 1
            (edge,) = extra_edges
            assert edge[1] == 4 and edge[0] in (1, 2, 3)
            seen.add(edge[0])
        assert seen == {1, 2, 3}

    def test_uniform_at_tiny_scale(self):
        # q = v(core) + 1 over the bowtie: exactly five equally likely
        # graphs, one per root the extra vertex can attach to.
        counts: Counter = Counter()
        draws = 20_000
        rng = derive_rng(38, 0)
        for _ in range(draws):
            counts[build_complex_part(BOWTIE, 6, rng).edges] += 1
        assert len(counts) == 5
        p = 1.0 / 5.0
        sigma = math.sqrt(draws * p * (1 - p))
        for value in counts.values():
            assert abs(value - draws * p) <= 3 * sigma

    def test_degree_diagnostics(self):
        for i in range(20):
            graph = build_complex_part(BOWTIE, 60, derive_rng(39, i))
            forest_edges = graph.edges - BOWTIE.edges
            validate_forest(SimpleGraph.from_edges(60, forest_edges), 5)
            degrees = forest_degrees(60, forest_edges)
            for v in BOWTIE.vertices:
                assert graph.degree(v) == BOWTIE.degree(v) + degrees[v - 1]
            assert max_degree(graph) <= max_degree(BOWTIE) + max(degrees)

    def test_peeling_recovers_any_core(self):
        for core in (TRIANGLE, BOWTIE):
            for i in range(10):
                graph = build_complex_part(core, 500, derive_rng(40, i))
                assert peeled_core(graph) == core

    def test_two_core_recovers_complex_cores(self):
        # For a core with a doubly-cyclic component both core notions agree.
        for i in range(10):
            graph = build_complex_part(BOWTIE, 200, derive_rng(41, i))
            assert two_core(graph) == BOWTIE
            assert peeled_core(graph) == BOWTIE

    def test_desk_scale_max_degree_window(self):
        # Shifted floor window over the balanced concentration point at
        # q = 2000; the exact window catches the bulk, one wider down is
        # near-certain.
        q = 2000
        c = balanced_concentration(q)
        lo = math.floor(c - 0.25) + 1
        hi = math.floor(c + 0.25) + 1
        hits = wide = 0
        for i in range(100):
            graph = build_complex_part(TRIANGLE, q, derive_rng(606, i))
            top = max_degree(graph)
            hits += lo <= top <= hi
            wide += lo - 1 <= top <= hi
        assert hits / 100 >= 0.5
        assert wide / 100 >= 0.9

    def test_validates_core_shape(self):
        path = SimpleGraph.from_edges(3, [(1, 2), (2, 3)])
        with pytest.raises(ValueError):
            build_complex_part(path, 10, derive_rng(42, 0))
        shifted = SimpleGraph(
            vertices=(2, 3, 4), edges=frozenset({(2, 3), (2, 4), (3, 4)})
        )
        with pytest.raises(ValueError):
            build_complex_part(shifted, 10, derive_rng(42, 0))
        with pytest.raises(ValueError):
            build_complex_part(TRIANGLE, 3, derive_rng(42, 0))


def endpoint_degrees(q: int, us: np.ndarray, vs: np.ndarray) -> list[int]:
    return np.bincount(np.concatenate((us, vs)), minlength=q + 1)[1:].tolist()


class TestComplexPartDegrees:
    """``complex_part_degrees`` reads off the codeword what counting the
    endpoints of the grafted arrays gives."""

    @pytest.mark.parametrize("core", [TRIANGLE, BOWTIE], ids=["triangle", "bowtie"])
    def test_every_codeword_up_to_six_vertices(self, core):
        v = core.order
        for q in range(v + 1, 7):
            for body in product(range(1, q + 1), repeat=q - v - 1):
                for last in range(1, v + 1):
                    codeword = np.array([*body, last], dtype=np.int64)
                    us, vs = _graft(core, *decode_arrays(codeword, q, v))
                    assert complex_part_degrees(core, codeword).tolist() == (
                        endpoint_degrees(q, us, vs)
                    )

    @pytest.mark.parametrize("core", [TRIANGLE, BOWTIE], ids=["triangle", "bowtie"])
    def test_random_sizes_on_both_decode_paths(self, core):
        # The same generator draws the same codeword for both, so the
        # arrays are those the campaign trial would have counted.
        rng = np.random.default_rng(2718)
        sizes = [_VECTOR_DECODE - 1, _VECTOR_DECODE]
        sizes += rng.integers(core.order + 1, _VECTOR_DECODE, size=6).tolist()
        sizes += rng.integers(_VECTOR_DECODE, 4 * _VECTOR_DECODE, size=6).tolist()
        for i, q in enumerate(sizes):
            codeword = sample_codeword(q, core.order, derive_rng(61, i))
            us, vs = complex_part_arrays(core, q, derive_rng(61, i))
            degrees = complex_part_degrees(core, codeword)
            assert degrees.tolist() == endpoint_degrees(q, us, vs)
            assert int(degrees.sum()) == 2 * (q - core.order + core.size)
