"""Tests for graph types, decomposition, cores, and planarity."""

from __future__ import annotations

import re
from itertools import combinations, product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from degreelab.graphs import (
    _BULK_FRONTIER,
    EnumerationLimitError,
    SimpleGraph,
    _check_edges,
    _edge_arrays,
    _kuratowski_masks,
    _leaf_ordered,
    _peel,
    complete_graph_edges,
    component_stats,
    components,
    decompose,
    decompose_masks,
    format_edge_list,
    induced_subgraph,
    max_degree,
    parse_edge_list,
    peeled_core,
    planarity_table,
    two_core,
)
from degreelab.harness import ExperimentConfig
from degreelab.pruefer import decode_arrays, sample_codeword, validate_forest
from degreelab.samplers import complex_part_arrays, sample_gnm_arrays

from oracles import (
    PLANAR_GRAPH_COUNTS,
    bfs_components,
    dict_decompose,
    isolated_counts,
    loop_edge_check,
    networkx_planar,
    queue_peel,
    scipy_component_stats,
    superset_planarity_table,
    union_find_components,
)

BOWTIE = [(1, 2), (1, 3), (2, 3), (1, 4), (1, 5), (4, 5)]  # two triangles at 1


def graph_from_mask(n: int, mask: int) -> SimpleGraph:
    all_edges = complete_graph_edges(n)
    edges = [all_edges[i] for i in range(len(all_edges)) if mask >> i & 1]
    return SimpleGraph.from_edges(n, edges)


def all_graph_arrays(n: int):
    """Endpoint arrays (us, vs) of every graph on [n], in edge-mask order."""
    us, vs = np.array(complete_graph_edges(n), dtype=np.int64).reshape(-1, 2).T
    bits = np.arange(1 << us.size)[:, None] >> np.arange(us.size) & 1
    for row in bits.astype(bool):
        yield us[row], vs[row]


def cycle_rank_oracle(n: int, edges) -> dict[frozenset[int], bool]:
    """Each union-find component -> at least two independent cycles."""
    return {
        frozenset(comp): sum(1 for u, _ in edges if u in comp) >= len(comp) + 1
        for comp in union_find_components(n, edges)
    }


@st.composite
def small_graphs(draw):
    """A graph on [n], n <= 40, with a random edge subset.

    [n] is shuffled and cut into up to five blocks, and each block of s
    vertices gets a random subset of at most 2s of its own pairs, so that
    several complex components, and so a nonempty small part, are common.
    """
    n = draw(st.integers(1, 40))
    labels = draw(st.permutations(range(1, n + 1)))
    cuts = sorted(draw(st.sets(st.integers(1, n - 1), max_size=4))) if n > 1 else []
    edges: set[tuple[int, int]] = set()
    for lo, hi in zip([0, *cuts], [*cuts, n]):
        pairs = list(combinations(labels[lo:hi], 2))
        m = draw(st.integers(0, min(2 * (hi - lo), len(pairs))))
        if m:
            edges |= draw(st.sets(st.sampled_from(pairs), min_size=m, max_size=m))
    return SimpleGraph.from_edges(n, edges)


class TestSimpleGraphBasics:
    def test_rejects_loops(self):
        with pytest.raises(ValueError):
            SimpleGraph.from_edges(3, [(1, 1)])

    def test_rejects_edges_outside_vertex_set(self):
        with pytest.raises(ValueError):
            SimpleGraph(vertices=(1, 2), edges=frozenset({(1, 3)}))

    @pytest.mark.parametrize(
        "edges",
        [
            pytest.param([(1, 2), (1, 2)], id="exact"),
            pytest.param([(1, 2), (2, 1)], id="reversed"),
            pytest.param(frozenset({(2, 1), (1, 2)}), id="reversed-in-a-frozenset"),
        ],
    )
    def test_rejects_repeated_edges(self, edges):
        repeated = "edge \\(1, 2\\) appears more than once"
        with pytest.raises(ValueError, match=repeated):
            SimpleGraph(vertices=(1, 2, 3), edges=edges)
        with pytest.raises(ValueError, match=repeated):
            SimpleGraph.from_edges(3, edges)

    @pytest.mark.parametrize(
        "vertices,bad",
        [
            ((1, 2.5, 3), "2.5"),
            ((1, 2, 3.0), "3.0"),
            ((True, 2), "True"),
            ((1, "2"), "'2'"),
            ((1, np.float64(2)), "2.0"),
            ((1, [2]), "\\[2\\]"),
        ],
    )
    def test_rejects_labels_that_are_not_integers(self, vertices, bad):
        # A float label was once truncated by the kernels' int64 edge arrays:
        # components((1, 2.5, 3), [(1, 2.5)]) named a vertex 2.
        with pytest.raises(ValueError, match=f"must be integers, got .*{bad}"):
            SimpleGraph(vertices=vertices, edges=[(1, vertices[1])])

    @pytest.mark.parametrize(
        "bad, shown",
        [
            pytest.param(2.0, "2.0", id="float"),
            pytest.param(True, "True", id="bool"),
            pytest.param("2", "'2'", id="str"),
            pytest.param([2], "\\[2\\]", id="list"),
            pytest.param(np.float64(2), "2.0", id="numpy-float"),
        ],
    )
    def test_every_way_in_refuses_a_non_integer_endpoint(self, bad, shown):
        # __post_init__ alone decides what is an integer.  2.0, True and
        # np.float64(2) compare equal to integer labels, and '2' and [2] fail
        # to compare with them, so only a type check refuses them all.
        endpoint = f"edge endpoints must be integers, got .*{shown}"
        with pytest.raises(ValueError, match=endpoint):
            SimpleGraph(vertices=(1, 2, 3), edges=[(1, bad)])
        with pytest.raises(ValueError, match=endpoint):
            SimpleGraph.from_edges(3, [(bad, 3)])
        if np.ndim(bad) == 0:  # [2] is no entry of a one-dimensional array
            with pytest.raises(ValueError, match=endpoint):
                SimpleGraph.from_arrays(3, np.array([bad]), np.array([3]))
        # A config core gives every endpoint as a vertex label too.
        label = f"not a valid core: vertex labels must be integers, got .*{shown}"
        core = [[1, 2], [2, 3], [3, bad]]
        with pytest.raises(ValueError, match=label):
            ExperimentConfig(experiment="complexpart_maxdegree", q=10, core=core)

    def test_from_arrays_checks_object_arrays_entry_by_entry(self):
        # The check reads the entries, not the dtype.
        us = np.array([3, 2, np.int64(4)], dtype=object)
        vs = np.array([1, 4, 5], dtype=object)
        assert SimpleGraph.from_arrays(5, us, vs) == SimpleGraph.from_edges(
            5, [(1, 3), (2, 4), (4, 5)]
        )
        vs[2] = 5.0
        with pytest.raises(ValueError, match="endpoints must be integers, got 5.0"):
            SimpleGraph.from_arrays(5, us, vs)

    def test_numpy_integer_labels_are_accepted(self):
        graph = SimpleGraph(
            vertices=(np.int64(1), np.int32(2), np.uint8(7)), edges=[(1, 2)]
        )
        assert components(graph) == [(1, 2), (7,)]

    @pytest.mark.parametrize("n", [True, 2.0, "3"])
    def test_n_must_be_an_integer(self, n):
        message = f"n must be an integer, got {re.escape(repr(n))}"
        with pytest.raises(ValueError, match=message):
            SimpleGraph.from_edges(n, [])
        with pytest.raises(ValueError, match=message):
            SimpleGraph.from_arrays(n, np.array([], int), np.array([], int))

    def test_numpy_integer_n_is_accepted(self):
        expected = SimpleGraph(vertices=(1, 2, 3), edges=[(1, 3)])
        assert SimpleGraph.from_edges(np.int64(3), [(3, 1)]) == expected
        assert SimpleGraph.from_arrays(np.int64(3), np.array([1]), np.array([3])) == expected

    @pytest.mark.parametrize("big", [2**63, -(2**63) - 1, np.uint64(2**63)])
    def test_labels_beyond_int64_are_refused_by_name(self, big):
        shown = re.escape(repr(big))
        with pytest.raises(ValueError, match=f"vertex labels must lie within int64, got {shown}"):
            SimpleGraph(vertices=(1, big), edges=[])
        with pytest.raises(ValueError, match=f"edge endpoints must lie within int64, got {shown}"):
            SimpleGraph.from_edges(3, [(1, 2), (big, 1)])

    def test_types_are_checked_before_the_structure(self):
        # The loop at 1 comes first, but every endpoint's type is checked
        # before _check_edges sees any edge.
        with pytest.raises(ValueError, match="edge endpoints must be integers, got 2.0"):
            SimpleGraph.from_edges(3, [(1, 1), (3, 2.0)])

    def test_numpy_endpoints_are_stored_as_python_ints(self):
        graph = SimpleGraph.from_edges(3, [(np.int64(2), np.uint8(1))])
        assert [type(x) for e in graph.edges for x in e] == [int, int]
        with pytest.raises(ValueError, match="edge \\(1, 7\\) has an endpoint outside"):
            SimpleGraph.from_edges(3, [(np.int64(7), 1)])

    def test_edges_are_canonicalised(self):
        graph = SimpleGraph.from_edges(3, [(3, 1), (2, 1)])
        assert graph.edges == frozenset({(1, 3), (1, 2)})

    def test_from_arrays_matches_from_edges(self):
        us = np.array([3, 2, 4])
        vs = np.array([1, 4, 5])
        assert SimpleGraph.from_arrays(5, us, vs) == SimpleGraph.from_edges(
            5, [(1, 3), (2, 4), (4, 5)]
        )

    def test_from_arrays_runs_the_one_check_once(self, monkeypatch):
        calls = []
        post_init = SimpleGraph.__post_init__

        def counted(graph):
            calls.append(graph)
            post_init(graph)

        monkeypatch.setattr(SimpleGraph, "__post_init__", counted)
        for n, us, vs in [(0, [], []), (5, [3, 2, 4], [1, 4, 5])]:
            graph = SimpleGraph.from_arrays(n, np.array(us, int), np.array(vs, int))
            assert calls == [graph]
            calls.clear()

    @pytest.mark.parametrize(
        "us, vs, edge_error",
        [
            pytest.param([0, 1], [2, 3], True, id="label-below-one"),
            pytest.param([1, 2], [2, 6], True, id="label-above-n"),
            pytest.param([1, 3], [2, 3], True, id="loop"),
            pytest.param([1, 1], [2, 2], True, id="repeated-edge"),
            pytest.param([1, 2], [2, 1], True, id="repeated-edge-reversed"),
            pytest.param([1, 2], [2], False, id="unequal-lengths"),
            pytest.param([1.0, 2.0], [2.0, 3.0], True, id="non-integer-labels"),
            pytest.param([True, False], [2, 3], True, id="bool-labels"),
        ],
    )
    def test_from_arrays_rejects_bad_input(self, us, vs, edge_error):
        with pytest.raises(ValueError) as by_arrays:
            SimpleGraph.from_arrays(5, np.array(us), np.array(vs))
        if edge_error:
            with pytest.raises(ValueError) as by_edges:
                SimpleGraph.from_edges(5, zip(us, vs))
            assert str(by_arrays.value) == str(by_edges.value)

    @given(
        data=st.data(),
        n=st.integers(2, 12),
        dtype=st.sampled_from([np.int32, np.int64, np.uint16]),
    )
    def test_from_arrays_equals_from_edges(self, data, n, dtype):
        pairs = list(combinations(range(1, n + 1), 2))
        picks = data.draw(
            st.lists(
                st.tuples(st.sampled_from(pairs), st.booleans()),
                unique_by=lambda pick: pick[0],
            )
        )
        edges = [(v, u) if flip else (u, v) for (u, v), flip in picks]
        us = np.array([u for u, _ in edges], dtype=dtype)
        vs = np.array([v for _, v in edges], dtype=dtype)
        assert SimpleGraph.from_arrays(n, us, vs) == SimpleGraph.from_edges(n, edges)

    def test_degree_and_adjacency(self):
        graph = SimpleGraph.from_edges(4, [(1, 2), (1, 3)])
        assert graph.adjacency[1] == (2, 3)
        assert graph.degree(1) == 2
        assert graph.degree(4) == 0


INT64_MAX = 2**63 - 1


@st.composite
def checked_edge_lists(draw):
    """(vertices, labels, n, edges): a vertex set, the ``labels`` array that
    ``_check_edges`` takes for it (None for [n]), and edges that mix valid
    pairs with loops, endpoints outside the set and repeats in either
    orientation.  n above 2^31 takes the dense-rank branch of the key."""
    kind = draw(st.sampled_from(["range", "labels", "huge"]))
    if kind == "range":
        n = draw(st.integers(0, 8))
        vertices, labels = range(1, n + 1), None
        inner = list(vertices)
    elif kind == "huge":
        n = draw(st.sampled_from([2**31, 2**40, INT64_MAX]))
        vertices, labels = range(1, n + 1), None
        inner = [1, 2, n - 1, n, draw(st.integers(1, n))]
    else:
        small = st.integers(1, 12) | st.integers(2**31, INT64_MAX)
        vertices = draw(st.sets(small, min_size=1, max_size=8))
        labels = np.array(sorted(vertices), dtype=np.int64)
        n, inner = len(vertices), sorted(vertices)
    near = [0, -1, -(2**63), INT64_MAX, *(min(x + 1, INT64_MAX) for x in inner)]
    outer = [x for x in near if x not in vertices]
    endpoint = st.sampled_from(outer)
    if inner:
        endpoint = st.sampled_from(inner) | st.sampled_from(inner) | endpoint
    edges = draw(st.lists(st.tuples(endpoint, endpoint), max_size=12))
    for _ in range(draw(st.integers(0, 3))):
        if edges:
            i = draw(st.integers(0, len(edges) - 1))
            u, v = edges[i]
            at = draw(st.integers(i + 1, len(edges)))
            edges.insert(at, (v, u) if draw(st.booleans()) else (u, v))
    return vertices, labels, n, edges


def _outcome(check, *args):
    """What a check returns, or the type and message of its exception."""
    try:
        return check(*args)
    except ValueError as exc:
        return type(exc), str(exc)


class TestCheckEdges:
    """``_check_edges`` against the per-edge reference loop."""

    @settings(max_examples=200, deadline=None)
    @given(drawn=checked_edge_lists())
    def test_names_the_edge_the_loop_names(self, drawn):
        vertices, labels, n, edges = drawn
        us = np.array([u for u, _ in edges], dtype=np.int64)
        vs = np.array([v for _, v in edges], dtype=np.int64)
        expected = _outcome(loop_edge_check, vertices, edges)
        failed = isinstance(expected, tuple)
        assert _outcome(_check_edges, n, us, vs, labels) == (expected if failed else None)
        if n <= 12:  # a SimpleGraph holds its vertex tuple
            graph = _outcome(SimpleGraph, tuple(vertices), edges)
            assert graph == expected if failed else graph.edges == expected

    @pytest.mark.parametrize(
        "edges, message",
        [
            pytest.param([(2, 3), (1, 2), (2, 1)], "edge \\(1, 2\\) appears more", id="repeat"),
            pytest.param([(3, 2), (4, 4), (1, 9)], "loop at vertex 4", id="loop-first"),
            pytest.param([(1, 2), (9, 1), (2, 1)], "edge \\(1, 9\\) has an endpoint", id="range"),
            pytest.param([(9, 1), (1, 9)], "edge \\(1, 9\\) has an endpoint", id="range-repeat"),
            pytest.param([(0, 0), (5, 0)], "loop at vertex 0", id="loop-outside"),
        ],
    )
    def test_first_failing_edge_on_range_and_labels(self, edges, message):
        us, vs = (np.array(side, dtype=np.int64) for side in zip(*edges))
        with pytest.raises(ValueError, match=message):
            _check_edges(5, us, vs)
        with pytest.raises(ValueError, match=message):
            _check_edges(5, us, vs, np.array([1, 2, 3, 4, 7]))

    def test_wide_labels_take_dense_ranks(self):
        n = INT64_MAX
        us = np.array([1, n, n - 1, 1], dtype=np.int64)
        vs = np.array([n, n - 1, 1, n - 1], dtype=np.int64)
        with pytest.raises(ValueError, match=f"edge \\(1, {n - 1}\\) appears more"):
            _check_edges(n, us, vs)
        _check_edges(n, us[:3], vs[:3])


class TestDegreesAndComponents:
    def test_edgeless_max_degree_zero(self):
        assert max_degree(SimpleGraph.from_edges(4)) == 0

    def test_star_max_degree(self):
        star = SimpleGraph.from_edges(5, [(1, v) for v in range(2, 6)])
        assert max_degree(star) == 4

    def test_edgeless_components_are_singletons(self):
        assert components(SimpleGraph.from_edges(3)) == [(1,), (2,), (3,)]

    def test_path_plus_isolated(self):
        graph = SimpleGraph.from_edges(4, [(1, 2), (2, 3)])
        assert components(graph) == [(1, 2, 3), (4,)]

    def test_component_order_size_then_label(self):
        graph = SimpleGraph.from_edges(6, [(5, 6), (1, 2)])
        assert components(graph) == [(1, 2), (5, 6), (3,), (4,)]


def complex_by_component(vertices, us, vs) -> dict[frozenset[int], bool]:
    """Each component's vertex set -> ``component_stats``' edges >= vertices + 1.

    The edges (us, vs) are 1-based positions in ``vertices``.
    """
    labels, vertex_counts, edge_counts = component_stats(len(vertices), us, vs)
    members: dict[int, set[int]] = {}
    for v, label in zip(vertices, labels.tolist()):
        members.setdefault(label, set()).add(v)
    return {
        frozenset(comp): bool(edge_counts[c] >= vertex_counts[c] + 1)
        for c, comp in members.items()
    }


class TestComplexClassification:
    def test_tree_component_not_complex(self):
        graph = SimpleGraph.from_edges(3, [(1, 2), (2, 3)])
        assert complex_by_component(graph.vertices, *_edge_arrays(graph)) == {
            frozenset({1, 2, 3}): False
        }

    def test_unicyclic_not_complex(self):
        graph = SimpleGraph.from_edges(3, [(1, 2), (2, 3), (1, 3)])
        assert complex_by_component(graph.vertices, *_edge_arrays(graph)) == {
            frozenset({1, 2, 3}): False
        }

    def test_bowtie_is_complex(self):
        graph = SimpleGraph.from_edges(5, BOWTIE)
        assert complex_by_component(graph.vertices, *_edge_arrays(graph)) == {
            frozenset(range(1, 6)): True
        }

    def test_matches_cycle_rank_oracle_exhaustively(self):
        for n in range(1, 7):
            for us, vs in all_graph_arrays(n):
                oracle = cycle_rank_oracle(n, list(zip(us.tolist(), vs.tolist())))
                found = complex_by_component(range(1, n + 1), us, vs)
                assert set(found) == set(oracle)
                assert found == oracle


class TestCores:
    def test_forest_has_empty_core(self):
        graph = SimpleGraph.from_edges(5, [(1, 2), (2, 3), (4, 5)])
        assert two_core(graph).vertices == ()
        assert peeled_core(graph).vertices == ()

    def test_unicyclic_two_core_empty_but_peel_keeps_cycle(self):
        graph = SimpleGraph.from_edges(4, [(1, 2), (2, 3), (1, 3), (3, 4)])
        assert two_core(graph).vertices == ()
        triangle = peeled_core(graph)
        assert triangle.vertices == (1, 2, 3)
        assert triangle.size == 3

    def test_bowtie_with_pendant(self):
        graph = SimpleGraph.from_edges(6, BOWTIE + [(2, 6)])
        core = two_core(graph)
        assert core.vertices == (1, 2, 3, 4, 5)
        assert core.size == 6
        assert peeled_core(graph) == core

    def test_core_idempotent_after_embedding_back(self):
        rng = np.random.default_rng(8)
        for _ in range(50):
            n = int(rng.integers(2, 12))
            m = int(rng.integers(0, n * (n - 1) // 2 + 1))
            mask_bits = rng.permutation(n * (n - 1) // 2)[:m]
            mask = int(np.sum(1 << mask_bits.astype(object))) if m else 0
            graph = graph_from_mask(n, mask)
            core = two_core(graph)
            embedded = SimpleGraph(vertices=graph.vertices, edges=core.edges)
            assert two_core(embedded) == core

    def test_two_core_equals_peel_of_complex_part(self):
        # Restricting to complex components before peeling agrees with
        # peel-then-drop-bare-cycles on every small graph.
        for n in range(1, 7):
            for us, vs in all_graph_arrays(n):
                edges = list(zip(us.tolist(), vs.tolist()))
                in_complex = np.zeros(n + 1, dtype=bool)
                for comp, is_complex in cycle_rank_oracle(n, edges).items():
                    in_complex[list(comp)] = is_complex
                keep = in_complex[us]
                core, _, _ = decompose_masks(n, us, vs)
                assert np.array_equal(core, _peel(n, us[keep], vs[keep])[0])


class TestDecompose:
    def test_forest_goes_entirely_to_rest(self):
        graph = SimpleGraph.from_edges(5, [(1, 2), (3, 4)])
        parts = decompose(graph)
        assert parts.big_complex.vertices == ()
        assert parts.small_complex.vertices == ()
        assert parts.non_complex == graph

    def test_single_complex_component_becomes_big(self):
        graph = SimpleGraph.from_edges(6, BOWTIE)
        parts = decompose(graph)
        assert parts.big_complex.vertices == (1, 2, 3, 4, 5)
        assert parts.small_complex.vertices == ()
        assert parts.non_complex.vertices == (6,)

    def test_big_part_keyed_on_core_size_not_component_size(self):
        # Component A: bowtie core (5 core vertices) with no trees attached.
        # Component B: a double-edged... smaller core (4 core vertices as
        # K4 minus nothing) but many pendant vertices -> larger component.
        edges = BOWTIE[:]
        k4 = [(6, 7), (6, 8), (7, 8), (6, 9), (7, 9), (8, 9)]
        pendants = [(9, v) for v in range(10, 16)]
        graph = SimpleGraph.from_edges(15, edges + k4 + pendants)
        parts = decompose(graph)
        # bowtie core has 5 vertices > K4's 4, so it anchors the big part
        # even though the K4 component has more vertices in total.
        assert set(parts.big_complex.vertices) == {1, 2, 3, 4, 5}
        assert set(parts.small_complex.vertices) == set(range(6, 16))

    def test_parts_partition_vertices(self):
        rng = np.random.default_rng(12)
        for _ in range(100):
            n = int(rng.integers(1, 12))
            n_edges = n * (n - 1) // 2
            mask = int(rng.integers(0, 1 << n_edges)) if n_edges else 0
            graph = graph_from_mask(n, mask)
            parts = decompose(graph)
            combined = (
                list(parts.big_complex.vertices)
                + list(parts.small_complex.vertices)
                + list(parts.non_complex.vertices)
            )
            assert sorted(combined) == list(graph.vertices)
            assert set(parts.core.vertices) <= set(
                parts.big_complex.vertices
            ) | set(parts.small_complex.vertices)

    @settings(deadline=None)
    @given(graph=small_graphs())
    def test_partition_invariants_match_dict_oracle(self, graph):
        parts = decompose(graph)
        big = set(parts.big_complex.vertices)
        small = set(parts.small_complex.vertices)
        rest = set(parts.non_complex.vertices)
        assert not (big & small or big & rest or small & rest)
        assert big | small | rest == set(graph.vertices)
        core = set(parts.core.vertices)
        assert core <= big | small
        assert all(parts.core.degree(v) >= 2 for v in core)
        assert dict_decompose(graph.vertices, graph.edges) == (core, big, small, rest)

    def test_invariants_on_near_critical_samples(self):
        # The exhaustive checks stop at six vertices; repeat the structural
        # invariants on uniform samples near half density at n = 1000.
        from degreelab.rng import derive_rng

        for i in range(10):
            us, vs, _, _ = sample_gnm_arrays(1000, 520, derive_rng(4848, i))
            graph = SimpleGraph.from_arrays(1000, us, vs)
            parts = decompose(graph)
            combined = sorted(
                list(parts.big_complex.vertices)
                + list(parts.small_complex.vertices)
                + list(parts.non_complex.vertices)
            )
            assert combined == list(graph.vertices)
            core = parts.core
            assert core.edges <= graph.edges
            if core.vertices:
                assert min(len(core.adjacency[v]) for v in core.vertices) >= 2
                assert all(
                    sum(1 for e in core.edges if e[0] in set(comp)) > len(comp)
                    for comp in components(core)
                )
                assert two_core(parts.big_complex) == induced_subgraph(
                    core, components(core)[0]
                )
            for comp in components(parts.non_complex):
                members = set(comp)
                m_c = sum(1 for e in parts.non_complex.edges if e[0] in members)
                assert m_c <= len(comp)

    def test_core_relation_exhaustive(self):
        # The core of the big part is the largest core component (ties to the
        # smallest label); the core of the small part is the rest of the core.
        for n in range(1, 7):
            for us, vs in all_graph_arrays(n):
                core, big, small = decompose_masks(n, us, vs)
                if not core.any():
                    continue
                in_core = core[us] & core[vs]
                core_comps = bfs_components(
                    np.flatnonzero(core).tolist(),
                    zip(us[in_core].tolist(), vs[in_core].tolist()),
                )
                largest = np.zeros(n + 1, dtype=bool)
                largest[np.array(core_comps[0])] = True
                for part, part_core in ((big, largest), (small, core & ~largest)):
                    keep = part[us]
                    assert np.array_equal(
                        decompose_masks(n, us[keep], vs[keep])[0], part_core
                    )

    @staticmethod
    def _assert_parts_are_components(n: int, edges: list[tuple[int, int]]):
        """Every vertex lies in a core, so the parts are the components: the
        big part the larger (ties to the smallest label), the small the other."""
        us, vs = (np.array(side, dtype=np.int64) for side in zip(*edges))
        first, second = bfs_components(range(1, n + 1), edges)
        core, big, small = mask_sets(decompose_masks(n, us, vs))
        assert core == set(range(1, n + 1))
        assert (big, small) == (set(first), set(second))

    def test_k4_beside_a_larger_core_is_the_small_part(self):
        # Every 4-set of [9] carries a K4 and the other five vertices a
        # bowtie, centred at each of them with each pairing of the rest:
        # both sides of the smallest label, and a nonempty small part.
        for quad in combinations(range(1, 10), 4):
            rest = [x for x in range(1, 10) if x not in quad]
            for centre in rest:
                a, *others = [x for x in rest if x != centre]
                for b in others:
                    c, d = (x for x in others if x != b)
                    bowtie = [(a, b), (c, d)] + [(centre, x) for x in (a, b, c, d)]
                    self._assert_parts_are_components(
                        9, list(combinations(quad, 2)) + bowtie
                    )

    def test_equal_k4_cores_tie_to_the_smallest_label(self):
        for quad in combinations(range(2, 9), 3):
            half = (1, *quad)
            other = [x for x in range(1, 9) if x not in half]
            self._assert_parts_are_components(
                8, list(combinations(half, 2)) + list(combinations(other, 2))
            )


def random_graph_arrays(rng, n: int, m: int) -> tuple[np.ndarray, np.ndarray]:
    """Endpoint arrays of a uniform simple graph on [n] with m edges."""
    pairs = np.array(complete_graph_edges(n), dtype=np.int64).reshape(-1, 2)
    chosen = pairs[rng.choice(len(pairs), size=m, replace=False)]
    return chosen[:, 0], chosen[:, 1]


def relabelled_union(rng, pieces) -> tuple[int, np.ndarray, np.ndarray]:
    """Disjoint union of edge lists on [k] each, under a random relabelling."""
    edges, offset = [], 0
    for k, piece in pieces:
        edges.extend((u + offset, v + offset) for u, v in piece)
        offset += k
    labels = rng.permutation(offset) + 1
    arr = np.array(edges, dtype=np.int64).reshape(-1, 2)
    return offset, labels[arr[:, 0] - 1], labels[arr[:, 1] - 1]


CYCLE5 = [(1, 2), (2, 3), (3, 4), (4, 5), (1, 5)]
PATH4 = [(1, 2), (2, 3), (3, 4)]
THETA = [(1, 2), (2, 3), (3, 4), (4, 1), (1, 3), (4, 5), (5, 6)]


def kernel_cases():
    """Random graphs around the critical density, plus unions that have bare
    cycles, pendant trees and more than one complex component."""
    rng = np.random.default_rng(2024)
    for _ in range(200):
        n = int(rng.integers(1, 40))
        m = int(rng.integers(0, min(n * (n - 1) // 2, int(1.3 * n) + 1) + 1))
        yield (n, *random_graph_arrays(rng, n, m))
    mixes = [
        [(5, BOWTIE), (6, THETA), (5, CYCLE5), (4, PATH4), (1, [])],
        [(5, BOWTIE), (5, BOWTIE), (6, THETA)],
        [(5, CYCLE5), (5, CYCLE5), (4, PATH4)],
        [(6, THETA), (5, BOWTIE), (3, [(1, 2), (2, 3), (1, 3)])],
    ]
    for mix in mixes:
        for _ in range(5):
            yield relabelled_union(rng, mix)


TRIANGLE = [(1, 2), (2, 3), (1, 3)]


def degrees_of(n: int, us: np.ndarray, vs: np.ndarray) -> np.ndarray:
    """Degree sequence on [n], degree[v - 1] of vertex v."""
    return np.bincount(np.concatenate((us, vs)).astype(np.intp), minlength=n + 1)[1:]


def first_frontier(n: int, us: np.ndarray, vs: np.ndarray) -> int:
    """Number of vertices of degree 1, the width of the peel's first round
    (isolated vertices start dead and never enter a frontier)."""
    return int(np.count_nonzero(degrees_of(n, us, vs) == 1))


def mask_sets(masks) -> list[set[int]]:
    """The labels each mask picks; every mask is indexed by label, slot 0 False."""
    assert not any(mask[0] for mask in masks)
    return [set(np.flatnonzero(mask).tolist()) for mask in masks]


def assert_decompose_matches_dict(n: int, us: np.ndarray, vs: np.ndarray):
    """decompose_masks at int64, int32 and uint64 against the dict oracle;
    returns the oracle's (core, big, small, rest)."""
    edges = list(zip(us.tolist(), vs.tolist()))
    core, big, small, rest = dict_decompose(range(1, n + 1), edges)
    for dtype in (np.int64, np.int32, np.uint64):
        masks = decompose_masks(n, us.astype(dtype), vs.astype(dtype))
        assert all(mask.shape == (n + 1,) and mask.dtype == bool for mask in masks)
        assert mask_sets(masks) == [core, big, small]
    return core, big, small, rest


def assert_peel_matches_queue(n: int, us: np.ndarray, vs: np.ndarray) -> np.ndarray:
    alive = _peel(n, us, vs)[0]
    assert alive.shape == (n + 1,) and alive.dtype == bool and not alive[0]
    edges = list(zip(us.tolist(), vs.tolist()))
    assert set(np.flatnonzero(alive).tolist()) == queue_peel(
        range(1, n + 1), edges
    )
    return alive


def random_tree_edges(rng, k: int, reach: int) -> list[tuple[int, int]]:
    """A tree on [k]: vertex i joins one of the ``reach`` vertices before it,
    so reach 1 gives a path and a large reach a shallow random tree."""
    parents = np.arange(1, k) - rng.integers(0, np.minimum(np.arange(1, k), reach))
    return list(zip(parents.tolist(), range(2, k + 1)))


@st.composite
def cores_with_trees(draw):
    """Relabelled union of an optional small core and random trees of 1-3000
    vertices, each tree either free or hung from a core vertex by its root.

    The sizes straddle the peel's bulk threshold, so some draws finish in
    the stack alone and others take bulk rounds first.
    """
    core = draw(st.sampled_from([[], TRIANGLE, BOWTIE, THETA, CYCLE5]))
    order = max((max(e) for e in core), default=0)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    edges, n = list(core), order
    for _ in range(draw(st.integers(1, 4))):
        k = draw(st.integers(1, 3000))
        reach = draw(st.sampled_from([1, 2, 8, k]))
        edges += [(u + n, v + n) for u, v in random_tree_edges(rng, k, reach)]
        if order and draw(st.booleans()):
            edges.append((int(rng.integers(1, order + 1)), n + 1))
        n += k
    return relabelled_union(rng, [(n, edges)])


class TestArrayKernels:
    def test_peel_matches_queue_oracle(self):
        for case in kernel_cases():
            assert_peel_matches_queue(*case)

    def test_component_stats_matches_union_find(self):
        for n, us, vs in kernel_cases():
            edges = list(zip(us.tolist(), vs.tolist()))
            labels, vertex_counts, edge_counts = component_stats(n, us, vs)
            found = {}
            for v, c in enumerate(labels.tolist(), start=1):
                found.setdefault(c, set()).add(v)
            oracle = union_find_components(n, edges)
            assert sorted(map(sorted, found.values())) == sorted(map(sorted, oracle))
            for c, members in found.items():
                assert vertex_counts[c] == len(members)
                assert edge_counts[c] == sum(1 for u, _ in edges if u in members)
            assert sorted(tuple(sorted(c)) for c in found.values()) == sorted(
                bfs_components(range(1, n + 1), edges)
            )

    def test_decompose_masks_match_dict_oracle(self):
        seen_small = seen_bare_cycle = 0
        for n, us, vs in kernel_cases():
            edges = list(zip(us.tolist(), vs.tolist()))
            masks = decompose_masks(n, us, vs)
            sets = mask_sets(masks)
            core, big, small, rest = dict_decompose(range(1, n + 1), edges)
            assert sets == [core, big, small]
            assert set(range(1, n + 1)) - sets[1] - sets[2] == rest
            seen_small += bool(small)
            seen_bare_cycle += bool(queue_peel(range(1, n + 1), edges) - core)
        assert seen_small >= 10 and seen_bare_cycle >= 10

    @pytest.mark.parametrize(
        "n,edges,core",
        [
            # Star centre 5 loses its three leaves in one round; counting it
            # three times would peel 4 twice and then the triangle 1-2-3.
            (
                8,
                [(1, 2), (2, 3), (1, 3), (3, 4), (4, 5), (5, 6), (5, 7), (5, 8)],
                {1, 2, 3},
            ),
            # Star centre 1 with a pendant path 1-5-6: the centre and 5 both
            # drop to degree 1 in round one; round two touches nothing alive.
            (6, [(1, 2), (1, 3), (1, 4), (1, 5), (5, 6)], set()),
            # A single edge: the first round's candidate array is empty.
            (2, [(1, 2)], set()),
        ],
    )
    def test_peel_counts_each_vertex_once_per_round(self, n, edges, core):
        us, vs = (np.array(side, dtype=np.int64) for side in zip(*edges))
        alive = set(np.flatnonzero(_peel(n, us, vs)[0]).tolist())
        assert alive == queue_peel(range(1, n + 1), edges) == core

    def test_no_hash_unique_on_the_sampling_path(self, monkeypatch):
        # numpy >= 2.3 answers a value-only np.unique by hashing, an order of
        # magnitude slower than sorting; the rejection loop and the peel's
        # bulk rounds dedupe by sorting instead.
        def refuse(*args, **kwargs):
            raise AssertionError("np.unique called")

        monkeypatch.setattr(np, "unique", refuse)
        rng = np.random.default_rng(5)
        for noncomplex in (False, True):
            us, vs, _, _ = sample_gnm_arrays(
                60, 40, rng, require_noncomplex=noncomplex
            )
            _peel(60, us, vs)
        us, vs = complex_part_arrays(SimpleGraph.from_edges(3, TRIANGLE), 2000, rng)
        assert first_frontier(2000, us, vs) > _BULK_FRONTIER
        _peel(2000, us, vs)
        validate_forest(SimpleGraph.from_edges(4, [(1, 3), (2, 4)]), 2)

    def test_no_unindexed_ufunc_at_in_peel_and_decompose(self, monkeypatch):
        # NumPy has indexed fast loops for add.at and subtract.at but not for
        # the bitwise ufuncs, whose .at falls back to a generic loop.
        class NoAt:
            def __init__(self, ufunc):
                self.ufunc = ufunc

            def __call__(self, *args, **kwargs):
                return self.ufunc(*args, **kwargs)

            def __getattr__(self, name):
                return getattr(self.ufunc, name)

            def at(self, *args, **kwargs):
                raise AssertionError(f"np.{self.ufunc.__name__}.at called")

        for name in ("bitwise_xor", "bitwise_or", "bitwise_and"):
            monkeypatch.setattr(np, name, NoAt(getattr(np, name)))
        rng = np.random.default_rng(6)
        bowtie = SimpleGraph.from_edges(5, BOWTIE)
        us, vs = complex_part_arrays(bowtie, 2000, rng)
        assert first_frontier(2000, us, vs) > _BULK_FRONTIER
        for n, a, b in ((2000, us, vs), (5, *_edge_arrays(bowtie))):
            assert _peel(n, a, b)[0].any()
            assert decompose_masks(n, a, b)[0].any()

    def test_bare_cycle_is_peeled_but_not_core(self):
        n, us, vs = 5, np.array([1, 2, 3, 4, 1]), np.array([2, 3, 4, 5, 5])
        alive = _peel(n, us, vs)[0]
        assert alive[1:].all() and not alive[0]
        core, big, small = decompose_masks(n, us, vs)
        assert not (core.any() or big.any() or small.any())

    def test_empty_and_edgeless(self):
        empty = np.zeros(0, dtype=np.int64)
        labels, vertex_counts, edge_counts = component_stats(0, empty, empty)
        assert labels.size == vertex_counts.size == edge_counts.size == 0
        assert _peel(0, empty, empty)[0].tolist() == [False]
        labels, vertex_counts, edge_counts = component_stats(4, empty, empty)
        assert vertex_counts.tolist() == [1, 1, 1, 1]
        assert edge_counts.tolist() == [0, 0, 0, 0]
        assert not _peel(4, empty, empty)[0].any()
        assert components(SimpleGraph.from_edges(0)) == []

    def test_graph_operations_on_relabelled_vertex_sets(self):
        # Subgraphs keep their original labels; the kernels see positions.
        graph = SimpleGraph(
            vertices=(3, 8, 9, 20, 21, 40),
            edges=frozenset(
                {(3, 8), (8, 9), (3, 9), (9, 20), (20, 21), (3, 21), (21, 40)}
            ),
        )
        assert components(graph) == [(3, 8, 9, 20, 21, 40)]
        assert peeled_core(graph).vertices == (3, 8, 9, 20, 21)
        assert two_core(graph).vertices == (3, 8, 9, 20, 21)
        assert decompose(graph).non_complex.vertices == ()
        assert complex_by_component(graph.vertices, *_edge_arrays(graph)) == {
            frozenset(graph.vertices): True
        }


def star_on_triangle(leaves: int) -> tuple[int, np.ndarray, np.ndarray]:
    """Triangle 1-2-3, path 3-4-5, and star centre 5 with ``leaves`` leaves."""
    edges = [(1, 2), (2, 3), (1, 3), (3, 4), (4, 5)]
    edges += [(5, 6 + i) for i in range(leaves)]
    us, vs = (np.array(side, dtype=np.int64) for side in zip(*edges))
    return 5 + leaves, us, vs


def bulk_cases():
    """Graphs whose first frontier is wider than the peel's bulk threshold."""
    rng = np.random.default_rng(77)
    for name, core in (("triangle", TRIANGLE), ("bowtie", BOWTIE)):
        for q in (500, 5000):
            graph = SimpleGraph.from_edges(max(map(max, core)), core)
            yield pytest.param(
                q, *complex_part_arrays(graph, q, rng), id=f"complex-part-{name}-{q}"
            )
    for ratio in (0.5, 0.6, 1.2):
        us, vs, _, _ = sample_gnm_arrays(5000, int(ratio * 5000), rng)
        yield pytest.param(5000, us, vs, id=f"gnm-5000-{ratio}n")
    forest = decode_arrays(sample_codeword(3000, 4, rng), 3000, 4)
    yield pytest.param(3000, *forest, id="forest-no-core")
    for leaves in (65, 200):
        yield pytest.param(*star_on_triangle(leaves), id=f"star-{leaves}-on-triangle")


def assert_peel_same_with_degrees(n: int, us: np.ndarray, vs: np.ndarray):
    """``_peel`` given the degree sequence returns what it returns when it
    counts the endpoints itself, and leaves the given array as it was."""
    degree = degrees_of(n, us, vs)
    given = degree.copy()
    alive, bulk, tail = _peel(n, us, vs)
    given_alive, given_bulk, given_tail = _peel(n, us, vs, degree=given)
    np.testing.assert_array_equal(given, degree)
    np.testing.assert_array_equal(given_alive, alive)
    assert given_tail == tail
    assert len(given_bulk) == len(bulk)
    for (leaves, parents), (given_leaves, given_parents) in zip(bulk, given_bulk):
        np.testing.assert_array_equal(given_leaves, leaves)
        np.testing.assert_array_equal(given_parents, parents)


def assert_decompose_same_with_degrees(n: int, us, vs, degree: np.ndarray):
    """``decompose_masks`` given the degrees returns the masks it returns
    when it counts them itself, each with a False slot 0, and leaves the
    given array as it was."""
    given = degree.copy()
    for mask, given_mask in zip(
        decompose_masks(n, us, vs), decompose_masks(n, us, vs, given)
    ):
        assert not given_mask[0]
        np.testing.assert_array_equal(given_mask, mask)
    np.testing.assert_array_equal(given, degree)


class TestPeelGivenDegrees:
    def test_every_graph_up_to_six_vertices(self):
        for n in range(1, 7):
            for us, vs in all_graph_arrays(n):
                assert_peel_same_with_degrees(n, us, vs)

    @pytest.mark.parametrize("n, us, vs", bulk_cases())
    def test_bulk_cases(self, n, us, vs):
        assert_peel_same_with_degrees(n, us, vs)
        assert_decompose_same_with_degrees(n, us, vs, degrees_of(n, us, vs))

    def test_loads_of_the_sampler(self):
        rng = np.random.default_rng(31)
        for n, m in ((1, 0), (40, 0), (40, 30), (3000, 1800), (3000, 3600)):
            us, vs, loads, _ = sample_gnm_arrays(n, m, rng)
            assert_decompose_same_with_degrees(n, us, vs, loads)

    def test_degrees_of_the_wrong_length_are_refused(self):
        us, vs = np.array([1, 2]), np.array([2, 3])
        for degree in (np.array([1, 2]), np.array([0, 1, 2, 1])):
            with pytest.raises(ValueError, match="shape"):
                _peel(3, us, vs, degree=degree)

    def test_isolated_vertices_are_never_visited(self):
        # Three leaves and 200 isolated vertices: the first frontier is the
        # three leaves, under the bulk threshold, so the stack alone peels.
        n, us, vs = star_on_triangle(3)
        n += 200
        alive, bulk, tail = _peel(n, us, vs)
        assert bulk == [] and len(tail) == 5
        assert np.flatnonzero(alive).tolist() == [1, 2, 3]


class TestPeelBulkRounds:
    @pytest.mark.parametrize("n, us, vs", bulk_cases())
    def test_matches_queue_oracle(self, n, us, vs):
        assert first_frontier(n, us, vs) > _BULK_FRONTIER
        alive = assert_peel_matches_queue(n, us, vs)
        for dtype in (np.int32, np.uint64):
            np.testing.assert_array_equal(
                _peel(n, us.astype(dtype), vs.astype(dtype))[0], alive
            )

    @settings(deadline=None)
    @given(drawn=cores_with_trees())
    def test_matches_queue_oracle_on_trees_around_a_core(self, drawn):
        assert_peel_matches_queue(*drawn)


def complex_part_edges(core, q: int, rng) -> tuple[int, list[tuple[int, int]]]:
    """A complex part on [q] over ``core`` as a piece for ``relabelled_union``."""
    graph = SimpleGraph.from_edges(max(map(max, core)), core)
    us, vs = complex_part_arrays(graph, q, rng)
    return q, list(zip(us.tolist(), vs.tolist()))


class TestDecomposeBulkRounds:
    """decompose_masks on graphs wide enough for the peel's bulk rounds, where
    the deleted vertices take their core component one round at a time."""

    @pytest.mark.parametrize("n, us, vs", bulk_cases())
    def test_matches_dict_oracle(self, n, us, vs):
        assert first_frontier(n, us, vs) > _BULK_FRONTIER
        assert_decompose_matches_dict(n, us, vs)

    # Seeds 3 and 5 put the smallest core vertex in the smaller part, 4 and 6
    # in the larger one.
    @pytest.mark.parametrize("seed", range(3, 7))
    def test_equal_cores_tie_to_the_smallest_core_vertex(self, seed):
        rng = np.random.default_rng(seed)
        parts = [complex_part_edges(BOWTIE, q, rng) for q in (800, 790)]
        n, us, vs = relabelled_union(rng, parts)
        assert first_frontier(n, us, vs) > _BULK_FRONTIER
        core, big, small, _ = assert_decompose_matches_dict(n, us, vs)
        assert len(core & big) == len(core & small) == 5
        assert min(core) in big and len(big | small) == n

    def test_forest_on_a_bare_cycle_is_not_complex(self):
        # The triangle's hanging forest and a free forest peel away entirely;
        # their vertices must take no complex component.
        rng = np.random.default_rng(8)
        forest_us, forest_vs = decode_arrays(sample_codeword(1500, 3, rng), 1500, 3)
        parts = [
            complex_part_edges(TRIANGLE, 3000, rng),
            complex_part_edges(BOWTIE, 400, rng),
            (1500, list(zip(forest_us.tolist(), forest_vs.tolist()))),
        ]
        n, us, vs = relabelled_union(rng, parts)
        assert first_frontier(n, us, vs) > _BULK_FRONTIER
        core, big, small, rest = assert_decompose_matches_dict(n, us, vs)
        assert len(core) == 5 and len(big) == 400 and not small
        assert len(rest) == 3000 + 1500


K4 = list(combinations(range(1, 5), 2))
TWO_TRIANGLES = [(1, 2), (2, 3), (1, 3), (4, 5), (5, 6), (4, 6)]


def peels_to_core(n: int, core, lo, hi) -> bool:
    """What the peel says of the forest (lo, hi) grafted after ``core``:
    exactly [1, v(core)] survives, with the core's edges."""
    core_us, core_vs = (np.array(side, dtype=np.int64) for side in zip(*core))
    us, vs = np.concatenate((core_us, lo)), np.concatenate((core_vs, hi))
    alive = _peel(n, us, vs)[0]
    kept = np.flatnonzero(alive[us] & alive[vs])
    v = max(map(max, core))
    return np.array_equal(
        np.flatnonzero(alive), np.arange(1, v + 1)
    ) and np.array_equal(kept, np.arange(len(core)))


def forest_case(forest) -> tuple[int, np.ndarray, np.ndarray]:
    """(n, lo, hi) for hand-given forest edges onto the roots of ``TRIANGLE``."""
    lo, hi = (np.array(side, dtype=np.int64) for side in zip(*forest))
    return max(3, int(lo.max()), int(hi.max())), lo, hi


class TestLeafOrdered:
    """``_leaf_ordered`` against the peel it stands in for.  A core that
    is not on [1, v] with minimum degree two is ``validate_core``'s to refuse."""

    @pytest.mark.parametrize(
        "core",
        [TRIANGLE, BOWTIE, K4, TWO_TRIANGLES],
        ids=["triangle", "bowtie", "k4", "two-triangles"],
    )
    def test_agrees_with_peel_on_complex_parts(self, core):
        v = max(map(max, core))
        # 999 decodes with the pointer scan, 1000 and up by release steps.
        sizes = [*range(v + 1, v + 41), 999, 1000, 1001, 5000, 10**5]
        for q in sizes:
            for seed in range(4):
                rng = np.random.default_rng((q, seed))
                lo, hi = decode_arrays(sample_codeword(q, v, rng), q, v)
                assert peels_to_core(q, core, lo, hi), (q, seed)
                assert _leaf_ordered(q, v, lo, hi), (q, seed)

    def test_every_decoded_forest_up_to_six_vertices(self):
        for q in range(2, 7):
            for t in range(1, min(3, q - 1) + 1):
                for body in product(range(1, q + 1), repeat=q - t - 1):
                    for last in range(1, t + 1):
                        codeword = np.array([*body, last], dtype=np.int64)
                        lo, hi = decode_arrays(codeword, q, t)
                        assert _leaf_ordered(q, t, lo, hi), (q, t, codeword)
                        if t == 3:
                            assert peels_to_core(q, TRIANGLE, lo, hi), codeword

    @pytest.mark.parametrize("order", ["reversed", "shuffled"])
    def test_forest_out_of_leaf_order_is_refused(self, order):
        # The same graph still peels to the core: the check is stricter.
        codeword = sample_codeword(200, 3, np.random.default_rng(5))
        lo, hi = decode_arrays(codeword, 200, 3)
        if order == "reversed":
            index = np.arange(lo.size)[::-1]
        else:
            index = np.random.default_rng(6).permutation(lo.size)
        lo, hi = lo[index], hi[index]
        assert peels_to_core(200, TRIANGLE, lo, hi)
        assert not _leaf_ordered(200, 3, lo, hi)

    def test_hand_built_leaf_order_passes(self):
        # Path 1-4-5-6 hung on the triangle, deleted 6, 5, 4.
        n, lo, hi = forest_case([(5, 6), (4, 5), (1, 4)])
        assert peels_to_core(n, TRIANGLE, lo, hi)
        assert _leaf_ordered(n, 3, lo, hi)

    @pytest.mark.parametrize(
        "forest",
        [
            # Edge 2 closes the cycle 4-5-6: L(4) = L(6) = 2.
            [(5, 6), (4, 5), (4, 6)],
            # A loop at 4 as its last edge: every L is distinct.
            [(5, 6), (4, 5), (4, 4)],
        ],
        ids=["cycle", "loop"],
    )
    def test_refused_where_the_peel_misses_the_core(self, forest):
        n, lo, hi = forest_case(forest)
        assert not peels_to_core(n, TRIANGLE, lo, hi)
        assert not _leaf_ordered(n, 3, lo, hi)

    def test_vertex_without_an_edge_is_refused(self):
        # n - t edges, but vertex 7 has none: L(6), L(5), L(4) = 0, 1, 2 are
        # distinct, and edge 3 joins two roots, so no L reaches it.
        _, lo, hi = forest_case([(5, 6), (4, 5), (1, 4), (1, 2)])
        assert not peels_to_core(7, TRIANGLE, lo, hi)
        assert not _leaf_ordered(7, 3, lo, hi)

    def test_wrong_edge_count_is_refused(self):
        # A valid leaf order on [6], read as a forest on [7] or on the roots [1, 4].
        n, lo, hi = forest_case([(5, 6), (4, 5), (1, 4)])
        assert not _leaf_ordered(n + 1, 3, lo, hi)
        assert not _leaf_ordered(n, 4, lo, hi)

    @pytest.mark.parametrize("bad", [0, 7, -1])
    def test_endpoint_outside_the_labels_is_refused(self, bad):
        # Without the bad endpoint the forest is a valid leaf order on [6].
        n, lo, hi = forest_case([(5, 6), (4, 5), (1, 4)])
        bad_lo, bad_hi = lo.copy(), hi.copy()
        bad_lo[-1], bad_hi[-1] = bad, bad
        assert not _leaf_ordered(n, 3, bad_lo, hi)
        assert not _leaf_ordered(n, 3, lo, bad_hi)


def assert_matches_scipy(n: int, us: np.ndarray, vs: np.ndarray) -> None:
    got = component_stats(n, us, vs)
    expected = scipy_component_stats(n, us, vs)
    assert got[0].dtype == expected[0].dtype == np.int32
    for mine, theirs in zip(got, expected):
        np.testing.assert_array_equal(mine, theirs)


def path_edges(order: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The path visiting the vertices in ``order``, one edge per step."""
    return order[:-1], order[1:]


class TestComponentKernelAgainstScipy:
    """The NumPy labelling kernel against SciPy, labels and counts exactly."""

    def test_kernel_cases(self):
        for n, us, vs in kernel_cases():
            assert_matches_scipy(n, us, vs)

    def test_small_random_graphs(self):
        rng = np.random.default_rng(31)
        for i in range(3000):
            n = i % 40 + 1
            m_max = n * (n - 1) // 2
            m = 0 if i % 7 == 0 else int(rng.integers(0, min(m_max, 2 * n) + 1))
            assert_matches_scipy(n, *random_graph_arrays(rng, n, m))

    @pytest.mark.parametrize(
        "shape",
        [
            "gnm_half",
            "gnm_0.6",
            "pruefer_forest",
            "random_path",
            "path_up",
            "path_down",
            "star_top_centre",
        ],
    )
    def test_large_graphs(self, shape):
        n = 100_000
        rng = np.random.default_rng(17)
        if shape.startswith("gnm"):
            m = n // 2 if shape == "gnm_half" else n * 6 // 10
            us, vs, _, _ = sample_gnm_arrays(n, m, rng)
        elif shape == "pruefer_forest":
            us, vs = decode_arrays(sample_codeword(n, 50, rng), n, 50)
        elif shape == "random_path":
            us, vs = path_edges(rng.permutation(n) + 1)
        elif shape == "path_up":
            us, vs = path_edges(np.arange(1, n + 1))
        elif shape == "path_down":
            us, vs = path_edges(np.arange(n, 0, -1))
        else:
            us, vs = np.full(n - 1, n), np.arange(1, n)
        assert_matches_scipy(n, us, vs)

    def test_refuses_labels_beyond_int32(self):
        empty = np.zeros(0, dtype=np.int64)
        with pytest.raises(ValueError, match="n must be below 2\\^31"):
            component_stats(2**31, empty, empty)


class TestIsolatedCounts:
    def test_edgeless(self):
        assert isolated_counts(SimpleGraph.from_edges(5)) == (5, 0)

    def test_perfect_matching(self):
        graph = SimpleGraph.from_edges(6, [(1, 2), (3, 4), (5, 6)])
        assert isolated_counts(graph) == (0, 3)

    def test_pendant_edges_on_a_hub_are_not_isolated(self):
        graph = SimpleGraph.from_edges(4, [(1, 2), (1, 3), (1, 4)])
        assert isolated_counts(graph) == (0, 0)


class TestPlanarity:
    def test_k5_not_planar(self):
        k5 = (1 << len(complete_graph_edges(5))) - 1
        assert not planarity_table(5)[k5]

    def test_k33_not_planar(self):
        k33 = sum(
            1 << i
            for i, (u, v) in enumerate(complete_graph_edges(6))
            if u <= 3 < v
        )
        assert bin(k33).count("1") == 9
        assert not planarity_table(6)[k33]

    def test_mask_table_against_networkx(self):
        rng = np.random.default_rng(99)
        for n in (4, 5, 6, 7):
            table = planarity_table(n)
            n_edges = n * (n - 1) // 2
            masks = rng.integers(0, 1 << n_edges, size=400)
            for mask in masks:
                graph = graph_from_mask(n, int(mask))
                assert bool(table[int(mask)]) == networkx_planar(n, graph.edges)


class TestPlanarityTable:
    """The superset closure against the per-mask superset sweep it replaced."""

    @pytest.mark.parametrize("n", range(7))
    def test_closure_matches_per_mask_sweep(self, n):
        expected = superset_planarity_table(_kuratowski_masks(n), n * (n - 1) // 2)
        np.testing.assert_array_equal(planarity_table(n), expected)

    def test_closure_matches_per_mask_sweep_on_random_codes_n7(self):
        codes = np.random.default_rng(7_2026).integers(0, 1 << 21, size=1 << 15)
        expected = superset_planarity_table(_kuratowski_masks(7), 21, codes)
        np.testing.assert_array_equal(planarity_table(7)[codes], expected)
        assert 0 < expected.sum() < codes.size

    @pytest.mark.parametrize("n", range(5))
    def test_below_five_vertices_every_graph_is_planar(self, n):
        # n = 0 gives a table of one entry: the empty graph.
        assert _kuratowski_masks(n) == ()
        table = planarity_table(n)
        assert table.shape == (1 << (n * (n - 1) // 2),)
        assert table.dtype == bool and table.all()

    @pytest.mark.parametrize("n", range(8))
    def test_table_is_a_contiguous_read_only_bool_array(self, n):
        # From n = 5 on the table is unpacked from 64-bit words.
        table = planarity_table(n)
        assert table.shape == (1 << (n * (n - 1) // 2),)
        assert table.dtype == bool
        assert table.flags.c_contiguous
        assert not table.flags.writeable

    @pytest.mark.parametrize("n", range(1, 8))
    def test_planar_total_is_oeis_a066537(self, n):
        assert int(planarity_table(n).sum()) == PLANAR_GRAPH_COUNTS[n]

    @pytest.mark.parametrize("n", [-1, 8])
    def test_refuses_out_of_range(self, n):
        with pytest.raises(EnumerationLimitError):
            planarity_table(n)

    def test_cached_table_is_read_only(self):
        table = planarity_table(5)
        with pytest.raises(ValueError, match="read-only"):
            table[:] = False
        with pytest.raises(ValueError, match="read-only"):
            table[0] = False
        assert planarity_table(5) is table
        assert int(planarity_table(5).sum()) == (1 << 10) - 1


class TestKuratowskiMasks:
    """The subdivision masks against an oracle independent of how they are built.

    By Kuratowski's theorem the K5 and K3,3 subdivisions are exactly the
    minimal non-planar graphs: non-planar, and planar once any one edge is
    deleted.  A mask the generator adds wrongly shows here; one it misses
    leaves that code planar, which the A066537 totals catch.
    """

    @pytest.mark.parametrize("n", range(8))
    def test_masks_are_the_minimal_nonplanar_codes(self, n):
        table = planarity_table(n)
        codes = np.flatnonzero(~table)
        minimal = np.ones(codes.size, dtype=bool)
        for i in range(n * (n - 1) // 2):
            has_edge = (codes >> i & 1).astype(bool)
            minimal[has_edge] &= table[codes[has_edge] ^ (1 << i)]
        assert _kuratowski_masks(n) == tuple(codes[minimal].tolist())

    @pytest.mark.parametrize("n,count", [(4, 0), (5, 1), (6, 76), (7, 3451)])
    def test_mask_counts(self, n, count):
        assert len(_kuratowski_masks(n)) == count


class TestEdgeListFormat:
    def test_round_trip(self):
        graph = SimpleGraph.from_edges(5, [(1, 2), (3, 5)])
        text = format_edge_list(5, np.array([5, 1]), np.array([3, 2]))
        assert text == "5 2\n1 2\n3 5\n"
        assert SimpleGraph.from_arrays(*parse_edge_list(text)) == graph

    def test_arrays_keep_the_file_order(self):
        n, us, vs = parse_edge_list("4 3\n3 1\n2 4\n1 2\n")
        assert (n, us.tolist(), vs.tolist()) == (4, [3, 2, 1], [1, 4, 2])
        assert us.dtype == vs.dtype == np.int64

    def test_tokens_are_read_as_int_reads_them(self):
        # One NumPy conversion, which accepts what int() accepts.
        n, us, vs = parse_edge_list("1_000 2\n+5 \u0663\n 7 1000\n")
        assert (n, us.tolist(), vs.tolist()) == (1000, [5, 7], [3, 1000])

    @pytest.mark.parametrize("token", ["2.0", "True", "0x10", "1e3", "nan", "1."])
    def test_refuses_what_int_refuses(self, token):
        for text in (f"3 1\n1 {token}\n", f"{token} 0\n", f"3 {token}\n"):
            with pytest.raises(ValueError, match=f"token '{re.escape(token)}' is not an integer"):
                parse_edge_list(text)

    @pytest.mark.parametrize(
        "text, token",
        [
            pytest.param("99999999999999999999 0\n", "99999999999999999999", id="header-n"),
            pytest.param("3 9223372036854775808\n", "9223372036854775808", id="header-m"),
            pytest.param("3 1\n1 9223372036854775808\n", "9223372036854775808", id="body"),
            pytest.param("3 1\n-9223372036854775809 1\n", "-9223372036854775809", id="negative"),
        ],
    )
    def test_token_beyond_int64_is_named(self, text, token):
        with pytest.raises(ValueError, match=f"edge list token '{token}' lies beyond int64"):
            parse_edge_list(text)

    def test_first_bad_token_in_file_order_is_named(self):
        with pytest.raises(ValueError, match="token '1e3' is not an integer"):
            parse_edge_list("3 2\n1 1e3\n1 99999999999999999999\n")
        with pytest.raises(ValueError, match="token '99999999999999999999' lies beyond"):
            parse_edge_list("3 2\n1 99999999999999999999\n1 1e3\n")

    @settings(deadline=None)
    @given(data=st.data())
    def test_matches_the_sorted_edges_of_the_checked_graph(self, data):
        # Reference: the text built from the sorted edge set of the graph
        # that SimpleGraph.from_arrays checks, for edges in any order and
        # either orientation, on [n] with n = 0 and no edges included.
        n = data.draw(st.integers(0, 30), label="n")
        pairs = complete_graph_edges(n)
        chosen = data.draw(
            st.lists(st.sampled_from(pairs), unique=True) if pairs else st.just([]),
            label="edges",
        )
        flips = data.draw(
            st.lists(st.booleans(), min_size=len(chosen), max_size=len(chosen)),
            label="flips",
        )
        oriented = [(v, u) if flip else (u, v) for (u, v), flip in zip(chosen, flips)]
        us = np.array([u for u, _ in oriented], dtype=np.int64)
        vs = np.array([v for _, v in oriented], dtype=np.int64)
        edges = sorted(SimpleGraph.from_arrays(n, us, vs).edges)
        expected = "".join(f"{u} {v}\n" for u, v in [(n, len(edges)), *edges])
        assert format_edge_list(n, us, vs) == expected

    def test_rejects_malformed(self):
        with pytest.raises(ValueError):
            parse_edge_list("3 2\n1 2\n")
        with pytest.raises(ValueError, match="token '2.5' is not an integer"):
            parse_edge_list("3 1\n1 2.5\n")
        with pytest.raises(ValueError, match="token 'x' is not an integer"):
            parse_edge_list("x 0\n")
        with pytest.raises(ValueError, match="N and M must be non-negative"):
            parse_edge_list("3 -1\n")
        with pytest.raises(ValueError, match="N and M must be non-negative"):
            parse_edge_list("-2 0\n")

    def test_rejects_repeated_edge(self):
        with pytest.raises(ValueError, match="edge \\(1, 2\\) appears more than once"):
            parse_edge_list("3 3\n1 2\n2 1\n2 3\n")
