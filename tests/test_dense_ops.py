"""Tests for the degree-raising transformation and class enumeration."""

from __future__ import annotations

import csv
import io
from dataclasses import astuple
from functools import cache
from itertools import combinations, product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from degreelab import dense_ops
from degreelab.cli import main
from degreelab.dense_ops import (
    EnumerationLimitError,
    Witness,
    apply_transformation,
    classify_all_graphs,
    enumerate_class,
    find_witness,
    sweep_ratio_bounds,
    verify_ratio_bound,
)
from degreelab.graphs import (
    SimpleGraph,
    complete_graph_edges,
    max_degree,
    planarity_table,
)
from degreelab.harness import ExperimentConfig, run_experiment

from oracles import (
    PLANAR_GRAPH_COUNTS,
    bitwise_class_tally,
    bitwise_signatures,
    graph_class_count_by_assembly,
    isolated_counts,
    networkx_planar,
)

# A 14-vertex instance in the shape of the transformation's picture: a planar
# blob with one degree-4 vertex, three isolated edges, two isolated vertices.
PICTURE_EDGES = [
    (1, 2), (1, 3), (1, 4), (1, 5), (2, 3), (2, 4), (3, 6), (5, 6),
    (7, 8), (9, 10), (11, 12),
]
PICTURE = SimpleGraph.from_edges(14, PICTURE_EDGES)


class TestFindWitness:
    def test_no_isolated_vertex_means_no_witness(self):
        graph = SimpleGraph.from_edges(7, [(1, 2), (3, 4), (5, 6), (6, 7)])
        assert find_witness(graph) is None

    def test_edgeless_graph_has_no_witness(self):
        assert find_witness(SimpleGraph.from_edges(5)) is None

    def test_two_matching_edges_plus_isolated_is_not_enough(self):
        # With maximum degree one the edge at v1 is itself isolated, so two
        # further isolated edges are needed: seven non-isolated vertices in
        # total, which a 2-edge matching cannot supply.
        graph = SimpleGraph.from_edges(5, [(1, 2), (3, 4)])
        assert find_witness(graph) is None

    def test_three_matching_edges_plus_isolated_works(self):
        graph = SimpleGraph.from_edges(7, [(1, 2), (3, 4), (5, 6)])
        witness = find_witness(graph)
        assert witness == Witness(1, 2, 7, 3, 4, 5, 6)

    def test_picture_instance_has_witness(self):
        witness = find_witness(PICTURE)
        assert witness is not None
        assert witness.v1 == 1
        assert witness.v3 == 13
        assert {witness.v4, witness.v5} == {7, 8}
        assert {witness.v6, witness.v7} == {9, 10}

    def test_lexicographic_choice_of_v2(self):
        assert find_witness(PICTURE).v2 == 2

    def test_distinctness_enforced_by_type(self):
        with pytest.raises(ValueError):
            Witness(1, 2, 3, 4, 5, 4, 6)


class TestApplyTransformation:
    def test_picture_counts(self):
        witness = find_witness(PICTURE)
        k, l = isolated_counts(PICTURE)
        d = max_degree(PICTURE)
        image = apply_transformation(PICTURE, witness)
        assert image.size == PICTURE.size
        assert max_degree(image) == d + 1
        assert isolated_counts(image) == (k + 3, l - 2)

    def test_degree_one_case_raises_to_two(self):
        graph = SimpleGraph.from_edges(7, [(1, 2), (3, 4), (5, 6)])
        image = apply_transformation(graph, find_witness(graph))
        assert max_degree(image) == 2
        assert image.adjacency[7] == (1, 2)
        # v1v2 survives, so only the two consumed edges disappear and the
        # isolated-edge count drops by three (v1v2 is no longer isolated).
        assert isolated_counts(image) == (4, 0)

    def test_planarity_preserved(self):
        rng = np.random.default_rng(27)
        checked = 0
        for _ in range(200):
            n = 10
            m = int(rng.integers(1, 8))
            all_pairs = list(combinations(range(1, 11), 2))
            chosen = [all_pairs[i] for i in rng.permutation(len(all_pairs))[:m]]
            graph = SimpleGraph.from_edges(n, chosen)
            witness = find_witness(graph)
            if witness is None or not networkx_planar(n, graph.edges):
                continue
            image = apply_transformation(graph, witness)
            assert networkx_planar(n, image.edges)
            checked += 1
        assert checked >= 20

    def test_rejects_stale_witness(self):
        witness = find_witness(PICTURE)
        other = SimpleGraph.from_edges(14, [(1, 2), (2, 3), (7, 8), (9, 10)])
        with pytest.raises(ValueError):
            apply_transformation(other, witness)

    def test_rejects_non_isolated_target_edge(self):
        graph = SimpleGraph.from_edges(
            9, [(1, 2), (1, 3), (1, 4), (2, 3), (4, 5), (6, 7)]
        )
        with pytest.raises(ValueError):
            apply_transformation(graph, Witness(1, 2, 8, 4, 5, 6, 7))


class TestEnumerateClass:
    def test_empty_graph_class(self):
        assert enumerate_class(3, 0, 3, 0, 0) == 1

    def test_single_edge_class(self):
        assert enumerate_class(4, 1, 2, 1, 1) == 6

    def test_perfect_matchings_on_six(self):
        assert enumerate_class(6, 3, 0, 3, 1) == 15

    @pytest.mark.parametrize("n", range(1, 8))
    def test_total_counts_are_all_graphs_and_planar_graphs(self, n):
        table = classify_all_graphs(n)
        assert sum(v[0] for v in table.values()) == 1 << (n * (n - 1) // 2)
        assert sum(v[1] for v in table.values()) == PLANAR_GRAPH_COUNTS[n]

    def test_refuses_large_n(self):
        with pytest.raises(EnumerationLimitError):
            enumerate_class(8, 1, 1, 0, 1)

    def test_validates_ranges(self):
        with pytest.raises(ValueError):
            enumerate_class(5, -1, 0, 0, 0)
        with pytest.raises(ValueError):
            enumerate_class(5, 0, 6, 0, 0)

    @pytest.mark.parametrize("planar_only", [True, False])
    def test_matches_assembly_oracle(self, planar_only):
        # Cross-check the bitmask sweep against an independent count that
        # assembles graphs from isolated vertices, isolated edges, and a
        # remainder, over every signature on 5 and 6 vertices.
        for n in (5, 6):
            for m in range(n * (n - 1) // 2 + 1):
                for k in range(n + 1):
                    for l in range(n // 2 + 1):
                        for d in range(n):
                            expected = graph_class_count_by_assembly(
                                n, m, k, l, d, planar_only
                            )
                            assert (
                                enumerate_class(n, m, k, l, d, planar_only)
                                == expected
                            ), (n, m, k, l, d, planar_only)

    def test_matches_assembly_oracle_spot_n7(self):
        for sig in ((3, 1, 3, 1), (9, 1, 2, 3), (8, 0, 2, 3), (7, 2, 1, 3)):
            m, k, l, d = sig
            assert enumerate_class(7, m, k, l, d, True) == (
                graph_class_count_by_assembly(7, m, k, l, d, True)
            )


class TestClassifyAllGraphs:
    """The tally of the vertex split against per-code popcounts."""

    @pytest.mark.parametrize("n", range(1, 8))
    def test_vertex_split_tally_matches_per_code_popcount_tally(self, n):
        expected = bitwise_class_tally(n, planarity_table(n))
        table = classify_all_graphs(n)
        assert dict(table) == expected
        assert all(type(c) is int for counts in table.values() for c in counts)

    def test_refuses_out_of_range(self):
        for n in (0, 8):
            with pytest.raises(EnumerationLimitError):
                classify_all_graphs(n)

    def test_cached_table_is_read_only(self):
        table = classify_all_graphs(4)
        with pytest.raises(TypeError):
            table[(1, 2, 1, 1)] = (0, 0)
        with pytest.raises(AttributeError):
            table.clear()
        assert classify_all_graphs(4) is table
        assert table[(1, 2, 1, 1)] == (6, 6)
        assert enumerate_class(4, 1, 2, 1, 1) == 6


@cache
def _split(n):
    return dense_ops._vertex_split(n)


def _split_signature(n, code):
    """The grid entry the tally reads for ``code``: (group of its base, S)."""
    grid, group, _ = _split(n)
    return int(grid[group[code >> (n - 1)], code & ((1 << (n - 1)) - 1)])


def _graph_signature(n, code):
    """m + 32(k + 8(l + 8d)) of the SimpleGraph with edge bitmask ``code``."""
    edges = [e for i, e in enumerate(complete_graph_edges(n)) if code >> i & 1]
    graph = SimpleGraph(vertices=tuple(range(1, n + 1)), edges=edges)
    k, l = isolated_counts(graph)
    return graph.size + 32 * (k + 8 * (l + 8 * max_degree(graph)))


def _base_fields(r):
    """(m, degree-0 set, isolated-edge set, top degree, top-degree set) of
    every code of K_r, one row per code, by popcounts."""
    edges = list(combinations(range(r), 2))
    codes = np.arange(1 << len(edges))
    deg = np.zeros((r, codes.size), dtype=np.int64)
    for i, (u, v) in enumerate(edges):
        deg[u] += codes >> i & 1
        deg[v] += codes >> i & 1
    top = deg.max(axis=0, initial=0)
    zero = np.zeros(codes.size, dtype=np.int64)
    at_top = np.zeros(codes.size, dtype=np.int64)
    for v in range(r):
        zero |= (deg[v] == 0).astype(np.int64) << v
        at_top |= (deg[v] == top).astype(np.int64) << v
    iso = np.zeros(codes.size, dtype=np.int64)
    for i, (u, v) in enumerate(edges):
        iso |= ((codes >> i & 1) & (deg[u] == 1) & (deg[v] == 1)) << i
    return np.stack([np.bitwise_count(codes), zero, iso, top, at_top], axis=1)


class TestVertexSplit:
    """The grid of ``_vertex_split`` code by code, against each code's graph."""

    @pytest.mark.parametrize("n", range(1, 5))
    def test_every_code_reads_its_graphs_signature(self, n):
        for code in range(1 << (n * (n - 1) // 2)):
            assert _split_signature(n, code) == _graph_signature(n, code), code

    @given(code=st.integers(0, (1 << 21) - 1))
    def test_drawn_codes_on_seven_vertices(self, code):
        assert _split_signature(7, code) == _graph_signature(7, code)

    @pytest.mark.parametrize("n", range(1, 8))
    def test_grid_rows_list_every_code_in_order(self, n):
        # The non-planar gather reads grid[group] in code order.
        grid, group, count = _split(n)
        assert np.array_equal(grid[group].ravel(), bitwise_signatures(n))
        assert count.sum() == group.size == 1 << ((n - 1) * (n - 2) // 2)

    @pytest.mark.parametrize("n", range(1, 8))
    def test_groups_are_the_classes_of_the_five_fields(self, n):
        # A packed key whose fields overlapped would merge two classes.
        _, group, count = _split(n)
        _, fields = np.unique(_base_fields(n - 1), axis=0, return_inverse=True)
        pairs = set(zip(fields.ravel().tolist(), group.tolist()))
        assert len(pairs) == len(set(fields.ravel().tolist())) == count.size
        if n == 7:
            assert count.size == 2239


class TestRatioBound:
    def test_hypotheses_validated(self):
        with pytest.raises(ValueError):
            verify_ratio_bound(7, 5, 0, 2, 3)
        with pytest.raises(ValueError):
            verify_ratio_bound(7, 5, 1, 1, 3)
        with pytest.raises(ValueError):
            verify_ratio_bound(7, 5, 1, 2, 2)

    def test_empty_source_reported_vacuous(self):
        check = verify_ratio_bound(7, 5, 1, 2, 3)
        assert check.vacuous
        assert check.holds
        assert check.count_src == 0

    def test_sweep_on_seven_vertices_is_entirely_vacuous(self):
        # One isolated vertex, two isolated edges, and a degree->=3 vertex
        # need at least 1 + 4 + 4 = 9 vertices, and a nonempty image class
        # four isolated vertices plus one of degree >= 4, nine again.  So no
        # signature on [n] for n <= 7 qualifies, and the sweep checks nothing.
        for n in range(1, 8):
            for planar_only in (True, False):
                assert sweep_ratio_bounds(n, planar_only) == []


#: A synthetic n = 7 table, keyed by (m, k, l, d) with (all, planar) counts.
#: (5, 1, 2, 3) is a source with its image (5, 4, 0, 4); (6, 4, 0, 4) is an
#: image whose source (6, 1, 2, 3) is absent, a vacuous check; (7, 2, 2, 3)
#: is a source with no image, a violation; (0, 7, 0, 0) meets no hypothesis.
SYNTHETIC_TABLE = {
    (0, 7, 0, 0): (1, 1),
    (5, 1, 2, 3): (40, 30),
    (5, 4, 0, 4): (10, 6),
    (6, 4, 0, 4): (12, 8),
    (7, 2, 2, 3): (1000, 1000),
}

#: The checks the synthetic table yields, in order, for planar_only False and
#: True: (m, k, l, d, count_src, count_dst, bound, holds, vacuous).
SYNTHETIC_CHECKS = {
    False: [
        (5, 1, 2, 3, 40, 10, 1 / 8, True, False),
        (6, 1, 2, 3, 0, 12, 1 / 8, True, True),
        (7, 2, 2, 3, 1000, 0, 1 / 64, False, False),
    ],
    True: [
        (5, 1, 2, 3, 30, 6, 1 / 8, True, False),
        (6, 1, 2, 3, 0, 8, 1 / 8, True, True),
        (7, 2, 2, 3, 1000, 0, 1 / 64, False, False),
    ],
}


class TestSweepOnASyntheticTable:
    """Every real table on n <= 7 gives an empty sweep, so these tests swap
    in a synthetic one and follow its checks through the library, the
    ``dense_ratio`` campaign and ``enumerate dense-ratio``."""

    @pytest.fixture(autouse=True)
    def synthetic_table(self, monkeypatch):
        monkeypatch.setattr(dense_ops, "classify_all_graphs", lambda n: SYNTHETIC_TABLE)

    @pytest.mark.parametrize("planar_only", [False, True])
    def test_checks(self, planar_only):
        checks = sweep_ratio_bounds(7, planar_only)
        assert [astuple(c) for c in checks] == [
            (7, *row) for row in SYNTHETIC_CHECKS[planar_only]
        ]

    @pytest.mark.parametrize("planar_only", [False, True])
    def test_campaign_records(self, planar_only):
        cfg = ExperimentConfig(experiment="dense_ratio", n=7, planar_only=planar_only)
        result = run_experiment(cfg)
        expected = SYNTHETIC_CHECKS[planar_only]
        assert [r.trial_index for r in result.records] == [0, 1, 2]
        for record, (m, k, l, d, src, dst, bound, holds, vacuous) in zip(
            result.records, expected
        ):
            assert record.observed == (dst / src if src else None)
            assert (record.lo, record.hi, record.in_interval) == (None, None, holds)
            assert record.auxiliary == dict(
                m=m, k=k, l=l, d=d, count_src=src, count_dst=dst, bound=bound,
                vacuous=vacuous,
            )
        assert result.summary["violations"] == 1
        assert result.summary["vacuous"] == 1
        # The vacuous check has no ratio, but it is not a failed trial.
        assert result.summary["failures"] == 0
        src, dst = expected[0][4:6]
        assert result.summary["histogram"] == {
            str(dst / src): 1, "0.0": 1, "vacuous": 1
        }
        assert result.summary["hits"] == 2

    @pytest.mark.parametrize("planar_only", [False, True])
    def test_cli_rows(self, capsys, planar_only):
        argv = ["enumerate", "dense-ratio", "--n", "7"]
        code = main(argv + ["--planar"] if planar_only else argv)
        captured = capsys.readouterr()
        assert code == 1  # one check fails
        assert captured.err == ""
        rows = list(csv.reader(io.StringIO(captured.out)))
        assert rows[0] == ["m", "k", "l", "d", "count_src", "count_dst", "bound", "holds"]
        assert rows[1:] == [
            [*map(str, (m, k, l, d, src, dst)), repr(bound), str(holds).lower()]
            for m, k, l, d, src, dst, bound, holds, _ in SYNTHETIC_CHECKS[planar_only]
        ]


@st.composite
def synthetic_tables(draw):
    """A table on [n], n <= 14, with keys in the ranges enumerate_class accepts."""
    n = draw(st.integers(1, 14))
    key = st.tuples(
        st.integers(0, n * (n - 1) // 2),
        st.integers(0, n),
        st.integers(0, n // 2),
        st.integers(0, n - 1),
    )
    counts = st.tuples(st.integers(1, 50), st.integers(0, 50)).map(
        lambda c: (c[0], min(c))
    )
    return n, draw(st.dictionaries(key, counts, max_size=40))


@settings(deadline=None)
@given(drawn=synthetic_tables(), planar_only=st.booleans())
def test_sweep_checks_exactly_the_signatures_its_docstring_names(drawn, planar_only):
    # A signature is checked iff it meets the hypotheses and it or its image
    # is a table key; checks come in signature order with the table's counts.
    n, table = drawn
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(dense_ops, "classify_all_graphs", lambda _: table)
        checks = sweep_ratio_bounds(n, planar_only)
    expected = [
        (m, k, l, d)
        for m, k, l, d in product(
            range(n * (n - 1) // 2 + 1), range(1, n + 1), range(2, n // 2 + 1),
            range(3, n),
        )
        if (m, k, l, d) in table or (m, k + 3, l - 2, d + 1) in table
    ]
    assert [(c.m, c.k, c.l, c.d) for c in checks] == expected
    column = 1 if planar_only else 0
    for c in checks:
        assert c.count_src == table.get((c.m, c.k, c.l, c.d), (0, 0))[column]
        image = (c.m, c.k + 3, c.l - 2, c.d + 1)
        assert c.count_dst == table.get(image, (0, 0))[column]


def _assemble_source_graph(iso, matching, star_center, star_leaves):
    edges = list(matching)
    edges.extend((star_center, leaf) for leaf in star_leaves)
    return SimpleGraph.from_edges(9, edges)


def _source_instances(limit, seed):
    """Graphs in P(9, 5, 1, 2, 3): star on four vertices, two isolated
    edges, one isolated vertex."""
    rng = np.random.default_rng(seed)
    labels = list(range(1, 10))
    instances = []
    while len(instances) < limit:
        perm = [int(v) for v in rng.permutation(labels)]
        iso = perm[0]
        matching = ((min(perm[1], perm[2]), max(perm[1], perm[2])),
                    (min(perm[3], perm[4]), max(perm[3], perm[4])))
        star_center = perm[5]
        star_leaves = perm[6:9]
        graph = _assemble_source_graph(iso, matching, star_center, star_leaves)
        if isolated_counts(graph) == (1, 2) and max_degree(graph) == 3:
            instances.append(graph)
    return instances


class TestCountingBoundsBeyondTheSweep:
    """Forward/backward counting for the transformation, exercised on nine
    vertices where the hypotheses k >= 1, l >= 2, d >= 3 are satisfiable."""

    def test_ratio_bound_nonvacuous_n9(self):
        # |P(9, m, 4, 0, 4)| / |P(9, m, 1, 2, 3)| >= 1/8 wherever the source
        # class is nonempty, with and without the planar filter.
        for planar_only in (True, False):
            seen_nonempty = 0
            for m in range(0, 13):
                src = graph_class_count_by_assembly(9, m, 1, 2, 3, planar_only)
                dst = graph_class_count_by_assembly(9, m, 4, 0, 4, planar_only)
                if src:
                    seen_nonempty += 1
                    assert dst / src >= 1.0 / 8.0, (m, src, dst)
            assert seen_nonempty >= 3

    def test_forward_image_count(self):
        # Each source graph has at least d*k*C(l,2) = 3 distinct images.
        for graph in _source_instances(60, seed=5):
            images = set()
            witnesses = _all_witnesses(graph)
            assert witnesses
            for witness in witnesses:
                images.add(apply_transformation(graph, witness).edges)
            assert len(images) >= 3

    def test_backward_preimage_count(self):
        # Each image has at most 2*(d+1)*3*C(k+3, 4) = 24 preimages.
        for graph in _source_instances(25, seed=6):
            witness = find_witness(graph)
            image = apply_transformation(graph, witness)
            preimages = _all_preimages(image, d=3)
            assert graph.edges in preimages
            assert len(preimages) <= 24


def _all_witnesses(graph):
    adjacency = graph.adjacency
    d = max_degree(graph)
    isolated_vertices = [v for v in graph.vertices if not adjacency[v]]
    isolated_edges = [
        e
        for e in sorted(graph.edges)
        if len(adjacency[e[0]]) == 1 and len(adjacency[e[1]]) == 1
    ]
    witnesses = []
    for v1 in (v for v in graph.vertices if len(adjacency[v]) == d):
        for v2 in adjacency[v1]:
            usable = [e for e in isolated_edges if v1 not in e and v2 not in e]
            for i, e1 in enumerate(usable):
                for e2 in usable[i + 1 :]:
                    for v3 in isolated_vertices:
                        witnesses.append(Witness(v1, v2, v3, *e1, *e2))
    return witnesses


def _all_preimages(image, d):
    """Candidate preimages of the transformation by reverse search."""
    adjacency = image.adjacency
    isolated = [v for v in image.vertices if not adjacency[v]]
    preimages = set()
    for v1 in (v for v in image.vertices if len(adjacency[v]) == d + 1):
        for v3 in adjacency[v1]:
            if len(adjacency[v3]) != 2:
                continue
            v2 = next(w for w in adjacency[v3] if w != v1)
            base = set(image.edges)
            base.discard((min(v1, v3), max(v1, v3)))
            base.discard((min(v2, v3), max(v2, v3)))
            for four in combinations(isolated, 4):
                a, b, c, e = four
                for pairing in (
                    ((a, b), (c, e)),
                    ((a, c), (b, e)),
                    ((a, e), (b, c)),
                ):
                    edges = frozenset(base | set(pairing))
                    candidate = SimpleGraph(vertices=image.vertices, edges=edges)
                    if max_degree(candidate) != d:
                        continue
                    witness = Witness(
                        v1, v2, v3,
                        min(pairing[0]), max(pairing[0]),
                        min(pairing[1]), max(pairing[1]),
                    )
                    try:
                        mapped = apply_transformation(candidate, witness)
                    except ValueError:
                        continue
                    if mapped.edges == image.edges:
                        preimages.add(edges)
    return preimages
