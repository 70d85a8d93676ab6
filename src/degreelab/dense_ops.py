"""Degree-raising transformation and exhaustive counts of labelled graph classes.

P(n, m, k, l, d) denotes the labelled graphs on [n] with m edges, exactly k
isolated vertices, exactly l isolated edges, and maximum degree exactly d
(optionally restricted to planar graphs).  The transformation consumes an
isolated vertex and two isolated edges to raise the maximum degree by one:
pick a vertex v1 of maximum degree d, a neighbour v2, an isolated vertex v3,
and isolated edges v4v5, v6v7; delete v4v5 and v6v7 and add v1v3 and v2v3.
It maps P(n, m, k, l, d) into P(n, m, k+3, l-2, d+1) while preserving edge
count and planarity, and a forward/backward count of its applications yields
the ratio bound |P(n, m, k+3, l-2, d+1)| / |P(n, m, k, l, d)| >= 1/(8 k^3)
for l >= 2 and d >= 3.

Class counts are exact.  ``classify_all_graphs`` splits every edge subset of
K_n at vertex 1 into a graph on 2..n and vertex 1's neighbour set.  The
class of the whole depends on the graph on 2..n only through five fields
(edge count, degree-0 vertices, isolated edges, maximum degree and the
vertices at it), so the 2^(n-1)(n-2)/2 graphs on 2..n, built by doubling
over their edges, are grouped by these fields and each group is joined to
all 2^(n-1) neighbour sets at once.  The sweep is limited to n <= 7 (2^21
graphs) and refuses larger n outright.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from types import MappingProxyType
from typing import Mapping

import numpy as np

from degreelab.graphs import (
    ENUMERATION_LIMIT,
    EnumerationLimitError,
    SimpleGraph,
    complete_graph_edges,
    max_degree,
    planarity_table,
)


@dataclass(frozen=True)
class Witness:
    """Vertices consumed by one application of the degree-raising operation.

    v1 has maximum degree, v2 is a neighbour of v1, v3 is an isolated vertex,
    and v4v5, v6v7 are distinct isolated edges; all seven vertices are
    distinct.
    """

    v1: int
    v2: int
    v3: int
    v4: int
    v5: int
    v6: int
    v7: int

    def __post_init__(self) -> None:
        labels = (self.v1, self.v2, self.v3, self.v4, self.v5, self.v6, self.v7)
        if len(set(labels)) != 7:
            raise ValueError(f"witness vertices must be distinct, got {labels}")
        if self.v4 > self.v5 or self.v6 > self.v7:
            raise ValueError("isolated edges must be given smaller endpoint first")


def find_witness(graph: SimpleGraph) -> Witness | None:
    """Lexicographically smallest witness tuple, or None if none exists.

    There is no witness when the graph has no isolated vertex, fewer than two
    usable isolated edges, or maximum degree zero.  (When the maximum degree
    is one, the edge at v1 is itself isolated and cannot be reused, so three
    isolated edges are needed.)
    """
    adjacency = graph.adjacency
    d = max_degree(graph)
    if d == 0:
        return None
    isolated_vertices = [v for v in graph.vertices if not adjacency[v]]
    if not isolated_vertices:
        return None
    isolated_edges = sorted(
        e
        for e in graph.edges
        if len(adjacency[e[0]]) == 1 and len(adjacency[e[1]]) == 1
    )
    if len(isolated_edges) < 2:
        return None
    v3 = isolated_vertices[0]
    for v1 in sorted(v for v in graph.vertices if len(adjacency[v]) == d):
        for v2 in adjacency[v1]:
            usable = [e for e in isolated_edges if v1 not in e and v2 not in e]
            if len(usable) >= 2:
                (v4, v5), (v6, v7) = usable[0], usable[1]
                return Witness(v1, v2, v3, v4, v5, v6, v7)
    return None


def apply_transformation(graph: SimpleGraph, witness: Witness) -> SimpleGraph:
    """Apply the degree-raising operation for a validated witness.

    Deletes the isolated edges v4v5 and v6v7 and adds v1v3 and v2v3.  The
    edge count is preserved, the maximum degree becomes d + 1, the isolated
    vertex count rises by three, and planarity is preserved (v3 can always be
    drawn inside a face bounded by the edge v1v2).
    """
    adjacency = graph.adjacency
    d = max_degree(graph)
    w = witness
    if len(adjacency[w.v1]) != d or d < 1:
        raise ValueError(f"v1={w.v1} does not have maximum degree {d}")
    if w.v2 not in adjacency[w.v1]:
        raise ValueError(f"v2={w.v2} is not a neighbour of v1={w.v1}")
    if adjacency[w.v3]:
        raise ValueError(f"v3={w.v3} is not isolated")
    for a, b in ((w.v4, w.v5), (w.v6, w.v7)):
        if (a, b) not in graph.edges:
            raise ValueError(f"({a}, {b}) is not an edge")
        if len(adjacency[a]) != 1 or len(adjacency[b]) != 1:
            raise ValueError(f"({a}, {b}) is not an isolated edge")

    edges = set(graph.edges)
    edges.discard((w.v4, w.v5))
    edges.discard((w.v6, w.v7))
    edges.add((min(w.v1, w.v3), max(w.v1, w.v3)))
    edges.add((min(w.v2, w.v3), max(w.v2, w.v3)))
    result = SimpleGraph(vertices=graph.vertices, edges=frozenset(edges))

    assert len(result.adjacency[w.v1]) == d + 1
    assert result.adjacency[w.v3] == tuple(sorted((w.v1, w.v2)))
    assert all(not result.adjacency[v] for v in (w.v4, w.v5, w.v6, w.v7))
    return result


def _vertex_split(n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Signatures on [n] as a grid over the codes of K_(n-1) and vertex 1's edges.

    Vertex 1's edges come first in ``complete_graph_edges(n)``, so a code on
    [n] is ``base << (n - 1) | s``: ``s`` is vertex 1's neighbour set (bit j
    for vertex j + 2) and ``base`` a code of K_(n-1) on 2..n, its vertex
    j + 1 standing for vertex j + 2.  The bases are built by doubling over
    the edges of K_(n-1), as the codes in [2^i, 2^(i+1)) are the codes below
    2^i plus edge i: ``deg`` holds the degree rows, ``zero`` the degree-0
    vertices as bits and ``iso`` the isolated edges as bits; adding edge uv
    clears the edges at u and v from ``iso`` and sets edge uv itself when u
    and v both had degree 0.

    The class of base + s depends on the base only through its edge count,
    ``zero``, ``iso``, its maximum degree ``top`` and the set ``at_top`` of
    vertices of that degree, so the bases are grouped by these five fields
    (2,239 groups of the 2^15 bases at n = 7).  Over a group, s adds |s|
    edges; the isolated vertices are ``zero`` outside s, plus vertex 1 when
    s is empty; the isolated edges are those of ``iso`` with no endpoint in
    s, plus 1v when s = {v} and v has degree 0; the maximum degree is |s| or
    ``top``, plus one when s meets ``at_top``.

    Returns ``(grid, group, count)``: ``grid[g, s]`` is the packed signature
    m + 32(k + 8(l + 8d)), as ``uint16``, of a base of group g joined to s;
    ``group[base]`` is the group of each base and ``count[g]`` its number of
    bases.  So ``grid[group]`` lists the signatures of all codes in order.
    """
    r = n - 1
    edges = complete_graph_edges(r)
    size = 1 << len(edges)
    deg = np.zeros((r, size), dtype=np.uint8)
    m = np.zeros(size, dtype=np.uint8)
    zero = np.empty(size, dtype=np.uint8)
    zero[0] = (1 << r) - 1
    iso = np.zeros(size, dtype=np.uint16)
    incident = [0] * r
    for i, (u, v) in enumerate(edges):
        incident[u - 1] |= 1 << i
        incident[v - 1] |= 1 << i
    for i, (u, v) in enumerate(edges):
        s = 1 << i
        lo, hi = slice(0, s), slice(s, 2 * s)
        deg[:, hi] = deg[:, lo]
        deg[u - 1, hi] += 1
        deg[v - 1, hi] += 1
        np.add(m[lo], 1, out=m[hi])
        uv = np.uint8((1 << (u - 1)) | (1 << (v - 1)))
        np.bitwise_and(zero[lo], ~uv, out=zero[hi])
        keep = ~np.uint16(incident[u - 1] | incident[v - 1])
        np.bitwise_and(iso[lo], keep, out=iso[hi])
        np.bitwise_or(iso[hi], np.uint16(s), out=iso[hi], where=(zero[lo] & uv) == uv)
    top = deg.max(axis=0, initial=0)
    at_top = np.zeros(size, dtype=np.uint8)
    for v in range(r):
        at_top |= (deg[v] == top).view(np.uint8) << np.uint8(v)
    del deg

    # Group key, fields by bit width at n <= 7: iso (15), zero (6),
    # at_top (6), m (4), top (3); 34 bits, none shared.
    key = iso.astype(np.uint64)
    for field, shift in ((zero, 15), (at_top, 21), (m, 27), (top, 31)):
        key |= field.astype(np.uint64) << np.uint64(shift)
    _, group, count = np.unique(key, return_inverse=True, return_counts=True)
    # Any base of a group stands for it: they share the five fields.
    member = np.empty(count.size, dtype=np.intp)
    member[group] = np.arange(size)
    m, zero, iso, top, at_top = (
        field[member, None].astype(np.uint16) for field in (m, zero, iso, top, at_top)
    )

    s = np.arange(1 << r, dtype=np.uint16)
    touched = np.zeros_like(s)  # the edges of K_(n-1) at a vertex of s
    for v in range(r):
        touched[(s >> v) & 1 == 1] |= np.uint16(incident[v])
    degree_1 = np.bitwise_count(s)
    # Signature packing: m < 32, k <= 7, l <= 3, d <= 6.
    grid = np.maximum(degree_1, top + ((at_top & s) != 0))
    grid <<= 3
    grid |= np.bitwise_count(iso & ~touched) + ((degree_1 == 1) & ((zero & s) != 0))
    grid <<= 3
    grid |= np.bitwise_count(zero & ~s) + (s == 0)
    grid <<= 5
    grid |= m + degree_1
    return grid, group, count


@lru_cache(maxsize=None)
def classify_all_graphs(
    n: int,
) -> Mapping[tuple[int, int, int, int], tuple[int, int]]:
    """Counts of every labelled graph class on [n], keyed by (m, k, l, d).

    Tallies (edge count, isolated vertices, isolated edges, maximum degree)
    over all 2^(n(n-1)/2) edge subsets of K_n; the value is (count over all
    graphs, count over planar graphs).  Limited to n <= 7.

    ``_vertex_split`` gives the signatures as a grid of groups of graphs on
    2..n by vertex 1's neighbour sets, so one ``bincount`` of the grid
    weighted by group size counts all codes.  The planar counts subtract
    the non-planar codes (273,445 of 2^21 at n = 7), whose signatures are
    read from the grid's rows laid out in code order, 2^12 bases at a time.
    At n = 7 a cold tally takes 5-6 ms, the planarity table included
    (2 vCPUs, Python 3.11.7, NumPy 2.4).  The result is cached and
    read-only.
    """
    if not 1 <= n <= ENUMERATION_LIMIT:
        raise EnumerationLimitError(
            f"exhaustive classification is limited to 1 <= n <= {ENUMERATION_LIMIT}, "
            f"got {n}"
        )
    grid, group, count = _vertex_split(n)
    bins = 32 * 8 * 8 * 8
    # Float weights count exactly, as every count is at most 2^21; given as
    # integers, bincount converts them several times slower.
    weights = np.repeat(count.astype(np.float64), grid.shape[1])
    counts_all = np.bincount(grid.ravel(), weights, minlength=bins).astype(np.int64)
    # Rows of 2^12 bases at a time: temporaries over all 2^21 codes would
    # make the allocator return the heap after each tally and fault it in
    # again, the planarity table's 2 MiB included.
    planar = planarity_table(n).reshape(group.size, -1)
    counts_planar = counts_all.copy()
    for lo in range(0, group.size, 1 << 12):
        rows = slice(lo, lo + (1 << 12))
        nonplanar = grid[group[rows]][~planar[rows]]
        counts_planar -= np.bincount(nonplanar, minlength=bins)

    table: dict[tuple[int, int, int, int], tuple[int, int]] = {}
    for packed in np.nonzero(counts_all)[0]:
        m = int(packed) % 32
        k = (int(packed) // 32) % 8
        l = (int(packed) // 256) % 8
        d = int(packed) // 2048
        table[(m, k, l, d)] = (int(counts_all[packed]), int(counts_planar[packed]))
    return MappingProxyType(table)


def enumerate_class(
    n: int, m: int, k: int, l: int, d: int, planar_only: bool = True
) -> int:
    """Exact size of P(n, m, k, l, d), optionally restricted to planar graphs."""
    if m < 0 or m > n * (n - 1) // 2:
        raise ValueError(f"m must lie in [0, n(n-1)/2], got {m}")
    if not 0 <= k <= n:
        raise ValueError(f"k must lie in [0, n], got {k}")
    if not 0 <= l <= n // 2:
        raise ValueError(f"l must lie in [0, n//2], got {l}")
    if not 0 <= d <= n - 1:
        raise ValueError(f"d must lie in [0, n-1], got {d}")
    counts = classify_all_graphs(n).get((m, k, l, d))
    if counts is None:
        return 0
    return counts[1] if planar_only else counts[0]


@dataclass(frozen=True)
class RatioCheck:
    """Outcome of one ratio-bound check of the source class P(n, m, k, l, d)
    against its image class P(n, m, k+3, l-2, d+1)."""

    n: int
    m: int
    k: int
    l: int
    d: int
    count_src: int
    count_dst: int
    bound: float
    holds: bool
    vacuous: bool


def verify_ratio_bound(
    n: int, m: int, k: int, l: int, d: int, planar_only: bool = True
) -> RatioCheck:
    """Check |P(n,m,k+3,l-2,d+1)| / |P(n,m,k,l,d)| >= 1/(8 k^3).

    Requires the hypotheses k >= 1, l >= 2, d >= 3.  An empty source class
    makes the bound vacuously true, reported via ``vacuous``.
    """
    if k < 1:
        raise ValueError(f"the ratio bound needs k >= 1, got {k}")
    if l < 2:
        raise ValueError(f"the ratio bound needs l >= 2, got {l}")
    if d < 3:
        raise ValueError(f"the ratio bound needs d >= 3, got {d}")
    count_src = enumerate_class(n, m, k, l, d, planar_only)
    count_dst = (
        enumerate_class(n, m, k + 3, l - 2, d + 1, planar_only)
        if k + 3 <= n and d + 1 <= n - 1
        else 0
    )
    bound = 1.0 / (8.0 * k**3)
    vacuous = count_src == 0
    holds = vacuous or (count_dst / count_src >= bound)
    return RatioCheck(n, m, k, l, d, count_src, count_dst, bound, holds, vacuous)


def sweep_ratio_bounds(n: int, planar_only: bool = True) -> list[RatioCheck]:
    """Sorted ratio checks of the signatures on [n] whose class or image is tabled.

    A signature (m, k, l, d) is checked iff it meets the hypotheses k >= 1,
    2 <= l <= n//2 and d >= 3, and it or its image (m, k+3, l-2, d+1) is a
    key of ``classify_all_graphs(n)``, that is a nonempty class over all
    graphs.  For n <= 8 there is none, and the list is empty: a nonempty
    source class needs k + 2l + d + 1 >= 9 vertices, and a nonempty image
    class k >= 4 isolated vertices plus one of degree at least 4, nine
    again.  So at every n of the exhaustive table the sweep checks nothing.
    """
    sources: set[tuple[int, int, int, int]] = set()
    for m, k, l, d in classify_all_graphs(n):
        sources.add((m, k, l, d))
        sources.add((m, k - 3, l + 2, d - 1))
    return [
        verify_ratio_bound(n, m, k, l, d, planar_only)
        for m, k, l, d in sorted(sources)
        if k >= 1 and 2 <= l <= n // 2 and d >= 3
    ]
