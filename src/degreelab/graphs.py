"""Labelled graphs: components, cores, decomposition, and small-scale planarity.

Graph algorithms run on endpoint arrays (1-based labels on [n]):
``component_stats`` labels components by hooking roots and pointer jumping
in NumPy, ``peel`` computes the 2-core by deleting leaves, each of which
finds its one live neighbour as the sum of its live neighbours (no adjacency
index; sums stay below n * deg < 2^63 and update through NumPy's indexed
add/subtract loops, which XOR lacks), and ``decompose_masks`` peels first,
labels the components of the 2-core alone and hands each deleted vertex the
core component of the parent it was peeled from.  The ``SimpleGraph``
functions convert their edges and call these.

A component is *complex* if it has at least two independent cycles (edge
count >= vertex count + 1).  The complex part of a graph is the union of its
complex components; peeling degree-one vertices from it yields the core, a
graph of minimum degree two with no bare-cycle components.  The decomposition
splits a graph into the complex component containing the largest core
component, the remaining complex components, and the non-complex rest.

Planarity is decided for every graph on n <= 7 vertices at once:
``_kuratowski_masks`` grows the Kuratowski-subdivision edge masks from every
K5 and K3,3 by subdividing one edge at a time, and ``planarity_table`` sets
them in a bit set of all codes and closes it upwards over the subset
lattice, with shift-and-mask passes inside each 64-bit word and OR passes
across words.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from itertools import combinations
from typing import Iterable, Sequence

import numpy as np

Edge = tuple[int, int]

#: Largest vertex count for the exhaustive all-graphs sweeps.
ENUMERATION_LIMIT = 7


class EnumerationLimitError(ValueError):
    """Raised when an exhaustive sweep exceeds ENUMERATION_LIMIT vertices."""


def canonical_edge(u: int, v: int) -> Edge:
    if u == v:
        raise ValueError(f"loop at vertex {u} is not a simple-graph edge")
    return (u, v) if u < v else (v, u)


@dataclass(frozen=True)
class SimpleGraph:
    """Immutable labelled simple graph on an explicit vertex set.

    Vertices are positive integers; edges are unordered pairs of distinct
    vertices, stored with the smaller endpoint first.  ``edges`` may be given
    as any iterable of pairs; an edge given twice, in either orientation, is
    an error.  An empty vertex set is allowed so that subgraphs (cores,
    decomposition parts) can be empty.
    """

    vertices: tuple[int, ...]
    edges: frozenset[Edge]

    def __post_init__(self) -> None:
        vs = tuple(sorted(set(self.vertices)))
        if vs and vs[0] < 1:
            raise ValueError("vertex labels must be positive integers")
        object.__setattr__(self, "vertices", vs)
        vset = set(vs)
        canonical = set()
        for u, v in self.edges:
            e = canonical_edge(u, v)
            if e[0] not in vset or e[1] not in vset:
                raise ValueError(f"edge {e} has an endpoint outside the vertex set")
            if e in canonical:
                raise ValueError(f"edge {e} appears more than once")
            canonical.add(e)
        object.__setattr__(self, "edges", frozenset(canonical))

    @classmethod
    def from_edges(cls, n: int, edges: Iterable[Sequence[int]] = ()) -> SimpleGraph:
        """Graph on vertex set 1..n with the given edges."""
        if n < 0:
            raise ValueError(f"n must be non-negative, got {n}")
        return cls(vertices=tuple(range(1, n + 1)), edges=edges)

    @classmethod
    def from_arrays(cls, n: int, us: np.ndarray, vs: np.ndarray) -> SimpleGraph:
        """Graph on vertex set 1..n with edges (us[i], vs[i]).

        The arrays are checked with numpy rather than edge by edge: labels in
        [1, n], no loops and no repeated edge, in either orientation.
        """
        if n < 0:
            raise ValueError(f"n must be non-negative, got {n}")
        us, vs = np.asarray(us), np.asarray(vs)
        if us.ndim != 1 or us.shape != vs.shape:
            raise ValueError(
                f"endpoint arrays must be one-dimensional and of equal length, "
                f"got shapes {us.shape} and {vs.shape}"
            )
        if us.size and (us.dtype.kind not in "iu" or vs.dtype.kind not in "iu"):
            raise ValueError(
                f"endpoint labels must be integers, got {us.dtype} and {vs.dtype}"
            )
        lo = np.minimum(us, vs).astype(np.int64)
        hi = np.maximum(us, vs).astype(np.int64)
        if lo.size:
            if lo.min() < 1 or hi.max() > n:
                raise ValueError(f"edge endpoints must lie in [1, {n}]")
            if np.any(lo == hi):
                loop = lo[lo == hi][0]
                raise ValueError(f"loop at vertex {loop} is not a simple-graph edge")
            codes = np.sort(lo * np.int64(n + 1) + hi)
            repeated = codes[1:][codes[1:] == codes[:-1]]
            if repeated.size:
                u, v = divmod(int(repeated[0]), n + 1)
                raise ValueError(f"edge ({u}, {v}) appears more than once")
        graph = object.__new__(cls)
        object.__setattr__(graph, "vertices", tuple(range(1, n + 1)))
        object.__setattr__(graph, "edges", frozenset(zip(lo.tolist(), hi.tolist())))
        return graph

    @property
    def order(self) -> int:
        return len(self.vertices)

    @property
    def size(self) -> int:
        return len(self.edges)

    @cached_property
    def adjacency(self) -> dict[int, tuple[int, ...]]:
        neighbours: dict[int, list[int]] = {v: [] for v in self.vertices}
        for u, v in self.edges:
            neighbours[u].append(v)
            neighbours[v].append(u)
        return {v: tuple(sorted(ns)) for v, ns in neighbours.items()}

    def degree(self, v: int) -> int:
        return len(self.adjacency[v])


def degree_sequence(graph: SimpleGraph) -> tuple[int, ...]:
    """Degrees in increasing vertex order."""
    return tuple(len(graph.adjacency[v]) for v in graph.vertices)


def max_degree(graph: SimpleGraph) -> int:
    """Maximum degree; zero for graphs with no vertices or no edges."""
    seq = degree_sequence(graph)
    return max(seq) if seq else 0


# ---------------------------------------------------------------------------
# Array kernels: a graph on [n] given by endpoint arrays us, vs (1-based)
# ---------------------------------------------------------------------------


def _distinct(values: np.ndarray) -> np.ndarray:
    """Sorted distinct entries of a 1-D array.

    Same result as a value-only ``np.unique``, which on NumPy >= 2.3 takes a
    hash-table path that is an order of magnitude slower than this sort on
    integer arrays.
    """
    ordered = np.sort(values)
    keep = np.ones(ordered.size, dtype=bool)
    keep[1:] = ordered[1:] != ordered[:-1]
    return ordered[keep]


def _component_roots(n: int, us: np.ndarray, vs: np.ndarray) -> np.ndarray:
    """Smallest member of the component of each vertex, for 0-based int32 edges.

    Root hooking with pointer jumping (Shiloach & Vishkin, J. Algorithms
    1982).  Each round keeps the edges whose endpoint roots differ, hooks
    the larger root onto the smallest root it meets, and compresses only the
    roots hooked that round, so a round costs its surviving edges and hooked
    roots, never n.  A root is never hooked onto a larger one, so it is the
    smallest member of its tree.  A vertex is hooked once, and at the end of
    its round it points at a root that later rounds may hook in turn; one
    pass per round, last round first, settles every vertex.
    """
    parent = np.arange(n, dtype=np.int32)
    ru, rv = us, vs
    rounds = []
    while True:
        differ = ru != rv
        if not differ.any():
            break
        ru, rv = ru[differ], rv[differ]
        hooked = np.maximum(ru, rv)
        np.minimum.at(parent, hooked, np.minimum(ru, rv))
        rounds.append(hooked)
        target = parent[hooked]
        while hooked.size:
            grand = parent[target]
            moving = grand != target
            hooked, target = hooked[moving], grand[moving]
            parent[hooked] = target
        ru, rv = parent[ru], parent[rv]
    for hooked in reversed(rounds):
        parent[hooked] = parent[parent[hooked]]
    return parent


def component_stats(
    n: int, us: np.ndarray, vs: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Connected components of the simple graph on [n] with edges (us[i], vs[i]).

    Returns (labels, vertex_counts, edge_counts): vertex v lies in component
    labels[v - 1], and component c has vertex_counts[c] vertices and
    edge_counts[c] edges.  Components are numbered 0, 1, ... in the order of
    their smallest member, and labels are ``int32``.  A component is complex
    iff its edge count is at least its vertex count plus one.
    """
    if n >= 2**31:
        raise ValueError(f"labels are int32, so n must be below 2^31, got {n}")
    us0 = np.subtract(us, 1, dtype=np.int32)
    roots = _component_roots(n, us0, np.subtract(vs, 1, dtype=np.int32))
    ranks = np.cumsum(roots == np.arange(n, dtype=np.int32), dtype=np.int32)
    n_comp = int(ranks[-1]) if n else 0
    labels = (ranks - 1)[roots]
    vertex_counts = np.bincount(labels, minlength=n_comp)
    edge_counts = np.bincount(labels[us0], minlength=n_comp)
    return labels, vertex_counts, edge_counts


def has_complex_component(n: int, us: np.ndarray, vs: np.ndarray) -> bool:
    """True iff some component has edge count >= vertex count + 1."""
    _, vertex_counts, edge_counts = component_stats(n, us, vs)
    return bool(np.any(edge_counts >= vertex_counts + 1))


#: Frontier width above which ``peel`` deletes a whole frontier in one NumPy
#: round; below it, one leaf at a time in Python costs less than a round's
#: fixed NumPy overhead.
_BULK_FRONTIER = 64


def _peel(
    n: int,
    us: np.ndarray,
    vs: np.ndarray,
    degree: np.ndarray | None = None,
) -> tuple:
    """The peel of ``peel``, on the labels with slot 0 a dead sentinel.

    ``degree`` is the degree sequence on [n] (degree[v - 1] of vertex v)
    when the caller already has it, as ``_decompose`` gets it from the
    decomposition trial (the bin loads of ``samplers.sample_gnm_arrays``);
    it is copied, not modified.  Without it the peel counts the endpoints
    itself.  Vertices of degree 0 start dead and never enter a frontier, so
    the first frontier is the vertices of degree exactly 1.

    Returns (alive, bulk, tail): ``bulk`` lists one (leaves, parents) array
    pair per bulk round and ``tail`` one (leaf, parent) pair per step of the
    stack, each for the leaves deleted while their parent was live, in
    deletion order.  ``peel`` drops the lists, which cost no measurable time.
    """
    us, vs = np.asarray(us, dtype=np.intp), np.asarray(vs, dtype=np.intp)
    if degree is None:
        degree = np.bincount(us, minlength=n + 1)
        degree += np.bincount(vs, minlength=n + 1)
    elif np.shape(degree) != (n,):
        raise ValueError(f"degree must have shape ({n},), got {np.shape(degree)}")
    else:
        degree = np.concatenate(([0], degree), dtype=np.intp)
    link = np.zeros(n + 1, dtype=np.intp)
    np.add.at(link, us, vs)
    np.add.at(link, vs, us)
    # Slot 0 has degree 0, so the sentinel starts dead with the isolated vertices.
    alive = degree != 0
    bulk, tail = [], []
    frontier = np.flatnonzero(degree == 1)
    while frontier.size > _BULK_FRONTIER:
        alive[frontier] = False
        parents = link[frontier]
        live = alive[parents]
        leaves, parents = frontier[live], parents[live]
        np.subtract.at(degree, parents, 1)
        np.subtract.at(link, parents, leaves)
        bulk.append((leaves, parents))
        frontier = _distinct(parents[degree[parents] <= 1])
    stack = frontier.tolist()
    alive_at, degree_at = memoryview(alive), memoryview(degree)
    link_at = memoryview(link)
    while stack:
        v = stack.pop()
        alive_at[v] = False
        p = link_at[v]
        if alive_at[p]:
            link_at[p] -= v
            degree_at[p] -= 1
            tail.append((v, p))
            if degree_at[p] == 1:
                stack.append(p)
    return alive, bulk, tail


def peel(n: int, us: np.ndarray, vs: np.ndarray) -> np.ndarray:
    """Mask of the vertices left after recursively deleting those of degree <= 1.

    alive[v - 1] is True iff v lies in the classical 2-core.  The peel keeps
    two arrays on the labels, with slot 0 a dead sentinel: each vertex's live
    degree and ``link``, the sum of its live neighbours.  A vertex of degree
    one therefore has ``link[v]`` as its one live neighbour, and one whose
    last neighbour died has link 0, the sentinel, so deleting a leaf v is
    ``degree[p] -= 1; link[p] -= v`` with ``p = link[v]`` and needs no
    adjacency index (the peeling step of Graf & Lemire's XOR filters, with a
    sum in place of the XOR).  A sum is at most n * deg(v) < 2^63, and every
    bulk update is then ``np.add.at`` or ``np.subtract.at``, which NumPy runs
    through indexed fast loops; ``np.bitwise_xor.at`` has none, and on 2e5
    updates at n = 1e5 it took 1.9 ms against 0.45 ms for ``np.add.at``.

    Isolated vertices start dead and are never visited: a peel needs only
    the degree sequence and the degree-1 frontier (Batagelj & Zaveršnik,
    2003), and in G(n, 0.6n) the isolated vertices are about 30 % of [n].
    A stack of leaves, one deletion at a time, is a complete peel.  While the
    frontier (live vertices of degree <= 1) is wider than ``_BULK_FRONTIER``,
    it is deleted in one NumPy round instead; that batches the wide first
    rounds, and the stack then finishes the narrow tail of hanging trees that
    are ~sqrt(n) deep, which would otherwise cost one NumPy round per level.
    """
    return _peel(n, us, vs)[0][1:]


def _leaf_ordered(n: int, t: int, lo: np.ndarray, hi: np.ndarray) -> bool:
    """True iff the edges ``(lo, hi)`` come in leaf order onto the roots [1, t].

    Edges are indexed 0, 1, ...; L(x) is the index of the last edge at x,
    taken with ``np.maximum.at`` (a fancy assignment that repeats an index
    does not fix which value wins).  The check, O(n) in NumPy, holds iff
    there are n - t edges, every endpoint lies in [1, n], no edge is a loop,
    and L is a bijection from (t, n] onto the edges.  ``pruefer.decode_arrays``
    joins entry i to the leaf removed at step i, which appears in no later
    edge, so a decoded forest always passes.

    Grafted onto a core on [1, t] of minimum degree two (``validate_core``
    checks that half), such a forest peels back to exactly the core (the
    leaf-deletion argument of Batagelj & Zaveršnik, 2003).  Edge k has an
    end z with L(z) = k; delete the vertices above t in order of L.  At step
    j, x = L^-1(j) has no core edge and no edge after j, each of its edges
    k < j went with L^-1(k) at its other end, and edge j is no loop, so x
    is a leaf.  What remains is the core, and the 2-core does not depend on
    the deletion order.  The converse fails only by being stricter: the
    same edges out of leaf order (say reversed) still peel to the core.
    """
    lo, hi = np.asarray(lo, dtype=np.intp), np.asarray(hi, dtype=np.intp)
    m = lo.size
    if m != n - t:
        return False
    if m and (min(lo.min(), hi.min()) < 1 or max(lo.max(), hi.max()) > n):
        return False
    if np.any(lo == hi):
        return False
    last = np.full(n + 1, -1, dtype=np.intp)
    steps = np.arange(m, dtype=np.intp)
    np.maximum.at(last, lo, steps)
    np.maximum.at(last, hi, steps)
    # The n - t values of L form a bijection iff they hit every edge index;
    # an L of -1 (a vertex with no edge) marks the spare slot m.
    seen = np.zeros(m + 1, dtype=bool)
    seen[last[t + 1:]] = True
    return bool(seen[:m].all())


def _decompose(
    n: int, us: np.ndarray, vs: np.ndarray, degree: np.ndarray | None = None
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The masks of ``decompose_masks`` on the labels, each with a False slot 0.

    Indexed by the 1-based labels directly, so statistics over the edges
    need no ``us - 1`` temporaries.  ``degree`` is handed to ``_peel``, whose
    deletions, replayed last first, hand each core component to its trees.
    The decomposition trial of ``harness``, which has the degrees and reads
    the masks at the endpoints, is the one caller of these padded masks;
    every other caller goes through ``decompose_masks``.
    """
    alive, bulk, tail = _peel(n, us, vs, degree)
    us, vs = np.asarray(us, dtype=np.intp), np.asarray(vs, dtype=np.intp)
    kept = alive[us] & alive[vs]
    # The 2-core relabelled 1, 2, ... in label order.  rank is read only at
    # live vertices, and writing just those slots took 0.07 ms at n = 1e5
    # against 0.49 ms for a cumsum over [n].
    live = np.flatnonzero(alive)
    rank = np.empty(n + 1, dtype=np.int32)
    rank[live] = np.arange(1, live.size + 1, dtype=np.int32)
    labels, vertex_counts, edge_counts = component_stats(
        live.size, rank[us[kept]], rank[vs[kept]]
    )
    is_complex = edge_counts >= vertex_counts + 1
    # comp[v] is v's complex core component, or -1; slot 0 is the sentinel.
    comp = np.full(n + 1, -1, dtype=np.int32)
    comp[live] = np.where(is_complex[labels], labels, -1)
    comp_at = memoryview(comp)
    for v, p in reversed(tail):
        comp_at[v] = comp_at[p]
    for leaves, parents in reversed(bulk):
        comp[leaves] = comp[parents]
    in_complex = comp >= 0
    core = alive & in_complex
    big = np.zeros(n + 1, dtype=bool)
    if is_complex.any():
        # Core components are numbered by smallest member, so the first of
        # the largest is the one with the smallest core vertex.
        best = np.flatnonzero(is_complex)[np.argmax(vertex_counts[is_complex])]
        big = comp == best
    return core, big, in_complex & ~big


def decompose_masks(
    n: int, us: np.ndarray, vs: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Vertex masks (core, big, small) of the decomposition of the graph on [n].

    The core is the 2-core restricted to complex components.  The core of a
    complex component is connected, so core components and complex
    components correspond one to one; ``big`` is the complex component with
    the most core vertices (ties to the smallest core vertex) and ``small``
    the other complex components.  The non-complex part is ~(big | small).

    The graph is peeled first; isolated vertices start dead and stay in the
    non-complex part.  Deleting a leaf keeps its component connected and
    keeps its edge count minus vertex count, so each component has a
    connected or empty 2-core, complex iff the component is:
    ``component_stats`` runs on the 2-core alone (about 5% of the vertices at
    m = 0.6n).  Every deleted vertex then takes the core component of the
    live parent it was deleted from, in reverse deletion order (a parent is
    deleted after its leaf, or never): the stack's pairs one at a time, then
    the bulk rounds as gathers.  A vertex deleted with no live parent lies in
    a tree component and belongs to no complex one.
    """
    core, big, small = _decompose(n, us, vs)
    return core[1:], big[1:], small[1:]


# ---------------------------------------------------------------------------
# SimpleGraph operations, through the array kernels
# ---------------------------------------------------------------------------


def _edge_arrays(graph: SimpleGraph) -> tuple[np.ndarray, np.ndarray]:
    """Edges as 1-based positions in ``graph.vertices`` (the labels on [n])."""
    m = len(graph.edges)
    pairs = np.fromiter(
        (v for e in graph.edges for v in e), dtype=np.int64, count=2 * m
    )
    if graph.vertices and graph.vertices[-1] != len(graph.vertices):
        pairs = np.searchsorted(np.array(graph.vertices), pairs) + 1
    return pairs[0::2], pairs[1::2]


def _select(graph: SimpleGraph, mask: np.ndarray) -> list[int]:
    return np.array(graph.vertices, dtype=np.int64)[mask].tolist()


def components(graph: SimpleGraph) -> list[tuple[int, ...]]:
    """Connected components, each sorted, ordered by (size desc, min label asc)."""
    if not graph.vertices:
        return []
    labels, vertex_counts, _ = component_stats(graph.order, *_edge_arrays(graph))
    by_label = np.argsort(labels, kind="stable")
    members = np.array(graph.vertices, dtype=np.int64)[by_label]
    groups = np.split(members, np.cumsum(vertex_counts)[:-1])
    # Components are numbered by smallest member, which a stable sort keeps.
    order = np.argsort(-vertex_counts, kind="stable")
    return [tuple(groups[c].tolist()) for c in order.tolist()]


def induced_subgraph(graph: SimpleGraph, vertices: Iterable[int]) -> SimpleGraph:
    vset = set(vertices)
    if not vset <= set(graph.vertices):
        raise ValueError("vertex selection is not a subset of the graph")
    edges = frozenset(e for e in graph.edges if e[0] in vset and e[1] in vset)
    return SimpleGraph(vertices=tuple(vset), edges=edges)


def peeled_core(graph: SimpleGraph) -> SimpleGraph:
    """Subgraph left after recursively deleting vertices of degree at most one.

    This is the classical 2-core: minimum degree two, bare-cycle components
    retained.  Compare ``two_core``, which also drops bare cycles.
    """
    alive = peel(graph.order, *_edge_arrays(graph))
    return induced_subgraph(graph, _select(graph, alive))


def two_core(graph: SimpleGraph) -> SimpleGraph:
    """Core of the complex part: peel degree-one vertices, drop bare cycles.

    Equivalent to restricting to the complex components first and then
    peeling.  The result has minimum degree two and no bare-cycle components;
    it is empty whenever the graph has no complex component.
    """
    core, _, _ = decompose_masks(graph.order, *_edge_arrays(graph))
    return induced_subgraph(graph, _select(graph, core))


@dataclass(frozen=True)
class Decomposition:
    """Split of a graph into core, large/small complex parts, and the rest.

    ``big_complex`` is the complex component containing the largest core
    component (ties among core components broken by most vertices, then
    smallest minimum label); ``small_complex`` is the union of the remaining
    complex components; ``non_complex`` is everything else.  The three parts
    partition the vertex set, and the core is contained in the complex part.
    """

    core: SimpleGraph
    big_complex: SimpleGraph
    small_complex: SimpleGraph
    non_complex: SimpleGraph


def decompose(graph: SimpleGraph) -> Decomposition:
    core, big, small = decompose_masks(graph.order, *_edge_arrays(graph))
    return Decomposition(
        core=induced_subgraph(graph, _select(graph, core)),
        big_complex=induced_subgraph(graph, _select(graph, big)),
        small_complex=induced_subgraph(graph, _select(graph, small)),
        non_complex=induced_subgraph(graph, _select(graph, ~(big | small))),
    )


def isolated_counts(graph: SimpleGraph) -> tuple[int, int]:
    """(isolated vertices, isolated edges).

    A vertex is isolated if it has degree zero; an edge is isolated if both
    endpoints have degree one.
    """
    adjacency = graph.adjacency
    k = sum(1 for v in graph.vertices if not adjacency[v])
    l = sum(
        1
        for u, v in graph.edges
        if len(adjacency[u]) == 1 and len(adjacency[v]) == 1
    )
    return k, l


# ---------------------------------------------------------------------------
# Exhaustive planarity table over all labelled graphs on [n], n <= 7
# ---------------------------------------------------------------------------


def complete_graph_edges(n: int) -> list[Edge]:
    """Edges of K_n in lexicographic order; fixes the bitmask convention."""
    return [(u, v) for u in range(1, n + 1) for v in range(u + 1, n + 1)]


@lru_cache(maxsize=None)
def _kuratowski_masks(n: int) -> tuple[int, ...]:
    """Edge bitmasks of every K5 or K3,3 subdivision on at most n vertices.

    A subdivision is a K5 or K3,3 with one edge subdivided, then another, and
    so on.  So the masks are a closure: seeded with every K5 and K3,3 on labels
    of [n], each round takes the masks the last round found and, for each edge
    uw and each label x the mask does not touch, adds the mask with uw
    replaced by ux and xw.  It stops when a round adds nothing.
    """
    labels = range(1, n + 1)
    bit: dict[Edge, int] = {}
    for i, (u, w) in enumerate(complete_graph_edges(n)):
        bit[u, w] = bit[w, u] = 1 << i
    incident = {v: sum(bit[v, w] for w in labels if w != v) for v in labels}
    found = {
        sum(bit[e] for e in combinations(five, 2)) for five in combinations(labels, 5)
    }
    for six in combinations(labels, 6):
        for tail in combinations(six[1:], 2):
            side_b = [v for v in six[1:] if v not in tail]
            found.add(sum(bit[a, b] for a in (six[0], *tail) for b in side_b))
    last = found
    while last:
        added = set()
        for mask in last:
            untouched = [x for x in labels if not mask & incident[x]]
            for (u, w), b in bit.items():
                if u < w and mask & b:
                    for x in untouched:
                        added.add(mask ^ b | bit[u, x] | bit[x, w])
        last = added - found
        found |= last
    return tuple(sorted(found))


@lru_cache(maxsize=None)
def planarity_table(n: int) -> np.ndarray:
    """Planarity of every labelled graph on [n], indexed by edge bitmask.

    Bit i of the index corresponds to ``complete_graph_edges(n)[i]``.  A graph
    is non-planar iff its edge set contains some Kuratowski subdivision, so
    the non-planar set is the up-closure of the subdivision masks: a superset
    (zeta) transform over the subset lattice.  The set is held one bit per
    code, code c at bit c % 64 of ``uint64`` word c // 64.  Edge bits 0-5 lie
    inside a word and are closed by six shift-and-mask passes; edge bits 6 and
    up index whole words and are closed by one OR over word halves each.  At
    n = 7 that is 2^15 words (256 KiB), closed and unpacked in about 3 ms,
    after about 0.02 s to grow the 3,451 masks on first use.  The words
    are unpacked once into the table, which is cached and read-only.
    """
    if not 0 <= n <= ENUMERATION_LIMIT:
        raise EnumerationLimitError(
            f"the all-graphs planarity table is limited to n <= {ENUMERATION_LIMIT}"
        )
    n_edges = n * (n - 1) // 2
    size = 1 << n_edges
    nonplanar = np.zeros((size + 63) >> 6, dtype=np.uint64)
    masks = np.array(_kuratowski_masks(n), dtype=np.uint64)
    np.bitwise_or.at(
        nonplanar, masks >> np.uint64(6), np.uint64(1) << (masks & np.uint64(63))
    )
    # Bit p of in_word[i] is set iff bit i of p is clear: the codes of a word
    # that edge i can be added to.
    in_word = (
        0x5555555555555555,
        0x3333333333333333,
        0x0F0F0F0F0F0F0F0F,
        0x00FF00FF00FF00FF,
        0x0000FFFF0000FFFF,
        0x00000000FFFFFFFF,
    )
    for i in range(min(n_edges, 6)):
        nonplanar |= (nonplanar & np.uint64(in_word[i])) << np.uint64(1 << i)
    for i in range(n_edges - 6):
        # Words with bit i of their index set sit in the upper half of each block.
        halves = nonplanar.reshape(-1, 2, 1 << i)
        halves[:, 1] |= halves[:, 0]
    # Little-endian words and bit order put code c at byte c // 8, bit c % 8.
    planar = np.unpackbits(
        (~nonplanar).astype("<u8", copy=False).view(np.uint8),
        count=size,
        bitorder="little",
    ).view(bool)
    planar.flags.writeable = False
    return planar


# ---------------------------------------------------------------------------
# Edge-list text format (shared by the CLI)
# ---------------------------------------------------------------------------


def format_edge_list(graph: SimpleGraph) -> str:
    """Text form: first line "N M", then one "u v" line per edge, 1-indexed."""
    n = graph.vertices[-1] if graph.vertices else 0
    lines = [f"{n} {graph.size}"]
    lines.extend(f"{u} {v}" for u, v in sorted(graph.edges))
    return "\n".join(lines) + "\n"


def _edge_list_int(token: str) -> int:
    try:
        return int(token)
    except ValueError:
        raise ValueError(f"edge list token {token!r} is not an integer") from None


def parse_edge_list(text: str) -> SimpleGraph:
    tokens = text.split()
    if len(tokens) < 2:
        raise ValueError("edge list must start with an 'N M' header")
    n, m = _edge_list_int(tokens[0]), _edge_list_int(tokens[1])
    if n < 0 or m < 0:
        raise ValueError(f"header N and M must be non-negative, got {n} {m}")
    if len(tokens) != 2 + 2 * m:
        raise ValueError(f"expected {m} edges after the header, got malformed data")
    pairs = [_edge_list_int(token) for token in tokens[2:]]
    return SimpleGraph.from_edges(n, zip(pairs[0::2], pairs[1::2]))


def read_edge_list(path: str) -> SimpleGraph:
    with open(path, "r", encoding="utf-8") as handle:
        return parse_edge_list(handle.read())
