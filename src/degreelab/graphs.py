"""Labelled graphs: components, cores, decomposition, and small-scale planarity.

Graph algorithms run on endpoint arrays (1-based labels on [n]):
``component_stats`` labels components by hooking roots and pointer jumping
in NumPy, ``_peel`` computes the 2-core by deleting leaves, each of which
finds its one live neighbour as the sum of its live neighbours (no adjacency
index; sums stay below n * deg < 2^63 and update through NumPy's indexed
add/subtract loops, which XOR lacks), and ``decompose_masks`` peels first,
labels the components of the 2-core alone and hands each deleted vertex the
core component of the parent it was peeled from.  Both take the degree
sequence when the caller has it and return masks indexed by label, with a
False slot 0.  The ``SimpleGraph`` functions convert their edges and call
these.

``_check_edges`` is the one owner of the structural half of the
simple-graph rule (no loop, no endpoint outside the vertex set, no edge
repeated in either orientation), on endpoint arrays: ``SimpleGraph`` calls
it on its own edges after checking their types, and ``parse_edge_list`` on
the arrays it reads, which reach the CLI without a ``SimpleGraph``.

A component is *complex* if it has at least two independent cycles (edge
count >= vertex count + 1).  The complex part of a graph is the union of its
complex components; peeling degree-one vertices from it yields the core, a
graph of minimum degree two with no bare-cycle components.  The decomposition
splits a graph into the complex component containing the largest core
component, the remaining complex components, and the non-complex rest.
``decompose_masks`` alone applies the excess rule; the non-complex sampler
asks it.

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


def _is_integer(x: object) -> bool:
    """True for Python and NumPy integers; bools are not graph labels."""
    return type(x) is not bool and isinstance(x, (int, np.integer))


def _int64(values: Sequence, what: str) -> np.ndarray:
    """Integer ``values`` as an int64 array; a float or bool would convert, so
    anything else, or an integer beyond int64, is a ValueError naming it."""
    if set(map(type, values)) - {int}:
        for x in values:
            if not _is_integer(x):
                raise ValueError(f"{what} must be integers, got {x!r}")
    try:
        return np.array(values, dtype=np.int64)
    except OverflowError:
        bad = next(x for x in values if not -(2**63) <= int(x) < 2**63)
        raise ValueError(f"{what} must lie within int64, got {bad!r}") from None


@dataclass(frozen=True)
class SimpleGraph:
    """Immutable labelled simple graph on an explicit vertex set.

    Vertex labels and edge endpoints are Python or NumPy integers within
    int64, not bools, and labels are positive; edges are unordered pairs of
    distinct vertices, stored with the smaller endpoint first as Python ints.
    ``edges`` may be any iterable of pairs; an edge given twice, in either
    orientation, is an error.  An empty vertex set is allowed so that
    subgraphs (cores, decomposition parts) can be empty.  Every constructor,
    ``from_arrays`` included, goes through ``__post_init__``, which checks
    the types and hands the structural rule to ``_check_edges``.
    """

    vertices: tuple[int, ...]
    edges: frozenset[Edge]

    def __post_init__(self) -> None:
        # Types are checked first: hashing fails on a label such as [2],
        # sorting on mixed types, and 2.0 or True would equal a label.
        labels = _int64(self.vertices, "vertex labels")
        vs = tuple(sorted(set(self.vertices)))
        if vs and vs[0] < 1:
            raise ValueError("vertex labels must be positive integers")
        object.__setattr__(self, "vertices", vs)
        ends = _int64([x for u, v in self.edges for x in (u, v)], "edge endpoints")
        us, ws = ends[0::2], ends[1::2]
        # Sorted distinct positive labels are 1..k iff the largest is k.
        on_range = (vs[-1] if vs else 0) == len(vs)
        _check_edges(len(vs), us, ws, None if on_range else _distinct(labels))
        lo, hi = np.minimum(us, ws).tolist(), np.maximum(us, ws).tolist()
        object.__setattr__(self, "edges", frozenset(zip(lo, hi)))

    @classmethod
    def from_edges(cls, n: int, edges: Iterable[Sequence[int]] = ()) -> SimpleGraph:
        """Graph on vertex set 1..n with the given edges."""
        if not _is_integer(n):
            raise ValueError(f"n must be an integer, got {n!r}")
        if n < 0:
            raise ValueError(f"n must be non-negative, got {n}")
        return cls(vertices=tuple(range(1, n + 1)), edges=edges)

    @classmethod
    def from_arrays(cls, n: int, us: np.ndarray, vs: np.ndarray) -> SimpleGraph:
        """Graph on vertex set 1..n with edges (us[i], vs[i]).

        The arrays must be one-dimensional and of equal length; ``from_edges``
        checks the endpoints ``tolist`` gives, so a float or bool array fails.
        """
        us, vs = np.asarray(us), np.asarray(vs)
        if us.ndim != 1 or us.shape != vs.shape:
            raise ValueError(
                f"endpoint arrays must be one-dimensional and of equal length, "
                f"got shapes {us.shape} and {vs.shape}"
            )
        return cls.from_edges(n, zip(us.tolist(), vs.tolist()))

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


def _check_edges(
    n: int, us: np.ndarray, vs: np.ndarray, labels: np.ndarray | None = None
) -> None:
    """Check that (us[i], vs[i]) are the edges of a simple graph on [n], or
    on ``labels`` (a sorted int64 array of n distinct labels) when given.

    No edge may be a loop, have an endpoint outside the vertex set, or
    repeat an earlier edge in either orientation.  A failure raises
    ``ValueError`` naming the first failing edge in input order, checked for
    a loop, then its range, then a repeat.  Valid edges cost one sort of the
    pair key lo * base + hi of the endpoints' positions; a failure pays for
    the stable argsort that finds the first one.  An edge out of range may
    get any key, since a repeat it causes lies after it.
    """
    us, vs = np.asarray(us, dtype=np.int64), np.asarray(vs, dtype=np.int64)
    if not us.size:
        return  # the many edgeless parts and cores skip a dozen NumPy calls
    lo, hi = np.minimum(us, vs), np.maximum(us, vs)
    loops = lo == hi
    if labels is None:
        inside, base = (lo >= 1) & (hi <= n), n + 1
    else:
        at_lo, at_hi = np.searchsorted(labels, lo), np.searchsorted(labels, hi)
        top = n - 1
        inside = labels[np.minimum(at_lo, top)] == lo
        inside &= labels[np.minimum(at_hi, top)] == hi
        lo, hi, base = at_lo, at_hi, n
    if base > 2**31:
        # Dense ranks keep the key below 2^63 whatever the labels.
        ranks = _distinct(np.concatenate((lo, hi)))
        lo, hi = np.searchsorted(ranks, lo), np.searchsorted(ranks, hi)
        base = ranks.size
    keys = lo * base + hi
    ordered = np.sort(keys)
    bad = loops | ~inside
    # count_nonzero costs a third of any() on the small graphs built in bulk.
    if not np.count_nonzero(bad) and not np.count_nonzero(ordered[1:] == ordered[:-1]):
        return
    # A stable sort keeps equal keys in input order: all but the first repeat.
    order = np.argsort(keys, kind="stable")
    repeat = np.zeros(keys.size, dtype=bool)
    repeat[order[1:][ordered[1:] == ordered[:-1]]] = True
    i = int(np.flatnonzero(bad | repeat)[0])
    u, v = int(us[i]), int(vs[i])
    if u == v:
        raise ValueError(f"loop at vertex {u} is not a simple-graph edge")
    e = (u, v) if u < v else (v, u)
    if not inside[i]:
        raise ValueError(f"edge {e} has an endpoint outside the vertex set")
    raise ValueError(f"edge {e} appears more than once")


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


#: Frontier width above which ``_peel`` deletes a whole frontier in one NumPy
#: round; below it, one leaf at a time in Python costs less than a round's
#: fixed NumPy overhead.
_BULK_FRONTIER = 64


def _peel(
    n: int,
    us: np.ndarray,
    vs: np.ndarray,
    degree: np.ndarray | None = None,
) -> tuple:
    """The 2-core, by recursively deleting the vertices of degree <= 1.

    Returns (alive, bulk, tail): alive[v] is True iff v lies in the classical
    2-core, with slot 0 a dead sentinel.  ``bulk`` lists one (leaves,
    parents) array pair per bulk round and ``tail`` one (leaf, parent) pair
    per step of the stack, each for the leaves deleted while their parent
    was live, in deletion order; ``decompose_masks`` replays them, and a
    caller that wants only the 2-core drops them, which costs no measurable
    time.

    ``degree`` is the degree sequence on [n] (degree[v - 1] of vertex v)
    when the caller already has it, as ``decompose_masks`` gets the bin
    loads of a draw in the decomposition trial and the non-complex sampler's
    check; it is copied, not modified.  Without it the peel counts the
    endpoints itself.

    The peel keeps two arrays on the labels, with slot 0 the sentinel: each
    vertex's live degree and ``link``, the sum of its live neighbours.  A
    vertex of degree one therefore has ``link[v]`` as its one live
    neighbour, and one whose last neighbour died has link 0, the sentinel,
    so deleting a leaf v is ``degree[p] -= 1; link[p] -= v`` with
    ``p = link[v]`` and needs no adjacency index (the peeling step of Graf &
    Lemire's XOR filters, with a sum in place of the XOR).  A sum is at most
    n * deg(v) < 2^63, and every bulk update is then ``np.add.at`` or
    ``np.subtract.at``, which NumPy runs through indexed fast loops;
    ``np.bitwise_xor.at`` has none, and on 2e5 updates at n = 1e5 it took
    1.9 ms against 0.45 ms for ``np.add.at``.

    Isolated vertices start dead and are never visited: a peel needs only
    the degree sequence and the degree-1 frontier (Batagelj & Zaveršnik,
    2003), and in G(n, 0.6n) the isolated vertices are about 30 % of [n].
    A stack of leaves, one deletion at a time, is a complete peel.  While the
    frontier (live vertices of degree <= 1) is wider than ``_BULK_FRONTIER``,
    it is deleted in one NumPy round instead; that batches the wide first
    rounds, and the stack then finishes the narrow tail of hanging trees that
    are ~sqrt(n) deep, which would otherwise cost one NumPy round per level.
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


def decompose_masks(
    n: int, us: np.ndarray, vs: np.ndarray, degree: np.ndarray | None = None
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Vertex masks (core, big, small) of the decomposition of the graph on [n].

    The masks are indexed by the 1-based labels, each with a False slot 0,
    so statistics over the edges read them at the endpoints with no
    ``us - 1`` temporaries, and their nonzero positions are labels.
    ``degree`` is the degree sequence on [n], handed to ``_peel``: the
    decomposition trial of ``harness`` passes the bin loads of its draw, the
    CLI its one degree count, and the non-complex check of
    ``samplers.sample_gnm_arrays`` rejects iff the core is non-empty.

    The core is the 2-core restricted to complex components.  The core of a
    complex component is connected, so core components and complex
    components correspond one to one; ``big`` is the complex component with
    the most core vertices (ties to the smallest core vertex) and ``small``
    the other complex components.  The non-complex part is ~(big | small)
    past slot 0.

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
    """The vertices picked by a mask indexed by label, slot 0 dropped."""
    return np.array(graph.vertices, dtype=np.int64)[mask[1:]].tolist()


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
    alive = _peel(graph.order, *_edge_arrays(graph))[0]
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
    component.  As in ``decompose_masks``, a tie in core size goes to the
    core component with the smallest vertex, whatever the sizes of the
    complex components around them: with K4s on 1..4 and 5..8 and a path
    8-9-10, ``big_complex`` is 1..4.  ``small_complex`` is the union of the remaining
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


def format_edge_list(n: int, us: np.ndarray, vs: np.ndarray) -> str:
    """Text form of the simple graph on [n] with edges (us[i], vs[i]), which
    are not checked: first line "N M", then one "u v" line per edge, smaller
    endpoint first, in lexicographic order.
    """
    lo, hi = np.minimum(us, vs), np.maximum(us, vs)
    order = np.lexsort((hi, lo))
    lines = [f"{n} {lo.size}"]
    lines.extend(map("{} {}".format, lo[order].tolist(), hi[order].tolist()))
    return "\n".join(lines) + "\n"


def _int64_tokens(tokens: list[str]) -> np.ndarray:
    """Edge-list tokens as int64, read as ``int`` reads them (``1_000`` passes,
    ``2.0``, ``True``, ``0x10`` and ``1e3`` fail) in one conversion; a failure
    names the first token that is no integer or lies beyond int64."""
    try:
        return np.array(tokens, dtype=np.int64)
    except (ValueError, OverflowError):
        for token in tokens:
            try:
                if -(2**63) <= int(token) < 2**63:
                    continue
                problem = "lies beyond int64"
            except ValueError:
                problem = "is not an integer"
            raise ValueError(f"edge list token {token!r} {problem}") from None
        raise


def parse_edge_list(text: str) -> tuple[int, np.ndarray, np.ndarray]:
    """The graph in edge-list text as (n, us, vs): its vertex count and int64
    endpoint arrays in file order, checked by ``_check_edges`` as the edges
    of a simple graph on [n].  Wrap them in ``SimpleGraph.from_arrays`` for a
    graph object."""
    tokens = text.split()
    if len(tokens) < 2:
        raise ValueError("edge list must start with an 'N M' header")
    n, m = _int64_tokens(tokens[:2]).tolist()
    if n < 0 or m < 0:
        raise ValueError(f"header N and M must be non-negative, got {n} {m}")
    if len(tokens) != 2 + 2 * m:
        raise ValueError(f"expected {m} edges after the header, got malformed data")
    ends = _int64_tokens(tokens[2:])
    us, vs = ends[0::2], ends[1::2]
    _check_edges(n, us, vs)
    return n, us, vs


def read_edge_list(path: str) -> tuple[int, np.ndarray, np.ndarray]:
    with open(path, "r", encoding="utf-8") as handle:
        return parse_edge_list(handle.read())
