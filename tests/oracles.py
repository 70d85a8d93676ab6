"""Independent brute-force oracles used by the tests.

Everything here is deliberately naive (exhaustive enumeration, direct
counting) and independent of the library's own algorithms, so that the two
routes can check each other.  ``ReplayRng`` lets an exhaustive check feed
chosen location vectors to the library's own rejection loop.
"""

from __future__ import annotations

import heapq
import math
from collections import Counter, deque
from fractions import Fraction
from functools import lru_cache
from itertools import combinations

import numpy as np

Edge = tuple[int, int]


class ReplayRng:
    """Generator stand-in that answers ``integers`` calls with fixed draws, in order.

    A draw is an array, or a scalar for a call without ``size``.  With
    ``max_attempts=1``, ``sample_gnm_arrays`` runs its pairing, loop check
    and parallel-edge check on exactly one location vector; given a
    codeword's body and last entry, ``sample_forest_degrees`` reads the
    degrees of exactly that codeword.
    """

    def __init__(self, *draws):
        self.draws = [np.asarray(draw, dtype=np.int64) for draw in draws]

    def integers(self, low, high=None, size=None, dtype=np.int64):
        draw = self.draws.pop(0)
        assert draw.shape == (() if size is None else (size,))
        assert np.all((low <= draw) & (draw < high))
        return int(draw) if size is None else draw.astype(dtype)


def union_find_components(n: int, edges) -> list[set[int]]:
    parent = list(range(n + 1))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for u, v in edges:
        parent[find(u)] = find(v)
    groups: dict[int, set[int]] = {}
    for v in range(1, n + 1):
        groups.setdefault(find(v), set()).add(v)
    return list(groups.values())


def is_rooted_forest(n: int, t: int, edges: frozenset[Edge]) -> bool:
    """Acyclic, exactly t components, roots 1..t in distinct components."""
    if len(edges) != n - t:
        return False
    parent = list(range(n + 1))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for u, v in edges:
        ru, rv = find(u), find(v)
        if ru == rv:
            return False
        parent[ru] = rv
    roots = {find(r) for r in range(1, t + 1)}
    return len(roots) == t


def all_forests(n: int, t: int) -> list[frozenset[Edge]]:
    """Every rooted forest on [n] with roots 1..t, by edge-subset search."""
    candidates = list(combinations(range(1, n + 1), 2))
    forests = []
    for subset in combinations(candidates, n - t):
        edges = frozenset(subset)
        if is_rooted_forest(n, t, edges):
            forests.append(edges)
    return forests


def forest_degrees(n: int, edges: frozenset[Edge]) -> tuple[int, ...]:
    deg = [0] * (n + 1)
    for u, v in edges:
        deg[u] += 1
        deg[v] += 1
    return tuple(deg[1:])


def forest_degree_law(n: int, t: int) -> dict[tuple[int, ...], Fraction]:
    """Exact degree-sequence distribution of a uniform rooted forest."""
    forests = all_forests(n, t)
    prob = Fraction(1, len(forests))
    law: dict[tuple[int, ...], Fraction] = {}
    for edges in forests:
        key = forest_degrees(n, edges)
        law[key] = law.get(key, Fraction(0)) + prob
    return law


def loads_plus_roots_law(n: int, t: int) -> dict[tuple[int, ...], Fraction]:
    """Exact law of (loads of n-t-1 balls in n bins) + root indicator + shift.

    Enumerates every outcome of the balls-into-bins experiment together with
    the uniform root choice: entry j gets its load, plus one if j equals the
    chosen root, plus one if j > t.
    """
    from itertools import product

    outcomes = list(product(range(1, n + 1), repeat=n - t - 1))
    prob = Fraction(1, len(outcomes) * t)
    law: dict[tuple[int, ...], Fraction] = {}
    for balls in outcomes:
        for root in range(1, t + 1):
            deg = [0] * (n + 1)
            for b in balls:
                deg[b] += 1
            deg[root] += 1
            for v in range(t + 1, n + 1):
                deg[v] += 1
            key = tuple(deg[1:])
            law[key] = law.get(key, Fraction(0)) + prob
    return law


def naive_largest_leaf_peeling(n: int, t: int, edges: frozenset[Edge]):
    """Reference encoder: peel the largest-label leaf, record its neighbour.

    Returns (recorded neighbours, removed leaves).
    """
    adj = {v: set() for v in range(1, n + 1)}
    for u, v in edges:
        adj[u].add(v)
        adj[v].add(u)
    recorded, removed = [], []
    for _ in range(n - t):
        leaves = [v for v in adj if len(adj[v]) == 1]
        leaf = max(leaves)
        neighbour = next(iter(adj[leaf]))
        recorded.append(neighbour)
        removed.append(leaf)
        adj[neighbour].discard(leaf)
        del adj[leaf]
    return recorded, removed


def heap_decode(entries, n: int, t: int) -> frozenset[Edge]:
    """Reference decoder: a max-heap of the vertices of current degree one.

    Degrees start at the occurrence count in the codeword, plus one for
    non-roots; each entry is matched with the largest vertex of degree one.
    """
    degree = [0] * (n + 1)
    for w in entries:
        degree[w] += 1
    for v in range(t + 1, n + 1):
        degree[v] += 1
    heap = [-v for v in range(1, n + 1) if degree[v] == 1]
    heapq.heapify(heap)
    edges = []
    for w in entries:
        leaf = -heapq.heappop(heap)
        while degree[leaf] != 1:
            leaf = -heapq.heappop(heap)
        degree[leaf] -= 1
        degree[w] -= 1
        if degree[w] == 1:
            heapq.heappush(heap, -w)
        edges.append((w, leaf) if w < leaf else (leaf, w))
    return frozenset(edges)


def component_stats(n: int, edges) -> list[tuple[int, int]]:
    """(vertex count, edge count) per component."""
    comps = union_find_components(n, edges)
    stats = []
    for comp in comps:
        m_comp = sum(1 for u, v in edges if u in comp)
        stats.append((len(comp), m_comp))
    return stats


def has_complex_component(n: int, edges) -> bool:
    return any(m_c >= n_c + 1 for n_c, m_c in component_stats(n, edges))


def scipy_component_stats(n: int, us: np.ndarray, vs: np.ndarray):
    """``graphs.component_stats`` through SciPy's ``connected_components``.

    SciPy numbers components in the order of their smallest member and
    returns ``int32`` labels; the library's kernel must match it exactly.
    """
    from scipy.sparse import csr_matrix
    from scipy.sparse.csgraph import connected_components

    adjacency = csr_matrix((np.ones(us.size), (us - 1, vs - 1)), shape=(n, n))
    n_comp, labels = connected_components(adjacency, directed=False)
    vertex_counts = np.bincount(labels, minlength=n_comp)
    edge_counts = np.bincount(labels[us - 1], minlength=n_comp)
    return labels, vertex_counts, edge_counts


def unique_rejection_loop(
    n: int, m: int, rng, max_attempts: int, require_noncomplex: bool = False
):
    """The G(n, m) rejection loop with a hash-based ``np.unique`` simplicity check.

    This is the loop ``samplers.sample_gnm_arrays`` ran before its
    parallel-edge check became a sort, with the union-find complex check
    above.  Returns (us, vs, loads, attempts, accepted, reject_reasons); the
    arrays are None when all ``max_attempts`` draws were rejected.
    """
    reasons = {"loop": 0, "parallel_edge": 0, "complex_component": 0}
    attempts = 0
    while attempts < max_attempts:
        attempts += 1
        entries = rng.integers(1, n + 1, size=2 * m, dtype=np.int64)
        us = entries[0::2]
        vs = entries[1::2]
        if m:
            if np.any(us == vs):
                reasons["loop"] += 1
                continue
            lo = np.minimum(us, vs)
            hi = np.maximum(us, vs)
            codes = lo * np.int64(n + 1) + hi
            if np.unique(codes).size < m:
                reasons["parallel_edge"] += 1
                continue
            if require_noncomplex and has_complex_component(
                n, list(zip(us.tolist(), vs.tolist()))
            ):
                reasons["complex_component"] += 1
                continue
        loads = np.bincount(entries, minlength=n + 1)[1:]
        return us, vs, loads, attempts, True, reasons
    return None, None, None, attempts, False, reasons


def _dict_adjacency(vertices, edges) -> dict[int, list[int]]:
    adjacency: dict[int, list[int]] = {v: [] for v in vertices}
    for u, v in edges:
        adjacency[u].append(v)
        adjacency[v].append(u)
    return adjacency


def bfs_components(vertices, edges) -> list[tuple[int, ...]]:
    """Components by breadth-first search over a dict adjacency, each sorted,
    ordered by (size desc, min label asc)."""
    adjacency = _dict_adjacency(vertices, edges)
    seen: set[int] = set()
    comps: list[tuple[int, ...]] = []
    for start in sorted(vertices):
        if start in seen:
            continue
        queue = deque([start])
        seen.add(start)
        comp = [start]
        while queue:
            v = queue.popleft()
            for w in adjacency[v]:
                if w not in seen:
                    seen.add(w)
                    comp.append(w)
                    queue.append(w)
        comps.append(tuple(sorted(comp)))
    comps.sort(key=lambda c: (-len(c), c[0]))
    return comps


def queue_peel(vertices, edges) -> set[int]:
    """Vertices of the classical 2-core: a queue of degree <= 1 vertices."""
    adjacency = _dict_adjacency(vertices, edges)
    degree = {v: len(ns) for v, ns in adjacency.items()}
    alive = set(adjacency)
    queue = deque(v for v, d in degree.items() if d <= 1)
    while queue:
        v = queue.popleft()
        if v not in alive or degree[v] > 1:
            continue
        alive.discard(v)
        for w in adjacency[v]:
            if w in alive:
                degree[w] -= 1
                if degree[w] == 1:
                    queue.append(w)
    return alive


def _edges_within(edges, members) -> list[Edge]:
    return [e for e in edges if e[0] in members and e[1] in members]


def dict_decompose(vertices, edges):
    """(core, big, small, rest) vertex sets, by the dict algorithms.

    The core is the peeled graph without its bare-cycle components; the big
    part is the complex component holding the first core component in
    ``bfs_components`` order, the small part the other complex components.
    """
    peeled = queue_peel(vertices, edges)
    peeled_edges = _edges_within(edges, peeled)
    core = set()
    for comp in bfs_components(peeled, peeled_edges):
        if len(_edges_within(peeled_edges, set(comp))) > len(comp):
            core.update(comp)
    complex_comps = [
        set(comp)
        for comp in bfs_components(vertices, edges)
        if len(_edges_within(edges, set(comp))) >= len(comp) + 1
    ]
    big: set[int] = set()
    if core:
        largest = set(bfs_components(core, _edges_within(edges, core))[0])
        big = next(comp for comp in complex_comps if largest <= comp)
    small = set().union(*(comp for comp in complex_comps if comp != big))
    rest = set(vertices) - big - small
    return core, big, small, rest


def networkx_planar(n: int, edges) -> bool:
    import networkx as nx

    graph = nx.Graph()
    graph.add_nodes_from(range(1, n + 1))
    graph.add_edges_from(edges)
    return nx.check_planarity(graph)[0]


def all_graphs(n: int):
    """Every labelled graph on [n] as a frozenset of edges."""
    candidates = list(combinations(range(1, n + 1), 2))
    for mask in range(1 << len(candidates)):
        yield frozenset(
            candidates[i] for i in range(len(candidates)) if mask >> i & 1
        )


def perfect_matchings(size: int) -> int:
    if size % 2:
        return 0
    result = 1
    for odd in range(1, size, 2):
        result *= odd
    return result


def graph_class_count_by_assembly(
    n: int, m: int, k: int, l: int, d: int, planar_only: bool
) -> int:
    """|P(n, m, k, l, d)| by assembling the graph from its pieces.

    A graph with exactly k isolated vertices and l isolated edges splits into
    those pieces plus a remainder whose components all have order >= 3, i.e.
    a graph with no degree-zero vertex and no isolated-edge component.  The
    remainder (if nonempty) always carries a vertex of degree >= 2 and hence
    the maximum degree whenever d >= 2.  Counting remainders by brute force
    keeps this oracle independent of the library sweep and usable a little
    beyond its n <= 7 limit.
    """
    import math

    rest_n = n - k - 2 * l
    rest_m = m - l
    if rest_n < 0 or rest_m < 0:
        return 0
    placements = (
        math.comb(n, k) * math.comb(n - k, 2 * l) * perfect_matchings(2 * l)
    )

    if rest_n == 0:
        expected_d = 1 if l > 0 else 0
        return placements if (rest_m == 0 and d == expected_d) else 0
    if rest_n in (1, 2):
        return 0  # components of order >= 3 cannot use one or two vertices
    if d < 2:
        return 0  # a nonempty remainder forces a vertex of degree >= 2

    return placements * _remainder_counts(rest_n, planar_only)[rest_m, d]


def _planar_by_edge_count(n: int, edges) -> bool:
    """Planarity, from the edge count alone where it decides, else networkx."""
    if len(edges) <= 8:
        return True
    if n >= 3 and len(edges) > 3 * n - 6:
        return False
    return networkx_planar(n, edges)


@lru_cache(maxsize=None)
def _remainder_counts(rest_n: int, planar_only: bool) -> Counter:
    """(m, d) -> remainders on [rest_n] with m edges and maximum degree d.

    A remainder has no degree-zero vertex and no isolated-edge component,
    and is planar if ``planar_only``.  A sweep over signatures asks for many
    (m, d) on the same vertex count, so each tally is made once and cached.
    networkx is asked only where the edge count leaves planarity open: a
    graph with at most 8 edges is planar (K3,3 has 9, K5 has 10, and every
    non-planar graph contains a subdivision of one), and one with more than
    3v - 6 edges on v >= 3 vertices is not (Euler's formula).
    """
    counts: Counter = Counter()
    for edges in all_graphs(rest_n):
        deg = forest_degrees(rest_n, edges)
        if min(deg) == 0:
            continue
        if any(deg[u - 1] == 1 and deg[v - 1] == 1 for u, v in edges):
            continue
        if planar_only and not _planar_by_edge_count(rest_n, edges):
            continue
        counts[len(edges), max(deg)] += 1
    return counts


#: Labelled planar graphs on n = 1..7 vertices (OEIS A066537).
PLANAR_GRAPH_COUNTS = {1: 1, 2: 2, 3: 8, 4: 64, 5: 1023, 6: 32071, 7: 1823707}


# ---------------------------------------------------------------------------
# Exhaustive tables by per-mask sweeps
# ---------------------------------------------------------------------------
#
# Both index graphs on [n] by edge bitmask, bit i standing for the i-th pair of
# combinations(range(1, n + 1), 2).  They test every code directly instead of
# building the tables on the subset lattice.


def superset_planarity_table(masks, n_edges: int, codes=None) -> np.ndarray:
    """Planarity of each code: no Kuratowski-subdivision mask is a subset of it.

    One pass over ``codes`` (default: all 2^n_edges) per subdivision mask.
    """
    if codes is None:
        codes = np.arange(1 << n_edges, dtype=np.uint32)
    codes = np.asarray(codes, dtype=np.uint32)
    nonplanar = np.zeros(codes.size, dtype=bool)
    for mask in masks:
        m = np.uint32(mask)
        np.logical_or(nonplanar, (codes & m) == m, out=nonplanar)
    return ~nonplanar


def bitwise_class_tally(n: int, planar: np.ndarray) -> dict:
    """(m, k, l, d) -> (all, planar) counts by popcounts over every code.

    ``planar`` is the planarity table indexed by code.
    """
    edges = list(combinations(range(1, n + 1), 2))
    codes = np.arange(1 << len(edges), dtype=np.uint32)
    incidence = [np.uint32(0)] * (n + 1)
    for idx, (u, v) in enumerate(edges):
        incidence[u] |= np.uint32(1 << idx)
        incidence[v] |= np.uint32(1 << idx)
    deg = np.stack(
        [np.bitwise_count(codes & incidence[v]) for v in range(1, n + 1)]
    )
    m_arr = np.bitwise_count(codes).astype(np.int64)
    k_arr = (deg == 0).sum(axis=0, dtype=np.int64)
    d_arr = deg.max(axis=0).astype(np.int64)
    l_arr = np.zeros(codes.size, dtype=np.int64)
    for idx, (u, v) in enumerate(edges):
        present = ((codes >> np.uint32(idx)) & np.uint32(1)).astype(bool)
        l_arr += present & (deg[u - 1] == 1) & (deg[v - 1] == 1)

    sig = m_arr + 32 * (k_arr + 8 * (l_arr + 8 * d_arr))
    counts_all = np.bincount(sig)
    counts_planar = np.bincount(sig[planar], minlength=counts_all.size)
    table: dict[tuple[int, int, int, int], tuple[int, int]] = {}
    for packed in np.nonzero(counts_all)[0]:
        m, k, l, d = packed % 32, packed // 32 % 8, packed // 256 % 8, packed // 2048
        table[(int(m), int(k), int(l), int(d))] = (
            int(counts_all[packed]),
            int(counts_planar[packed]),
        )
    return table


# ---------------------------------------------------------------------------
# Max-load law
# ---------------------------------------------------------------------------
#
# Caps are a list of (cap, bins) pairs: ``bins`` bins that may each hold at
# most ``cap`` balls.  For k uniform balls in n = sum(bins) bins, the
# probability that every load respects its cap is
# k!/n^k [z^k] prod e_cap(z)^bins, with e_x(z) = sum_{j <= x} z^j / j! the
# truncated exponential.  Both routes below compute that one number; the
# maximum-load laws at the end only choose the caps.


def capped_probability_exact(caps, k: int) -> Fraction:
    """P(every load within its cap) as an exact rational.

    Counts the location vectors in [n]^k that respect the caps,
    k! [z^k] prod e_cap(z)^bins, one bin at a time: counts[s] is the number
    of ways to place s labelled balls in the bins seen so far.
    """
    n = sum(bins for _, bins in caps)
    counts = [1] + [0] * k
    for cap, bins in caps:
        if bins and cap < 0:
            return Fraction(0)
        for _ in range(bins):
            counts = [
                sum(math.comb(s, j) * counts[s - j] for j in range(min(cap, s) + 1))
                for s in range(k + 1)
            ]
    return Fraction(counts[k], n**k)


def _truncated_poisson(r: float, cap: int) -> tuple[float, float, float, float, float]:
    """log P(Poi(r) <= cap) and the mean and cumulants k2, k3, k4 of
    Poi(r) conditioned on being at most cap."""
    logs = [j * math.log(r) - math.lgamma(j + 1) for j in range(cap + 1)]
    top = max(logs)
    weights = [math.exp(v - top) for v in logs]
    total = sum(weights)
    probs = [w / total for w in weights]
    mean = sum(j * p for j, p in enumerate(probs))
    m2, m3, m4 = (
        sum((j - mean) ** power * p for j, p in enumerate(probs))
        for power in (2, 3, 4)
    )
    return top + math.log(total) - r, mean, m2, m3, m4 - 3.0 * m2 * m2


def capped_probability(caps, k: int) -> float:
    """P(every load within its cap) by conditioned Poissonisation.

    With X_i independent Poisson(r),
    P(loads within caps) = prod P(X_i <= cap_i) * P(S = k) / P(Poi(nr) = k),
    where S is the sum of the X_i conditioned on their caps.  r is the
    saddle point at which E[S] = k; there P(S = k) is given by the local
    central limit theorem with its first Edgeworth correction,
    (1 + k4/(8 k2^2) - 5 k3^2/(24 k2^3)) / sqrt(2 pi k2).
    The error is of relative order 1/n^2.
    """
    caps = [(cap, bins) for cap, bins in caps if bins]
    n = sum(bins for _, bins in caps)
    room = sum(max(cap, 0) * bins for cap, bins in caps)
    if any(cap < 0 for cap, _ in caps) or room < k:
        return 0.0
    if k == 0:
        return 1.0
    if room == k:  # every bin exactly full
        log_count = math.lgamma(k + 1) - sum(
            bins * math.lgamma(cap + 1) for cap, bins in caps
        )
        return math.exp(log_count - k * math.log(n))

    def moments(log_r: float) -> list[float]:
        totals = [0.0] * 5
        for cap, bins in caps:
            for i, value in enumerate(_truncated_poisson(math.exp(log_r), cap)):
                totals[i] += bins * value
        return totals

    lo, hi = -50.0, 50.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if moments(mid)[1] < k:
            lo = mid
        else:
            hi = mid
    log_r = 0.5 * (lo + hi)
    log_below, _, k2, k3, k4 = moments(log_r)
    log_local = -0.5 * math.log(2.0 * math.pi * k2) + math.log1p(
        k4 / (8.0 * k2 * k2) - 5.0 * k3 * k3 / (24.0 * k2**3)
    )
    nr = n * math.exp(log_r)
    log_poisson = k * math.log(nr) - nr - math.lgamma(k + 1)
    return math.exp(log_below + log_local - log_poisson)


def max_load_cdf(n: int, k: int, x: int, exact: bool = False):
    """P(max load <= x) for k uniform balls in n bins."""
    caps = [(x, n)]
    return capped_probability_exact(caps, k) if exact else capped_probability(caps, k)


def complex_part_max_degree_cdf(
    q: int, t: int, core_degree: int, y: int, exact: bool = False
):
    """P(max degree <= y) for the complex part on [q] over a core on [t]
    whose vertices all have degree ``core_degree``.

    The forest codeword is q - t - 1 uniform balls in q bins plus a uniform
    last entry R in [t].  A non-root has degree 1 + its load; root r has
    degree core_degree + its load + [r = R].  By symmetry R = 1 may be
    fixed, so the caps are y - 1 on the q - t non-roots, y - core_degree - 1
    on root 1 and y - core_degree on the other t - 1 roots.
    """
    caps = [(y - 1, q - t), (y - core_degree - 1, 1), (y - core_degree, t - 1)]
    k = q - t - 1
    return capped_probability_exact(caps, k) if exact else capped_probability(caps, k)
