"""Prüfer-style codec for forests with specified roots.

A rooted forest on vertex set [n] with roots 1..t is a forest with exactly t
tree components in which the roots lie in pairwise distinct components.  Such
forests are in bijection with codewords in [n]^(n-t-1) x [t]: repeatedly
delete the leaf with the largest label and record its unique neighbour.  The
vertex degrees can be read off a codeword directly (occurrence count, plus
one for non-roots), which makes uniform sampling of forests — or of just
their degree sequences — a balls-into-bins experiment.

A forest is a ``SimpleGraph`` on [n] with the root count t passed beside it;
``validate_forest`` checks that the pair lies in F(n, t).

Decoding matches entry i with the leaf removed at step i (from 0).  Call
rel(v) one plus the index of the last occurrence of v in the body (all
entries but the last), or 0 if v is not there: a non-root becomes a leaf
at step rel(v).  Since at most one vertex is released per step, a non-root
v with rel(v) >= 1 is removed at step rel(v) iff at most rel(v) larger
non-roots u have rel(u) < rel(v); the others are removed at the steps left
over, largest label first (in the line of Greenlaw & Petreschi, "Computing
Prüfer codes efficiently in parallel", 2000).  From n = 1000, the measured
crossover, ``decode_arrays`` evaluates this criterion in NumPy: blocks of
about sqrt(n - t) labels and steps bound every count at once through 2-D
prefix sums, and only the few vertices whose bounds straddle their release
step are counted exactly.  Below it, a pointer loop finds the leaves.
"""

from __future__ import annotations

import heapq
from typing import Iterable, Sequence

import numpy as np

from degreelab.graphs import SimpleGraph, _distinct, _edge_arrays, component_stats


def validate_forest(forest: SimpleGraph, t: int) -> None:
    """Check that a graph lies in F(n, t), with n = v(forest).

    The vertex set must be [1, n] exactly, with 1 <= t <= n; the n - t edges
    must close no cycle, and the roots 1..t must lie in distinct components.
    """
    n = forest.order
    if not 1 <= t <= n:
        raise ValueError(f"need 1 <= t <= n, got t={t}, n={n}")
    if forest.vertices != tuple(range(1, n + 1)):
        raise ValueError("a forest must occupy the vertex set [1, n] exactly")
    if forest.size != n - t:
        raise ValueError(
            f"a forest in F({n}, {t}) must have {n - t} edges, got {forest.size}"
        )
    labels, vertex_counts, _ = component_stats(n, *_edge_arrays(forest))
    # n - t edges leave exactly t components iff they close no cycle.
    if vertex_counts.size != t:
        raise ValueError("the edges close a cycle")
    if _distinct(labels[:t]).size != t:
        raise ValueError("two roots share a component")


def _require_codable(n: int, t: int) -> None:
    if t < 1:
        raise ValueError(f"t must be a positive integer, got {t}")
    if n < t + 1:
        raise ValueError(
            f"the forest codec needs n >= t + 1 (codewords have length n - t "
            f"with last entry a root), got n={n}, t={t}"
        )


def encode(forest: SimpleGraph, t: int) -> tuple[int, ...]:
    """Codeword of a forest in F(n, t), with n = v(forest).

    Repeatedly removes the leaf with the largest label and records its unique
    neighbour.  Roots are never removed: the removed leaves are exactly the
    non-root vertices, each once, and the final recorded neighbour is a root.
    Raises ValueError unless ``validate_forest(forest, t)`` passes.
    """
    n = forest.order
    _require_codable(n, t)
    validate_forest(forest, t)

    adjacency: list[set[int]] = [set() for _ in range(n + 1)]
    for u, v in forest.edges:
        adjacency[u].add(v)
        adjacency[v].add(u)

    # Max-heap (negated labels) of non-root leaves; stale entries are skipped.
    heap = [-v for v in range(t + 1, n + 1) if len(adjacency[v]) == 1]
    heapq.heapify(heap)
    recorded: list[int] = []
    for _ in range(n - t):
        leaf = -heapq.heappop(heap)
        while len(adjacency[leaf]) != 1:
            leaf = -heapq.heappop(heap)
        neighbour = next(iter(adjacency[leaf]))
        recorded.append(neighbour)
        adjacency[leaf].clear()
        adjacency[neighbour].discard(leaf)
        if len(adjacency[neighbour]) == 1 and neighbour > t:
            heapq.heappush(heap, -neighbour)
    return tuple(recorded)


def _sequence_entries(
    sequence: Sequence[int] | Iterable[int] | np.ndarray,
) -> np.ndarray:
    entries = np.asarray(
        sequence if isinstance(sequence, np.ndarray) else tuple(sequence)
    )
    if entries.size and entries.dtype.kind not in "iu":
        raise ValueError(f"codeword entries must be integers, got {entries.dtype}")
    return entries.astype(np.int64, copy=False)


def _validate_sequence(entries: np.ndarray, n: int, t: int) -> None:
    _require_codable(n, t)
    if entries.shape != (n - t,):
        raise ValueError(
            f"a codeword for F({n}, {t}) has length {n - t}, got {entries.size}"
        )
    body = entries[:-1]
    if body.size and not (1 <= body.min() and body.max() <= n):
        bad = body[(body < 1) | (body > n)][0]
        raise ValueError(f"entry {bad} is outside [1, {n}]")
    if not 1 <= entries[-1] <= t:
        raise ValueError(
            f"the last entry must be a root in [1, {t}], got {entries[-1]}"
        )


#: Order n from which ``decode_arrays`` finds the leaves with the
#: release-step criterion in NumPy.  Below it the pointer loop is faster:
#: at n = 4 the NumPy path takes 30-60 µs against 5 µs for the loop, and on
#: uniform codewords the two cross between n = 700 and n = 1000.
_VECTOR_DECODE = 1000

#: Budget of the exact counts in ``_release_leaves``: at most this many open
#: vertices per block of B codeword entries, so about 16 comparisons per
#: entry.  A codeword that needs more goes back to the pointer loop, which
#: is faster on it: a reverse-sorted body leaves about half its vertices
#: open, against about 0.3 % on a uniform codeword.
_EXACT_BUDGET = 8


def _pointer_leaves(entries: np.ndarray, n: int, t: int) -> np.ndarray:
    """Leaf removed at each step, by a pointer that scans downward.

    The leaf matched to an entry is the largest vertex of current degree
    one.  A pointer scans downward for the next such vertex, and an entry
    whose degree drops to one above the pointer is the next leaf at once,
    because no other vertex above the pointer has degree one (Wang, Wang &
    Wu, "An optimal algorithm for Prüfer codes", 2009).
    """
    degree = np.bincount(entries, minlength=n + 1)
    degree[t + 1 :] += 1
    degree = degree.tolist()
    leaves: list[int] = []
    ptr = n
    while degree[ptr] != 1:
        ptr -= 1
    leaf = ptr
    for w in entries[:-1].tolist():
        leaves.append(leaf)
        degree[w] -= 1
        if degree[w] == 1 and w > ptr:
            leaf = w
        else:
            ptr -= 1
            while degree[ptr] != 1:
                ptr -= 1
            leaf = ptr
    leaves.append(leaf)
    return np.array(leaves, dtype=np.int64)


def _release_leaves(
    entries: np.ndarray, n: int, t: int, budget: float = _EXACT_BUDGET
) -> np.ndarray | None:
    """Leaf removed at each step, from release-step counts in NumPy.

    Steps are numbered from 0, and step i pairs its leaf with entry i.  The
    release step rel(v) of a vertex is one plus the index of its last
    occurrence in the body ``entries[:-1]``, or 0 if it does not occur
    there; a non-root becomes a leaf at step rel(v).  Release steps >= 1 are
    distinct, so at most one vertex arrives per step and only the backlog
    of larger non-roots can delay it: a non-root v with rel(v) >= 1 is the
    leaf of step rel(v) iff

        D(v) = #{non-root u > v : rel(u) < rel(v)} <= rel(v).

    Every other non-root is removed at the steps left over, largest label
    first.

    D(v) is bounded for all vertices at once.  Non-roots, ranked from the
    largest label down, and release steps are cut into blocks of
    B = 2^floor(bit_length(n - t) / 2) (step block 0 holds release step 0
    alone), and 2-D prefix sums over a histogram of the blocks count the
    larger non-roots released earlier: those in strictly higher label
    blocks and strictly earlier step blocks give a lower bound, and adding
    the vertex's own label block and step block gives an upper bound.  Only
    the vertices whose bounds straddle rel(v) (about 270 of 1e5 at B = 256
    on a uniform codeword) are counted exactly, against their own label
    block and their own step block.  Returns None, and leaves the decode to
    the pointer loop, when more than ``budget`` vertices per block of B
    entries need that count.
    """
    size = n - t
    shift = size.bit_length() // 2
    block = 1 << shift
    # int32 keeps the peak memory below the pointer loop's.
    release = np.zeros(n + 1, dtype=np.int32)
    np.maximum.at(release, entries[:-1], np.arange(1, size, dtype=np.int32))
    # Non-roots are indexed by rank k = n - v: a smaller rank is a larger label.
    rel = release[: t : -1]
    label_block = np.arange(size, dtype=np.int32) >> shift
    step_block = (rel + (block - 1)) >> shift
    label_blocks = -(-size // block)
    width = ((size - 1 + block - 1) >> shift) + 2
    # counts[a, c] = #{non-roots in label blocks < a and step blocks < c}.
    cell = label_block * width + step_block
    counts = np.bincount(cell + (width + 1), minlength=(label_blocks + 1) * width)
    counts = counts.astype(np.int32).reshape(label_blocks + 1, width)
    np.cumsum(counts, axis=0, out=counts)
    np.cumsum(counts, axis=1, out=counts)
    lower = counts.ravel()[cell]
    upper = counts.ravel()[cell + (width + 1)] - 1
    released = rel > 0
    on_time = released & (upper <= rel)
    open_ = np.flatnonzero(released & (lower <= rel) & (rel < upper))
    if open_.size * block > budget * size:
        return None
    if open_.size:
        cols = np.arange(block)
        open_rel = rel[open_, None]
        open_label_block = label_block[open_, None]
        # Same label block: the larger labels are the smaller ranks.
        ranks = (open_label_block << shift) + cols
        above = (ranks < open_[:, None]) & (rel.take(ranks, mode="clip") < open_rel)
        # Same step block: the vertex released at each earlier step, if it
        # lies in a higher label block.  A root never does, since its rank
        # n - v is at least n - t, above every non-root's.
        steps = ((step_block[open_, None] - 1) << shift) + 1 + cols
        owner = entries.take(steps - 1, mode="clip")
        earlier = (
            (steps < open_rel)
            & (release[owner] == steps)
            & (((n - owner) >> shift) < open_label_block)
        )
        exact = (
            lower[open_]
            + np.count_nonzero(above, axis=1)
            + np.count_nonzero(earlier, axis=1)
        )
        on_time[open_[exact <= open_rel[:, 0]]] = True
    # The ranks left over fill the free steps in order, smallest rank first.
    placed = np.flatnonzero(on_time)
    steps = rel[placed]
    leaves = np.empty(size, dtype=np.int32)
    leaves[steps] = placed
    taken = np.zeros(size, dtype=bool)
    taken[steps] = True
    leaves[np.flatnonzero(~taken)] = np.flatnonzero(~on_time)
    return n - leaves


def decode_arrays(
    sequence: Sequence[int] | np.ndarray, n: int, t: int
) -> tuple[np.ndarray, np.ndarray]:
    """Edges of the forest encoded by a codeword, as (lo, hi) endpoint arrays.

    Edge i joins codeword entry i to the leaf removed at step i, with the
    smaller endpoint in ``lo``.  That leaf appears in no later edge, so the
    edges come in a leaf-deletion order: deleting the leaf of edge 0, 1, ...
    in turn deletes a vertex of degree one each time and leaves the roots.
    The degree of each vertex starts at its occurrence count, plus one for
    non-roots, and the leaf matched to an entry is the largest vertex of
    current degree one.  From n = ``_VECTOR_DECODE`` (the measured
    crossover, about 1000) the leaves come from the release-step criterion
    of ``_release_leaves``: block bounds on each vertex's count of larger
    non-roots released before it, and an exact count only where the bounds
    straddle its release step.  Below
    that, and on codewords whose bounds leave too many vertices open, a
    linear pointer scan finds them (``_pointer_leaves``).  Both give the
    same arrays.
    """
    entries = _sequence_entries(sequence)
    _validate_sequence(entries, n, t)
    leaves = _release_leaves(entries, n, t) if n >= _VECTOR_DECODE else None
    if leaves is None:
        leaves = _pointer_leaves(entries, n, t)
    return np.minimum(entries, leaves), np.maximum(entries, leaves)


def decode(sequence: Sequence[int] | np.ndarray, n: int, t: int) -> SimpleGraph:
    """Forest in F(n, t) encoded by a codeword; inverse of ``encode``."""
    return SimpleGraph.from_arrays(n, *decode_arrays(sequence, n, t))


def count_forests(n: int, t: int) -> int:
    """Number of forests in F(n, t): exactly t * n^(n - t - 1)."""
    _require_codable(n, t)
    return t * n ** (n - t - 1)


def _draw_codeword(n: int, t: int, rng: np.random.Generator) -> tuple[np.ndarray, int]:
    _require_codable(n, t)
    body = rng.integers(1, n + 1, size=n - t - 1, dtype=np.int64)
    last = int(rng.integers(1, t + 1))
    return body, last


def sample_codeword(n: int, t: int, rng: np.random.Generator) -> np.ndarray:
    """Uniform codeword for F(n, t): n - t - 1 entries in [n], then a root."""
    body, last = _draw_codeword(n, t, rng)
    return np.append(body, last)


def sample_uniform_forest(n: int, t: int, rng: np.random.Generator) -> SimpleGraph:
    """Uniform sample from F(n, t) via a uniform codeword."""
    return decode(sample_codeword(n, t, rng), n, t)


def sample_forest_degrees(n: int, t: int, rng: np.random.Generator) -> np.ndarray:
    """Degree sequence of a uniform forest from F(n, t), without building it.

    Draws a uniform codeword and reads the degrees off it with
    ``codeword_degrees``.  Consumes the generator exactly like
    ``sample_uniform_forest``, so the same seed yields the degrees of the
    same forest.
    """
    return codeword_degrees(*_draw_codeword(n, t, rng), n, t)


def codeword_degrees(body: np.ndarray, last: int, n: int, t: int) -> np.ndarray:
    """Degree sequence on [n] of the forest in F(n, t) whose codeword is
    ``body`` followed by the root ``last``, read off without decoding it.

    A vertex appears in the codeword once for each of its children, and a
    non-root has one more edge, to its parent: each degree is the occurrence
    count, plus one for every non-root.  The codeword comes in two pieces
    because a sampler draws it so; joining them would copy n - t entries.
    """
    degrees = np.bincount(body, minlength=n + 1)[1:]
    degrees[last - 1] += 1
    degrees[t:] += 1
    return degrees
