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


def decode_arrays(
    sequence: Sequence[int] | np.ndarray, n: int, t: int
) -> tuple[np.ndarray, np.ndarray]:
    """Edges of the forest encoded by a codeword, as (lo, hi) endpoint arrays.

    Edge i joins codeword entry i to the leaf removed at step i, with the
    smaller endpoint in ``lo``.  The degree of each vertex starts at its
    occurrence count, plus one for non-roots.  The leaf matched to an entry
    is the largest vertex of current degree one, found in linear time: a
    pointer scans downward for the next such vertex, and an entry whose
    degree drops to one above the pointer is the next leaf at once, because
    no other vertex above the pointer has degree one (Wang, Wang & Wu, "An
    optimal algorithm for Prüfer codes", 2009).
    """
    entries = _sequence_entries(sequence)
    _validate_sequence(entries, n, t)
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
    others = np.array(leaves, dtype=np.int64)
    return np.minimum(entries, others), np.maximum(entries, others)


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

    Draws a uniform codeword and reads the degrees off it: occurrence counts,
    plus one for every non-root.  Consumes the generator exactly like
    ``sample_uniform_forest``, so the same seed yields the degrees of the
    same forest.
    """
    body, last = _draw_codeword(n, t, rng)
    degrees = np.bincount(body, minlength=n + 1)[1:]
    degrees[last - 1] += 1
    degrees[t:] += 1
    return degrees
