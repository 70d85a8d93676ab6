"""Prüfer-style codec for forests with specified roots.

A rooted forest on vertex set [n] with roots 1..t is a forest with exactly t
tree components in which the roots lie in pairwise distinct components.  Such
forests are in bijection with codewords in [n]^(n-t-1) x [t]: repeatedly
delete the leaf with the largest label and record its unique neighbour.  The
vertex degrees can be read off a codeword directly (occurrence count, plus
one for non-roots), which makes uniform sampling of forests — or of just
their degree sequences — a balls-into-bins experiment.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from degreelab.graphs import SimpleGraph, _distinct, component_stats

Edge = tuple[int, int]


@dataclass(frozen=True)
class RootedForest:
    """Forest on [n] whose roots 1..t lie in pairwise distinct components.

    Construction checks the edges as ``SimpleGraph`` does (no loops, labels
    in [1, n], no edge twice), stores them with the smaller endpoint first,
    and checks that there are exactly n - t.  ``validate`` checks the rest:
    acyclic, one root per component.
    """

    n: int
    t: int
    edges: frozenset[Edge]

    def __post_init__(self) -> None:
        if not 1 <= self.t <= self.n:
            raise ValueError(f"need 1 <= t <= n, got t={self.t}, n={self.n}")
        edges = SimpleGraph.from_edges(self.n, self.edges).edges
        object.__setattr__(self, "edges", edges)
        if len(self.edges) != self.n - self.t:
            raise ValueError(
                f"a forest in F({self.n}, {self.t}) must have {self.n - self.t} "
                f"edges, got {len(self.edges)}"
            )

    def validate(self) -> None:
        """Check acyclicity and the one-root-per-component placement."""
        pairs = np.array(sorted(self.edges), dtype=np.int64).reshape(-1, 2)
        labels, vertex_counts, _ = component_stats(self.n, pairs[:, 0], pairs[:, 1])
        # n - t edges leave exactly t components iff they close no cycle.
        if vertex_counts.size != self.t:
            raise ValueError("the edges close a cycle")
        if _distinct(labels[: self.t]).size != self.t:
            raise ValueError("two roots share a component")


def _require_codable(n: int, t: int) -> None:
    if t < 1:
        raise ValueError(f"t must be a positive integer, got {t}")
    if n < t + 1:
        raise ValueError(
            f"the forest codec needs n >= t + 1 (codewords have length n - t "
            f"with last entry a root), got n={n}, t={t}"
        )


def encode(forest: RootedForest) -> tuple[int, ...]:
    """Codeword of a rooted forest.

    Repeatedly removes the leaf with the largest label and records its unique
    neighbour.  Roots are never removed: the removed leaves are exactly the
    non-root vertices, each once, and the final recorded neighbour is a root.
    Raises ValueError if the forest invariants do not hold.
    """
    n, t = forest.n, forest.t
    _require_codable(n, t)
    forest.validate()

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


def decode(sequence: Sequence[int] | np.ndarray, n: int, t: int) -> RootedForest:
    """Rooted forest encoded by a codeword; inverse of ``encode``."""
    lo, hi = decode_arrays(sequence, n, t)
    return RootedForest(n=n, t=t, edges=frozenset(zip(lo.tolist(), hi.tolist())))


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


def sample_uniform_forest(n: int, t: int, rng: np.random.Generator) -> RootedForest:
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
