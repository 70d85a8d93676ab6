"""Rejection samplers for uniform random graphs.

A random multigraph on [n] with m edges is built by throwing 2m balls into n
bins and pairing consecutive locations; its degree sequence equals the bin
loads.  Conditioned on being simple it is a uniform simple graph, and
conditioned further on having no complex component it is uniform over graphs
without complex components (hence planar).  ``sample_gnm_arrays`` realises
both conditionings by rejection; a draw has a complex component iff the core
mask of ``graphs.decompose_masks``, peeled from the bin loads, is non-empty.
The acceptance probability is bounded away from zero for simplicity at
m = O(n), but for no complex component only at m <= n/2 + O(n^(2/3)): above
the critical window it tends to zero (2,000 draws at n = 1e4, m = 0.6n, all
fail).

A uniform complex part with a prescribed core is built directly, without
rejection, by attaching a uniform rooted forest to the core's vertices:
``complex_part_arrays`` returns its endpoint arrays, the core's edges first,
and ``complex_part_degrees`` reads its degrees off the forest's codeword.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from degreelab.balls_bins import loads as bin_loads
from degreelab.balls_bins import sample_locations
from degreelab.graphs import SimpleGraph, _edge_arrays, decompose_masks, degree_sequence
from degreelab.pruefer import (
    codeword_degrees,
    decode_arrays,
    sample_codeword,
    validate_forest,
)

REJECT_LOOP = "loop"
REJECT_PARALLEL = "parallel_edge"
REJECT_COMPLEX = "complex_component"

DEFAULT_MAX_ATTEMPTS = 10_000


@dataclass
class RejectionReport:
    """Bookkeeping for one rejection-sampling run."""

    attempts: int = 0
    accepted: bool = False
    reject_reasons: dict[str, int] = field(
        default_factory=lambda: {REJECT_LOOP: 0, REJECT_PARALLEL: 0, REJECT_COMPLEX: 0}
    )


class RejectionLimitError(RuntimeError):
    """Raised when a sampler exhausts its attempt budget; carries the report."""

    def __init__(self, message: str, report: RejectionReport):
        super().__init__(message)
        self.report = report


def sample_gnm_arrays(
    n: int,
    m: int,
    rng: np.random.Generator,
    max_attempts: int = DEFAULT_MAX_ATTEMPTS,
    require_noncomplex: bool = False,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, RejectionReport]:
    """Low-level rejection loop; returns endpoint arrays, loads, and a report.

    Each attempt draws 2m uniform locations and keeps them iff the paired
    multigraph is simple (and, when ``require_noncomplex``, additionally has
    no complex component: ``graphs.decompose_masks``, peeling from the
    returned loads without modifying them, finds an empty core).  Rejection
    reasons are classified in check order: loop, then parallel edge, then
    complex component.  Raises RejectionLimitError once ``max_attempts``
    draws have been rejected.
    """
    if n < 1:
        raise ValueError(f"n must be a positive integer, got {n}")
    if m < 0 or m > n * (n - 1) // 2:
        raise ValueError(f"m must lie in [0, n(n-1)/2], got {m}")
    if require_noncomplex and m > n - 1:
        raise ValueError(
            f"graphs without complex components need m <= n - 1 here, got m={m}"
        )
    if max_attempts < 1:
        raise ValueError(f"max_attempts must be a positive integer, got {max_attempts}")

    report = RejectionReport()
    while report.attempts < max_attempts:
        report.attempts += 1
        entries = sample_locations(n, 2 * m, rng)
        us = entries[0::2]
        vs = entries[1::2]
        if m:
            if np.any(us == vs):
                report.reject_reasons[REJECT_LOOP] += 1
                continue
            lo = np.minimum(us, vs)
            hi = np.maximum(us, vs)
            codes = lo * np.int64(n + 1) + hi
            # A sort, not np.unique: on NumPy >= 2.3 that hashes, ~20x slower.
            codes.sort()
            if np.any(codes[1:] == codes[:-1]):
                report.reject_reasons[REJECT_PARALLEL] += 1
                continue
        loads = bin_loads(entries, n)
        if require_noncomplex and decompose_masks(n, us, vs, loads)[0].any():
            report.reject_reasons[REJECT_COMPLEX] += 1
            continue
        report.accepted = True
        return us, vs, loads, report
    raise RejectionLimitError(
        f"no acceptable sample within {max_attempts} attempts "
        f"(n={n}, m={m}, noncomplex={require_noncomplex})",
        report,
    )


def validate_core(core: SimpleGraph) -> None:
    """Check that a core occupies [1, v] exactly and has minimum degree two.

    A bare cycle, such as a triangle, passes: the graph grafted onto it is
    unicyclic, with an empty decomposition core, and its maximum degree has
    the same law as over any core of minimum degree two."""
    if not core.vertices:
        raise ValueError("the core must have at least one vertex")
    if core.vertices != tuple(range(1, core.order + 1)):
        raise ValueError("the core must occupy the vertex set [1, v(core)] exactly")
    if any(core.degree(v) < 2 for v in core.vertices):
        raise ValueError("every core vertex must have degree at least two")


def _graft(
    core: SimpleGraph, forest_lo: np.ndarray, forest_hi: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Endpoint arrays of the core's edges followed by the forest's."""
    core_us, core_vs = _edge_arrays(core)
    return np.concatenate((core_us, forest_lo)), np.concatenate((core_vs, forest_hi))


def complex_part_degrees(core: SimpleGraph, codeword: np.ndarray) -> np.ndarray:
    """Degree sequence on [q] of the complex part ``codeword`` encodes over
    ``core``, read off the codeword without decoding it.

    The forest's degrees come from ``pruefer.codeword_degrees`` and
    grafting adds each core vertex's core degree.  That is one ``bincount``
    of the q - v entries, where counting the grafted arrays takes 2(q + e(core)).
    """
    v = core.order
    degrees = codeword_degrees(codeword[:-1], int(codeword[-1]), len(codeword) + v, v)
    degrees[:v] += degree_sequence(core)
    return degrees


def complex_part_arrays(
    core: SimpleGraph, q: int, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray]:
    """Endpoint arrays of a uniform graph on [q] whose peeling recovers ``core``.

    Draws a uniform codeword for F(q, v(core)) and grafts the forest it
    encodes onto the core, one root per core vertex: the core's edges come
    first, the forest's follow in the leaf order of ``decode_arrays``.  When
    the core has no bare-cycle component the result is a uniform complex
    graph with that core.
    """
    validate_core(core)
    v = core.order
    if q < v + 1:
        raise ValueError(f"q must be at least v(core) + 1 = {v + 1}, got {q}")
    return _graft(core, *decode_arrays(sample_codeword(q, v, rng), q, v))


def complex_part_from_forest(core: SimpleGraph, forest: SimpleGraph) -> SimpleGraph:
    """Graph obtained by replacing core vertex r by the forest tree rooted at r.

    ``forest`` must lie in F(n, v(core)).  The result lives on [n] and has
    edge set E(core) | E(forest); the degree of a core vertex is its core
    degree plus its forest degree, and other vertices keep their forest
    degree.
    """
    validate_core(core)
    validate_forest(forest, core.order)
    return SimpleGraph.from_arrays(forest.order, *_graft(core, *_edge_arrays(forest)))


def build_complex_part(
    core: SimpleGraph, q: int, rng: np.random.Generator
) -> SimpleGraph:
    """Uniform graph on [q] whose degree-one peeling recovers ``core``.

    The graph of ``complex_part_arrays``, drawn with the same generator use.
    """
    return SimpleGraph.from_arrays(q, *complex_part_arrays(core, q, rng))
