"""Span tracer that wraps degreelab's public functions from outside the library.

Each wrapped call records a span: its layer, start, end and parent span.  A
layer's self time is the sum over its spans of the duration minus the part
covered by child spans.  Modules import functions by name (``harness`` binds
``graphs.decompose``, for example), so a wrapper replaces the function in
every ``degreelab`` module that binds it.  A call made directly inside a span
of the same layer opens no new span, so chained solves count once.

Counts are taken at the same boundaries: the per-reason rejection counts of
every ``RejectionReport`` that ``sample_gnm_arrays`` returns or raises, the
checks of a ratio sweep, and the bytes that ``emit`` writes.  Garbage
collection pauses come from ``gc.callbacks``; they fall inside whatever span
is open, so they are reported beside the layers and not added to them.
"""

from __future__ import annotations

import functools
import gc
import inspect
import os
import sys
import time
from collections import Counter
from contextlib import contextmanager
from typing import Any, Callable

from degreelab.graphs import SimpleGraph

#: (module, function names, layer) for every wrapped module-level function.
FUNCTION_LAYERS = (
    (
        "degreelab.concentration",
        ("concentration_point", "balanced_concentration", "predicted_interval_sparse"),
        "concentration",
    ),
    ("degreelab.balls_bins", ("sample_locations", "loads", "max_load"), "balls_bins"),
    ("degreelab.pruefer", ("decode",), "pruefer.decode"),
    ("degreelab.pruefer", ("sample_uniform_forest",), "pruefer.sample_uniform_forest"),
    ("degreelab.pruefer", ("sample_forest_degrees",), "pruefer.sample_forest_degrees"),
    ("degreelab.samplers", ("sample_gnm_arrays",), "samplers.sample_gnm_arrays"),
    (
        "degreelab.samplers",
        ("complex_part_from_forest", "build_complex_part"),
        "samplers.complex_part",
    ),
    ("degreelab.graphs", ("max_degree",), "graphs.max_degree"),
    ("degreelab.graphs", ("peeled_core",), "graphs.peeled_core"),
    ("degreelab.graphs", ("two_core",), "graphs.two_core"),
    ("degreelab.graphs", ("components",), "graphs.components"),
    ("degreelab.graphs", ("induced_subgraph",), "graphs.induced_subgraph"),
    ("degreelab.graphs", ("decompose",), "graphs.decompose"),
    ("degreelab.graphs", ("planarity_table",), "graphs.planarity_table"),
    ("degreelab.dense_ops", ("classify_all_graphs",), "dense_ops.classify_all_graphs"),
    ("degreelab.dense_ops", ("sweep_ratio_bounds",), "dense_ops.sweep_ratio_bounds"),
    ("degreelab.harness", ("run_experiment",), "harness.run_experiment"),
    ("degreelab.harness", ("emit",), "harness.emit"),
    ("degreelab.cli", ("main",), "cli.main"),
)


def _count_rejections(counts: Counter, args, kwargs, result, error) -> None:
    report = result[3] if error is None else getattr(error, "report", None)
    if report is None:
        return
    counts["samplers.attempts"] += report.attempts
    counts["samplers.accepted"] += int(report.accepted)
    for reason, n in report.reject_reasons.items():
        counts[f"samplers.reject.{reason}"] += n


def _count_checks(counts: Counter, args, kwargs, result, error) -> None:
    if error is None:
        counts["dense_ops.checks"] += len(result)
        counts["dense_ops.vacuous"] += sum(1 for check in result if check.vacuous)


def _emit_observer(fn: Callable) -> Callable:
    signature = inspect.signature(fn)

    def observe(counts: Counter, args, kwargs, result, error) -> None:
        if error is None:
            path = signature.bind(*args, **kwargs).arguments["path"]
            counts["harness.emit.bytes"] += os.path.getsize(path)

    return observe


class Tracer:
    """In-memory spans and counts; records only while ``active``."""

    def __init__(self) -> None:
        self.active = False
        self.spans: list[list[Any]] = []  # [layer, start, end, parent index]
        self.stack: list[int] = []
        self.counts: Counter = Counter()
        self.gc_pause_s = 0.0
        self._gc_start: float | None = None
        self._restore: list[Callable[[], None]] = []

    def reset(self) -> None:
        self.spans.clear()
        self.stack.clear()
        self.counts.clear()
        self.gc_pause_s = 0.0
        self._gc_start = None

    def _open(self, layer: str) -> int:
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([layer, time.perf_counter(), 0.0, parent])
        index = len(self.spans) - 1
        self.stack.append(index)
        return index

    def _close(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter()
        self.stack.pop()

    @contextmanager
    def span(self, layer: str):
        index = self._open(layer)
        try:
            yield
        finally:
            self._close(index)

    def wrap(self, layer: str, fn: Callable, observe: Callable | None = None) -> Callable:
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            nested = tracer.stack and tracer.spans[tracer.stack[-1]][0] == layer
            if not tracer.active or nested:
                return fn(*args, **kwargs)
            index = tracer._open(layer)
            try:
                result = fn(*args, **kwargs)
            except Exception as err:
                tracer._close(index)
                if observe:
                    observe(tracer.counts, args, kwargs, None, err)
                raise
            tracer._close(index)
            if observe:
                observe(tracer.counts, args, kwargs, result, None)
            return result

        return traced

    def _on_gc(self, phase: str, info: dict) -> None:
        if not self.active:
            return
        if phase == "start":
            self._gc_start = time.perf_counter()
        elif self._gc_start is not None:
            self.gc_pause_s += time.perf_counter() - self._gc_start
            self._gc_start = None
            if info.get("generation") == 2:
                self.counts["python.gc_gen2_collections"] += 1

    def install(self) -> None:
        """Wrap every layer function wherever a degreelab module binds it."""
        modules = [m for name, m in sys.modules.items() if name.startswith("degreelab") and m]
        for module_name, names, layer in FUNCTION_LAYERS:
            home = sys.modules[module_name]
            for name in names:
                original = getattr(home, name)
                observe = None
                if layer == "samplers.sample_gnm_arrays":
                    observe = _count_rejections
                elif layer == "dense_ops.sweep_ratio_bounds":
                    observe = _count_checks
                elif layer == "harness.emit":
                    observe = _emit_observer(original)
                wrapper = self.wrap(layer, original, observe)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            setattr(module, attr, wrapper)
                            undo = functools.partial(setattr, module, attr, original)
                            self._restore.append(undo)

        # SimpleGraph construction: the dataclass __init__ calls __post_init__,
        # and from_arrays builds without it; adjacency is a cached_property.
        for attr in ("__post_init__", "from_arrays", "adjacency"):
            original = SimpleGraph.__dict__[attr]
            if attr == "from_arrays":
                replacement = classmethod(self.wrap("graphs.build", original.__func__))
            elif attr == "adjacency":
                wrapped = self.wrap("graphs.adjacency", original.func)
                replacement = functools.cached_property(wrapped)
                replacement.__set_name__(SimpleGraph, attr)
            else:
                replacement = self.wrap("graphs.build", original)
            setattr(SimpleGraph, attr, replacement)
            self._restore.append(functools.partial(setattr, SimpleGraph, attr, original))

        gc.callbacks.append(self._on_gc)
        self._restore.append(functools.partial(gc.callbacks.remove, self._on_gc))

    def uninstall(self) -> None:
        self.active = False
        while self._restore:
            self._restore.pop()()

    def span_cost_s(self, calls: int = 20_000) -> float:
        """Measured cost of one span: a wrapped no-op minus the bare no-op."""

        def noop() -> None:
            return None

        wrapped = self.wrap("trace.calibration", noop)
        saved = (self.active, len(self.spans))
        self.active = True
        start = time.perf_counter()
        for _ in range(calls):
            wrapped()
        traced = time.perf_counter() - start
        start = time.perf_counter()
        for _ in range(calls):
            noop()
        bare = time.perf_counter() - start
        self.active = saved[0]
        del self.spans[saved[1]:]
        return max(traced - bare, 0.0) / calls

    def self_times(self) -> tuple[Counter, Counter]:
        """Spans and self seconds per layer, from the recorded spans."""
        covered = [0.0] * len(self.spans)
        for layer, start, end, parent in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        calls: Counter = Counter()
        self_s: Counter = Counter()
        for (layer, start, end, _), child in zip(self.spans, covered):
            calls[layer] += 1
            self_s[layer] += (end - start) - child
        return calls, self_s
