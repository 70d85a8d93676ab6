"""The benchmark's tracer must find every degreelab name it wraps.

``perfbench/tracing.py`` wraps module-level functions by name, patches
three ``SimpleGraph`` attributes and reads fields of the results it counts.
Installing and removing it here makes a deleted or retyped name fail the
test suite, not only the benchmark's traced pass.  The ``enumeration``
workload clears the caches of the two exhaustive tables before every round,
so their ``cache_clear`` hooks are checked here as well.
"""

from __future__ import annotations

import functools
import importlib.util
import inspect
import sys
from pathlib import Path

import numpy as np
import pytest

import degreelab.cli  # imports every module the tracer wraps
from degreelab import dense_ops, graphs, samplers
from degreelab.graphs import SimpleGraph
from degreelab.rng import derive_rng

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"

GRAPH_HOOKS = ("__post_init__", "from_arrays", "adjacency")


def load_tracing(monkeypatch):
    """``perfbench/tracing.py`` as a module, loaded by path without writing bytecode."""
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def bindings() -> dict[tuple[str, str], object]:
    """Every module-level binding in the loaded degreelab modules."""
    return {
        (name, attr): value
        for name, module in list(sys.modules.items())
        if name.startswith("degreelab") and module
        for attr, value in vars(module).items()
    }


def same_objects(a: dict, b: dict) -> bool:
    return a.keys() == b.keys() and all(a[key] is b[key] for key in a)


def test_tracer_wraps_and_restores_every_hook(monkeypatch):
    tracing = load_tracing(monkeypatch)
    layers = [
        (module_name, name)
        for module_name, names, _ in tracing.FUNCTION_LAYERS
        for name in names
    ]
    for module_name, name in layers:
        assert callable(getattr(sys.modules[module_name], name, None)), name
    hooks = {attr: SimpleGraph.__dict__[attr] for attr in GRAPH_HOOKS}
    assert inspect.isfunction(hooks["__post_init__"])
    assert isinstance(hooks["from_arrays"], classmethod)
    assert isinstance(hooks["adjacency"], functools.cached_property)

    before = bindings()
    tracer = tracing.Tracer()
    try:
        tracer.install()
        during = bindings()
        for key in layers:
            assert during[key] is not before[key], key
        for attr, original in hooks.items():
            assert SimpleGraph.__dict__[attr] is not original, attr
    finally:
        tracer.uninstall()

    assert same_objects(bindings(), before)
    for attr, original in hooks.items():
        assert SimpleGraph.__dict__[attr] is original, attr


def test_tracer_reads_the_fields_it_counts(monkeypatch):
    # The tracer counts RejectionReport.attempts, .accepted and
    # .reject_reasons of every G(n, m) run, returned or raised, and
    # RatioCheck.vacuous of every sweep.  Real sweeps on n <= 7 are empty,
    # so a two-key table gives one nonempty and one vacuous check.
    table = {(5, 1, 2, 3): (4, 3), (6, 4, 0, 4): (1, 1)}
    monkeypatch.setattr(dense_ops, "classify_all_graphs", lambda n: table)
    tracing = load_tracing(monkeypatch)
    tracer = tracing.Tracer()
    try:
        tracer.install()
        tracer.active = True
        _, _, _, report = samplers.sample_gnm_arrays(10, 5, derive_rng(1, 0))
        with pytest.raises(samplers.RejectionLimitError) as failed:
            samplers.sample_gnm_arrays(10, 40, derive_rng(1, 0), max_attempts=1)
        checks = dense_ops.sweep_ratio_bounds(7)
    finally:
        tracer.uninstall()

    reports = (report, failed.value.report)
    assert [r.accepted for r in reports] == [True, False]
    assert [c.vacuous for c in checks] == [False, True]
    counts = tracer.counts
    assert counts["samplers.attempts"] == sum(r.attempts for r in reports)
    assert counts["samplers.accepted"] == 1
    for reason in report.reject_reasons:
        total = sum(r.reject_reasons[reason] for r in reports)
        assert counts[f"samplers.reject.{reason}"] == total
    assert (counts["dense_ops.checks"], counts["dense_ops.vacuous"]) == (2, 1)


def test_tracer_counts_cli_layers_after_the_parser_is_built(monkeypatch, tmp_path, capsys):
    # The parser is built on the first ``main`` call and kept.  If it bound a
    # library function, the tracer installed after that call could not wrap it.
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text('{"experiment": "bins_concentration", "n": 10, "trials": 2}')
    argv = [
        "experiment", "run", "--config", str(cfg_path),
        "--out", str(tmp_path / "out.csv"), "--jobs", "1",
    ]
    assert degreelab.cli.main(argv) == 0
    tracing = load_tracing(monkeypatch)
    tracer = tracing.Tracer()
    try:
        tracer.install()
        tracer.active = True
        assert degreelab.cli.main(argv) == 0
    finally:
        tracer.uninstall()

    calls, _ = tracer.self_times()
    layers = ("cli.main", "harness.run_experiment", "harness.emit")
    assert {layer: calls[layer] for layer in layers} == dict.fromkeys(layers, 1)


@pytest.mark.parametrize(
    "table, same",
    [
        (graphs.planarity_table, np.array_equal),
        (dense_ops.classify_all_graphs, lambda a, b: dict(a) == dict(b)),
    ],
)
def test_cleared_table_rebuilds_equal(table, same):
    cached = table(7)
    assert callable(getattr(table, "cache_clear", None))
    table.cache_clear()
    rebuilt = table(7)
    assert rebuilt is not cached
    assert same(rebuilt, cached)
    assert table(7) is rebuilt
