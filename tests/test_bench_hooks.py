"""The benchmark's tracer must find every degreelab name it wraps.

``perfbench/tracing.py`` wraps module-level functions by name and patches
three ``SimpleGraph`` attributes.  Installing and removing it here makes a
deleted or retyped name fail the test suite, not only the benchmark's
traced pass.
"""

from __future__ import annotations

import functools
import importlib.util
import inspect
import sys
from pathlib import Path

import degreelab.cli  # noqa: F401  (imports every module the tracer wraps)
from degreelab.graphs import SimpleGraph

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
