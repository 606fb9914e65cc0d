"""The benchmark under ``perfbench/`` wraps fraclap functions by name.

Deleting or renaming one of them breaks the benchmark; these checks make
that show in the library's own suite.  ``perfbench/tracing.py`` is
imported without writing bytecode next to it.
"""

import importlib
import importlib.util
import inspect
import sys
from pathlib import Path

_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _tracing(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location("perfbench_tracing", _PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_wrapped_name_resolves(monkeypatch):
    tracing = _tracing(monkeypatch)
    missing = [f"{module}.{name}"
               for module, names in tracing.WRAPPED.items()
               for name in names
               if not callable(getattr(importlib.import_module(
                   f"fraclap.{module}"), name, None))]
    assert missing == []


def test_cli_keeps_the_general_power_attribute():
    # perfbench's wrapper-count test reads it on the cli module
    from fraclap import cli, matfun
    assert cli.fractional_power_general is matfun.fractional_power_general


def test_lattice_call_keeps_the_traced_signature(monkeypatch):
    # the tracer also replaces LatticeSolution.__call__ with a
    # wrapper(solution, t, z), which WRAPPED does not name
    from fraclap.superdiff import LatticeSolution
    params = inspect.signature(LatticeSolution.__call__).parameters.values()
    assert [(p.name, p.kind, p.default) for p in params] == [
        (name, inspect.Parameter.POSITIONAL_OR_KEYWORD, inspect.Parameter.empty)
        for name in ("self", "t", "z")]
    tracing = _tracing(monkeypatch)
    tracer = tracing.Tracer().install()
    try:
        LatticeSolution(0.5, "undirected")(10.0, [0.0, 1.0, 2.0])
    finally:
        tracer.uninstall()
    [span] = tracer.take()
    assert span.name == tracing.LATTICE_SPAN and span.points == 3
