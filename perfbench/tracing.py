"""Span recorder that wraps fraclap's public functions from outside.

`Tracer.install` replaces each function named in `WRAPPED` in every
``fraclap`` namespace that holds it (``fraclap.cli`` and ``fraclap.decay``,
for example, import ``matfun`` names directly), and wraps
``superdiff.LatticeSolution.__call__`` as the span
``superdiff.lattice_solution``.  Every wrapped call records a span with
its parent; the workload loop opens one root span per operation.  Spans
stay in memory until `Tracer.take` hands them over.  A keyed span keeps a
reference to its input, and `Tracer.take` hashes it after the pass, so
that no span's time includes the hashing.
"""

from __future__ import annotations

import functools
import hashlib
import importlib
import os
import time
from collections import defaultdict

import numpy as np

WRAPPED = {
    "graphs": ("load_edge_list", "build_laplacian"),
    "matfun": ("schur_spectral_data", "fractional_power_general",
               "symmetric_spectral_data", "fractional_power_symmetric",
               "exp_fractional_symmetric", "matrix_exponential"),
    "decay": ("pattern_distances", "verify_decay_bounds",
              "verify_p_alpha_bound", "numerical_range_profile"),
    "walks": ("transition_kernel", "simulate_discrete",
              "absorption_time_samples", "evolve_continuous",
              "return_probability"),
    "superdiff": ("fwhm", "stable_density"),
    "consensus": ("gamma_lower_bound", "simulate_consensus"),
    "io": ("write_table_csv", "write_matrix_csv", "write_json"),
    "cli": ("cli_dispatch",),
}
LATTICE_SPAN = "superdiff.lattice_solution"
# spans whose distinct inputs (array bytes plus alpha) are counted
KEYED = ("matfun.fractional_power_general", "decay.pattern_distances")
MODULES = ("fraclap",) + tuple(f"fraclap.{m}" for m in WRAPPED)


def _input_key(args, kwargs):
    matrix = np.ascontiguousarray(getattr(args[0], "matrix", args[0]))
    alpha = args[1] if len(args) > 1 else kwargs.get("alpha")
    digest = hashlib.sha1(matrix.tobytes())
    digest.update(repr((matrix.shape, alpha)).encode())
    return digest.hexdigest()


class Span:
    __slots__ = ("name", "parent", "start", "end", "inputs", "key", "points",
                 "bytes")

    def __init__(self, name, parent):
        self.name = name
        self.parent = parent
        self.start = time.perf_counter()
        self.end = None
        self.inputs = None
        self.key = None
        self.points = 0
        self.bytes = 0


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self._open: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    def begin(self, name) -> Span:
        span = Span(name, self._open[-1] if self._open else None)
        self._open.append(len(self.spans))
        self.spans.append(span)
        return span

    def finish(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._open.pop()

    def take(self) -> list[Span]:
        """Return the finished spans, with their input keys, and start a
        fresh list."""
        spans, self.spans = self.spans, []
        for span in spans:
            if span.inputs is not None:
                span.key = _input_key(*span.inputs)
                span.inputs = None
        return spans

    def _wrap(self, fn, name):
        keyed = name in KEYED
        writes = name.startswith("io.")

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = self.begin(name)
            if keyed:
                span.inputs = (args, kwargs)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.finish(span)
            if writes:
                span.bytes = os.path.getsize(args[0])
            return result
        return wrapper

    def _wrap_lattice_call(self, fn):
        @functools.wraps(fn)
        def wrapper(solution, t, z):
            span = self.begin(LATTICE_SPAN)
            span.points = int(np.size(z))
            try:
                return fn(solution, t, z)
            finally:
                self.finish(span)
        return wrapper

    def install(self) -> "Tracer":
        originals = {}
        for short, names in WRAPPED.items():
            mod = importlib.import_module(f"fraclap.{short}")
            for name in names:
                fn = getattr(mod, name)
                originals[id(fn)] = (fn, self._wrap(fn, f"{short}.{name}"))
        for modname in MODULES:
            mod = importlib.import_module(modname)
            for attr, value in list(vars(mod).items()):
                if id(value) in originals and originals[id(value)][0] is value:
                    self._restore.append((mod, attr, value))
                    setattr(mod, attr, originals[id(value)][1])
        cls = importlib.import_module("fraclap.superdiff").LatticeSolution
        self._restore.append((cls, "__call__", cls.__call__))
        cls.__call__ = self._wrap_lattice_call(cls.__call__)
        return self

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, value = self._restore.pop()
            setattr(owner, attr, value)


def layer_totals(spans):
    """Per span name: calls, self seconds, distinct input keys, points and
    bytes written.  Self time is a span's duration minus the durations of
    its child spans, which run one after another and so never overlap."""
    child = defaultdict(float)
    for s in spans:
        if s.parent is not None:
            child[s.parent] += s.end - s.start
    calls = defaultdict(int)
    self_s = defaultdict(float)
    keys = defaultdict(set)
    points = defaultdict(int)
    written = defaultdict(int)
    for i, s in enumerate(spans):
        calls[s.name] += 1
        self_s[s.name] += (s.end - s.start) - child[i]
        if s.key is not None:
            keys[s.name].add(s.key)
        points[s.name] += s.points
        written[s.name] += s.bytes
    return calls, self_s, keys, points, written


def layer_metrics(spans):
    """The per-layer metrics of one pass, by metric name."""
    calls, self_s, keys, points, written = layer_totals(spans)
    out = {}
    for name in list(calls):
        if name.startswith("op."):
            continue
        out[f"{name}.calls"] = calls[name]
        out[f"{name}.self_s"] = self_s[name]
        if name in KEYED:
            out[f"{name}.repeat_ratio"] = calls[name] / len(keys[name])
        if name == LATTICE_SPAN:
            out[f"{name}.points"] = points[name]
    out["io.bytes_written"] = sum(v for k, v in written.items()
                                  if k.startswith("io."))
    return out


def spans_json(spans):
    return [{"name": s.name, "parent": s.parent, "start": s.start,
             "end": s.end} for s in spans]
