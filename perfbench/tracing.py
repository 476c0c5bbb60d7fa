"""Span tracing around permorb's public functions, installed from outside.

``Tracer`` keeps an aggregated span tree in memory: one record per
(op id, span name, parent span name) holding the call count, the summed
duration and the summed duration of direct child spans, so a span's self
time is ``total_s - child_s``.  ``installed`` rebinds every public function
of the permorb layer modules -- in every permorb namespace that holds it --
plus the numpy/scipy kernels the layers call, and restores the originals on
exit.  The program's source is never edited.

Only the benchmark's own process is traced: spans inside pool workers are
not collected.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import time

# Modules whose public functions are wrapped; cli has no __all__, so its
# entry point is named explicitly.
LAYERS = ("core", "embeddings", "metrics", "constructions", "audit", "separation", "tables", "cli")
_PUBLIC_OVERRIDE = {"cli": ("main",)}


class Tracer:
    """Aggregated span tree of wrapped calls, keyed by the current op id."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.op = None  # spans outside an op are not recorded
        self._stack: list[list] = []  # frames: [name, start, child_s]
        self.records: dict[tuple, list] = {}  # (op, name, parent) -> [calls, total_s, child_s]

    # -- spans ------------------------------------------------------------

    def enter(self, name: str) -> None:
        self._stack.append([name, self.clock(), 0.0])

    def exit(self) -> None:
        name, start, child_s = self._stack.pop()
        duration = self.clock() - start
        parent = self._stack[-1][0] if self._stack else None
        if self._stack:
            self._stack[-1][2] += duration
        if self.op is None:
            return
        rec = self.records.setdefault((self.op, name, parent), [0, 0.0, 0.0])
        rec[0] += 1
        rec[1] += duration
        rec[2] += child_s

    def wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            self.enter(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.exit()

        return traced

    # -- summaries --------------------------------------------------------

    def totals(self, ops=None) -> dict[str, dict[str, float]]:
        """Per span name: calls, total_s and self_s, over ``ops`` (default all)."""
        out: dict[str, dict[str, float]] = {}
        for (op, name, _parent), (calls, total_s, child_s) in self.records.items():
            if ops is not None and op not in ops:
                continue
            agg = out.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            agg["calls"] += calls
            agg["total_s"] += total_s
            agg["self_s"] += total_s - child_s
        return out

    def dump(self) -> list[list]:
        return [[op, name, parent, *rec] for (op, name, parent), rec in sorted(
            self.records.items(), key=lambda item: (str(item[0][0]), item[0][1], str(item[0][2]))
        )]


def _targets():
    """(span name, namespace, attribute) for every function to wrap."""
    import importlib

    import numpy

    modules = {layer: importlib.import_module(f"permorb.{layer}") for layer in LAYERS}
    namespaces = [importlib.import_module("permorb"), *modules.values()]
    out = []
    for layer, module in modules.items():
        names = _PUBLIC_OVERRIDE.get(layer, getattr(module, "__all__", ()))
        for attr in names:
            fn = getattr(module, attr)
            if not inspect.isfunction(fn) or fn.__module__ != module.__name__:
                continue
            out.extend(
                (f"{layer}.{attr}", ns, attr) for ns in namespaces if ns.__dict__.get(attr) is fn
            )
    out += [
        ("kernel.svd", numpy.linalg, "svd"),
        ("kernel.sort", numpy, "sort"),
        ("kernel.lsap", modules["metrics"], "linear_sum_assignment"),
    ]
    return out


@contextlib.contextmanager
def installed(tracer: Tracer):
    """Wrap every target for the duration of the block, then restore it."""
    saved = []
    try:
        for name, ns, attr in _targets():
            original = getattr(ns, attr)
            saved.append((ns, attr, original))
            setattr(ns, attr, tracer.wrap(name, original))
        yield tracer
    finally:
        for ns, attr, original in reversed(saved):
            setattr(ns, attr, original)
