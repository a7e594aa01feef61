"""Spans around the benchmark's calls into the tileatlas layers.

A span is recorded for each call the benchmark makes into a public function
of a tileatlas module.  Spans stay in memory and are written out when the
benchmark ends.  The library itself is not instrumented: a call into `cli.main`
is one span, whatever it calls inside.
"""

from __future__ import annotations

import json
from contextlib import contextmanager
from time import perf_counter
from types import SimpleNamespace

import tileatlas
import tileatlas.cli


def _contains(atlas, corona):
    """`corona in atlas`, as a function so that it can carry a span."""
    return corona in atlas


def public_functions():
    """(span name, function) for every public function the benchmark calls.

    The span name is `<module>.<function>`, and the module is the layer.
    """
    out = {}
    for name in tileatlas.__all__:
        fn = getattr(tileatlas, name)
        if callable(fn) and not isinstance(fn, type):
            out[name] = (f"{fn.__module__.rsplit('.', 1)[1]}.{name}", fn)
    out["main"] = ("cli.main", tileatlas.cli.main)
    out["atlas_contains"] = ("atlas.__contains__", _contains)
    return out


def plain_api():
    """The public functions, called directly."""
    return SimpleNamespace(**{k: fn for k, (_, fn) in public_functions().items()})


class Tracer:
    """Records (name, start, end, parent, op) spans in memory."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent index or -1, op]
        self._stack = []
        self.op = -1

    def _open(self, name):
        parent = self._stack[-1] if self._stack else -1
        span = [name, perf_counter(), 0.0, parent, self.op]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        return span

    def _close(self, span):
        span[2] = perf_counter()
        self._stack.pop()

    def wrap(self, name, fn):
        def traced(*args, **kwargs):
            span = self._open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(span)
        return traced

    def api(self):
        """The public functions, each call recorded as a span."""
        return SimpleNamespace(**{k: self.wrap(name, fn) for k, (name, fn)
                                  in public_functions().items()})

    @contextmanager
    def root(self, name, op):
        """The span of one benchmark op; the layer spans are its children."""
        self.op = op
        span = self._open(name)
        try:
            yield
        finally:
            self._close(span)

    def self_times(self):
        """Seconds per span name, less the time covered by child spans."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = {}
        for (name, start, end, _, _), covered in zip(self.spans, child):
            out[name] = out.get(name, 0.0) + (end - start - covered)
        return out

    def call_counts(self):
        out = {}
        for span in self.spans:
            out[span[0]] = out.get(span[0], 0) + 1
        return out

    def write(self, path):
        with open(path, "w") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "op"],
                       "spans": self.spans}, fh)
