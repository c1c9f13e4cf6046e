"""Spans recorded by the benchmark around its calls into the library.

A span has a name, a start and an end (``time.perf_counter`` seconds), the
index of its parent span and the id of the operation it belongs to.  Spans
stay in memory and are written out once, after the run.  With tracing off
the benchmark uses :data:`NO_TRACE`, whose spans record nothing.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict


class Tracer:
    def __init__(self):
        self.spans = []  # dicts: name, start, end, parent, op
        self._stack = []

    def span(self, name, op):
        return _Span(self, name, op)

    def self_times(self):
        """Seconds per span name, each span minus the time its children cover."""
        child_time = defaultdict(float)
        for span in self.spans:
            if span["parent"] is not None:
                child_time[span["parent"]] += span["end"] - span["start"]
        totals = defaultdict(float)
        for index, span in enumerate(self.spans):
            totals[span["name"]] += span["end"] - span["start"] - child_time[index]
        return totals

    def write(self, path):
        with open(path, "w", encoding="utf-8") as handle:
            for index, span in enumerate(self.spans):
                handle.write(json.dumps({"id": index, **span}) + "\n")


class _Span:
    __slots__ = ("tracer", "record")

    def __init__(self, tracer, name, op):
        stack = tracer._stack
        self.tracer = tracer
        self.record = {"name": name, "start": 0.0, "end": 0.0,
                       "parent": stack[-1] if stack else None, "op": op}

    def __enter__(self):
        tracer = self.tracer
        tracer._stack.append(len(tracer.spans))
        tracer.spans.append(self.record)
        self.record["start"] = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.record["end"] = time.perf_counter()
        self.tracer._stack.pop()
        return False


class _NoSpan:
    __slots__ = ()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False


class _NoTrace:
    spans = ()
    _span = _NoSpan()

    def span(self, name, op):
        return self._span


NO_TRACE = _NoTrace()
