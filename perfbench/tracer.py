"""Spans and counters recorded from outside the library.

The benchmark wraps its own calls into fracheat's public functions in
spans, and wraps the callables it hands to the library (u, f, lateral,
initial, K) so that every call made back into them is a child span.  Spans
stay in memory and are written out when the run ends.

A disabled tracer hands back the callables unchanged and a shared no-op
context, so an untraced pass runs exactly the calls an unwrapped script
would.
"""

from __future__ import annotations

import contextlib
import time
from collections import defaultdict

_NULL = contextlib.nullcontext()


class Tracer:
    """Span recorder: each span is (id, parent id, name, start, end)."""

    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans: list[tuple] = []
        self.counts: dict[str, float] = defaultdict(float)
        self._stack: list[int] = []

    def span(self, name: str):
        return self._span(name) if self.enabled else _NULL

    @contextlib.contextmanager
    def _span(self, name: str):
        sid = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(None)
        self._stack.append(sid)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans[sid] = (sid, parent, name, start, end)

    def wrap(self, fn, name: str, points=None):
        """fn itself when disabled; otherwise fn inside a span named `name`,
        adding points(*args) to the count `name + '.points'` when given."""
        if not self.enabled:
            return fn

        def wrapped(*args, **kwargs):
            if points is not None:
                self.counts[name + ".points"] += points(*args)
            with self._span(name):
                return fn(*args, **kwargs)
        return wrapped

    def summary(self) -> dict:
        """Per span name: total time and calls; per layer (the name's first
        component): self time, a span's duration minus the durations of its
        direct children; per (parent name, child name): time and calls."""
        child = defaultdict(float)
        for sid, parent, name, start, end in self.spans:
            if parent >= 0:
                child[parent] += end - start
        total = defaultdict(float)
        calls = defaultdict(int)
        layer_self = defaultdict(float)
        within = defaultdict(lambda: [0.0, 0])
        for sid, parent, name, start, end in self.spans:
            dur = end - start
            total[name] += dur
            calls[name] += 1
            layer_self[name.split(".")[0]] += dur - child[sid]
            if parent >= 0:
                acc = within[(self.spans[parent][2], name)]
                acc[0] += dur
                acc[1] += 1
        return {"total": dict(total), "calls": dict(calls),
                "layer_self": dict(layer_self), "within": dict(within)}

    def to_json(self) -> dict:
        return {"spans": [list(sp) for sp in self.spans],
                "fields": ["id", "parent", "name", "start_s", "end_s"],
                "counts": dict(self.counts)}
