"""
In-memory span tracer for the traced benchmark run.

Wrappers are installed from outside the package, at the module attributes
through which one layer calls another, and removed again when the traced
passes end. Each call records a span ``(name, start, end, parent, op)``;
``op`` is shared by every span of one benchmark operation. Counting work done
for the per-layer counters is recorded as its own ``trace.count`` child span,
so it is never charged to the layer that made the call.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict

COUNT_SPAN = "trace.count"


class Tracer:
    def __init__(self) -> None:
        self.spans: list[tuple[str, float, float, int, int] | None] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.samples: dict[str, list[int]] = defaultdict(list)
        self._stack: list[int] = []
        self._op = -1
        self._patches: list[tuple[object, object, object, bool]] = []

    # -- spans -------------------------------------------------------------

    def _open(self) -> tuple[int, int]:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(None)
        self._stack.append(idx)
        return idx, parent

    def _close(self, idx: int, name: str, start: float, parent: int) -> None:
        end = time.perf_counter()
        self._stack.pop()
        self.spans[idx] = (name, start, end, parent, self._op)

    def operation(self, name: str, fn, *args):
        """Run ``fn(*args)`` as the root span of a new operation."""
        self._op += 1
        idx, parent = self._open()
        start = time.perf_counter()
        try:
            return fn(*args)
        finally:
            self._close(idx, name, start, parent)

    def wrap(self, name: str, fn, count=None):
        """Return ``fn`` wrapped in a span; ``count(tracer, args, result)``
        runs after the span closes, inside a ``trace.count`` span of its own."""

        def traced(*args, **kwargs):
            idx, parent = self._open()
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx, name, start, parent)
            if count is not None:
                cidx, cparent = self._open()
                cstart = time.perf_counter()
                try:
                    count(self, args, result)
                finally:
                    self._close(cidx, COUNT_SPAN, cstart, cparent)
            return result

        traced.__wrapped__ = fn
        return traced

    # -- installation ------------------------------------------------------

    def patch_attr(self, obj, attr: str, name: str, count=None) -> None:
        original = getattr(obj, attr)
        self._patches.append((obj, attr, original, False))
        setattr(obj, attr, self.wrap(name, original, count))

    def patch_item(self, mapping: dict, key: str, name: str, count=None) -> None:
        original = mapping[key]
        self._patches.append((mapping, key, original, True))
        mapping[key] = self.wrap(name, original, count)

    def uninstall(self) -> None:
        for obj, key, original, is_item in reversed(self._patches):
            if is_item:
                obj[key] = original
            else:
                setattr(obj, key, original)
        self._patches.clear()

    # -- analysis ----------------------------------------------------------

    def closed_spans(self) -> list[tuple[str, float, float, int, int]]:
        if self._stack:
            raise RuntimeError("spans still open")
        return self.spans  # type: ignore[return-value]

    def _self_times(self) -> list[float]:
        """Each span's duration minus the time covered by its direct children."""
        spans = self.closed_spans()
        own = [end - start for _, start, end, _, _ in spans]
        for _, start, end, parent, _ in spans:
            if parent >= 0:
                own[parent] -= end - start
        return own

    def self_times(self) -> dict[str, float]:
        """Seconds of self time per span name."""
        out: dict[str, float] = defaultdict(float)
        for span, own in zip(self.closed_spans(), self._self_times()):
            out[span[0]] += own
        return dict(out)

    def per_operation(self) -> list[tuple[float, float]]:
        """(root duration, sum of self times of all its spans) per operation."""
        ops: dict[int, list[float]] = {}
        for (_, start, end, parent, op), own in zip(self.closed_spans(), self._self_times()):
            entry = ops.setdefault(op, [0.0, 0.0])
            if parent < 0:
                entry[0] += end - start
            entry[1] += own
        return [(d, s) for d, s in ops.values()]

    def write(self, path: str) -> None:
        """One JSON array per line: name, start, end, parent, op."""
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.closed_spans():
                fh.write(json.dumps(span) + "\n")
