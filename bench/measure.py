"""Timing primitives of the benchmark.

Percentiles follow the tail rule: a percentile is reported only when at
least ``TAIL_MIN_BEYOND`` samples lie beyond it, because a tail drawn
from fewer samples is noise.  Spans are kept in memory while a traced
run executes and written out once at the end; a span's self time is its
duration minus the part of that interval its child spans cover.
"""

from __future__ import annotations

import functools
import json
import math
import statistics
import time
import tracemalloc
from dataclasses import asdict, dataclass, field

TAIL_MIN_BEYOND = 10


def percentile(samples, q: float) -> float:
    """Nearest-rank ``q``-th percentile (``0 < q <= 100``) of a non-empty sequence."""
    ordered = sorted(samples)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1]


def tail_percentile(samples, q: float) -> float | None:
    """The ``q``-th percentile, or None when fewer than ten samples lie beyond it."""
    if not samples:
        return None
    value = percentile(samples, q)
    beyond = sum(1 for x in samples if x > value)
    return value if beyond >= TAIL_MIN_BEYOND else None


def median(samples) -> float:
    return float(statistics.median(samples)) if samples else 0.0


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    request: int
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class SpanRecorder:
    """Records one span per call of each wrapped function.

    ``request`` is set by the caller before each operation, so all spans
    of one operation share it.  Parents are indices into ``spans``.
    """

    def __init__(self):
        self.spans: list[Span] = []
        self.request = 0
        self._stack: list[int] = []

    @property
    def open_span(self) -> Span | None:
        """The innermost span still running, if any."""
        return self.spans[self._stack[-1]] if self._stack else None

    def wrap(self, fn, name: str, attrs=None, alloc: bool = False):
        """Return ``fn`` wrapped in a span named ``name``.

        ``attrs(result)`` may return a dict stored on the span; with
        ``alloc`` the span records the ``tracemalloc`` peak of the call
        in MB, tracing allocations only while the call runs.
        """

        def traced(*args, **kwargs):
            index = len(self.spans)
            span = Span(name, 0.0, 0.0, self._stack[-1] if self._stack else None, self.request)
            self.spans.append(span)
            self._stack.append(index)
            if alloc:
                tracemalloc.start()
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
                if alloc:
                    span.attrs["peak_alloc_mb"] = tracemalloc.get_traced_memory()[1] / 2**20
                    tracemalloc.stop()
            if attrs is not None:
                span.attrs.update(attrs(result))
            return result

        return functools.update_wrapper(traced, fn, updated=())

    def counter(self, fn, key: str):
        """Return ``fn`` wrapped to count its calls on the innermost open span."""

        def counted(*args, **kwargs):
            if self._stack:
                attrs = self.open_span.attrs
                attrs[key] = attrs.get(key, 0) + 1
            return fn(*args, **kwargs)

        return functools.update_wrapper(counted, fn, updated=())

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(asdict(span)) + "\n")


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the union of its children's intervals."""
    children: dict[int, list[Span]] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append(span)
    out = []
    for index, span in enumerate(spans):
        covered = 0.0
        cursor = span.start
        for child in sorted(children.get(index, ()), key=lambda s: s.start):
            lo, hi = max(child.start, cursor), min(child.end, span.end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out.append(span.duration - covered)
    return out
