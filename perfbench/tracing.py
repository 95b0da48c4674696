"""In-memory spans recorded by the benchmark around public knotfield calls.

Spans live in a list for the whole run and are written out once, when the
run ends, so recording one costs two clock reads and a list append.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None      # index of the enclosing span in Tracer.spans
    job: int

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Nested spans of one thread, each tagged with the job that caused it."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str, job: int):
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        record = Span(name, time.perf_counter(), 0.0, parent, job)
        self.spans.append(record)
        self._stack.append(index)
        try:
            yield record
        finally:
            record.end = time.perf_counter()
            self._stack.pop()

    def children(self) -> dict[int, list[Span]]:
        kids: dict[int, list[Span]] = {}
        for s in self.spans:
            if s.parent is not None:
                kids.setdefault(s.parent, []).append(s)
        return kids

    def self_times(self) -> list[float]:
        """Each span's duration minus the part its children cover."""
        kids = self.children()
        return [s.duration - _covered(kids.get(i, ())) for i, s in enumerate(self.spans)]

    def durations(self, name: str) -> list[float]:
        return [s.duration for s in self.spans if s.name == name]

    def to_json(self) -> list[dict]:
        return [dict(asdict(s), self_time=t) for s, t in zip(self.spans, self.self_times())]


def _covered(spans) -> float:
    """Length of the union of the spans' intervals."""
    total, reach = 0.0, float("-inf")
    for s in sorted(spans, key=lambda s: s.start):
        lo = max(s.start, reach)
        if s.end > lo:
            total += s.end - lo
            reach = s.end
    return total


def traced(tracer: Tracer | None, name: str, job: int, fn, *args, **kwargs):
    """Call fn, inside a span when a tracer is given."""
    if tracer is None:
        return fn(*args, **kwargs)
    with tracer.span(name, job):
        return fn(*args, **kwargs)
