"""In-memory spans and counters recorded from outside the library.

A :class:`Tracer` records one span per call into a sensewalk module: its
name, start, end and the span that was open when it began. Span names are
``<layer>.<step>``, where the layer is the module the call enters, so
per-layer self times fall out of the names. Spans are kept in memory and
turned into metrics only after the traced call has finished.
"""

import time
from contextlib import contextmanager
from dataclasses import dataclass


@dataclass
class Span:
    name: str
    start: float
    end: float | None
    parent: int | None  # index of the enclosing span, None for a root

    @property
    def layer(self):
        return self.name.split(".", 1)[0]

    @property
    def duration(self):
        return self.end - self.start


class Tracer:
    """Spans and counters of one traced call, single-threaded."""

    def __init__(self):
        self.spans = []
        self.counts = {}
        self._open = []

    @contextmanager
    def span(self, name):
        index = len(self.spans)
        parent = self._open[-1] if self._open else None
        record = Span(name, time.perf_counter(), None, parent)
        self.spans.append(record)
        self._open.append(index)
        try:
            yield
        finally:
            record.end = time.perf_counter()
            self._open.pop()

    def add(self, name, value=1):
        self.counts[name] = self.counts.get(name, 0) + value

    def self_times(self):
        """Each span's duration minus the time its direct children cover.

        Children of one span run one after another in a single thread, so
        the part of the parent they cover is the sum of their durations.
        """
        covered = [0.0] * len(self.spans)
        for span in self.spans:
            if span.parent is not None:
                covered[span.parent] += span.duration
        return [span.duration - c for span, c in zip(self.spans, covered)]

    def roots(self):
        return [span for span in self.spans if span.parent is None]

    def self_by_name(self):
        totals = {}
        for span, own in zip(self.spans, self.self_times()):
            totals[span.name] = totals.get(span.name, 0.0) + own
        return totals

    def self_by_layer(self):
        totals = {}
        for span, own in zip(self.spans, self.self_times()):
            totals[span.layer] = totals.get(span.layer, 0.0) + own
        return totals

    def durations(self, name):
        return [span.duration for span in self.spans if span.name == name]
