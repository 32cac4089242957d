"""Spans around the benchmark's calls into the library, kept in memory.

Every call the benchmark makes into a module's public function goes through
a recorder's ``call``.  The untraced recorder calls straight through, so the
timed passes pay one extra Python call per layer call and nothing else.  The
traced recorder stores one span per call; spans are only written out when the
run ends.  Calls inside the library are not seen: a span's self time is its
duration minus its children, and its children are only other benchmark-side
spans.
"""

from __future__ import annotations

import tracemalloc
from dataclasses import dataclass
from time import perf_counter


@dataclass(frozen=True)
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    instance: int | None
    probe: bool

    @property
    def duration(self) -> float:
        return self.end - self.start


class Untraced:
    """Calls straight through; probes do not run and counts are dropped."""

    instance: int | None = None

    def call(self, name, fn, *args):
        return fn(*args)

    def probe(self, name, fn, *args):
        return None

    def count(self, name: str, value: int) -> None:
        pass


class Tracer(Untraced):
    """Records a span per call and sums the counts reported at each call site.

    A probe is a call the pipeline does not make itself, added to split a
    layer's time or to count its work; its span is marked so that pass times
    can leave it out.
    """

    def __init__(self) -> None:
        self.spans: list[Span | None] = []
        self.counts: dict[str, int] = {}
        self._open: list[int] = []

    def call(self, name, fn, *args, probe: bool = False):
        index = len(self.spans)
        parent = self._open[-1] if self._open else None
        self.spans.append(None)
        self._open.append(index)
        start = perf_counter()
        try:
            return fn(*args)
        finally:
            end = perf_counter()
            self._open.pop()
            self.spans[index] = Span(name, start, end, parent, self.instance, probe)

    def probe(self, name, fn, *args):
        return self.call(name, fn, *args, probe=True)

    def count(self, name: str, value: int) -> None:
        self.counts[name] = self.counts.get(name, 0) + value


class AllocTracer(Untraced):
    """Peak bytes allocated inside each call to the named functions.

    ``tracemalloc`` runs only for the duration of those calls, so the other
    layers run at full speed; the peak is the largest over all calls.
    """

    def __init__(self, names) -> None:
        self.peaks = dict.fromkeys(names, 0)

    def call(self, name, fn, *args):
        if name not in self.peaks:
            return fn(*args)
        tracemalloc.start()
        try:
            return fn(*args)
        finally:
            peak = tracemalloc.get_traced_memory()[1]
            tracemalloc.stop()
            self.peaks[name] = max(self.peaks[name], peak)


def self_times(spans: list[Span], first: int = 0) -> dict[str, float]:
    """Self time summed by span name over ``spans[first:]``.

    Spans nest strictly (one thread), so a span's children cover disjoint
    parts of it and their durations can simply be subtracted.
    """
    totals: dict[str, float] = {}
    for span in spans[first:]:
        totals[span.name] = totals.get(span.name, 0.0) + span.duration
        if span.parent is not None and span.parent >= first:
            parent = spans[span.parent].name
            totals[parent] = totals.get(parent, 0.0) - span.duration
    return totals
