"""An in-memory span recorder for the benchmark's traced run.

Spans are recorded around calls into each layer from the benchmark's own
code; nothing inside ``src/`` is instrumented.  Each span keeps its name,
start, end, parent and trial id.  Spans stay in memory and are written out
once, when the run ends (:meth:`Recorder.dump`).

A span's *self time* is its duration minus the time its child spans cover.
The recorder is single-threaded: children run strictly inside their parent,
so the children of one span never overlap.
"""

from __future__ import annotations

import json
import math
import time
from contextlib import contextmanager
from typing import Dict, Iterator, List, Optional, Sequence

__all__ = ["Span", "Recorder", "percentile", "tail_percentile"]


class Span:
    """One timed call: ``name`` from ``start`` to ``end`` (perf-counter seconds)."""

    __slots__ = ("name", "start", "end", "parent", "trial")

    def __init__(self, name: str, start: float, parent: Optional[int], trial: Optional[str]):
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.trial = trial

    @property
    def duration(self) -> float:
        return self.end - self.start


class Recorder:
    """Collects nested spans; indexes into :attr:`spans` identify parents."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._open: List[int] = []

    @contextmanager
    def span(self, name: str, trial: Optional[str] = None) -> Iterator[Span]:
        parent = self._open[-1] if self._open else None
        record = Span(name, time.perf_counter(), parent, trial)
        self.spans.append(record)
        self._open.append(len(self.spans) - 1)
        try:
            yield record
        finally:
            record.end = time.perf_counter()
            self._open.pop()

    def named(self, name: str) -> List[Span]:
        return [span for span in self.spans if span.name == name]

    def durations(self, name: str) -> List[float]:
        return [span.duration for span in self.named(name)]

    def self_times(self) -> List[float]:
        """Each span's duration minus the time its direct children cover."""
        covered = [0.0] * len(self.spans)
        for span in self.spans:
            if span.parent is not None:
                covered[span.parent] += span.duration
        return [span.duration - covered[i] for i, span in enumerate(self.spans)]

    def unaccounted_fraction(self, root: Span) -> float:
        """Share of ``root``'s wall time not covered by its direct children."""
        index = self.spans.index(root)
        return self.self_times()[index] / root.duration

    def self_time_by_name(self, root: Span) -> Dict[str, float]:
        """Total self time per span name, over ``root`` and its descendants."""
        inside = {self.spans.index(root)}
        totals: Dict[str, float] = {}
        for index, (span, own) in enumerate(zip(self.spans, self.self_times())):
            if index in inside or span.parent in inside:
                inside.add(index)
                totals[span.name] = totals.get(span.name, 0.0) + own
        return totals

    def dump(self, path: str, header: Dict[str, object]) -> None:
        """Write every span (and a header) as one JSON document."""
        document = dict(header)
        document["spans"] = [
            {
                "name": span.name,
                "start": span.start,
                "end": span.end,
                "parent": span.parent,
                "trial": span.trial,
            }
            for span in self.spans
        ]
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(document, handle)
            handle.write("\n")


def percentile(values: Sequence[float], q: float) -> float:
    """Linear-interpolated ``q``-th percentile (0..100) of ``values``."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of no samples")
    position = (len(ordered) - 1) * q / 100.0
    low = math.floor(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def tail_percentile(count: int) -> int:
    """The highest whole percentile with at least ten samples beyond it.

    Below 20 samples no percentile above the median qualifies, so the tail
    falls back to the median.

    >>> tail_percentile(1000), tail_percentile(100), tail_percentile(12)
    (99, 90, 50)
    """
    if count <= 0:
        return 50
    return max(50, (100 * count - 1000) // count)
