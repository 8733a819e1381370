"""The deterministic guess-and-double phase schedule.

All nodes wake up simultaneously and know the protocol parameters, so every
node can locally compute the boundaries of every phase and segment from the
round number alone -- no coordinator is needed.  The schedule depends only on
the parameters (not on ``n``), which keeps the Theorem 28 experiments honest:
nodes that believe a wrong ``n`` still agree on the timing.

Phase ``i`` uses walk length ``L_i = initial * 2**i`` and a segment length
``T_i = slack * L_i + margin``.  Its six segments are::

    [0,   T)  WALK        random-walk tokens advance, one lazy step per round
    [T,  2T)  REPORT      proxies converge-cast I1 / distinct counts to the origin
    [2T, 3T)  DISTRIBUTE  the origin floods I2 down its walk tree
    [3T, 4T)  COLLECT     proxies converge-cast I3 back to the origin
    [4T, 6T)  DECIDE+WAIT decision, winner propagation, and the paper's 2T wait

offsets are relative to the phase start; phase ``i + 1`` starts right after.
"""

from __future__ import annotations

import bisect
import enum
from dataclasses import dataclass
from typing import Iterator, List, Tuple

from .params import ElectionParameters

__all__ = ["Segment", "PhaseSchedule", "PhaseWindow"]


class Segment(enum.Enum):
    """Which part of a phase a given round belongs to."""

    WALK = "walk"
    REPORT = "report"
    DISTRIBUTE = "distribute"
    COLLECT = "collect"
    DECIDE = "decide"


@dataclass(frozen=True)
class PhaseWindow:
    """Absolute round boundaries of one phase."""

    index: int
    walk_length: int
    segment_length: int
    start: int

    @property
    def walk_start(self) -> int:
        return self.start

    @property
    def report_start(self) -> int:
        return self.start + self.segment_length

    @property
    def distribute_start(self) -> int:
        return self.start + 2 * self.segment_length

    @property
    def collect_start(self) -> int:
        return self.start + 3 * self.segment_length

    @property
    def decide_round(self) -> int:
        return self.start + 4 * self.segment_length

    @property
    def end(self) -> int:
        """First round of the next phase."""
        return self.start + 6 * self.segment_length

    def segment_of(self, round_number: int) -> Segment:
        """Segment the absolute ``round_number`` falls into (must be inside the phase)."""
        if not self.start <= round_number < self.end:
            raise ValueError(
                "round %d is outside phase %d [%d, %d)"
                % (round_number, self.index, self.start, self.end)
            )
        offset = round_number - self.start
        bucket = offset // self.segment_length
        if bucket == 0:
            return Segment.WALK
        if bucket == 1:
            return Segment.REPORT
        if bucket == 2:
            return Segment.DISTRIBUTE
        if bucket == 3:
            return Segment.COLLECT
        return Segment.DECIDE

    def report_send_round(self, first_arrival_offset: int) -> int:
        """Round at which a tree node with the given first-arrival offset converge-casts I1."""
        return self.report_start + max(0, self.walk_length - first_arrival_offset)

    def collect_send_round(self, first_arrival_offset: int) -> int:
        """Round at which a tree node converge-casts I3."""
        return self.collect_start + max(0, self.walk_length - first_arrival_offset)


class PhaseSchedule:
    """Computes phase windows for a given parameter set.

    The windows form one table that is built once and grown on demand:
    ``window`` is a list index and ``locate`` a bisection over the cached
    window ends.
    """

    def __init__(self, params: ElectionParameters) -> None:
        self._params = params
        self._windows: List[PhaseWindow] = []
        self._ends: List[int] = []

    def walk_length(self, phase_index: int) -> int:
        """Walk length ``L_i`` of phase ``phase_index`` (guess-and-double)."""
        if phase_index < 0:
            raise ValueError("phase_index must be non-negative")
        return self._params.initial_walk_length * (2**phase_index)

    def segment_length(self, phase_index: int) -> int:
        """Segment length ``T_i`` of phase ``phase_index``."""
        return (
            self._params.congestion_slack * self.walk_length(phase_index)
            + self._params.segment_margin
        )

    def _grow(self) -> None:
        """Append the next phase's window to the table."""
        index = len(self._windows)
        window = PhaseWindow(
            index=index,
            walk_length=self.walk_length(index),
            segment_length=self.segment_length(index),
            start=self._ends[-1] if self._ends else 0,
        )
        self._windows.append(window)
        self._ends.append(window.end)

    def window(self, phase_index: int) -> PhaseWindow:
        """Absolute :class:`PhaseWindow` of phase ``phase_index``."""
        if phase_index < 0:
            raise ValueError("phase_index must be non-negative")
        while len(self._windows) <= phase_index:
            self._grow()
        return self._windows[phase_index]

    def phase_start(self, phase_index: int) -> int:
        """First round of phase ``phase_index``; resolves ``CrashFaults.at_phase``."""
        return self.window(phase_index).start

    def windows(self) -> Iterator[PhaseWindow]:
        """Yield phase windows indefinitely (callers break out)."""
        index = 0
        while True:
            yield self.window(index)
            index += 1

    def locate(self, round_number: int) -> Tuple[PhaseWindow, Segment]:
        """Phase window and segment containing the absolute ``round_number``."""
        if round_number < 0:
            raise ValueError("round_number must be non-negative")
        while not self._ends or self._ends[-1] <= round_number:
            self._grow()
        window = self._windows[bisect.bisect_right(self._ends, round_number)]
        return window, window.segment_of(round_number)

    def phases_needed_for_walk_length(self, walk_length: int) -> int:
        """Smallest phase index whose walk length reaches ``walk_length``."""
        index = 0
        while self.walk_length(index) < walk_length:
            index += 1
        return index
