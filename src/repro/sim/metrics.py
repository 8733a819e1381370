"""Per-run metrics collected by the simulator.

The quantities mirror the complexity measures of the paper:

* ``messages`` -- the number of physical sends, regardless of size;
* ``message_units`` -- the number of ``O(log n)``-bit messages those sends
  correspond to (a payload of ``k`` words counts ``k`` units), which is the
  quantity the paper's ``O(sqrt(n) log^{7/2} n t_mix)`` statement refers to;
* ``bits`` -- the total number of payload bits;
* ``rounds`` -- the number of synchronous rounds until the last message/halt;
* ``fault_events`` -- per-fault counters (dropped, duplicated, delayed, ...)
  when the run executed under a :mod:`repro.faults` plan, empty otherwise;
* ``net_events`` -- live-transport counters (barrier rounds, relayed frames,
  wall-clock milliseconds, killed processes) when the run executed over real
  sockets via :mod:`repro.net`, empty for simulated runs.  The model-level
  quantities above stay directly comparable between a simulated and a live
  run of the same seed; the live transport's own costs are recorded here,
  separately, never mixed into them.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field
from typing import Dict, Optional

__all__ = ["MetricsCollector", "RunMetrics"]


@dataclass
class RunMetrics:
    """Immutable summary of one simulation run."""

    rounds: int
    messages: int
    message_units: int
    bits: int
    messages_by_kind: Dict[str, int]
    units_by_kind: Dict[str, int]
    max_edge_bits_in_round: int
    congestion_events: int
    completed: bool
    fault_events: Dict[str, int] = field(default_factory=dict)
    net_events: Dict[str, int] = field(default_factory=dict)

    def messages_per_node(self, num_nodes: int) -> float:
        """Average number of physical messages per node."""
        if num_nodes <= 0:
            raise ValueError("num_nodes must be positive")
        return self.messages / num_nodes

    def summary(self) -> str:
        """Human-readable one-line summary (faults and congestion when present)."""
        line = (
            f"rounds={self.rounds} messages={self.messages} "
            f"units={self.message_units} bits={self.bits} completed={self.completed}"
        )
        if self.congestion_events:
            line += f" congestion_events={self.congestion_events}"
        if self.fault_events:
            faults = ",".join(
                f"{kind}={count}" for kind, count in sorted(self.fault_events.items())
            )
            line += f" faults[{faults}]"
        if self.net_events:
            live = ",".join(
                f"{kind}={count}" for kind, count in sorted(self.net_events.items())
            )
            line += f" net[{live}]"
        return line


class MetricsCollector:
    """Mutable accumulator the simulator feeds during a run."""

    def __init__(self, word_bits: int) -> None:
        if word_bits < 1:
            raise ValueError("word_bits must be positive")
        self.word_bits = word_bits
        self.messages = 0
        self.message_units = 0
        self.bits = 0
        self.messages_by_kind: Dict[str, int] = defaultdict(int)
        self.units_by_kind: Dict[str, int] = defaultdict(int)
        self.max_edge_bits_in_round = 0
        self.congestion_events = 0

    def record_send(self, kind: str, size_bits: int) -> None:
        """Account for one physical message of ``size_bits`` bits."""
        self.record_sends(kind, size_bits, 1)

    def record_sends(self, kind: str, size_bits: int, count: int) -> None:
        """Account for ``count`` physical messages of ``size_bits`` bits each."""
        units = max(1, -(-size_bits // self.word_bits)) * count
        self.messages += count
        self.message_units += units
        self.bits += size_bits * count
        self.messages_by_kind[kind] += count
        self.units_by_kind[kind] += units

    def record_edge_load(self, edge_bits: int, capacity_bits: int) -> None:
        """Track the heaviest per-edge per-round load and capacity violations."""
        if edge_bits > self.max_edge_bits_in_round:
            self.max_edge_bits_in_round = edge_bits
        if edge_bits > capacity_bits:
            self.congestion_events += 1

    def finalize(
        self,
        rounds: int,
        completed: bool,
        fault_events: Optional[Dict[str, int]] = None,
        net_events: Optional[Dict[str, int]] = None,
    ) -> RunMetrics:
        """Freeze into a :class:`RunMetrics`."""
        return RunMetrics(
            rounds=rounds,
            messages=self.messages,
            message_units=self.message_units,
            bits=self.bits,
            messages_by_kind=dict(self.messages_by_kind),
            units_by_kind=dict(self.units_by_kind),
            max_edge_bits_in_round=self.max_edge_bits_in_round,
            congestion_events=self.congestion_events,
            completed=completed,
            fault_events=dict(fault_events) if fault_events else {},
            net_events=dict(net_events) if net_events else {},
        )
