"""Plain-data adversary descriptions for the fault-injection subsystem.

A :class:`FaultPlan` is a complete, declarative description of the adversary a
simulation runs against.  Like :class:`~repro.exec.spec.TrialSpec` it is plain
data: no callables, no open handles, no hidden randomness.  That buys the same
three properties the executor already relies on:

* the plan crosses the JSON wire to a
  :class:`~repro.exec.runner.BatchRunner` worker process unchanged;
* the plan has a stable :meth:`fingerprint` that participates in result-cache
  keys, so a faulty campaign never collides with a fault-free one;
* every random decision the :class:`~repro.faults.injector.FaultInjector`
  makes is drawn from SplitMix64 streams derived from ``(master seed, plan
  fingerprint)``, which makes faulty runs bit-for-bit replayable serially and
  on worker processes.

The adversary models compose; each is independently inert at its default:

* :class:`MessageFaults` -- per-message drop and duplication probabilities
  (the classic lossy-link / at-least-once channel models);
* :class:`CrashFaults` -- crash-stop of ``count`` nodes (or explicit
  ``targets``) at a chosen round or at a guess-and-double phase boundary;
* :class:`DelayFaults` -- per-directed-edge delivery delay of up to
  ``max_delay`` extra rounds, fixed per edge for the whole run (an
  asynchronous-link adversary bounded by ``Delta``);
* :class:`EdgeFaults` -- dynamic edge removal: each undirected edge is
  removed with ``removal_probability`` from round ``at_round`` on.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

__all__ = [
    "MessageFaults",
    "CrashFaults",
    "DelayFaults",
    "EdgeFaults",
    "FaultPlan",
]


def _check_probability(name: str, value: float) -> None:
    if not 0.0 <= value <= 1.0:
        raise ValueError("%s must lie in [0, 1], got %r" % (name, value))


@dataclass(frozen=True)
class MessageFaults:
    """Per-message channel faults applied independently to every send.

    ``drop_probability`` loses the message entirely; ``duplicate_probability``
    delivers a second copy in the same round (drop wins: a dropped message is
    never duplicated).
    """

    drop_probability: float = 0.0
    duplicate_probability: float = 0.0

    def __post_init__(self) -> None:
        _check_probability("drop_probability", self.drop_probability)
        _check_probability("duplicate_probability", self.duplicate_probability)

    @property
    def is_empty(self) -> bool:
        """Whether this model never drops or duplicates anything."""
        return self.drop_probability == 0.0 and self.duplicate_probability == 0.0


@dataclass(frozen=True)
class CrashFaults:
    """Crash-stop failures: nodes permanently stop participating.

    ``count`` nodes are chosen uniformly at random (from the injector's crash
    stream) unless explicit ``targets`` are given.  The crash fires at
    ``at_round``, or -- when ``at_phase`` is set instead -- at the first round
    of that guess-and-double phase (resolved against the run's
    :class:`~repro.core.schedule.PhaseSchedule` by the caller that builds the
    injector).  A crashed node is never activated again and all messages
    addressed to it from its crash round on are lost.
    """

    count: int = 0
    at_round: Optional[int] = None
    at_phase: Optional[int] = None
    targets: Tuple[int, ...] = ()

    def __post_init__(self) -> None:
        if self.count < 0:
            raise ValueError("count must be non-negative, got %d" % self.count)
        if self.at_round is not None and self.at_round < 0:
            raise ValueError("at_round must be non-negative, got %d" % self.at_round)
        if self.at_phase is not None and self.at_phase < 0:
            raise ValueError("at_phase must be non-negative, got %d" % self.at_phase)
        if self.at_round is not None and self.at_phase is not None:
            raise ValueError("set at most one of at_round and at_phase")
        if self.targets and self.count and len(self.targets) != self.count:
            raise ValueError(
                "explicit targets (%d) disagree with count=%d"
                % (len(self.targets), self.count)
            )
        if len(set(self.targets)) != len(self.targets):
            raise ValueError("targets must be distinct")

    @property
    def num_crashes(self) -> int:
        """Number of nodes this model crashes."""
        return len(self.targets) if self.targets else self.count

    @property
    def is_empty(self) -> bool:
        """Whether this model crashes nobody."""
        return self.num_crashes == 0


@dataclass(frozen=True)
class DelayFaults:
    """Per-directed-edge delivery delay, fixed for the whole run.

    Every directed edge independently draws an extra delay in
    ``[min_delay, max_delay]`` rounds from the injector's delay stream; a
    message sent over that edge in round ``r`` arrives in round
    ``r + 1 + delay`` instead of ``r + 1``.  The two directions of an edge
    draw independently (the adversary may slow one direction only).
    """

    max_delay: int = 0
    min_delay: int = 0

    def __post_init__(self) -> None:
        if self.min_delay < 0:
            raise ValueError("min_delay must be non-negative, got %d" % self.min_delay)
        if self.max_delay < self.min_delay:
            raise ValueError(
                "max_delay (%d) must be >= min_delay (%d)"
                % (self.max_delay, self.min_delay)
            )

    @property
    def is_empty(self) -> bool:
        """Whether no edge is ever delayed."""
        return self.max_delay == 0

    @property
    def is_uniform(self) -> bool:
        """Whether every edge gets the same (deterministic) delay."""
        return self.min_delay == self.max_delay


@dataclass(frozen=True)
class EdgeFaults:
    """Dynamic edge removal: links fail permanently at a chosen round.

    Each undirected edge is independently selected for removal with
    ``removal_probability`` (drawn once from the injector's edge stream);
    selected edges deliver nothing from round ``at_round`` on, in both
    directions.  ``at_round=0`` removes the edges before the first delivery.
    """

    removal_probability: float = 0.0
    at_round: int = 0

    def __post_init__(self) -> None:
        _check_probability("removal_probability", self.removal_probability)
        if self.at_round < 0:
            raise ValueError("at_round must be non-negative, got %d" % self.at_round)

    @property
    def is_empty(self) -> bool:
        """Whether no edge is ever removed."""
        return self.removal_probability == 0.0


@dataclass(frozen=True)
class FaultPlan:
    """A composable adversary: message, crash, delay and edge fault models.

    The default plan is empty and behaviour-preserving: running any
    simulation under ``FaultPlan()`` is bit-identical to running it with no
    plan at all (the network skips the injection hook entirely).
    """

    messages: MessageFaults = field(default_factory=MessageFaults)
    crashes: CrashFaults = field(default_factory=CrashFaults)
    delays: DelayFaults = field(default_factory=DelayFaults)
    edges: EdgeFaults = field(default_factory=EdgeFaults)

    # ------------------------------------------------------------ properties
    @property
    def is_empty(self) -> bool:
        """Whether this plan perturbs nothing.

        >>> FaultPlan().is_empty
        True
        >>> FaultPlan.dropping(0.05).is_empty
        False
        """
        return (
            self.messages.is_empty
            and self.crashes.is_empty
            and self.delays.is_empty
            and self.edges.is_empty
        )

    # ----------------------------------------------------------- fingerprint
    def document(self) -> Dict[str, object]:
        """Canonical JSON-serialisable description (the fingerprint input)."""
        return {
            "messages": {
                "drop_probability": self.messages.drop_probability,
                "duplicate_probability": self.messages.duplicate_probability,
            },
            "crashes": {
                "count": self.crashes.count,
                "at_round": self.crashes.at_round,
                "at_phase": self.crashes.at_phase,
                "targets": list(self.crashes.targets),
            },
            "delays": {
                "max_delay": self.delays.max_delay,
                "min_delay": self.delays.min_delay,
            },
            "edges": {
                "removal_probability": self.edges.removal_probability,
                "at_round": self.edges.at_round,
            },
        }

    @classmethod
    def from_document(cls, document: Dict[str, object]) -> "FaultPlan":
        """Rebuild a plan from its canonical :meth:`document` form.

        The exact inverse of :meth:`document`, which is what lets a plan
        cross a JSON wire (the worker-pool backend and the fleet)
        without perturbing its fingerprint or the SplitMix64 seed streams
        derived from it.

        >>> plan = FaultPlan.dropping(0.25)
        >>> FaultPlan.from_document(plan.document()) == plan
        True
        """
        messages = document["messages"]
        crashes = document["crashes"]
        delays = document["delays"]
        edges = document["edges"]
        return cls(
            messages=MessageFaults(
                drop_probability=messages["drop_probability"],
                duplicate_probability=messages["duplicate_probability"],
            ),
            crashes=CrashFaults(
                count=crashes["count"],
                at_round=crashes["at_round"],
                at_phase=crashes["at_phase"],
                targets=tuple(crashes["targets"]),
            ),
            delays=DelayFaults(
                max_delay=delays["max_delay"], min_delay=delays["min_delay"]
            ),
            edges=EdgeFaults(
                removal_probability=edges["removal_probability"],
                at_round=edges["at_round"],
            ),
        )

    def fingerprint(self) -> str:
        """Hex SHA-256 of the canonical document (stable across processes)."""
        encoded = json.dumps(
            self.document(), sort_keys=True, separators=(",", ":")
        ).encode("utf-8")
        return hashlib.sha256(encoded).hexdigest()

    def seed_stream(self) -> int:
        """64-bit stream id derived from the fingerprint.

        Mixed into the master seed by the injector, so two different plans
        run against the same master seed draw unrelated randomness.
        """
        return int(self.fingerprint()[:16], 16)

    # ---------------------------------------------------------- constructors
    @staticmethod
    def dropping(probability: float) -> "FaultPlan":
        """Plan that drops each message independently with ``probability``."""
        return FaultPlan(messages=MessageFaults(drop_probability=probability))

    @staticmethod
    def duplicating(probability: float) -> "FaultPlan":
        """Plan that duplicates each message independently with ``probability``."""
        return FaultPlan(messages=MessageFaults(duplicate_probability=probability))

    @staticmethod
    def crashing(
        count: int = 0,
        at_round: Optional[int] = None,
        at_phase: Optional[int] = None,
        targets: Tuple[int, ...] = (),
    ) -> "FaultPlan":
        """Plan that crash-stops ``count`` nodes (or ``targets``)."""
        return FaultPlan(
            crashes=CrashFaults(
                count=count, at_round=at_round, at_phase=at_phase, targets=targets
            )
        )

    @staticmethod
    def delaying(max_delay: int, min_delay: int = 0) -> "FaultPlan":
        """Plan that delays each directed edge by up to ``max_delay`` rounds."""
        return FaultPlan(delays=DelayFaults(max_delay=max_delay, min_delay=min_delay))

    @staticmethod
    def removing_edges(probability: float, at_round: int = 0) -> "FaultPlan":
        """Plan that removes each edge with ``probability`` from ``at_round`` on."""
        return FaultPlan(
            edges=EdgeFaults(removal_probability=probability, at_round=at_round)
        )

    def describe(self) -> str:
        """Short human-readable summary for labels and tables.

        >>> FaultPlan.dropping(0.05).describe()
        'faults(drop=0.05)'
        >>> FaultPlan.crashing(count=4, at_phase=2).describe()
        'faults(crash=4@p2)'
        """
        parts = []
        if not self.messages.is_empty:
            bits = []
            if self.messages.drop_probability:
                bits.append("drop=%g" % self.messages.drop_probability)
            if self.messages.duplicate_probability:
                bits.append("dup=%g" % self.messages.duplicate_probability)
            parts.append(",".join(bits))
        if not self.crashes.is_empty:
            where = ""
            if self.crashes.at_round is not None:
                where = "@r%d" % self.crashes.at_round
            elif self.crashes.at_phase is not None:
                where = "@p%d" % self.crashes.at_phase
            parts.append("crash=%d%s" % (self.crashes.num_crashes, where))
        if not self.delays.is_empty:
            parts.append("delay<=%d" % self.delays.max_delay)
        if not self.edges.is_empty:
            parts.append(
                "edge-loss=%g@r%d"
                % (self.edges.removal_probability, self.edges.at_round)
            )
        return "faults(%s)" % "; ".join(parts) if parts else "faults(none)"
