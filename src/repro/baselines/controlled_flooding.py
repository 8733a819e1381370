"""Controlled-flooding election: the ``O(m log n)``-message randomised baseline.

This is the natural simplification of the Kutten et al. [24] message-optimal
algorithm: only ``Theta(log n)`` randomly self-nominated candidates flood
their ids (with improvement-only forwarding), so the expected message cost is
``O(m log n)`` rather than flood-max's ``O(m D)``.  It still pays ``Omega(m)``
on every graph, which is exactly the regime the paper's algorithm escapes on
well-connected topologies.
"""

from __future__ import annotations

from typing import Dict, Optional

from ..core.result import TrialOutcome, election_trial_outcome
from ..faults.plan import FaultPlan
from ..graphs.topology import Graph
from ..sim.harness import run_protocol
from ..sim.message import Message, id_bits
from ..sim.network import SimulationResult
from ..sim.node import Inbox, NodeContext, Protocol

__all__ = [
    "ControlledFloodingNode",
    "controlled_flooding_factory",
    "controlled_flooding_trial",
]

CANDIDATE_ID = "candidate_id"


class ControlledFloodingNode(Protocol):
    """Randomly self-nominated candidates flood their ids; the maximum wins."""

    def __init__(self, ctx: NodeContext, c1: float = 2.0) -> None:
        super().__init__(ctx)
        import math

        n = ctx.known_n if ctx.known_n is not None else 2
        self.identifier = ctx.rng.randint(1, max(4, n**4))
        probability = min(1.0, c1 * math.log(max(2, n)) / max(2, n))
        self.is_candidate = ctx.rng.random() < probability
        self.best_seen = self.identifier if self.is_candidate else 0
        self._id_bits = id_bits(max(2, n))

    def on_start(self) -> None:
        if self.is_candidate:
            self._broadcast(self.best_seen)

    def on_round(self, inbox: Inbox) -> None:
        improved = False
        for batch in inbox.values():
            for message in batch:
                candidate = message.payload["value"]
                if candidate > self.best_seen:
                    self.best_seen = candidate
                    improved = True
        if improved:
            self._broadcast(self.best_seen)

    def result(self) -> Dict[str, object]:
        return {
            "leader": self.is_candidate and self.best_seen == self.identifier,
            "contender": self.is_candidate,
            "id": self.identifier,
        }

    def _broadcast(self, value: int) -> None:
        message = Message(kind=CANDIDATE_ID, payload={"value": value}, size_bits=self._id_bits)
        for port in self.ctx.ports:
            self.ctx.send(port, message)


def controlled_flooding_factory(c1: float = 2.0):
    """Protocol factory for :class:`repro.sim.Network`."""

    def factory(ctx: NodeContext) -> ControlledFloodingNode:
        return ControlledFloodingNode(ctx, c1=c1)

    return factory


def _simulate(
    graph: Graph,
    c1: float,
    seed: Optional[int],
    fault_plan: Optional[FaultPlan],
    max_rounds: int,
) -> SimulationResult:
    """One controlled-flooding run on the shared harness."""
    return run_protocol(
        graph,
        controlled_flooding_factory(c1=c1),
        seed=seed,
        port_stream=0x31,
        network_stream=0x32,
        fault_plan=fault_plan,
        max_rounds=max_rounds,
    )


def controlled_flooding_trial(
    graph: Graph,
    c1: float = 2.0,
    *,
    seed: Optional[int] = None,
    fault_plan: Optional[FaultPlan] = None,
    max_rounds: int = 1_000_000,
) -> TrialOutcome:
    """Run the controlled-flooding baseline and return the unified outcome.

    The zero-candidate case (probability ``n^{-c1}``) classifies
    ``"no_leader"``, mirroring the randomised guarantee; a non-empty
    ``fault_plan`` runs the flood against that adversary.
    """
    result = _simulate(graph, c1, seed, fault_plan, max_rounds)
    return election_trial_outcome("controlled_flooding", result)
