"""Flood-max leader election: the classic ``O(D)``-time, ``O(m D)``-message baseline.

Every node draws a random id and floods the largest id it has seen; a node
forwards only when its known maximum improves, so the message cost is at most
``m`` per improvement wave (``O(m D)`` in total, ``O(m log n)`` in the typical
random-id case).  The node holding the global maximum elects itself.  This is
the Peleg-style time-optimal baseline the paper contrasts with; on
well-connected graphs its message cost is ``Theta(m)`` or worse, which is what
the E3 comparison shows.
"""

from __future__ import annotations

from typing import Dict, Optional

from ..core.result import TrialOutcome, election_trial_outcome
from ..faults.plan import FaultPlan
from ..graphs.topology import Graph
from ..sim.harness import build_network
from ..sim.message import Message, id_bits
from ..sim.network import SimulationResult
from ..sim.node import Inbox, NodeContext, Protocol

__all__ = [
    "FloodMaxNode",
    "flood_max_factory",
    "flood_max_trial",
]

MAX_ID = "max_id"


class FloodMaxNode(Protocol):
    """Flood the maximum identifier; the holder of the global maximum wins."""

    def __init__(self, ctx: NodeContext) -> None:
        super().__init__(ctx)
        n = ctx.known_n if ctx.known_n is not None else 2
        self.identifier = ctx.rng.randint(1, max(4, n**4))
        self.best_seen = self.identifier
        self._id_bits = id_bits(max(2, n))

    def on_start(self) -> None:
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
            "leader": self.best_seen == self.identifier,
            "contender": True,
            "id": self.identifier,
        }

    def _broadcast(self, value: int) -> None:
        message = Message(kind=MAX_ID, payload={"value": value}, size_bits=self._id_bits)
        for port in self.ctx.ports:
            self.ctx.send(port, message)


def flood_max_factory():
    """Protocol factory for :class:`repro.sim.Network`."""

    def factory(ctx: NodeContext) -> FloodMaxNode:
        return FloodMaxNode(ctx)

    return factory


def _simulate(
    graph: Graph,
    seed: Optional[int],
    fault_plan: Optional[FaultPlan],
    max_rounds: int,
) -> SimulationResult:
    """One flood-max run on the shared harness (historical seed streams)."""
    return build_network(
        graph,
        flood_max_factory(),
        seed=seed,
        port_stream=0x21,
        network_stream=0x22,
        fault_plan=fault_plan,
    ).run(max_rounds=max_rounds)


def flood_max_trial(
    graph: Graph,
    *,
    seed: Optional[int] = None,
    fault_plan: Optional[FaultPlan] = None,
    max_rounds: int = 1_000_000,
) -> TrialOutcome:
    """Run the flood-max baseline and return the unified trial outcome.

    A non-empty ``fault_plan`` runs the flood against that adversary (drop /
    duplicate / delay / crash-stop at a round); every node contends
    implicitly, so ``extras['num_contenders']`` is always ``n``.
    """
    result = _simulate(graph, seed, fault_plan, max_rounds)
    return election_trial_outcome(
        "flood_max", result, num_contenders=graph.num_nodes
    )
