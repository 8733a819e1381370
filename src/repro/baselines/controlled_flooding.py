"""Flooding elections: flood-max and controlled flooding, one protocol.

Every node draws a random id; *candidates* flood the largest id they have
seen, and a node forwards only when its known maximum improves, so the
message cost is at most ``m`` per improvement wave.  The candidate holding
the global maximum elects itself.

* **Flood-max** (``c1=None``) makes every node a candidate: the classic
  ``O(D)``-time, ``O(m D)``-message baseline (``O(m log n)`` in the typical
  random-id case).  This is the Peleg-style time-optimal baseline the paper
  contrasts with; on well-connected graphs its message cost is ``Theta(m)``
  or worse, which is what the E3 comparison shows.
* **Controlled flooding** (``c1`` a float) nominates each node with
  probability ``c1 ln n / n``.  This is the natural simplification of the
  Kutten et al. [24] message-optimal algorithm: only ``Theta(log n)``
  candidates flood, so the expected cost is ``O(m log n)``.  It still pays
  ``Omega(m)`` on every graph, which is exactly the regime the paper's
  algorithm escapes on well-connected topologies.

>>> from repro.graphs import complete_graph
>>> outcome = flood_max_trial(complete_graph(8), seed=1)
>>> outcome.classification, outcome.extras["num_contenders"]
('elected', 8)
"""

from __future__ import annotations

import math
from functools import partial
from typing import Dict, Optional

from ..core.result import TrialOutcome, election_trial_outcome
from ..faults.plan import FaultPlan
from ..graphs.topology import Graph
from ..sim.harness import build_network
from ..sim.message import Message, id_bits
from ..sim.node import Inbox, NodeContext, Protocol

__all__ = [
    "ControlledFloodingNode",
    "controlled_flooding_trial",
    "flood_max_trial",
]

MAX_ID = "max_id"
CANDIDATE_ID = "candidate_id"


class ControlledFloodingNode(Protocol):
    """Candidates flood the maximum id; the candidate holding it wins.

    ``c1=None`` makes every node a candidate (flood-max) and draws no
    nomination coin; ``kind`` names the flooded messages.
    """

    def __init__(
        self, ctx: NodeContext, c1: Optional[float] = 2.0, kind: str = CANDIDATE_ID
    ) -> None:
        super().__init__(ctx)
        n = ctx.known_n if ctx.known_n is not None else 2
        self.identifier = ctx.rng.randint(1, max(4, n**4))
        if c1 is None:
            self.is_candidate = True
        else:
            probability = min(1.0, c1 * math.log(max(2, n)) / max(2, n))
            self.is_candidate = ctx.rng.random() < probability
        self.best_seen = self.identifier if self.is_candidate else 0
        self._kind = kind
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
        message = Message(kind=self._kind, payload={"value": value}, size_bits=self._id_bits)
        for port in self.ctx.ports:
            self.ctx.send(port, message)


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
    result = build_network(
        graph,
        partial(ControlledFloodingNode, c1=None, kind=MAX_ID),
        seed=seed,
        port_stream=0x21,
        network_stream=0x22,
        fault_plan=fault_plan,
    ).run(max_rounds=max_rounds)
    return election_trial_outcome(
        "flood_max", result, num_contenders=graph.num_nodes
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
    result = build_network(
        graph,
        partial(ControlledFloodingNode, c1=c1),
        seed=seed,
        port_stream=0x31,
        network_stream=0x32,
        fault_plan=fault_plan,
    ).run(max_rounds=max_rounds)
    return election_trial_outcome("controlled_flooding", result)
