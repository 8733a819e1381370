"""Flooding broadcast: the baseline that uses Theta(m) messages.

Used by the Corollary 26 experiment (broadcast lower bound on the Section 4.1
graphs) and as the dissemination step of the flood-max election baselines.

>>> from repro.graphs import cycle_graph
>>> outcome = flooding_trial(cycle_graph(8), sources=(0,), seed=1)
>>> outcome.classification, outcome.extras["informed"], outcome.messages
('informed_all', 8, 16)
"""

from __future__ import annotations

from functools import partial
from typing import Dict, Iterable, Optional, Set

from ..core.result import TrialOutcome, broadcast_trial_outcome
from ..faults.plan import FaultPlan
from ..graphs.topology import Graph
from ..sim.harness import build_network
from ..sim.message import Message, id_bits
from ..sim.node import Inbox, NodeContext, Protocol

__all__ = ["FloodingNode", "flooding_trial"]

FLOOD = "flood"


class FloodingNode(Protocol):
    """Forward the rumor over every port the first time it is seen."""

    def __init__(self, ctx: NodeContext, sources: Set[int], rumor: int) -> None:
        super().__init__(ctx)
        n = ctx.known_n if ctx.known_n is not None else 2
        self.rumor: Optional[int] = rumor if ctx.node_index in sources else None
        self.forwarded = False
        self._rumor_bits = id_bits(max(2, n))

    def on_start(self) -> None:
        if self.rumor is not None:
            self._forward()

    def on_round(self, inbox: Inbox) -> None:
        for batch in inbox.values():
            for message in batch:
                if message.kind == FLOOD and self.rumor is None:
                    self.rumor = message.payload["rumor"]
        if self.rumor is not None and not self.forwarded:
            self._forward()

    def result(self) -> Dict[str, object]:
        return {"informed": self.rumor is not None, "rumor": self.rumor}

    def _forward(self) -> None:
        self.forwarded = True
        message = Message(kind=FLOOD, payload={"rumor": self.rumor}, size_bits=self._rumor_bits)
        for port in self.ctx.ports:
            self.ctx.send(port, message)


def flooding_trial(
    graph: Graph,
    sources: Iterable[int] = (0,),
    rumor: int = 1,
    *,
    seed: Optional[int] = None,
    fault_plan: Optional[FaultPlan] = None,
    max_rounds: int = 1_000_000,
) -> TrialOutcome:
    """Flood ``rumor`` from ``sources`` and return the unified trial outcome.

    ``winners`` are the sources; the classification distinguishes full
    coverage, full coverage of the *live* nodes (the rest crash-stopped), and
    genuinely partial spread -- see
    :data:`~repro.core.result.BROADCAST_CLASSIFICATIONS`.
    """
    source_set = set(sources)
    if not source_set:
        raise ValueError("at least one source node is required")
    result = build_network(
        graph,
        partial(FloodingNode, sources=source_set, rumor=rumor),
        seed=seed,
        port_stream=0x11,
        network_stream=0x12,
        fault_plan=fault_plan,
    ).run(max_rounds=max_rounds)
    return broadcast_trial_outcome("flooding", result, source_set, rumor)
