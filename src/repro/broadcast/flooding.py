"""Flooding broadcast: the baseline that uses Theta(m) messages.

Used by the Corollary 26 experiment (broadcast lower bound on the Section 4.1
graphs) and as the dissemination step of the flood-max election baselines.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, Optional, Set

from ..core.result import TrialOutcome, classify_broadcast
from ..faults.plan import FaultPlan
from ..graphs.topology import Graph
from ..sim.harness import build_network
from ..sim.message import Message, id_bits
from ..sim.metrics import RunMetrics
from ..sim.network import SimulationResult
from ..sim.node import Inbox, NodeContext, Protocol

__all__ = [
    "FloodingNode",
    "flooding_factory",
    "FloodingOutcome",
    "flooding_trial",
    "run_flooding_broadcast",
]

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


def flooding_factory(sources: Set[int], rumor: int):
    """Protocol factory for :class:`repro.sim.Network`."""

    def factory(ctx: NodeContext) -> FloodingNode:
        return FloodingNode(ctx, sources=sources, rumor=rumor)

    return factory


@dataclass
class FloodingOutcome:
    """Result of a flooding broadcast run."""

    num_nodes: int
    informed: int
    metrics: RunMetrics

    @property
    def all_informed(self) -> bool:
        return self.informed == self.num_nodes

    @property
    def messages(self) -> int:
        return self.metrics.messages

    @property
    def rounds(self) -> int:
        return self.metrics.rounds


def _simulate(
    graph: Graph,
    sources: Set[int],
    rumor: int,
    seed: Optional[int],
    fault_plan: Optional[FaultPlan],
    max_rounds: int,
) -> SimulationResult:
    """One flooding run on the shared harness (historical seed streams)."""
    if not sources:
        raise ValueError("at least one source node is required")
    return build_network(
        graph,
        flooding_factory(sources, rumor),
        seed=seed,
        port_stream=0x11,
        network_stream=0x12,
        fault_plan=fault_plan,
    ).run(max_rounds=max_rounds)


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
    result = _simulate(graph, source_set, rumor, seed, fault_plan, max_rounds)
    informed = result.nodes_with("informed", True)
    uninformed = sorted(set(range(graph.num_nodes)) - set(informed))
    return TrialOutcome(
        algorithm="flooding",
        kind="broadcast",
        num_nodes=graph.num_nodes,
        winners=sorted(source_set),
        classification=classify_broadcast(uninformed, result.crashed_nodes),
        metrics=result.metrics,
        crashed_nodes=list(result.crashed_nodes),
        extras={"informed": len(informed), "rumor": rumor},
    )


def run_flooding_broadcast(
    graph: Graph,
    sources: Set[int],
    rumor: int = 1,
    seed: Optional[int] = None,
    max_rounds: int = 1_000_000,
    fault_plan: Optional[FaultPlan] = None,
) -> FloodingOutcome:
    """Flood ``rumor`` from ``sources`` and report coverage plus message cost."""
    result = _simulate(graph, set(sources), rumor, seed, fault_plan, max_rounds)
    informed = len(result.nodes_with("informed", True))
    return FloodingOutcome(num_nodes=graph.num_nodes, informed=informed, metrics=result.metrics)
