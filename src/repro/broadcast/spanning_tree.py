"""Distributed spanning-tree construction (the Corollary 27 substrate).

Corollary 27 lower-bounds the message complexity of spanning-tree construction
on the Section 4.1 graphs by `Omega(n / sqrt(phi))`.  To exercise that claim we
need an actual spanning-tree algorithm: this module implements the standard
flooding/BFS construction -- the root floods an "adopt me" token, every other
node adopts the first port the token arrived on as its parent -- which uses
`Theta(m)` messages and `O(D)` rounds and is therefore message-optimal up to
constants on the lower-bound graphs (where `m = Theta(n / sqrt(phi))`).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Dict, List, Optional, Tuple

from ..core.result import TrialOutcome, classify_spanning_tree
from ..faults.plan import FaultPlan
from ..graphs.topology import Graph
from ..sim.harness import build_network
from ..sim.message import Message, counter_bits
from ..sim.metrics import RunMetrics
from ..sim.network import SimulationResult
from ..sim.node import Inbox, NodeContext, Protocol

__all__ = [
    "SpanningTreeNode",
    "SpanningTreeOutcome",
    "spanning_tree_trial",
    "run_spanning_tree_construction",
]

ADOPT = "adopt"


class SpanningTreeNode(Protocol):
    """BFS-style spanning tree: adopt the first port the token arrives on."""

    def __init__(self, ctx: NodeContext, root: int) -> None:
        super().__init__(ctx)
        self.is_root = ctx.node_index == root
        self.parent_port: Optional[int] = None
        self.depth: Optional[int] = 0 if self.is_root else None
        self.joined = self.is_root

    def on_start(self) -> None:
        if self.is_root:
            self._invite(depth=0)

    def on_round(self, inbox: Inbox) -> None:
        for port, batch in inbox.items():
            for message in batch:
                if message.kind != ADOPT or self.joined:
                    continue
                self.joined = True
                self.parent_port = port
                self.depth = message.payload["depth"] + 1
                self._invite(depth=self.depth)

    def result(self) -> Dict[str, object]:
        return {
            "joined": self.joined,
            "is_root": self.is_root,
            "parent_port": self.parent_port,
            "depth": self.depth,
        }

    def _invite(self, depth: int) -> None:
        message = Message(kind=ADOPT, payload={"depth": depth}, size_bits=counter_bits(depth + 1))
        for port in self.ctx.ports:
            self.ctx.send(port, message)


@dataclass
class SpanningTreeOutcome:
    """Result of one spanning-tree construction."""

    num_nodes: int
    root: int
    joined: int
    parent_edges: List[Tuple[int, int]]
    depths: List[Optional[int]]
    metrics: RunMetrics

    @property
    def is_spanning(self) -> bool:
        """Every node joined and exactly ``n - 1`` parent edges exist."""
        return self.joined == self.num_nodes and len(self.parent_edges) == self.num_nodes - 1

    @property
    def tree_depth(self) -> int:
        """Maximum depth of any node in the constructed tree."""
        return max(depth for depth in self.depths if depth is not None)

    @property
    def messages(self) -> int:
        return self.metrics.messages

    @property
    def rounds(self) -> int:
        return self.metrics.rounds


def _simulate(
    graph: Graph,
    root: int,
    seed: Optional[int],
    fault_plan: Optional[FaultPlan],
    max_rounds: int,
) -> SimulationResult:
    """One spanning-tree run on the shared harness (historical seed streams)."""
    if not 0 <= root < graph.num_nodes:
        raise ValueError("root %d is not a node of the graph" % root)
    return build_network(
        graph,
        partial(SpanningTreeNode, root=root),
        seed=seed,
        port_stream=0x71,
        network_stream=0x72,
        fault_plan=fault_plan,
    ).run(max_rounds=max_rounds)


def spanning_tree_trial(
    graph: Graph,
    root: int = 0,
    *,
    seed: Optional[int] = None,
    fault_plan: Optional[FaultPlan] = None,
    max_rounds: int = 1_000_000,
) -> TrialOutcome:
    """Build a spanning tree and return the unified trial outcome.

    ``winners`` is the root; ``extras`` records how many nodes joined and the
    constructed depth.  Dropped adopt tokens are never retransmitted, so
    message faults genuinely shrink coverage -- the classification separates
    "spanned everyone", "spanned every live node" and "partial" (see
    :data:`~repro.core.result.SPANNING_TREE_CLASSIFICATIONS`).
    """
    result = _simulate(graph, root, seed, fault_plan, max_rounds)
    joined = result.nodes_with("joined", True)
    unjoined = sorted(set(range(graph.num_nodes)) - set(joined))
    depths = [res["depth"] for res in result.node_results]
    tree_depth = max((depth for depth in depths if depth is not None), default=0)
    return TrialOutcome(
        algorithm="spanning_tree",
        kind="spanning_tree",
        num_nodes=graph.num_nodes,
        winners=[root],
        classification=classify_spanning_tree(unjoined, result.crashed_nodes),
        metrics=result.metrics,
        crashed_nodes=list(result.crashed_nodes),
        extras={"joined": len(joined), "tree_depth": tree_depth},
    )


def run_spanning_tree_construction(
    graph: Graph,
    root: int = 0,
    seed: Optional[int] = None,
    max_rounds: int = 1_000_000,
    fault_plan: Optional[FaultPlan] = None,
) -> SpanningTreeOutcome:
    """Build a spanning tree rooted at ``root`` and report its cost and shape."""
    result = _simulate(graph, root, seed, fault_plan, max_rounds)
    port_graph = result.port_graph
    parent_edges: List[Tuple[int, int]] = []
    depths: List[Optional[int]] = []
    joined = 0
    for node, res in enumerate(result.node_results):
        depths.append(res["depth"])
        if res["joined"]:
            joined += 1
        if res["parent_port"] is not None:
            parent = port_graph.port_to_neighbor(node, res["parent_port"])
            parent_edges.append((node, parent))
    return SpanningTreeOutcome(
        num_nodes=graph.num_nodes,
        root=root,
        joined=joined,
        parent_edges=parent_edges,
        depths=depths,
        metrics=result.metrics,
    )
