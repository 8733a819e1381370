"""Dumbbell graphs and the "knowledge of n is critical" experiment (Theorem 28).

Section 5 shows that without knowledge of the network size any algorithm needs
``Omega(m)`` messages: take two copies of a 2-connected graph ``G0``, open one
edge in each copy, and join the copies by two *bridge* edges.  An algorithm
that does not know ``n`` cannot distinguish running on ``G0`` from running on
one side of the dumbbell until a message crosses a bridge, so it either spends
``Omega(m)`` messages or elects a leader on each side.

This module builds the dumbbell, provides a bridge-crossing observer, and a
runner that executes the paper's own algorithm on the dumbbell while every
node is (wrongly) told that the network has ``|G0|`` nodes -- reproducing the
failure mode the theorem predicts.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import List, Optional, Set, Tuple

from ..core.params import DEFAULT_PARAMETERS, ElectionParameters
from ..core.result import TrialOutcome
from ..core.runner import run_leader_election
from ..graphs.topology import Graph
from ..sim.message import Message

__all__ = [
    "DumbbellGraph",
    "is_two_connected",
    "build_dumbbell_graph",
    "BridgeCrossingObserver",
    "UnknownSizeExperimentResult",
    "run_unknown_n_experiment",
]


def is_two_connected(graph: Graph) -> bool:
    """Check 2-(vertex-)connectedness by removing each vertex in turn."""
    if graph.num_nodes < 3:
        return False
    if not graph.is_connected():
        return False
    for removed in graph.nodes():
        remaining = [v for v in graph.nodes() if v != removed]
        seen = {remaining[0]}
        frontier = [remaining[0]]
        while frontier:
            nxt = []
            for u in frontier:
                for v in graph.neighbors(u):
                    if v != removed and v not in seen:
                        seen.add(v)
                        nxt.append(v)
            frontier = nxt
        if len(seen) != graph.num_nodes - 1:
            return False
    return True


@dataclass
class DumbbellGraph:
    """Two opened copies of a base graph joined by two bridge edges."""

    graph: Graph
    base_num_nodes: int
    left_nodes: List[int]
    right_nodes: List[int]
    bridges: List[Tuple[int, int]]
    removed_edges: List[Tuple[int, int]]

    @property
    def num_nodes(self) -> int:
        return self.graph.num_nodes

    def side_of(self, node: int) -> str:
        """``"left"`` or ``"right"`` half of the dumbbell."""
        return "left" if node < self.base_num_nodes else "right"


def build_dumbbell_graph(base: Graph, seed: Optional[int] = None) -> DumbbellGraph:
    """Build ``Dumbbell(G0[e'], G0[e''])`` from a 2-connected base graph ``G0``.

    One edge is removed from each copy (chosen at random) and the four freed
    endpoints are joined crosswise by the two bridge edges, exactly as in the
    Section 5 construction.  2-connectedness of the base guarantees each
    opened copy stays connected.
    """
    if not is_two_connected(base):
        raise ValueError("the dumbbell construction requires a 2-connected base graph")
    rng = random.Random(seed)
    n = base.num_nodes
    edges = list(base.edges())
    left_removed = edges[rng.randrange(len(edges))]
    right_removed = edges[rng.randrange(len(edges))]

    graph = Graph(2 * n)
    for u, v in base.edges():
        if (u, v) != left_removed:
            graph.add_edge(u, v)
        if (u, v) != right_removed:
            graph.add_edge(u + n, v + n)
    v_left, w_left = left_removed
    v_right, w_right = right_removed
    bridges = [(v_left, v_right + n), (w_left, w_right + n)]
    for a, b in bridges:
        graph.add_edge(a, b)
    return DumbbellGraph(
        graph=graph,
        base_num_nodes=n,
        left_nodes=list(range(n)),
        right_nodes=list(range(n, 2 * n)),
        bridges=bridges,
        removed_edges=[left_removed, (v_right + n, w_right + n)],
    )


class BridgeCrossingObserver:
    """Counts messages that cross the dumbbell's bridge edges (the BC problem)."""

    def __init__(self, bridges: List[Tuple[int, int]]) -> None:
        self._bridge_pairs: Set[frozenset] = {frozenset(edge) for edge in bridges}
        self.crossings = 0
        self.first_crossing_round: Optional[int] = None

    def __call__(self, round_number: int, sender: int, receiver: int, message: Message) -> None:
        if frozenset((sender, receiver)) in self._bridge_pairs:
            self.crossings += 1
            if self.first_crossing_round is None:
                self.first_crossing_round = round_number

    @property
    def bridge_crossed(self) -> bool:
        """Whether the bridge-crossing problem was ever solved during the run."""
        return self.crossings > 0


@dataclass
class UnknownSizeExperimentResult:
    """Outcome of running the algorithm with the wrong network size on a dumbbell."""

    outcome: TrialOutcome
    dumbbell: DumbbellGraph
    leaders_left: int
    leaders_right: int
    bridge_crossings: int

    @property
    def num_leaders(self) -> int:
        return self.outcome.num_leaders

    @property
    def elected_on_both_sides(self) -> bool:
        """The Theorem 28 failure mode: each half elects its own leader."""
        return self.leaders_left >= 1 and self.leaders_right >= 1

    @property
    def messages(self) -> int:
        return self.outcome.messages


def run_unknown_n_experiment(
    base: Graph,
    params: ElectionParameters = DEFAULT_PARAMETERS,
    seed: Optional[int] = None,
    max_rounds: Optional[int] = None,
) -> UnknownSizeExperimentResult:
    """Run the election on a dumbbell while nodes believe ``n = |base|``.

    Every node of the ``2n``-node dumbbell is told the network has ``n``
    nodes, which is precisely the indistinguishability setting of Theorem 28:
    with the message budget the algorithm uses for an ``n``-node graph the two
    halves typically never communicate and each elects a leader.
    """
    dumbbell = build_dumbbell_graph(base, seed=seed)
    observer = BridgeCrossingObserver(dumbbell.bridges)
    outcome = run_leader_election(
        dumbbell.graph,
        params=params,
        seed=seed,
        known_n=base.num_nodes,
        observers=(observer,),
        max_rounds=max_rounds,
    )
    leaders_left = sum(1 for leader in outcome.leaders if dumbbell.side_of(leader) == "left")
    leaders_right = sum(1 for leader in outcome.leaders if dumbbell.side_of(leader) == "right")
    return UnknownSizeExperimentResult(
        outcome=outcome,
        dumbbell=dumbbell,
        leaders_left=leaders_left,
        leaders_right=leaders_right,
        bridge_crossings=observer.crossings,
    )
