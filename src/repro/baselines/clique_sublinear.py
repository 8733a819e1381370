"""The sublinear election on complete graphs (Kutten et al. [25]).

On a clique, a node can reach a uniformly random node in one hop, so the
random-walk machinery degenerates to direct sampling: contenders message
``Theta(sqrt(n) log n)`` random ports, every contacted node ("referee")
replies with the largest contender id it has heard, and a contender elects
itself only if no reply exceeded its own id.  By the birthday paradox any two
contenders share a referee w.h.p., so at most one contender survives, and the
maximum-id contender always survives.  Cost: ``O(sqrt(n) log^{3/2} n)``
messages in ``O(1)`` rounds -- the clique-specific bound the paper generalises
to arbitrary well-connected graphs.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional

from ..core.result import TrialOutcome, election_trial_outcome
from ..faults.plan import FaultPlan
from ..graphs.topology import Graph
from ..sim.harness import run_protocol
from ..sim.message import Message, id_bits
from ..sim.network import SimulationResult
from ..sim.node import Inbox, NodeContext, Protocol

__all__ = [
    "CliqueSublinearNode",
    "clique_sublinear_factory",
    "clique_sublinear_trial",
]

PROBE = "probe"
REFEREE_REPLY = "referee_reply"


class CliqueSublinearNode(Protocol):
    """One node of the clique-specific sublinear election."""

    def __init__(self, ctx: NodeContext, c1: float = 2.0, c2: float = 1.0) -> None:
        super().__init__(ctx)
        n = ctx.known_n if ctx.known_n is not None else max(2, ctx.degree + 1)
        self.n = max(2, n)
        self.identifier = ctx.rng.randint(1, self.n**4)
        probability = min(1.0, c1 * math.log(self.n) / self.n)
        self.is_contender = ctx.rng.random() < probability
        self.num_probes = max(1, math.ceil(c2 * math.sqrt(self.n) * math.log(self.n)))
        self.best_heard = self.identifier if self.is_contender else 0
        self.best_referee_seen = 0
        self._id_bits = id_bits(self.n)
        self._probe_ports: List[int] = []

    def on_start(self) -> None:
        if not self.is_contender or self.ctx.degree == 0:
            return
        ports = list(self.ctx.ports)
        self.ctx.rng.shuffle(ports)
        self._probe_ports = ports[: min(self.num_probes, len(ports))]
        message = Message(
            kind=PROBE, payload={"value": self.identifier}, size_bits=self._id_bits
        )
        for port in self._probe_ports:
            self.ctx.send(port, message)

    def on_round(self, inbox: Inbox) -> None:
        probe_ports: List[int] = []
        for port, batch in inbox.items():
            for message in batch:
                value = message.payload["value"]
                if message.kind == PROBE:
                    self.best_referee_seen = max(self.best_referee_seen, value)
                    probe_ports.append(port)
                elif message.kind == REFEREE_REPLY:
                    self.best_heard = max(self.best_heard, value)
        # Referee behaviour: answer every probe with the largest contender id seen.
        if probe_ports:
            reply = Message(
                kind=REFEREE_REPLY,
                payload={"value": self.best_referee_seen},
                size_bits=self._id_bits,
            )
            for port in probe_ports:
                self.ctx.send(port, reply)

    def result(self) -> Dict[str, object]:
        return {
            "leader": self.is_contender and self.best_heard <= self.identifier,
            "contender": self.is_contender,
            "id": self.identifier,
        }


def clique_sublinear_factory(c1: float = 2.0, c2: float = 1.0):
    """Protocol factory for :class:`repro.sim.Network`."""

    def factory(ctx: NodeContext) -> CliqueSublinearNode:
        return CliqueSublinearNode(ctx, c1=c1, c2=c2)

    return factory


def _simulate(
    graph: Graph,
    c1: float,
    c2: float,
    seed: Optional[int],
    fault_plan: Optional[FaultPlan],
    max_rounds: int,
) -> SimulationResult:
    """One clique-sublinear run on the shared harness."""
    return run_protocol(
        graph,
        clique_sublinear_factory(c1=c1, c2=c2),
        seed=seed,
        port_stream=0x51,
        network_stream=0x52,
        fault_plan=fault_plan,
        max_rounds=max_rounds,
    )


def clique_sublinear_trial(
    graph: Graph,
    c1: float = 2.0,
    c2: float = 1.0,
    *,
    seed: Optional[int] = None,
    fault_plan: Optional[FaultPlan] = None,
    max_rounds: int = 1_000,
) -> TrialOutcome:
    """Run the clique-specific baseline and return the unified outcome.

    Intended for complete graphs; a non-empty ``fault_plan`` runs the
    probe/referee exchange against that adversary (dropped replies make
    over-eager contenders elect themselves, which the classification
    reports as ``"multiple_leaders"``).
    """
    result = _simulate(graph, c1, c2, seed, fault_plan, max_rounds)
    return election_trial_outcome("clique_sublinear", result)
