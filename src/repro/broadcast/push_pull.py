"""Push-pull rumor spreading (Karp et al. [22]), used for explicit leader election.

Corollary 14 of the paper turns the implicit election into an explicit one by
letting the leader broadcast its identity with push-pull gossip, which takes
``O(log n / phi)`` rounds and ``O(n log n / phi)`` messages on a graph of
conductance ``phi`` (Giakkoupis [17]).

Protocol per round:

* every *informed* node pushes the rumor to one uniformly random port for
  ``push_rounds`` rounds after it first learned the rumor;
* every *uninformed* node sends a pull request to one uniformly random port;
  an informed node answers pull requests with the rumor.

Once every node is informed, pulls cease and pushes die out after
``push_rounds`` more rounds, so the network goes quiet on its own and no node
needs global knowledge to terminate.
"""

from __future__ import annotations

import math
from functools import partial
from typing import Dict, Iterable, Optional, Set

from ..core.result import TrialOutcome, broadcast_trial_outcome
from ..faults.plan import FaultPlan
from ..graphs.topology import Graph
from ..sim.harness import build_network
from ..sim.message import Message, counter_bits, id_bits
from ..sim.node import Inbox, NodeContext, Protocol

__all__ = ["PushPullNode", "push_pull_trial"]

PUSH = "push"
PULL_REQUEST = "pull_request"
PULL_REPLY = "pull_reply"


class PushPullNode(Protocol):
    """One node of the push-pull rumor-spreading protocol."""

    def __init__(
        self,
        ctx: NodeContext,
        sources: Set[int],
        rumor: int,
        push_rounds: Optional[int] = None,
    ) -> None:
        super().__init__(ctx)
        n = ctx.known_n if ctx.known_n is not None else 2
        self.rumor: Optional[int] = rumor if ctx.node_index in sources else None
        self.informed_at: Optional[int] = 0 if self.rumor is not None else None
        if push_rounds is None:
            push_rounds = max(4, 2 * math.ceil(math.log2(max(2, n))))
        self.push_rounds = push_rounds
        self._rumor_bits = id_bits(max(2, n)) + counter_bits(1)

    # ------------------------------------------------------------------ hooks
    def on_start(self) -> None:
        self.ctx.wake_next_round()

    def on_round(self, inbox: Inbox) -> None:
        pull_ports = []
        for port, batch in inbox.items():
            for message in batch:
                if message.kind in (PUSH, PULL_REPLY):
                    self._learn(message.payload["rumor"])
                elif message.kind == PULL_REQUEST:
                    pull_ports.append(port)
        # Answer pull requests if informed.
        if self.rumor is not None:
            for port in pull_ports:
                self.ctx.send(port, self._rumor_message(PULL_REPLY))
        if self.ctx.degree == 0:
            return
        if self.rumor is None:
            # Uninformed: pull from a random neighbour and try again next round.
            port = self.ctx.rng.randrange(self.ctx.degree)
            self.ctx.send(port, Message(kind=PULL_REQUEST, payload={}, size_bits=1))
            self.ctx.wake_next_round()
        else:
            elapsed = self.ctx.round - self.informed_at
            if elapsed < self.push_rounds:
                port = self.ctx.rng.randrange(self.ctx.degree)
                self.ctx.send(port, self._rumor_message(PUSH))
                self.ctx.wake_next_round()

    def result(self) -> Dict[str, object]:
        return {"informed": self.rumor is not None, "rumor": self.rumor}

    # -------------------------------------------------------------- internals
    def _learn(self, rumor: int) -> None:
        if self.rumor is None:
            self.rumor = rumor
            self.informed_at = self.ctx.round

    def _rumor_message(self, kind: str) -> Message:
        return Message(kind=kind, payload={"rumor": self.rumor}, size_bits=self._rumor_bits)


def push_pull_trial(
    graph: Graph,
    sources: Iterable[int] = (0,),
    rumor: int = 1,
    *,
    seed: Optional[int] = None,
    push_rounds: Optional[int] = None,
    fault_plan: Optional[FaultPlan] = None,
    max_rounds: int = 10_000,
) -> TrialOutcome:
    """Run push-pull gossip from ``sources`` and return the unified outcome.

    Dropped pulls only delay the spread (the puller retries every round), so
    the gossip degrades gracefully under message faults -- which is exactly
    what the E13 cross-algorithm robustness comparison measures.  The flip
    side of those retries is that a crash plan which kills every informed
    node leaves the survivors pulling against the dead forever; the default
    ``max_rounds`` is therefore a round budget far above any healthy run
    (push-pull needs ``O(log n / phi)`` rounds) but small enough that the
    pathological case ends promptly and classifies as ``"partial"`` /
    ``"informed_live"`` instead of burning the simulator's million-round
    ceiling.
    """
    source_set = set(sources)
    if not source_set:
        raise ValueError("at least one source node is required")
    result = build_network(
        graph,
        partial(PushPullNode, sources=source_set, rumor=rumor, push_rounds=push_rounds),
        seed=seed,
        port_stream=0x9,
        network_stream=0xA,
        fault_plan=fault_plan,
    ).run(max_rounds=max_rounds)
    return broadcast_trial_outcome("push_pull", result, source_set, rumor)
