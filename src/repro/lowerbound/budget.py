"""Message-budgeted election: the executable form of the Theorem 15 adversary.

The lower bound says any algorithm that spends ``o(sqrt(n) / phi^{3/4})``
messages on the Section 4.1 graph elects zero or several leaders with constant
probability.  The mechanism (Lemma 18) is that a clique has ``clique_size^2``
ports of which only four lead outside, so an algorithm with a small message
budget never discovers an inter-clique edge and the symmetric cliques decide
independently.

:class:`RandomProbeNode` is a natural budget-limited election: candidates
probe a bounded number of uniformly random ports, contacted nodes echo the
largest candidate id they have heard, and a candidate that never hears a
larger id elects itself.  On a clique (or a clique-of-cliques with enough
probes) this is exactly the [25]-style sublinear election; with a budget below
``clique_size^2`` the cliques of the lower-bound graph stay mutually unaware
and several local winners emerge -- which is what the E5 experiment measures.
"""

from __future__ import annotations

import math
from functools import partial
from typing import Dict, List, Optional, Sequence

from ..baselines.known_tmix import known_tmix_trial
from ..core.params import ElectionParameters
from ..core.result import TrialOutcome, election_trial_outcome
from ..graphs.topology import Graph
from ..sim.harness import build_network
from ..sim.message import Message, id_bits
from ..sim.network import MessageObserver
from ..sim.node import Inbox, NodeContext, Protocol

__all__ = [
    "RandomProbeNode",
    "run_budgeted_probe_election",
    "run_walk_budget_election",
    "sample_clique_discovery_messages",
]

PROBE = "probe"
ECHO = "echo"


class RandomProbeNode(Protocol):
    """Candidate nodes probe a bounded number of random ports and compare ids."""

    def __init__(
        self,
        ctx: NodeContext,
        probes_per_candidate: int,
        candidate_probability: Optional[float] = None,
        decision_round: int = 8,
    ) -> None:
        super().__init__(ctx)
        n = ctx.known_n if ctx.known_n is not None else max(2, ctx.degree + 1)
        self.n = max(2, n)
        self.identifier = ctx.rng.randint(1, self.n**4)
        if candidate_probability is None:
            candidate_probability = min(1.0, 2.0 * math.log(self.n) / self.n)
        self.is_candidate = ctx.rng.random() < candidate_probability
        self.probes_per_candidate = max(0, probes_per_candidate)
        self.decision_round = max(2, decision_round)
        self.best_heard = self.identifier if self.is_candidate else 0
        self.best_echo = 0
        self.decided = False
        self.is_leader = False
        self._id_bits = id_bits(self.n)

    def on_start(self) -> None:
        if self.is_candidate:
            self._send_probes()
            self.ctx.wake_at(self.decision_round)

    def on_round(self, inbox: Inbox) -> None:
        probe_ports: List[int] = []
        for port, batch in inbox.items():
            for message in batch:
                value = message.payload["value"]
                if message.kind == PROBE:
                    self.best_echo = max(self.best_echo, value)
                    probe_ports.append(port)
                elif message.kind == ECHO:
                    self.best_heard = max(self.best_heard, value)
        if probe_ports:
            echo = Message(kind=ECHO, payload={"value": self.best_echo}, size_bits=self._id_bits)
            for port in probe_ports:
                self.ctx.send(port, echo)
        if (
            self.is_candidate
            and not self.decided
            and self.ctx.round >= self.decision_round
        ):
            self.decided = True
            self.is_leader = self.best_heard <= self.identifier

    def result(self) -> Dict[str, object]:
        return {
            "leader": self.is_leader,
            "contender": self.is_candidate,
            "id": self.identifier,
        }

    def _send_probes(self) -> None:
        if self.ctx.degree == 0 or self.probes_per_candidate == 0:
            return
        message = Message(kind=PROBE, payload={"value": self.identifier}, size_bits=self._id_bits)
        for _ in range(self.probes_per_candidate):
            port = self.ctx.rng.randrange(self.ctx.degree)
            self.ctx.send(port, message)


def run_walk_budget_election(
    graph: Graph,
    walk_length: int,
    seed: Optional[int] = None,
    observers: Sequence[MessageObserver] = (),
    c1: float = 3.0,
    c2: float = 1.0,
    max_rounds: Optional[int] = None,
) -> TrialOutcome:
    """Budget-limited election via bounded-length random walks.

    This is the natural "spend roughly ``#walks * walk_length`` messages"
    election: one phase of the [25]-style sampling election with the walk
    length pinned to ``walk_length`` -- the ``known_tmix`` baseline told
    that ``t_mix = walk_length``.  On the lower-bound graph short walks
    stay inside their clique (each step leaves with probability about
    ``4 / clique_size^2``), so cliques decide independently and several
    leaders emerge -- the Theorem 15 failure mode.  Longer walks (and hence
    larger message budgets) restore a unique leader.

    >>> from repro.lowerbound import build_lower_bound_graph
    >>> lb = build_lower_bound_graph(60, clique_size=5, seed=3)
    >>> short = run_walk_budget_election(lb.graph, walk_length=1, seed=3)
    >>> short.classification, short.num_leaders, short.success
    ('multiple_leaders', 4, False)
    >>> run_walk_budget_election(lb.graph, walk_length=8, seed=3).classification
    'elected'
    """
    return known_tmix_trial(
        graph,
        walk_length,
        params=ElectionParameters(c1=c1, c2=c2),
        seed=seed,
        max_rounds=max_rounds,
        observers=observers,
    )


def sample_clique_discovery_messages(clique_size: int, rng) -> int:
    """Monte Carlo version of Lemma 18's mechanism.

    A clique has ``clique_size**2`` ports of which 4 lead to other cliques;
    an algorithm that has received nothing from outside can do no better than
    trying ports it has not used yet.  This samples how many port activations
    happen before the first inter-clique port is hit (drawing without
    replacement), whose expectation is ``Theta(clique_size**2)``.
    """
    if clique_size < 3:
        raise ValueError("clique_size must be at least 3")
    total_ports = clique_size * clique_size
    external_ports = 4
    messages = 0
    remaining_total = total_ports
    remaining_external = external_ports
    while remaining_external > 0:
        messages += 1
        if rng.random() < remaining_external / remaining_total:
            return messages
        remaining_total -= 1
    return messages


def run_budgeted_probe_election(
    graph: Graph,
    probes_per_candidate: int,
    candidate_probability: Optional[float] = None,
    seed: Optional[int] = None,
    observers: Sequence[MessageObserver] = (),
    max_rounds: int = 10_000,
) -> TrialOutcome:
    """Run the budget-limited probe election and report how many leaders emerged.

    On a clique a few dozen probes per candidate find the largest id; with
    no probes every candidate elects itself:

    >>> from repro.graphs import complete_graph
    >>> run_budgeted_probe_election(complete_graph(64), 40, seed=8).classification
    'elected'
    >>> blind = run_budgeted_probe_election(complete_graph(64), 0, seed=9)
    >>> blind.classification, blind.num_leaders, blind.num_contenders
    ('multiple_leaders', 5, 5)
    """
    result = build_network(
        graph,
        partial(
            RandomProbeNode,
            probes_per_candidate=probes_per_candidate,
            candidate_probability=candidate_probability,
        ),
        seed=seed,
        port_stream=0x61,
        network_stream=0x62,
        observers=observers,
    ).run(max_rounds=max_rounds)
    return election_trial_outcome("random_probe", result)
