"""Explicit leader election (Corollary 14): implicit election + push-pull broadcast.

The paper observes that, once an implicit leader exists, broadcasting its id
with push-pull gossip costs ``O(n log n / phi)`` messages and
``O(log n / phi)`` rounds, and that for well-connected graphs the election
dominates the broadcast in *time* while the broadcast dominates in *messages*
(which is why the implicit variant can beat the ``Omega(n)`` explicit bound).
This module composes the two phases and reports both cost components so the
E6 experiment can show the split.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ..broadcast.push_pull import push_pull_trial
from ..graphs.topology import Graph
from ..sim.rng import derive_seed
from .params import DEFAULT_PARAMETERS, ElectionParameters
from .result import TrialOutcome
from .runner import run_leader_election

__all__ = ["ExplicitElectionOutcome", "run_explicit_leader_election"]


@dataclass
class ExplicitElectionOutcome:
    """Combined outcome of the election phase and the broadcast phase."""

    election: TrialOutcome
    broadcast: Optional[TrialOutcome]

    @property
    def success(self) -> bool:
        """Exactly one leader was elected and every node learned its identity."""
        if not self.election.success:
            return False
        return (
            self.broadcast is not None
            and self.broadcast.classification == "informed_all"
        )

    @property
    def election_messages(self) -> int:
        return self.election.messages

    @property
    def broadcast_messages(self) -> int:
        return self.broadcast.messages if self.broadcast is not None else 0

    @property
    def total_messages(self) -> int:
        return self.election_messages + self.broadcast_messages

    @property
    def total_rounds(self) -> int:
        rounds = self.election.rounds
        if self.broadcast is not None:
            rounds += self.broadcast.rounds
        return rounds

    def as_record(self) -> dict:
        """Flat dictionary for sweep tables."""
        record = self.election.as_record()
        record.update(
            {
                "broadcast_messages": self.broadcast_messages,
                "total_messages": self.total_messages,
                "total_rounds": self.total_rounds,
                "explicit_success": self.success,
            }
        )
        return record


def run_explicit_leader_election(
    graph: Graph,
    params: ElectionParameters = DEFAULT_PARAMETERS,
    seed: Optional[int] = None,
    push_rounds: Optional[int] = None,
    max_rounds: int = 10_000_000,
) -> ExplicitElectionOutcome:
    """Run Corollary 14: implicit election followed by push-pull dissemination.

    The broadcast phase only runs when the election produced a unique leader;
    otherwise the outcome reports the election failure and no broadcast cost.
    """
    election = run_leader_election(
        graph,
        params=params,
        seed=seed,
        max_rounds=max_rounds,
        keep_simulation=True,
    )
    broadcast = None
    if election.success:
        leader_index = election.leader
        leader_id = election.simulation.node_results[leader_index].get("id", leader_index)
        broadcast = push_pull_trial(
            graph,
            (leader_index,),
            leader_id,
            seed=None if seed is None else derive_seed(seed, 0xB0),
            push_rounds=push_rounds,
            max_rounds=max_rounds,
        )
    return ExplicitElectionOutcome(election=election, broadcast=broadcast)
