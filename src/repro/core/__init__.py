"""The paper's primary contribution: the leader-election algorithm and its runner."""

from .explicit import ExplicitElectionOutcome, run_explicit_leader_election
from .identity import (
    NodeIdentity,
    contender_range_whp,
    decide_contender,
    draw_identifier,
    expected_contenders,
    initialise_node,
)
from .leader_election import LeaderElectionNode
from .params import DEFAULT_PARAMETERS, ElectionParameters, paper_parameters
from .result import (
    CLASSIFICATIONS,
    KIND_CLASSIFICATIONS,
    SUCCESS_CLASSIFICATIONS,
    TrialOutcome,
    outcome_from_simulation,
)
from .runner import ElectionRecipe, build_election_network, run_leader_election
from .schedule import PhaseSchedule, PhaseWindow, Segment
from .walks import WalkTreeState, binomial, lazy_step_counts, split_over_ports

__all__ = [
    "ElectionParameters",
    "DEFAULT_PARAMETERS",
    "paper_parameters",
    "PhaseSchedule",
    "PhaseWindow",
    "Segment",
    "NodeIdentity",
    "draw_identifier",
    "decide_contender",
    "initialise_node",
    "expected_contenders",
    "contender_range_whp",
    "WalkTreeState",
    "binomial",
    "lazy_step_counts",
    "split_over_ports",
    "LeaderElectionNode",
    "TrialOutcome",
    "CLASSIFICATIONS",
    "KIND_CLASSIFICATIONS",
    "SUCCESS_CLASSIFICATIONS",
    "outcome_from_simulation",
    "ElectionRecipe",
    "run_leader_election",
    "build_election_network",
    "ExplicitElectionOutcome",
    "run_explicit_leader_election",
]
