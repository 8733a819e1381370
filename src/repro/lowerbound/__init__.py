"""Executable lower-bound harness: Section 4 constructions and Section 5 dumbbells."""

from .budget import (
    RandomProbeNode,
    run_budgeted_probe_election,
    run_walk_budget_election,
    sample_clique_discovery_messages,
)
from .clique_graph import CliqueCommunicationTracker
from .construction import (
    LowerBoundGraph,
    alpha_for_clique_size,
    build_lower_bound_graph,
    epsilon_for_alpha,
    lemma18_expected_messages,
)
from .dumbbell import (
    BridgeCrossingObserver,
    DumbbellGraph,
    UnknownSizeExperimentResult,
    build_dumbbell_graph,
    is_two_connected,
    run_unknown_n_experiment,
)

__all__ = [
    "LowerBoundGraph",
    "build_lower_bound_graph",
    "alpha_for_clique_size",
    "epsilon_for_alpha",
    "lemma18_expected_messages",
    "CliqueCommunicationTracker",
    "RandomProbeNode",
    "run_budgeted_probe_election",
    "run_walk_budget_election",
    "sample_clique_discovery_messages",
    "DumbbellGraph",
    "build_dumbbell_graph",
    "is_two_connected",
    "BridgeCrossingObserver",
    "UnknownSizeExperimentResult",
    "run_unknown_n_experiment",
]
