#!/usr/bin/env python3
"""Quickstart: elect a leader on a well-connected graph.

Builds a random 4-regular expander, runs the paper's implicit leader-election
algorithm (Theorem 13), and then the explicit variant (Corollary 14) that
broadcasts the winner's identity with push-pull gossip.

Run with::

    python examples/quickstart.py [n] [seed]
"""

from __future__ import annotations

import sys

from repro import expander_graph, run_explicit_leader_election, run_leader_election
from repro.analysis import upper_bound_messages_large, upper_bound_rounds_large
from repro.graphs import estimate_conductance, mixing_time


def main(n: int = 128, seed: int = 7) -> None:
    graph = expander_graph(n, degree=4, seed=seed)
    t_mix = mixing_time(graph)
    conductance = estimate_conductance(graph)
    print("graph: n=%d m=%d t_mix=%d phi~%.3f" % (
        graph.num_nodes, graph.num_edges, t_mix, conductance.best_estimate))

    outcome = run_leader_election(graph, seed=seed)
    print("\nimplicit leader election (Theorem 13)")
    print("  success        :", outcome.success)
    print("  leader node    :", outcome.leader)
    print("  contenders     :", outcome.num_contenders)
    print("  rounds         :", outcome.rounds)
    print("  messages       :", outcome.messages)
    print("  message units  :", outcome.message_units)
    print("  final walk len :", outcome.extras["final_walk_length"], "(t_mix = %d)" % t_mix)
    print("  reference      : O(sqrt(n) log^{3/2} n t_mix) ~ %.0f messages, O(t_mix) ~ %.0f rounds"
          % (upper_bound_messages_large(n, t_mix), upper_bound_rounds_large(n, t_mix)))

    explicit = run_explicit_leader_election(graph, seed=seed)
    print("\nexplicit leader election (Corollary 14)")
    print("  success            :", explicit.success)
    print("  election messages  :", explicit.election_messages)
    print("  broadcast messages :", explicit.broadcast_messages)
    print("  total rounds       :", explicit.total_rounds)


if __name__ == "__main__":
    size = int(sys.argv[1]) if len(sys.argv) > 1 else 128
    seed = int(sys.argv[2]) if len(sys.argv) > 2 else 7
    main(size, seed)
