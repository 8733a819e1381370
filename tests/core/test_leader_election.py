"""Behavioural tests of the full leader-election protocol (Algorithms 1-2).

The expensive full run on the shared 64-node expander comes from the
session-scoped fixture; additional small runs exercise specific graph shapes
and parameter regimes.
"""

import pytest

from repro.core import (
    DEFAULT_PARAMETERS,
    ElectionParameters,
    LeaderElectionNode,
    run_leader_election,
)
from repro.graphs import (
    PortNumberedGraph,
    complete_graph,
    cycle_graph,
    hypercube_graph,
    mixing_time,
    torus_graph,
)
from repro.sim import Network, ProtocolError


class TestSharedExpanderRun:
    """Invariants of one full election on the shared 64-node expander."""

    def test_exactly_one_leader(self, small_expander_outcome):
        assert small_expander_outcome.success
        assert small_expander_outcome.num_leaders == 1

    def test_leader_is_a_contender(self, small_expander_outcome):
        leader = small_expander_outcome.leader
        assert small_expander_outcome.simulation.node_results[leader]["contender"]

    def test_leader_has_maximal_id_among_stopped_contenders(self, small_expander_outcome):
        results = small_expander_outcome.simulation.node_results
        leader_id = results[small_expander_outcome.leader]["id"]
        contender_ids = [res["id"] for res in results if res["contender"]]
        # The winner holds the largest id among all contenders in the common case
        # where every contender satisfied its properties in the same phase.
        assert leader_id == max(contender_ids)

    def test_all_contenders_stopped(self, small_expander_outcome):
        results = small_expander_outcome.simulation.node_results
        assert all(res["stopped"] for res in results if res["contender"])

    def test_non_contenders_never_lead(self, small_expander_outcome):
        results = small_expander_outcome.simulation.node_results
        assert all(res["contender"] for res in results if res["leader"])

    def test_leader_satisfied_both_properties(self, small_expander_outcome):
        results = small_expander_outcome.simulation.node_results
        leader_result = results[small_expander_outcome.leader]
        assert leader_result["satisfied_intersection"]
        assert leader_result["satisfied_distinctness"]

    def test_contender_count_is_plausible(self, small_expander_outcome):
        # Lemma 1: around c1 ln n = 5 * ln 64 ~ 20.8 contenders.
        assert 5 <= small_expander_outcome.num_contenders <= 45

    def test_final_walk_length_close_to_mixing_time(self, small_expander, small_expander_outcome):
        t_mix = mixing_time(small_expander)
        # The guess-and-double loop stops within a small factor of t_mix (Lemma 6).
        assert small_expander_outcome.extras["final_walk_length"] <= 4 * t_mix

    def test_message_cost_is_sublinear_in_edges_times_diameter(
        self, small_expander, small_expander_outcome
    ):
        # Not a tight bound -- just a sanity ceiling far below naive flooding for D rounds.
        n = small_expander.num_nodes
        m = small_expander.num_edges
        assert small_expander_outcome.messages < 20 * m * n ** 0.5

    def test_rounds_completed(self, small_expander_outcome):
        assert small_expander_outcome.metrics.completed
        assert small_expander_outcome.rounds > 0

    def test_losing_contenders_heard_of_the_winner_or_saw_a_larger_id(self, small_expander_outcome):
        results = small_expander_outcome.simulation.node_results
        leader_id = results[small_expander_outcome.leader]["id"]
        for index, res in enumerate(results):
            if res["contender"] and not res["leader"]:
                assert res["heard_winner"] or res["id"] < leader_id

    def test_message_kinds_present(self, small_expander_outcome):
        kinds = small_expander_outcome.metrics.messages_by_kind
        assert "walk_token" in kinds
        assert "report" in kinds
        assert kinds["walk_token"] > kinds.get("winner_down", 0)


class TestOtherTopologies:
    def test_clique_election(self):
        outcome = run_leader_election(complete_graph(32), seed=11)
        assert outcome.success
        # The slowest contender may take a few extra doublings, but never past the cap.
        assert outcome.extras["final_walk_length"] <= DEFAULT_PARAMETERS.walk_length_cap(32)

    def test_hypercube_election(self):
        outcome = run_leader_election(hypercube_graph(5), seed=12)
        assert outcome.success

    def test_torus_election(self):
        outcome = run_leader_election(torus_graph(6, 6), seed=13)
        assert outcome.success

    def test_small_cycle_election_terminates(self):
        # Poorly connected: the point is termination and at most one leader.
        outcome = run_leader_election(cycle_graph(16), seed=14)
        assert outcome.num_leaders <= 1
        assert outcome.metrics.completed


class TestDeterminismAndSeeding:
    def test_same_seed_same_outcome(self, small_expander):
        a = run_leader_election(small_expander, seed=21)
        b = run_leader_election(small_expander, seed=21)
        assert a.leaders == b.leaders
        assert a.messages == b.messages
        assert a.rounds == b.rounds

    def test_different_seeds_differ_somewhere(self, small_expander):
        a = run_leader_election(small_expander, seed=22)
        b = run_leader_election(small_expander, seed=23)
        assert (a.leaders, a.messages) != (b.leaders, b.messages)


class TestParameterEffects:
    def test_more_contenders_with_larger_c1(self):
        graph = complete_graph(32)
        low = run_leader_election(graph, params=ElectionParameters(c1=2.0), seed=31)
        high = run_leader_election(graph, params=ElectionParameters(c1=10.0), seed=31)
        assert high.num_contenders > low.num_contenders

    def test_more_walks_cost_more_messages(self):
        graph = complete_graph(32)
        few = run_leader_election(graph, params=ElectionParameters(c2=0.5), seed=32)
        many = run_leader_election(graph, params=ElectionParameters(c2=2.0), seed=32)
        assert many.messages > few.messages

    def test_walk_length_cap_forces_termination(self):
        # With an absurd intersection requirement the properties never hold;
        # the cap must still terminate the run.
        params = ElectionParameters(c1=1.0, intersection_fraction=1.25, max_walk_length=4)
        outcome = run_leader_election(complete_graph(16), params=params, seed=33)
        assert outcome.metrics.completed
        assert outcome.extras["final_walk_length"] <= 4
        assert outcome.extras["forced_stop"] or outcome.num_leaders <= 1

    def test_forced_stop_can_be_disallowed(self):
        params = ElectionParameters(
            c1=1.0,
            intersection_fraction=1.25,
            max_walk_length=4,
            elect_on_forced_stop=False,
        )
        outcome = run_leader_election(complete_graph(16), params=params, seed=34)
        # Without the graceful fallback a forced stop cannot produce a leader
        # unless the properties were in fact satisfied.
        if outcome.extras["forced_stop"] and outcome.num_leaders == 0:
            assert not outcome.success

    def test_congestion_slack_stretches_rounds(self):
        graph = complete_graph(32)
        tight = run_leader_election(graph, params=ElectionParameters(congestion_slack=1), seed=35)
        slack = run_leader_election(graph, params=ElectionParameters(congestion_slack=3), seed=35)
        assert slack.rounds > tight.rounds


class TestModelRequirements:
    def test_unknown_n_requires_assumed_n(self):
        graph = complete_graph(16)
        ports = PortNumberedGraph(graph, seed=1)
        with pytest.raises(ProtocolError):
            Network(ports, LeaderElectionNode, known_n=None, seed=2)

    def test_assumed_n_fallback_is_accepted(self):
        graph = complete_graph(16)
        outcome = run_leader_election(graph, seed=36, known_n=None, assumed_n=16)
        assert outcome.metrics.completed

    def test_wrong_n_still_terminates(self):
        graph = complete_graph(24)
        outcome = run_leader_election(graph, seed=37, known_n=12)
        assert outcome.metrics.completed
