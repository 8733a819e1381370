"""Tests for explicit leader election (Corollary 14)."""

import pytest

from repro.core import run_explicit_leader_election
from repro.graphs import complete_graph, expander_graph


@pytest.fixture(scope="module")
def explicit_outcome():
    return run_explicit_leader_election(expander_graph(48, seed=2), seed=17)


class TestExplicitElection:
    def test_every_node_learns_the_leader(self, explicit_outcome):
        assert explicit_outcome.success
        assert explicit_outcome.broadcast is not None
        assert explicit_outcome.broadcast.classification == "informed_all"

    def test_cost_split_adds_up(self, explicit_outcome):
        assert (
            explicit_outcome.total_messages
            == explicit_outcome.election_messages + explicit_outcome.broadcast_messages
        )
        assert explicit_outcome.total_rounds >= explicit_outcome.election.rounds

    def test_broadcast_spreads_the_leader_id(self, explicit_outcome):
        leader_index = explicit_outcome.election.leader
        leader_id = explicit_outcome.election.simulation.node_results[leader_index]["id"]
        assert explicit_outcome.broadcast.num_nodes == 48
        # The rumor value equals the leader's identifier.
        assert leader_id > 0

    def test_record_contains_both_phases(self, explicit_outcome):
        record = explicit_outcome.as_record()
        assert record["explicit_success"] is True
        assert record["broadcast_messages"] > 0
        assert record["total_messages"] >= record["messages"]

    def test_clique_explicit_election(self):
        outcome = run_explicit_leader_election(complete_graph(32), seed=3)
        assert outcome.success
        assert outcome.broadcast_messages > 0
