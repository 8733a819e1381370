"""Tests for the budget-limited election harness (Theorem 15 mechanism)."""

import random

import pytest

from repro.graphs import complete_graph
from repro.lowerbound import (
    CliqueCommunicationTracker,
    build_lower_bound_graph,
    lemma18_expected_messages,
    run_budgeted_probe_election,
    run_walk_budget_election,
    sample_clique_discovery_messages,
)


@pytest.fixture(scope="module")
def lb_graph():
    return build_lower_bound_graph(200, clique_size=8, seed=11)


class TestLemma18Sampler:
    def test_rejects_tiny_cliques(self):
        with pytest.raises(ValueError):
            sample_clique_discovery_messages(2, random.Random(0))

    def test_sample_is_positive_and_bounded(self):
        rng = random.Random(1)
        for _ in range(50):
            value = sample_clique_discovery_messages(10, rng)
            assert 1 <= value <= 100

    def test_mean_scales_with_clique_size_squared(self):
        rng = random.Random(2)
        small = sum(sample_clique_discovery_messages(6, rng) for _ in range(400)) / 400
        large = sum(sample_clique_discovery_messages(18, rng) for _ in range(400)) / 400
        # Expected counts are ~ (s^2+1)/5, so a 3x clique size gives ~9x messages.
        assert large / small == pytest.approx(9.0, rel=0.4)

    def test_mean_exceeds_paper_bound(self):
        rng = random.Random(3)
        mean = sum(sample_clique_discovery_messages(12, rng) for _ in range(400)) / 400
        assert mean >= lemma18_expected_messages(12)


class TestWalkBudgetElection:
    def test_short_walks_yield_many_leaders(self, lb_graph):
        outcome = run_walk_budget_election(lb_graph.graph, walk_length=1, seed=5)
        assert outcome.num_leaders > 1

    def test_long_walks_yield_one_leader(self, lb_graph):
        outcome = run_walk_budget_election(lb_graph.graph, walk_length=32, seed=5)
        assert outcome.num_leaders == 1

    def test_messages_grow_with_walk_length(self, lb_graph):
        short = run_walk_budget_election(lb_graph.graph, walk_length=1, seed=6)
        long = run_walk_budget_election(lb_graph.graph, walk_length=16, seed=6)
        assert long.messages > short.messages

    def test_tracker_sees_few_cg_edges_for_short_walks(self, lb_graph):
        tracker = CliqueCommunicationTracker(lb_graph.node_to_clique)
        run_walk_budget_election(lb_graph.graph, walk_length=1, seed=7, observers=(tracker,))
        assert tracker.num_edges < lb_graph.num_cliques


class TestProbeElection:
    def test_probe_election_on_clique_succeeds_with_budget(self):
        graph = complete_graph(64)
        outcome = run_budgeted_probe_election(graph, probes_per_candidate=40, seed=8)
        assert outcome.num_leaders == 1

    def test_probe_election_with_zero_budget_fails(self):
        graph = complete_graph(64)
        outcome = run_budgeted_probe_election(graph, probes_per_candidate=0, seed=9)
        # Candidates never learn of each other: every candidate self-elects.
        assert outcome.num_leaders == outcome.num_contenders

    def test_probe_election_on_lb_graph_fragmented(self, lb_graph):
        outcome = run_budgeted_probe_election(lb_graph.graph, probes_per_candidate=3, seed=10)
        assert outcome.num_leaders >= 1
        assert outcome.messages > 0
