"""Tests for flooding broadcast."""

import pytest

from repro.broadcast import flooding_trial
from repro.graphs import complete_graph, cycle_graph, expander_graph, path_graph


class TestFlooding:
    def test_informs_everyone(self):
        outcome = flooding_trial(expander_graph(48, seed=1), sources={0}, seed=2)
        assert outcome.classification == "informed_all"

    def test_requires_a_source(self):
        with pytest.raises(ValueError):
            flooding_trial(cycle_graph(8), sources=set())

    def test_message_cost_is_theta_m(self):
        graph = complete_graph(32)
        outcome = flooding_trial(graph, sources={0}, seed=3)
        assert graph.num_edges <= outcome.messages <= 2 * graph.num_edges

    def test_round_count_tracks_eccentricity(self):
        graph = path_graph(20)
        outcome = flooding_trial(graph, sources={0}, seed=4)
        assert outcome.rounds >= 19

    def test_multiple_sources_reduce_rounds(self):
        graph = path_graph(21)
        single = flooding_trial(graph, sources={0}, seed=5)
        double = flooding_trial(graph, sources={0, 20}, seed=5)
        assert double.rounds <= single.rounds

    def test_rumor_value_propagates(self):
        outcome = flooding_trial(cycle_graph(10), sources={3}, rumor=777, seed=6)
        assert outcome.classification == "informed_all"
