"""Tests for push-pull rumor spreading."""

import math

import pytest

from repro.broadcast import push_pull_trial
from repro.graphs import complete_graph, cycle_graph, expander_graph


class TestPushPull:
    def test_informs_everyone_on_expander(self):
        outcome = push_pull_trial(expander_graph(64, seed=1), sources={0}, seed=2)
        assert outcome.classification == "informed_all"
        assert outcome.extras["informed"] == 64

    def test_informs_everyone_on_clique(self):
        outcome = push_pull_trial(complete_graph(48), sources={5}, seed=3)
        assert outcome.classification == "informed_all"

    def test_requires_a_source(self):
        with pytest.raises(ValueError):
            push_pull_trial(complete_graph(8), sources=set(), seed=1)

    def test_multiple_sources_allowed(self):
        outcome = push_pull_trial(cycle_graph(24), sources={0, 12}, seed=4)
        assert outcome.classification == "informed_all"

    def test_round_count_logarithmic_on_clique(self):
        n = 128
        outcome = push_pull_trial(complete_graph(n), sources={0}, seed=5)
        assert outcome.rounds <= 12 * math.log2(n)

    def test_message_cost_near_n_log_n_on_clique(self):
        n = 128
        outcome = push_pull_trial(complete_graph(n), sources={0}, seed=6)
        assert outcome.messages <= 20 * n * math.log2(n)
        assert outcome.messages >= n - 1

    def test_terminates_without_global_knowledge(self):
        outcome = push_pull_trial(expander_graph(32, seed=7), sources={0}, seed=8)
        assert outcome.metrics.completed

    def test_custom_push_rounds(self):
        short = push_pull_trial(complete_graph(32), sources={0}, seed=9, push_rounds=1)
        assert short.metrics.completed
        # Even a single push round per informed node still spreads via pulls.
        assert short.extras["informed"] == 32
