"""Unit tests for lazy random walks and mixing times."""

import numpy as np
import pytest

from repro.graphs import (
    Graph,
    complete_graph,
    cycle_graph,
    expander_graph,
    gilbert_connectivity_radius,
    gilbert_graph,
    hypercube_graph,
    lazy_transition_matrix,
    linf_distance_to_stationary,
    mixing_profile,
    mixing_time,
    path_graph,
    spectral_mixing_time_estimate,
    stationary_distribution,
    walk_distribution,
)
from repro.graphs.mixing import cached_mixing_time


class TestTransitionMatrix:
    def test_rows_are_stochastic(self):
        graph = cycle_graph(7)
        matrix = lazy_transition_matrix(graph)
        assert np.allclose(matrix.sum(axis=1), 1.0)

    def test_laziness_on_diagonal(self):
        graph = complete_graph(5)
        matrix = lazy_transition_matrix(graph)
        assert np.allclose(np.diag(matrix), 0.5)

    def test_neighbor_probability(self):
        graph = cycle_graph(6)
        matrix = lazy_transition_matrix(graph)
        assert matrix[0, 1] == pytest.approx(0.25)
        assert matrix[0, 3] == 0.0

    def test_stationary_is_degree_proportional(self):
        graph = path_graph(4)
        pi = stationary_distribution(graph)
        assert pi[0] == pytest.approx(1 / 6)
        assert pi[1] == pytest.approx(2 / 6)
        assert pi.sum() == pytest.approx(1.0)

    def test_stationary_is_fixed_point(self):
        graph = expander_graph(16, seed=3)
        matrix = lazy_transition_matrix(graph)
        pi = stationary_distribution(graph)
        assert np.allclose(pi @ matrix, pi)


class TestWalkDistribution:
    def test_zero_steps_is_point_mass(self):
        graph = cycle_graph(5)
        dist = walk_distribution(graph, 2, 0)
        assert dist[2] == 1.0

    def test_distribution_converges(self):
        graph = complete_graph(8)
        pi = stationary_distribution(graph)
        dist = walk_distribution(graph, 0, 30)
        assert np.allclose(dist, pi, atol=1e-6)

    def test_negative_steps_rejected(self):
        with pytest.raises(ValueError):
            walk_distribution(cycle_graph(5), 0, -1)

    def test_linf_distance(self):
        graph = complete_graph(4)
        dist = np.eye(4)[0]
        distance = linf_distance_to_stationary(graph, dist)
        assert distance == pytest.approx(0.75)


class TestMixingTime:
    def test_complete_graph_mixes_fast(self):
        assert mixing_time(complete_graph(16)) <= 10

    def test_cycle_mixes_slowly(self):
        short = mixing_time(cycle_graph(8))
        long = mixing_time(cycle_graph(16))
        assert long > short

    def test_definition_threshold_is_met(self):
        graph = hypercube_graph(3)
        t = mixing_time(graph)
        n = graph.num_nodes
        worst = max(
            np.max(np.abs(walk_distribution(graph, v, t) - stationary_distribution(graph)))
            for v in graph.nodes()
        )
        assert worst <= 1 / (2 * n) + 1e-12

    def test_one_step_before_mixing_violates_threshold(self):
        graph = cycle_graph(12)
        t = mixing_time(graph)
        n = graph.num_nodes
        worst = max(
            np.max(np.abs(walk_distribution(graph, v, t - 1) - stationary_distribution(graph)))
            for v in graph.nodes()
        )
        assert worst > 1 / (2 * n)

    def test_disconnected_rejected(self):
        graph = Graph.from_edges(4, [(0, 1), (2, 3)])
        with pytest.raises(ValueError):
            mixing_time(graph)

    def test_max_steps_cap(self):
        with pytest.raises(RuntimeError):
            mixing_time(cycle_graph(32), max_steps=3)

    def test_expander_mixing_time_is_logarithmic(self):
        graph = expander_graph(128, seed=1)
        assert mixing_time(graph) <= 12 * np.log2(128)

    def test_spectral_estimate_same_order(self):
        graph = expander_graph(64, seed=2)
        exact = mixing_time(graph)
        estimate = spectral_mixing_time_estimate(graph)
        assert estimate / 8 <= exact <= estimate * 8

    def test_mixing_profile_fields(self):
        graph = hypercube_graph(4)
        profile = mixing_profile(graph)
        assert profile.num_nodes == 16
        assert profile.mixing_time == mixing_time(graph)
        assert profile.spectral_gap > 0
        assert "t_mix" in str(profile)


class TestLaziness:
    def test_diagonal_follows_laziness(self):
        graph = cycle_graph(6)
        matrix = lazy_transition_matrix(graph, laziness=0.25)
        assert np.allclose(np.diag(matrix), 0.25)
        assert matrix[0, 1] == pytest.approx(0.375)
        assert np.allclose(matrix.sum(axis=1), 1.0)

    def test_invalid_laziness_rejected(self):
        graph = cycle_graph(4)
        with pytest.raises(ValueError):
            lazy_transition_matrix(graph, laziness=1.0)
        with pytest.raises(ValueError):
            lazy_transition_matrix(graph, laziness=-0.1)

    def test_less_lazy_walk_mixes_no_slower(self):
        graph = expander_graph(32, seed=4)
        assert mixing_time(graph, laziness=0.25) <= mixing_time(graph)

    def test_cache_keys_include_laziness(self):
        graph = expander_graph(32, seed=4)
        half = cached_mixing_time(graph)
        quarter = cached_mixing_time(graph, laziness=0.25)
        assert half == mixing_time(graph)
        assert quarter == mixing_time(graph, laziness=0.25)
        # Both entries coexist; asking again returns the memoised values.
        assert cached_mixing_time(graph) == half
        assert cached_mixing_time(graph, laziness=0.25) == quarter
        key = (graph._mutations, 0.25)
        assert graph._mixing_time_cache[key] == quarter

    def test_cache_invalidated_by_mutation(self):
        graph = cycle_graph(8)
        before = cached_mixing_time(graph)
        graph.add_edge(0, 4)
        after = cached_mixing_time(graph)
        assert after == mixing_time(graph)
        assert after != before or graph._mixing_time_cache["version"] == graph._mutations


def _stepwise_mixing_time(graph, laziness):
    """The definition walked one step at a time: the oracle for the lifting."""
    n = graph.num_nodes
    transition = lazy_transition_matrix(graph, laziness=laziness)
    stationary = stationary_distribution(graph)
    powers = np.eye(n)
    step = 0
    while np.max(np.abs(powers - stationary)) > 1.0 / (2.0 * n):
        powers = powers @ transition
        step += 1
    return step


def _oracle_corpus():
    # gilbert_graph returns its largest component, so every graph is connected.
    for n in (128, 256):
        for factor in (3.0, 1.5, 1.0):
            radius = gilbert_connectivity_radius(n, factor)
            for seed in range(3):
                name = "gilbert(%d, %.1f, seed=%d)" % (n, factor, seed)
                yield name, gilbert_graph(n, radius, seed=seed)
    # Cycles and paths mix slowly, so the answer reaches the hundreds.
    for n in range(8, 34):
        yield "cycle(%d)" % n, cycle_graph(n)
    for n in range(5, 21):
        yield "path(%d)" % n, path_graph(n)
    for dimension in (3, 5, 8):
        yield "hypercube(%d)" % dimension, hypercube_graph(dimension)
    yield "clique(16)", complete_graph(16)


class TestBinaryLifting:
    @pytest.mark.parametrize("laziness", [0.5, 0.25])
    def test_matches_the_stepwise_oracle(self, laziness):
        for name, graph in _oracle_corpus():
            expected = _stepwise_mixing_time(graph, laziness)
            assert mixing_time(graph, laziness=laziness) == expected, name

    @pytest.mark.parametrize(
        "graph",
        [cycle_graph(12), path_graph(20), hypercube_graph(3), complete_graph(5)],
        ids=["cycle", "path", "hypercube", "clique"],
    )
    def test_max_steps_boundary(self, graph):
        # t is returned only when t < max_steps, whichever square the cap falls between.
        t = mixing_time(graph)
        for max_steps in range(t + 3):
            if max_steps <= t:
                with pytest.raises(RuntimeError):
                    mixing_time(graph, max_steps=max_steps)
            else:
                assert mixing_time(graph, max_steps=max_steps) == t

    def test_zero_step_threshold_respects_max_steps(self):
        graph = cycle_graph(6)
        assert mixing_time(graph, threshold=1.0) == 0
        with pytest.raises(RuntimeError):
            mixing_time(graph, threshold=1.0, max_steps=0)

    def test_unreachable_threshold_raises_quickly(self):
        with pytest.raises(RuntimeError):
            mixing_time(cycle_graph(16), threshold=0.0)

    @pytest.mark.parametrize(
        "graph",
        [
            cycle_graph(15),
            path_graph(10),
            gilbert_graph(64, gilbert_connectivity_radius(64, 1.0), seed=2),
        ],
        ids=["cycle", "path", "gilbert"],
    )
    def test_distance_never_increases(self, graph):
        # The lifting's premise: d(t) = max |P^t - Pi| is non-increasing in t.
        transition = lazy_transition_matrix(graph)
        powers = np.eye(graph.num_nodes)
        distances = []
        for _ in range(2 * mixing_time(graph) + 1):
            distances.append(linf_distance_to_stationary(graph, powers))
            powers = powers @ transition
        assert all(later <= earlier for earlier, later in zip(distances, distances[1:]))
