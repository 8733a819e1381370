"""End-to-end integration tests across the whole stack.

These exercise the public API the way a downstream user would: build a graph,
run the algorithms, compare costs against the theory, combine with the
broadcast substrate and the baselines.
"""

import pytest

from repro import (
    complete_graph,
    expander_graph,
    hypercube_graph,
    run_explicit_leader_election,
    run_leader_election,
)
from repro.analysis import (
    fit_power_law,
    lower_bound_messages,
    sweep_summary,
    upper_bound_messages_congest,
)
from repro.baselines import flood_max_trial, known_tmix_trial
from repro.core import DEFAULT_PARAMETERS, ElectionParameters
from repro.exec import BatchRunner, GraphSpec, SweepSpec, TrialSpec
from repro.graphs import estimate_conductance, mixing_time
from repro.lowerbound import build_lower_bound_graph, run_walk_budget_election

pytestmark = pytest.mark.slow


FAST = ElectionParameters(c1=3.0, c2=0.5)


def _clique_sweep(sizes, trials, base_seed, params=DEFAULT_PARAMETERS):
    """``sweep_summary`` rows of the election on cliques of the given sizes."""
    sweep = SweepSpec(
        name="cliques",
        configs=tuple(
            TrialSpec(graph=GraphSpec("clique", (n,)), params=params) for n in sizes
        ),
        trials=trials,
        base_seed=base_seed,
    )
    results = BatchRunner().run_sweep(sweep)
    return sweep_summary(sweep, [result.outcome for result in results])


class TestTheoremThirteenShape:
    """The headline upper bound: sublinear messages on well-connected graphs."""

    def test_messages_within_theorem13_envelope(self, small_expander, small_expander_outcome):
        # "Within a moderate constant" of O(sqrt(n) log^{7/2} n t_mix): the point
        # is the shape, not the hidden constant, so allow a generous factor.
        n = small_expander.num_nodes
        t_mix = mixing_time(small_expander)
        envelope = upper_bound_messages_congest(n, t_mix, constant=16.0)
        assert small_expander_outcome.message_units <= envelope

    def test_messages_exceed_theorem15_lower_bound(self, small_expander, small_expander_outcome):
        phi = estimate_conductance(small_expander).best_estimate
        assert small_expander_outcome.messages >= lower_bound_messages(
            small_expander.num_nodes, phi, constant=0.1
        )

    def test_message_scaling_is_sublinear_in_m_times_n(self):
        """On cliques (m = Theta(n^2)) the election cost grows far slower than m.

        The seed is fixed: a small fraction of runs draw too few contenders for
        the intersection threshold and degrade to the walk-length cap (see
        EXPERIMENTS.md), which would distort a tiny unseeded sample.
        """
        sizes = [32, 64, 128]
        rows = _clique_sweep(sizes, trials=2, base_seed=13)
        messages_fit = fit_power_law(sizes, [row["messages"] for row in rows])
        edges_fit = fit_power_law(sizes, [complete_graph(n).num_edges for n in sizes])
        assert messages_fit.exponent < edges_fit.exponent - 0.5

    def test_success_rate_is_high_on_well_connected_graphs(self):
        (row,) = _clique_sweep([64], trials=4, base_seed=5, params=FAST)
        assert row["success_rate"] >= 0.75


class TestCrossAlgorithmConsistency:
    def test_adaptive_matches_known_tmix_cost_scale(self):
        """Not knowing t_mix costs at most the guess-and-double overhead."""
        graph = expander_graph(48, seed=3)
        t_mix = mixing_time(graph)
        ours = run_leader_election(graph, seed=4)
        oracle = known_tmix_trial(graph, t_mix, seed=4)
        assert ours.messages <= 12 * max(1, oracle.messages)

    def test_beats_flooding_on_dense_graphs(self):
        graph = complete_graph(96)
        ours = run_leader_election(graph, params=FAST, seed=5)
        flood = flood_max_trial(graph, seed=5)
        assert ours.success
        assert ours.messages < flood.messages

    def test_explicit_election_cost_decomposition(self):
        graph = hypercube_graph(5)
        explicit = run_explicit_leader_election(graph, seed=6)
        assert explicit.success
        assert explicit.total_messages == explicit.election_messages + explicit.broadcast_messages


class TestLowerBoundStory:
    def test_budget_threshold_behaviour(self):
        lb = build_lower_bound_graph(160, clique_size=8, seed=9)
        cheap = run_walk_budget_election(lb.graph, walk_length=1, seed=10)
        rich = run_walk_budget_election(lb.graph, walk_length=24, seed=10)
        assert cheap.num_leaders > 1
        assert rich.num_leaders == 1
        assert rich.messages > cheap.messages

    def test_lower_bound_graph_mixing_is_slow(self):
        lb = build_lower_bound_graph(120, clique_size=6, seed=11)
        expander_t = mixing_time(expander_graph(120, seed=11))
        lb_t = mixing_time(lb.graph)
        assert lb_t > expander_t
