"""Live recipes: the coordinator's recipe of a spec and the node-side rebuild."""

import dataclasses
import json
import random

import pytest

from repro.baselines.known_tmix import KnownTmixNode
from repro.core import ElectionParameters, ElectionRecipe
from repro.core.leader_election import LeaderElectionNode
from repro.exec import GraphSpec, TrialSpec
from repro.net.protocols import LIVE_ALGORITHMS, live_recipe
from repro.sim.node import NodeContext, Protocol
from repro.sim.rng import node_rng

FAST = ElectionParameters(c1=3.0, c2=0.5)
GRAPH = GraphSpec("expander", (8,), {"degree": 4}, seed=5)


def _ctx(index=0, degree=4, known_n=8, rng=None):
    return NodeContext(
        node_index=index,
        degree=degree,
        rng=rng if rng is not None else random.Random(0),
        known_n=known_n,
        send_callback=lambda sender, port, message: None,
        wake_callback=lambda node, round_number: None,
    )


class _StandIn(Protocol):
    """A node the coordinator's network holds in place of a process."""

    def on_start(self):
        pass

    def on_round(self, inbox):
        pass


def _recipe(algorithm, **algo_kwargs):
    spec = TrialSpec(
        graph=GRAPH, algorithm=algorithm, seed=1, params=FAST, algo_kwargs=algo_kwargs
    )
    return live_recipe(spec, GRAPH.build())


def _told_n(recipe):
    """The ``n`` each node of the coordinator's network is told."""
    network = recipe.network(GRAPH.build(), seed=1, factory=_StandIn)
    return {stand_in.ctx.known_n for stand_in in network.protocols}


def _config(recipe):
    """The recipe as the ``init`` frame carries it."""
    return json.loads(json.dumps(dataclasses.asdict(recipe)))


class TestRegistry:
    def test_deployable_algorithms(self):
        assert LIVE_ALGORITHMS == ("election", "known_tmix")

    def test_unknown_algorithm_is_a_clear_error(self):
        with pytest.raises(KeyError, match="no live-deployment profile"):
            _recipe("flood_max")

    def test_recipes_pin_the_historical_seed_streams(self):
        assert _recipe("election").streams == (0xB0B, 0xA11CE)
        assert _recipe("known_tmix", mixing_time=4).streams == (0x41, 0x42)


class TestElectionRecipe:
    def test_default_known_n_is_the_graph_size(self):
        recipe = _recipe("election")
        assert recipe.known_n == -1
        assert _told_n(recipe) == {8}
        assert recipe.assumed_n is None
        assert recipe.max_rounds == 10_000_000
        assert recipe.params.c1 == 3.0

    def test_explicit_known_n_and_assumed_n_pass_through(self):
        recipe = _recipe("election", known_n=None, assumed_n=16, max_rounds=500)
        assert recipe.known_n is None
        assert _told_n(recipe) == {None}
        assert recipe.assumed_n == 16
        assert recipe.max_rounds == 500

    def test_withheld_n_without_assumption_is_rejected(self):
        with pytest.raises(ValueError, match="assumed_n"):
            _recipe("election", known_n=None)

    def test_unsupported_algo_kwargs_are_rejected(self):
        with pytest.raises(ValueError, match="edge_capacity_words"):
            _recipe("election", edge_capacity_words=4)


class TestKnownTmixRecipe:
    def test_mixing_time_resolved_coordinator_side(self):
        recipe = _recipe("known_tmix")
        assert isinstance(recipe.mixing_time, int)
        assert recipe.mixing_time >= 1
        assert recipe.params.initial_walk_length == recipe.mixing_time
        assert _told_n(recipe) == {8}
        assert recipe.max_rounds == 1_000_000

    def test_explicit_mixing_time_wins(self):
        recipe = _recipe("known_tmix", mixing_time=9, safety_factor=2.0)
        assert recipe.mixing_time == 9
        assert recipe.params.initial_walk_length == 18


class TestNodeProtocol:
    def test_election_config_builds_the_simulator_protocol(self):
        config = _config(_recipe("election"))
        # Identical rng streams on both sides: construction draws (the
        # identifier) must land identically.
        node_side = ElectionRecipe.from_config(config).protocol(_ctx(rng=node_rng(1234, 0)))
        sim_side = LeaderElectionNode(
            _ctx(rng=node_rng(1234, 0)), params=FAST, assumed_n=None
        )
        assert isinstance(node_side, LeaderElectionNode)
        assert node_side.result() == sim_side.result()

    def test_known_tmix_config_builds_the_baseline_protocol(self):
        recipe = ElectionRecipe.from_config(_config(_recipe("known_tmix", mixing_time=4)))
        assert isinstance(recipe.protocol(_ctx()), KnownTmixNode)

    def test_unknown_config_algorithm_is_rejected(self):
        with pytest.raises(ValueError, match="unknown algorithm"):
            ElectionRecipe.from_config({"algorithm": "nope", "params": {}})
