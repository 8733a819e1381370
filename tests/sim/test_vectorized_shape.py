"""What a vectorized batch shares: ``VectorizedTrial.shape``.

A shape fixes every phase window and message width, so it holds the node
count, the ``n`` the protocol assumes, the decide rule, the parameters, the
round cap and the edge capacity -- and nothing else: how ``n`` was told and
a [25] trial's oracle mixing time stay per trial.
"""

from repro.baselines.known_tmix import known_tmix_recipe
from repro.core import DEFAULT_PARAMETERS, ElectionRecipe
from repro.graphs import cycle_graph, hypercube_graph
from repro.sim.vectorized import VectorizedTrial

GRAPH = hypercube_graph(4)


def _shape(recipe, graph=GRAPH, **options):
    return VectorizedTrial(graph, recipe, **options).shape


def test_shape_is_size_n_rule_params_cap_and_capacity():
    recipe = ElectionRecipe(known_n=None, assumed_n=20, max_rounds=500)
    assert _shape(recipe, seed=3, edge_capacity_words=2) == (
        16,
        20,
        "election",
        DEFAULT_PARAMETERS,
        500,
        2,
    )


def test_told_n_batches_by_its_value():
    assert _shape(ElectionRecipe(known_n=-1)) == _shape(ElectionRecipe(known_n=16))
    assert _shape(ElectionRecipe(known_n=-1)) != _shape(ElectionRecipe(known_n=32))


def test_known_tmix_batches_by_pinned_walk_length_not_mixing_time():
    four = known_tmix_recipe(GRAPH, mixing_time=4)
    twice_two = known_tmix_recipe(cycle_graph(16), mixing_time=2, safety_factor=2.0)
    assert four.mixing_time != twice_two.mixing_time
    assert _shape(four) == _shape(twice_two, graph=cycle_graph(16))
    assert _shape(four) != _shape(known_tmix_recipe(GRAPH, mixing_time=8))


def test_decide_rule_cap_and_capacity_split_batches():
    pinned = known_tmix_recipe(GRAPH, mixing_time=1, max_rounds=10_000_000)
    election = ElectionRecipe()
    assert election.params == pinned.params and election.max_rounds == pinned.max_rounds
    assert _shape(election) != _shape(pinned)
    assert _shape(election) != _shape(ElectionRecipe(max_rounds=500))
    assert _shape(election) != _shape(election, edge_capacity_words=1)
