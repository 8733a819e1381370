"""A vectorized trial the engine refuses runs on the reference engine, tagged.

Two refusals, for both walk-phase algorithms: a static one (message
observers, which only the reference engine can call) and one at setup
(duplicate contender ids: a believed or real n of 4 or less draws ids from
[1, 16]).  Each must end the same whichever way it is executed -- alone
through ``execute_trial`` or ``Algorithm.run``, or as the middle member of a
3-trial ``batched_payloads`` chunk -- and equal the outcome pinned here.
"""

import hashlib
import json
from dataclasses import replace

import pytest

from repro.core.params import ElectionParameters
from repro.exec import GraphSpec, TrialSpec, get_algorithm
from repro.exec.execute import batched_payloads, execute_trial
from repro.exec.serialize import outcome_to_dict
from repro.sim import vectorized


def _ignore(*send):
    """A message observer: its presence alone refuses the vectorized engine."""


_CLIQUE_4 = GraphSpec("clique", (4,))
#: An id space of 4**2 = 16 for known_tmix, which has no believed n.
_SMALL_IDS = ElectionParameters(id_space_exponent=2)
_DUPLICATES = "reference-fallback:duplicate contender identifiers alias their walk trees"
_OBSERVERS = "reference-fallback:message observers require the reference simulator"


def _spec(algorithm, seed, params=ElectionParameters(), **algo_kwargs):
    return TrialSpec(
        graph=_CLIQUE_4,
        algorithm=algorithm,
        seed=seed,
        params=params,
        simulator="vectorized",
        algo_kwargs=algo_kwargs,
    )


#: name -> (refused spec, its two same-shape neighbours, tag, outcome digest).
_CASES = {
    "election-static": (
        _spec("election", 1, observers=(_ignore,)),
        (_spec("election", 2), _spec("election", 3)),
        _OBSERVERS,
        "7823a0368b9b4b32cbaff6174f738104306e3fa9281429644a0ed41a6fb9fe56",
    ),
    "election-setup": (
        _spec("election", 0, known_n=2),
        (_spec("election", 2, known_n=2), _spec("election", 3, known_n=2)),
        _DUPLICATES,
        "f6e5620594a6e08f3ebc525576d67545f33d2d5cc6a44b0f32997e65304f5f09",
    ),
    "known_tmix-static": (
        _spec("known_tmix", 1, observers=(_ignore,)),
        (_spec("known_tmix", 2), _spec("known_tmix", 3)),
        _OBSERVERS,
        "771066d58788b9558f4bdc5a6791c035fa44b16055a3f7082c27b4976a944637",
    ),
    "known_tmix-setup": (
        _spec("known_tmix", 0, params=_SMALL_IDS),
        (_spec("known_tmix", 1, params=_SMALL_IDS), _spec("known_tmix", 2, params=_SMALL_IDS)),
        _DUPLICATES,
        "18a9f0d9bb56956bf7ee3bb2e957bfdb5fd2a47f19afbfe80d4782057e08ff7b",
    ),
}


def _digest(outcome) -> str:
    text = json.dumps(outcome_to_dict(outcome), sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()


def _routes(refused, neighbours):
    """``refused``'s outcome by each route, plus its chunk's payloads."""
    algorithm = get_algorithm(refused.algorithm)
    chunk = dict(batched_payloads([neighbours[0], refused, neighbours[1]]))
    return {
        "execute_trial": execute_trial(refused),
        "Algorithm.run": algorithm.run(refused.build_graph(), refused),
        "batched_payloads": chunk[1].outcome,
    }, chunk


@pytest.mark.parametrize("name", sorted(_CASES))
def test_refused_trial_falls_back_the_same_on_every_route(name):
    refused, neighbours, tag, digest = _CASES[name]
    outcomes, chunk = _routes(refused, neighbours)
    for route, outcome in outcomes.items():
        assert outcome.extras["simulator"] == tag, route
        assert _digest(outcome) == digest, route
    # The neighbours run on the engine and end as they end alone.
    for position, spec in ((0, neighbours[0]), (2, neighbours[1])):
        outcome = chunk[position].outcome
        assert outcome.extras["simulator"] == "vectorized"
        assert outcome_to_dict(outcome) == outcome_to_dict(execute_trial(spec))


def test_the_fallback_equals_a_reference_run_but_for_its_tag():
    for name, (refused, *_pins) in _CASES.items():
        fallback = outcome_to_dict(execute_trial(refused))
        fallback["extras"].pop("simulator")
        reference = outcome_to_dict(execute_trial(replace(refused, simulator="reference")))
        assert fallback == reference, name


@pytest.mark.parametrize("name", ["election-setup", "known_tmix-setup"])
def test_a_member_refused_at_setup_is_set_up_once(name, monkeypatch):
    refused, neighbours, _tag, _pinned = _CASES[name]
    setups = []

    class Counted(vectorized._Member):
        def __init__(self, trial, schedule):
            setups.append(trial.seed)
            super().__init__(trial, schedule)

    monkeypatch.setattr(vectorized, "_Member", Counted)
    routes = {
        "execute_trial": lambda: execute_trial(refused),
        "batched_payloads": lambda: list(batched_payloads([neighbours[0], refused, neighbours[1]])),
    }
    for route, run in routes.items():
        setups.clear()
        run()
        assert setups.count(refused.seed) == 1, route
