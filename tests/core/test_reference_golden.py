"""Golden outcomes of the reference engine, pinned across commits.

The engine-equivalence tests compare engines with each other and the replay
tests compare backends with each other; neither notices a change that moves
every engine and backend together.  This file pins the reference engine's
paper metrics -- winners, classification, crash set, rounds, messages,
message units and fault counters -- on a small fixed grid, so an
optimisation of the oracle must reproduce them exactly.

Regenerate ``reference_golden.json`` only for a deliberate behaviour change::

    PYTHONPATH=src python tests/core/test_reference_golden.py
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Dict

import pytest

from repro.baselines.known_tmix import known_tmix_trial
from repro.core import run_leader_election
from repro.core.result import TrialOutcome
from repro.faults import CrashFaults, FaultPlan, MessageFaults
from repro.graphs import (
    expander_graph,
    gilbert_connectivity_radius,
    gilbert_graph,
    hypercube_graph,
)

GOLDEN_PATH = Path(__file__).with_name("reference_golden.json")
SEED = 11

PLANS = {
    "none": None,
    "drop5": FaultPlan.dropping(0.05),
    "drop5-crash2@p2": FaultPlan(
        messages=MessageFaults(drop_probability=0.05),
        crashes=CrashFaults(count=2, at_phase=2),
    ),
    "delay1": FaultPlan.delaying(1),
}

GRAPHS = {
    "expander16": lambda: expander_graph(16, degree=4, seed=7),
    "hypercube4": lambda: hypercube_graph(4),
    "gilbert64": lambda: gilbert_graph(
        64, gilbert_connectivity_radius(64, factor=2.0), seed=5
    ),
}

CASES = [
    "%s/%s/%s" % (algorithm, graph_name, plan_name)
    for algorithm in ("election", "known_tmix")
    for graph_name in ("expander16", "hypercube4")
    for plan_name in PLANS
] + ["election/gilbert64/none"]


def compute(case: str) -> Dict[str, object]:
    """Run one grid case on the reference engine and keep the pinned fields."""
    algorithm, graph_name, plan_name = case.split("/")
    graph = GRAPHS[graph_name]()
    plan = PLANS[plan_name]
    if algorithm == "election":
        outcome = TrialOutcome.from_election(
            "election", run_leader_election(graph, seed=SEED, fault_plan=plan)
        )
    else:
        outcome = known_tmix_trial(graph, seed=SEED, fault_plan=plan)
    return {
        "winners": list(outcome.winners),
        "classification": outcome.classification,
        "crashed_nodes": list(outcome.crashed_nodes),
        "rounds": outcome.rounds,
        "messages": outcome.messages,
        "message_units": outcome.message_units,
        "fault_events": dict(sorted(outcome.metrics.fault_events.items())),
    }


@pytest.fixture(scope="module")
def golden() -> Dict[str, Dict[str, object]]:
    return json.loads(GOLDEN_PATH.read_text())


def test_golden_grid_is_complete(golden):
    assert sorted(golden) == sorted(CASES)


@pytest.mark.parametrize("case", CASES)
def test_reference_engine_matches_golden(case, golden):
    assert compute(case) == golden[case]


if __name__ == "__main__":  # pragma: no cover - regeneration entry point
    document = {case: compute(case) for case in CASES}
    GOLDEN_PATH.write_text(json.dumps(document, indent=1, sort_keys=True) + "\n")
    print("wrote %d cases to %s" % (len(document), GOLDEN_PATH.name))
