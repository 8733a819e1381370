"""Golden outcomes of the reference engine, pinned across commits.

The engine-equivalence tests compare engines with each other and the replay
tests compare backends with each other; neither notices a change that moves
every engine and backend together.  This file pins the reference engine's
paper metrics -- winners, classification, crash set, rounds, messages,
message units and fault counters -- on a small fixed grid, so an
optimisation of the oracle must reproduce them exactly.  The baselines and
broadcast substrates pin their ``extras`` too (contender count, informed or
joined nodes, tree depth); they have no guess-and-double schedule, so their
crash plan is anchored at a round instead of a phase.  The two
message-budgeted elections of the lower bound (E5) pin their winners, costs
and contender count on the E5 lower-bound graph, and the explicit election
(Corollary 14) pins the cost of each of its two phases.

Regenerate ``reference_golden.json`` only for a deliberate behaviour change::

    PYTHONPATH=src python tests/core/test_reference_golden.py
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Dict

import pytest

from repro.baselines import (
    clique_sublinear_trial,
    controlled_flooding_trial,
    flood_max_trial,
)
from repro.baselines.known_tmix import known_tmix_trial
from repro.broadcast import flooding_trial, push_pull_trial, spanning_tree_trial
from repro.core import run_explicit_leader_election, run_leader_election
from repro.faults import CrashFaults, FaultPlan, MessageFaults
from repro.graphs import (
    expander_graph,
    gilbert_connectivity_radius,
    gilbert_graph,
    hypercube_graph,
)
from repro.lowerbound import (
    build_lower_bound_graph,
    run_budgeted_probe_election,
    run_walk_budget_election,
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
    "drop5-crash2@r2": FaultPlan(
        messages=MessageFaults(drop_probability=0.05),
        crashes=CrashFaults(count=2, at_round=2),
    ),
}

#: Protocols without a phase schedule, pinned with the round-anchored crash.
BASELINES = {
    "flood_max": flood_max_trial,
    "controlled_flooding": controlled_flooding_trial,
    "clique_sublinear": clique_sublinear_trial,
    "flooding": flooding_trial,
    "push_pull": push_pull_trial,
    "spanning_tree": spanning_tree_trial,
}
BASELINE_PLANS = ("none", "drop5", "drop5-crash2@r2", "delay1")

GRAPHS = {
    "expander16": lambda: expander_graph(16, degree=4, seed=7),
    "hypercube4": lambda: hypercube_graph(4),
    "gilbert64": lambda: gilbert_graph(
        64, gilbert_connectivity_radius(64, factor=2.0), seed=5
    ),
    # E5's Section 4.1 graph: 30 cliques of 8 nodes.
    "lb240": lambda: build_lower_bound_graph(240, clique_size=8, seed=55).graph,
}

#: The lower bound's budgeted elections, by budget: the walk length of the
#: walk election and the probes per candidate of the probe election.
BUDGETS = {
    "walk_budget": (
        lambda graph, budget: run_walk_budget_election(graph, walk_length=budget, seed=SEED),
        (1, 32),
    ),
    "probe_budget": (
        lambda graph, budget: run_budgeted_probe_election(
            graph, probes_per_candidate=budget, seed=SEED
        ),
        (3, 40),
    ),
}

CASES = [
    "%s/%s/%s" % (algorithm, graph_name, plan_name)
    for algorithm in ("election", "known_tmix")
    for graph_name in ("expander16", "hypercube4")
    for plan_name in PLANS
    if plan_name != "drop5-crash2@r2"
] + ["election/gilbert64/none"] + [
    "%s/%s/%s" % (algorithm, graph_name, plan_name)
    for algorithm in BASELINES
    for graph_name in ("expander16", "hypercube4")
    for plan_name in BASELINE_PLANS
] + [
    "%s/lb240/%d" % (algorithm, budget)
    for algorithm, (_, budgets) in BUDGETS.items()
    for budget in budgets
] + ["explicit/expander16/none", "explicit/hypercube4/none"]


def compute(case: str) -> Dict[str, object]:
    """Run one grid case on the reference engine and keep the pinned fields."""
    algorithm, graph_name, plan_name = case.split("/")
    graph = GRAPHS[graph_name]()
    if algorithm in BUDGETS:
        outcome = BUDGETS[algorithm][0](graph, int(plan_name))
        return {
            "winners": list(outcome.winners),
            "rounds": outcome.rounds,
            "messages": outcome.messages,
            "message_units": outcome.message_units,
            "num_contenders": outcome.num_contenders,
        }
    if algorithm == "explicit":
        explicit = run_explicit_leader_election(graph, seed=SEED)
        return {
            "leader": explicit.election.leader,
            "election_messages": explicit.election_messages,
            "election_rounds": explicit.election.rounds,
            "broadcast_messages": explicit.broadcast_messages,
            "broadcast_rounds": explicit.broadcast.rounds,
            "success": explicit.success,
        }
    plan = PLANS[plan_name]
    if algorithm == "election":
        outcome = run_leader_election(graph, seed=SEED, fault_plan=plan)
    elif algorithm == "known_tmix":
        outcome = known_tmix_trial(graph, seed=SEED, fault_plan=plan)
    else:
        outcome = BASELINES[algorithm](graph, seed=SEED, fault_plan=plan)
    pinned = {
        "winners": list(outcome.winners),
        "classification": outcome.classification,
        "crashed_nodes": list(outcome.crashed_nodes),
        "rounds": outcome.rounds,
        "messages": outcome.messages,
        "message_units": outcome.message_units,
        "fault_events": dict(sorted(outcome.metrics.fault_events.items())),
    }
    if algorithm in BASELINES:
        pinned["extras"] = dict(sorted(outcome.extras.items()))
    return pinned


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
