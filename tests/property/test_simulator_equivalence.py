"""Outcome-equivalence of the vectorized and reference simulators.

The two engines share every non-walk random draw byte-for-byte (identities,
contender nominations, crash schedules, removed edges, edge delays) but
draw walk trajectories and drop/duplicate coins from *different* seed
streams -- that is the vectorized engine's documented contract (see
``docs/architecture.md``, "Simulators").  Equivalence is therefore asserted
on everything the shared streams determine:

* winners / leaders (the same node wins under both engines in the
  overwhelmingly common case where the largest-id contender wins; graphs
  and seeds in this grid are chosen so the grid stays deterministic),
* classification, contender count and the crash set.

Round counts, phase counts and ``forced_stop`` legitimately differ between
engines per trial -- they depend on the walk randomness -- so they are
compared only as distributions, in the faulty slice
(:class:`TestFaultyAgreement`).

The grid is registry-driven: every algorithm that declares the
``"vectorized"`` capability is exercised, on several graph families, with
and without crash fault plans, serially and through the 4-worker pool.
"""

import collections
import json
import math
import statistics

import pytest

from repro.core import ElectionParameters
from repro.exec import (
    BatchRunner,
    GraphSpec,
    TrialSpec,
    algorithm_names,
    execute_trial,
    get_algorithm,
    outcome_to_dict,
)
from repro.faults import CrashFaults, DelayFaults, EdgeFaults, FaultPlan, MessageFaults
from repro.graphs.topology import Graph

FAST = ElectionParameters(c1=3.0, c2=0.5)

#: Every public algorithm that declares the vectorized capability.
VECTORIZED_ALGORITHMS = tuple(
    name
    for name in algorithm_names()
    if "vectorized" in get_algorithm(name).simulators
)

FAMILIES = (
    GraphSpec("expander", (24,), {"degree": 4}, seed=11),
    GraphSpec("hypercube", (4,)),
    GraphSpec("gilbert", (24, 0.55), seed=12),
)


def _spec(algorithm, graph, seed, simulator, fault_plan=None, **algo_kwargs):
    if algorithm == "known_tmix":
        algo_kwargs.setdefault("mixing_time", 8)
    return TrialSpec(
        graph=graph,
        algorithm=algorithm,
        seed=seed,
        params=FAST,
        algo_kwargs=algo_kwargs,
        fault_plan=fault_plan,
        simulator=simulator,
    )


def _assert_equivalent(reference, vectorized, context=""):
    """The equivalence contract: shared-stream-determined fields agree."""
    assert vectorized.winners == reference.winners, context
    assert vectorized.classification == reference.classification, context
    assert sorted(vectorized.crashed_nodes) == sorted(reference.crashed_nodes), context
    assert vectorized.num_contenders == reference.num_contenders, context
    assert vectorized.num_nodes == reference.num_nodes, context


def _pair(algorithm, graph, seed, fault_plan=None, **algo_kwargs):
    reference = execute_trial(
        _spec(algorithm, graph, seed, "reference", fault_plan, **algo_kwargs)
    )
    vectorized = execute_trial(
        _spec(algorithm, graph, seed, "vectorized", fault_plan, **algo_kwargs)
    )
    return reference, vectorized


class TestRegistryWideEquivalence:
    def test_the_capability_is_declared(self):
        assert "election" in VECTORIZED_ALGORITHMS
        assert "known_tmix" in VECTORIZED_ALGORITHMS

    @pytest.mark.parametrize("algorithm", VECTORIZED_ALGORITHMS)
    @pytest.mark.parametrize("graph", FAMILIES, ids=lambda g: g.family)
    def test_fault_free_equivalence(self, algorithm, graph):
        for seed in (1, 2):
            reference, vectorized = _pair(algorithm, graph, seed)
            _assert_equivalent(
                reference, vectorized, "%s/%s/seed=%d" % (algorithm, graph.family, seed)
            )
            assert vectorized.extras.get("simulator") == "vectorized"
            assert "simulator" not in reference.extras

    def test_crash_plan_equivalence(self):
        # The paper's election keeps doubling until its intersection and
        # distinctness conditions hold, so its winner set is determined by
        # the shared (identity, crash) streams even when crashes destroy
        # tokens -- full equivalence holds under fault plans.
        graph = GraphSpec("expander", (24,), {"degree": 4}, seed=11)
        plan = FaultPlan(crashes=CrashFaults(count=3, at_round=3))
        for seed in (1, 2):
            reference, vectorized = _pair("election", graph, seed, fault_plan=plan)
            _assert_equivalent(reference, vectorized, "election/crash/seed=%d" % seed)
            assert len(vectorized.crashed_nodes) == 3

    def test_crash_plan_known_tmix_shared_stream_fields(self):
        # The single-phase [25] baseline has no intersection guarantee:
        # whether a *second* leader appears under crashes depends on which
        # walks survived, which is walk randomness -- outside the engines'
        # shared streams.  What the shared streams do determine: the crash
        # set, the contender count, and that the surviving contender with
        # the globally largest id elects itself in both engines (nothing
        # can outrank it), so the winner sets always intersect.
        graph = GraphSpec("expander", (24,), {"degree": 4}, seed=11)
        plan = FaultPlan(crashes=CrashFaults(count=3, at_round=3))
        for seed in (1, 2):
            reference, vectorized = _pair("known_tmix", graph, seed, fault_plan=plan)
            assert sorted(vectorized.crashed_nodes) == sorted(reference.crashed_nodes)
            assert vectorized.num_contenders == reference.num_contenders
            assert set(vectorized.winners) & set(reference.winners)
            for outcome in (reference, vectorized):
                assert outcome.classification in ("elected", "multiple_leaders")

    def test_serial_matches_4_workers_bitwise(self):
        """Vectorized trials replay bit-identically through the worker pool."""
        plan = FaultPlan(crashes=CrashFaults(count=2, at_round=5))
        specs = [
            _spec(algorithm, FAMILIES[0], seed, "vectorized", fault_plan)
            for algorithm in VECTORIZED_ALGORITHMS
            for seed in (1, 2)
            for fault_plan in (None, plan)
        ]
        serial = BatchRunner(workers=1).run(specs)
        parallel = BatchRunner(workers=4).run(specs)

        def signature(results):
            return [
                json.dumps(outcome_to_dict(result.outcome), sort_keys=True)
                for result in results
            ]

        assert signature(serial) == signature(parallel)


class TestEdgeCaseEquivalence:
    def test_single_node_graph(self):
        graph = Graph.from_edges(1, [])
        for algorithm in VECTORIZED_ALGORITHMS:
            for seed in (1, 2, 3):
                reference, vectorized = _pair(algorithm, graph, seed)
                _assert_equivalent(reference, vectorized, "%s/n=1" % algorithm)
                assert vectorized.classification == "elected"
                assert vectorized.winners == [0]

    def test_disconnected_components(self):
        # The gilbert builder always extracts the largest connected
        # component, so a disconnected disc-model graph is built inline:
        # two clusters with no bridge, as a sparse radius would produce.
        edges = [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)]
        graph = Graph.from_edges(6, edges)
        for seed in (1, 2, 3):
            reference, vectorized = _pair("election", graph, seed)
            _assert_equivalent(reference, vectorized, "disconnected/seed=%d" % seed)

    def test_crash_kills_token_host_mid_walk(self):
        # Round 2 of the first phase is inside the WALK segment, so tokens
        # sitting on the crashed hosts vanish mid-walk in both engines.
        # Only the paper's election guarantees a walk-independent winner
        # set under crashes (see the crash-plan tests above).
        graph = GraphSpec("expander", (24,), {"degree": 4}, seed=11)
        plan = FaultPlan(crashes=CrashFaults(targets=(5, 7), at_round=2))
        for seed in (1, 2):
            reference, vectorized = _pair("election", graph, seed, fault_plan=plan)
            _assert_equivalent(reference, vectorized, "election/mid-walk-crash")
            assert sorted(vectorized.crashed_nodes) == [5, 7]

    def test_round_limit_exhaustion(self):
        # A cutoff before the first decide round: neither engine elects and
        # both classify identically.
        graph = GraphSpec("expander", (24,), {"degree": 4}, seed=11)
        for seed in (1, 2):
            reference, vectorized = _pair(
                "election", graph, seed, max_rounds=10
            )
            _assert_equivalent(reference, vectorized, "cutoff/seed=%d" % seed)
            assert vectorized.winners == []


#: The faulty slice: every fault model against both engines, on the 16-node
#: expander and the 4-dimensional hypercube, over fixed seeds.  "e11" is the
#: E11/campaign benchmark mix: 5% drop plus 2 crash-stops at phase 2.
FAULTY_PLANS = {
    "drop": FaultPlan(messages=MessageFaults(drop_probability=0.05)),
    "duplicate": FaultPlan(messages=MessageFaults(duplicate_probability=0.05)),
    "delay": FaultPlan(delays=DelayFaults(max_delay=1)),
    "edge": FaultPlan(edges=EdgeFaults(removal_probability=0.1)),
    "e11": FaultPlan(
        messages=MessageFaults(drop_probability=0.05),
        crashes=CrashFaults(count=2, at_phase=2),
    ),
}
AGREEMENT_GRAPHS = (
    GraphSpec("expander", (16,), {"degree": 4}, seed=11),
    GraphSpec("hypercube", (4,)),
)
AGREEMENT_SEEDS = range(24)


def _cramers_v(first, second):
    """Cramér's V of the 2 x k table of two samples' category counts: the
    chi-square statistic's effect size, 0 for identical distributions and 1
    for disjoint ones."""
    categories = sorted(set(first) | set(second))
    rows = [[sample.get(c, 0) for c in categories] for sample in (first, second)]
    total = sum(map(sum, rows))
    columns = [sum(column) for column in zip(*rows)]
    chi2 = sum(
        (observed - sum(row) * column / total) ** 2 / (sum(row) * column / total)
        for row in rows
        for observed, column in zip(row, columns)
    )
    return math.sqrt(chi2 / total)


def _engine_sample(plan, simulator):
    outcomes = [
        execute_trial(_spec("election", graph, seed, simulator, plan))
        for graph in AGREEMENT_GRAPHS
        for seed in AGREEMENT_SEEDS
    ]
    events = collections.Counter()
    for outcome in outcomes:
        events.update(outcome.metrics.fault_events)
    return {
        "outcomes": outcomes,
        "classes": collections.Counter(o.classification for o in outcomes),
        "phases": collections.Counter(o.extras["max_phases"] for o in outcomes),
        "messages": statistics.mean(o.messages for o in outcomes),
        "rounds": statistics.mean(o.metrics.rounds for o in outcomes),
        "events": events,
        "sent": sum(o.messages for o in outcomes),
    }


class TestFaultyAgreement:
    """Both engines under every fault model agree on what the paper measures.

    The engines share identities, crashes, removed edges and delays but not
    walks or drop/duplicate coins, so agreement is distributional over 48
    trials per engine and plan.  Stated tolerances: every classification
    count within 3 trials; the phase-count distributions within a Cramér's
    V of 0.3 (a medium effect; one engine against itself on a disjoint seed
    set gives 0.03-0.22 here) and their means within half a phase; mean
    messages and rounds within 12%; drop and duplicate rates per message
    within four binomial standard deviations of p; the delayed and
    edge-dropped shares of messages within 0.05 of each other, and nonzero
    exactly under their own plan.
    """

    @pytest.mark.parametrize("name", sorted(FAULTY_PLANS))
    def test_engines_agree(self, name):
        plan = FAULTY_PLANS[name]
        reference = _engine_sample(plan, "reference")
        vectorized = _engine_sample(plan, "vectorized")
        for outcome in vectorized["outcomes"]:
            assert outcome.extras.get("simulator") == "vectorized", name
        for label in set(reference["classes"]) | set(vectorized["classes"]):
            assert abs(reference["classes"][label] - vectorized["classes"][label]) <= 3, (
                name,
                reference["classes"],
                vectorized["classes"],
            )
        phases = (reference["phases"], vectorized["phases"])
        assert _cramers_v(*phases) <= 0.3, (name, phases)
        means = [sum(p * k for p, k in c.items()) / sum(c.values()) for c in phases]
        assert abs(means[0] - means[1]) <= 0.5, (name, phases)
        for key in ("messages", "rounds"):
            assert vectorized[key] == pytest.approx(reference[key], rel=0.12), (name, key)
        for sample in (reference, vectorized):
            for event, p in (
                ("dropped", plan.messages.drop_probability),
                ("duplicated", plan.messages.duplicate_probability),
            ):
                rate = sample["events"][event] / sample["sent"]
                assert abs(rate - p) <= 4 * math.sqrt(p * (1 - p) / sample["sent"]), (name, event)
        for event, own_plan in (("delayed", "delay"), ("edge_dropped", "edge")):
            shares = [s["events"][event] / s["sent"] for s in (reference, vectorized)]
            assert abs(shares[0] - shares[1]) <= 0.05, (name, event, shares)
            assert (shares[0] > 0) == (shares[1] > 0) == (name == own_plan), (name, event)
        assert reference["events"]["crashed_nodes"] == vectorized["events"]["crashed_nodes"]
