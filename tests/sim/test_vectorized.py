"""Unit tests for the vectorized walk-phase engine (``repro.sim.vectorized``)."""

import hashlib
import json

import pytest

from repro.core.params import DEFAULT_PARAMETERS
from repro.core.runner import run_leader_election
from repro.core.schedule import PhaseSchedule
from repro.exec import GraphSpec, TrialSpec, trial_fingerprint
from repro.exec.execute import execute_trial
from repro.exec.serialize import outcome_to_dict
from repro.faults import CrashFaults, DelayFaults, EdgeFaults, FaultPlan, MessageFaults
from repro.graphs import expander_graph
from repro.graphs.generators import gilbert_connectivity_radius
from repro.graphs.topology import Graph
from repro.obs import JsonlTraceSink, Tracer, read_trace, use_tracer
from repro.sim import (
    VECTORIZED_WALK_STREAM,
    VectorizedUnsupported,
    graph_csr,
    vectorized_unsupported_reason,
)
from repro.sim.vectorized import run_vectorized_batch, vectorized_election_trial


def _alone(graph, **kwargs):
    """One election on the vectorized engine, as a batch of one: its
    outcome, or the exception its setup raised."""
    (result,) = run_vectorized_batch([vectorized_election_trial(graph, **kwargs)])
    return result


class TestSeedContract:
    def test_same_seed_same_outcome(self):
        graph = expander_graph(32, seed=1)
        first = _alone(graph, seed=9)
        second = _alone(graph, seed=9)
        assert first.leaders == second.leaders
        assert first.metrics.rounds == second.metrics.rounds
        assert first.metrics.messages == second.metrics.messages

    def test_different_seeds_vary_walks(self):
        graph = expander_graph(32, seed=1)
        outcomes = [_alone(graph, seed=s) for s in range(6)]
        assert len({o.metrics.messages for o in outcomes}) > 1

    def test_dedicated_walk_stream_constant(self):
        # The stream id is part of the engine's public contract (documented
        # in docs/architecture.md); changing it silently would reshuffle
        # every vectorized trajectory.
        assert VECTORIZED_WALK_STREAM == 0xA77A9

    def test_outcome_is_tagged(self):
        graph = expander_graph(32, seed=1)
        outcome = _alone(graph, seed=3)
        assert outcome.extras["simulator"] == "vectorized"
        # Reference outcomes stay untagged, as their cached documents are.
        reference = run_leader_election(graph, seed=3)
        assert "simulator" not in reference.extras


class TestFallback:
    def test_static_reasons(self):
        # The three configurations the engine declines up front; every
        # fault plan runs vectorized.
        assert vectorized_unsupported_reason() is None
        assert "observers" in vectorized_unsupported_reason(observers=(object(),))
        assert "keep_simulation" in vectorized_unsupported_reason(keep_simulation=True)
        assert "congest" in vectorized_unsupported_reason(congest_mode="strict")

    def test_unsupported_setup_is_returned_in_its_slot(self):
        # A believed n of 2 draws ids from [1, 16]: 16 contenders collide.
        result = _alone(expander_graph(16, seed=1), seed=1, known_n=2)
        assert isinstance(result, VectorizedUnsupported)
        assert "duplicate contender" in str(result)

    @pytest.mark.parametrize(
        "plan, event",
        [
            (FaultPlan(messages=MessageFaults(drop_probability=0.1)), "dropped"),
            (FaultPlan(messages=MessageFaults(duplicate_probability=0.1)), "duplicated"),
            (FaultPlan(delays=DelayFaults(max_delay=1)), "delayed"),
            (FaultPlan(edges=EdgeFaults(removal_probability=0.1)), "edge_dropped"),
        ],
        ids=["drop", "duplicate", "delay", "edge"],
    )
    def test_every_fault_model_runs_vectorized(self, plan, event):
        graph = expander_graph(16, seed=1)
        outcome = execute_trial(
            TrialSpec(graph=graph, seed=1, fault_plan=plan, simulator="vectorized")
        )
        assert outcome.extras["simulator"] == "vectorized"
        assert outcome.metrics.fault_events[event] > 0
        again = _alone(graph, seed=1, fault_plan=plan)
        assert (again.leaders, again.metrics) == (outcome.winners, outcome.metrics)

    def test_runner_falls_back_with_reason(self):
        graph = expander_graph(16, seed=1)
        seen = []
        observers = (lambda *send: seen.append(send),)
        outcome = execute_trial(
            TrialSpec(
                graph=graph, seed=1, algo_kwargs={"observers": observers}, simulator="vectorized"
            )
        )
        assert outcome.extras["simulator"].startswith("reference-fallback:")
        assert "observers" in outcome.extras["simulator"]
        assert len(seen) == outcome.metrics.messages
        # ... and the fallback result equals a plain reference run.
        reference = run_leader_election(graph, seed=1)
        assert outcome.winners == reference.leaders
        assert outcome.metrics.messages == reference.metrics.messages

    def test_unknown_simulator_name_rejected(self):
        spec = TrialSpec(graph=GraphSpec("clique", (4,)), seed=1, simulator="warp-drive")
        with pytest.raises(ValueError, match="does not support simulator 'warp-drive'"):
            execute_trial(spec)


class TestFingerprint:
    def test_simulator_splits_the_cache_key(self):
        reference = TrialSpec(graph=GraphSpec("expander", (32,), seed=1), seed=5)
        vectorized = TrialSpec(
            graph=GraphSpec("expander", (32,), seed=1), seed=5, simulator="vectorized"
        )
        assert trial_fingerprint(reference) != trial_fingerprint(vectorized)


class TestGraphCsr:
    def test_matches_neighbor_lists(self):
        graph = expander_graph(24, seed=2)
        indptr, indices, degrees = graph_csr(graph)
        for v in graph.nodes():
            assert degrees[v] == graph.degree(v)
            assert list(indices[indptr[v] : indptr[v + 1]]) == sorted(
                graph.neighbors(v)
            )

    def test_memoised_until_mutation(self):
        graph = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3)])
        first = graph_csr(graph)
        second = graph_csr(graph)
        assert first[1] is second[1]
        graph.add_edge(0, 3)
        third = graph_csr(graph)
        assert third[1] is not second[1]
        assert third[2][0] == graph.degree(0) == 2


class TestSmallAndDegenerateGraphs:
    def test_single_node(self):
        outcome = _alone(Graph.from_edges(1, []), seed=4)
        assert outcome.leaders == [0]
        assert outcome.classification == "elected"

    def test_two_isolated_nodes(self):
        # Lazy walks on isolated nodes self-loop; every contender becomes
        # its own proxy and elects within its singleton component.
        outcome = _alone(Graph.from_edges(2, []), seed=4)
        assert outcome.classification in ("elected", "multiple_leaders")
        assert outcome.leaders

    def test_congestion_accounting_present(self):
        graph = expander_graph(32, seed=1)
        outcome = _alone(graph, seed=2, edge_capacity_words=4)
        assert outcome.metrics.max_edge_bits_in_round > 0
        no_cap = _alone(graph, seed=2)
        assert no_cap.metrics.messages == outcome.metrics.messages


_EXPANDER_64 = GraphSpec("expander", (64,), {"degree": 6}, seed=5)
_EXPANDER_256 = GraphSpec("expander", (256,), {"degree": 8}, seed=7)
_GILBERT_256 = GraphSpec("gilbert", (256, gilbert_connectivity_radius(256)), seed=8)
#: Phase 3 of the default schedule: the ``cap-*`` pins stop the five-phase
#: ``election-expander`` run inside each of its segments.
_PHASE_3 = PhaseSchedule(DEFAULT_PARAMETERS).window(3)


def _capped(max_rounds: int) -> TrialSpec:
    return TrialSpec(
        graph=_EXPANDER_64, seed=1, simulator="vectorized", algo_kwargs={"max_rounds": max_rounds}
    )


def _crashed_at(at_round: int) -> TrialSpec:
    return TrialSpec(
        graph=_EXPANDER_64,
        seed=1,
        simulator="vectorized",
        fault_plan=FaultPlan(crashes=CrashFaults(count=6, at_round=at_round)),
    )


#: SHA-256 of ``json.dumps(outcome_to_dict(outcome))`` (insertion order, so
#: ``messages_by_kind`` key order is pinned too), recorded before the engine's
#: bookkeeping was vectorized.  Any change to RNG draws, rounds, message
#: units, leaders or crash sets changes a digest.  The ``-256``/``-512``/``-8``
#: shapes are ``vectorized-campaign``'s, and each ``cap-*`` pin ends the run
#: (``completed=False``) inside one segment; both were recorded before the
#: engine was split into one function per segment.  The ``crash-mid-*`` pins
#: lose converge-cast messages to crashed nodes; they were recorded before
#: the exchange segments and the winner cascade became array programs.
_GOLDEN = {
    "election-expander": (
        TrialSpec(graph=_EXPANDER_64, seed=1, simulator="vectorized"),
        "dba4d82a5fa8785c68afc2f9d147c3330a42f19da27a71380630a257fc1d0338",
    ),
    "election-hypercube": (
        TrialSpec(graph=GraphSpec("hypercube", (6,)), seed=2, simulator="vectorized"),
        "fbac7f3c8ade0627d4c4b3ecb43a9e45324db1bb870ade3d406f805d6bbc7521",
    ),
    "election-gilbert": (
        TrialSpec(
            graph=GraphSpec("gilbert", (64, gilbert_connectivity_radius(64)), seed=6),
            seed=3,
            simulator="vectorized",
        ),
        "13d408660817423f54d8a2f00e9db2e52f688b21c8fd254e5c6282c58d10fdfa",
    ),
    "election-expander-crash": (
        TrialSpec(
            graph=_EXPANDER_64,
            seed=4,
            simulator="vectorized",
            fault_plan=FaultPlan(crashes=CrashFaults(count=2, at_phase=2)),
        ),
        "ad82249a7bec9d14cbe8bc74950d9543fc30f42e4c97e060c95d4f9e601c3924",
    ),
    "known_tmix-expander": (
        TrialSpec(graph=_EXPANDER_64, seed=5, algorithm="known_tmix", simulator="vectorized"),
        "687045d10a4cd9eea5b01a9852a5f8acaaf005ff11078c389023ce2ad7a02dc5",
    ),
    "election-congestion": (
        TrialSpec(
            graph=_EXPANDER_64,
            seed=6,
            simulator="vectorized",
            algo_kwargs={"edge_capacity_words": 1},
        ),
        "26403c87302c8e577be4ecc026e744b445d9ece91f6eed373a40744db18ff219",
    ),
    "election-expander-256": (
        TrialSpec(graph=_EXPANDER_256, seed=7, simulator="vectorized"),
        "f05cada85b36cece7a2d5de4e2fa83d2bd4a2419efd8658141daa85dc4aa4a0a",
    ),
    "election-expander-512": (
        TrialSpec(
            graph=GraphSpec("expander", (512,), {"degree": 8}, seed=9),
            seed=8,
            simulator="vectorized",
        ),
        "b993b07a41f44911730f4ac224fdbfe16c0f2364cfb261069a0d699f467a2f53",
    ),
    "election-hypercube-8": (
        TrialSpec(graph=GraphSpec("hypercube", (8,)), seed=9, simulator="vectorized"),
        "8e5eaf9c2cc08334693daa0ccbef19c5f1c3296df724f63ca4901a2ad7bcca50",
    ),
    "election-gilbert-256": (
        TrialSpec(graph=_GILBERT_256, seed=10, simulator="vectorized"),
        "ec362bd854d1a85beec3be4c023505ea035d9abd82ce7951f23d6519a16828d9",
    ),
    "election-expander-256-crash": (
        TrialSpec(
            graph=_EXPANDER_256,
            seed=11,
            simulator="vectorized",
            fault_plan=FaultPlan(crashes=CrashFaults(count=2, at_phase=2)),
        ),
        "e3eee48269435d4fd7279cd0f77eabe5f920d12198f39b8074faee341baccd59",
    ),
    "known_tmix-gilbert-256": (
        TrialSpec(graph=_GILBERT_256, seed=12, algorithm="known_tmix", simulator="vectorized"),
        "c5f9028546143cae005814f64715de40ee57087d09fd8f63221707c0038c0491",
    ),
    "cap-mid-walk": (
        _capped(_PHASE_3.walk_start + 4),
        "390922d6f791ba290c4e29137e6a23bb11fe725f742c8e76b4c8b32f53850cbd",
    ),
    "cap-mid-report": (
        _capped(_PHASE_3.report_start + 4),
        "648fc1efad5639b6adcb63435e4abc6cc494ea1867ab90493a5447570167c7f2",
    ),
    "cap-mid-distribute": (
        _capped(_PHASE_3.distribute_start + 2),
        "f94052ebbc92029e7dee0b06e9a691a24bde7bd45ffa6deb70d11d3882ce0f3c",
    ),
    "cap-mid-collect": (
        _capped(_PHASE_3.collect_start + 4),
        "6223292fd12258c960e065e7b19370930b7ea18fe91a193b6529c89e5588e908",
    ),
    "cap-decide": (
        _capped(_PHASE_3.decide_round),
        "08f25f0ef35963069112b32b6af4c5c12c9f69aeca16089cf572b6ad10a06761",
    ),
    # Six crashes inside a converge-cast: REPORT, COLLECT, DISTRIBUTE and
    # winner messages are lost to crashed parents and children.
    "crash-mid-report": (
        _crashed_at(_PHASE_3.report_start + 3),
        "84ad70f1eed222d251621020aef73952eb4af31a5d6ea623ce6fa18f36e43db9",
    ),
    "crash-mid-collect": (
        _crashed_at(_PHASE_3.collect_start + 3),
        "b90a0dc5f5707d18d24ec73907df3862cfded6e83541b76df3e810426914dc5c",
    ),
}


_EXPANDER_16 = GraphSpec("expander", (16,), {"degree": 4}, seed=13)
_HYPERCUBE_4 = GraphSpec("hypercube", (4,))
_DROP = MessageFaults(drop_probability=0.05)
#: The message, delay and edge adversaries on ``faulty-fallback-campaign``'s
#: shapes and on one n=64 expander, keyed ``<plan>-<graph>`` and pinned as
#: ``faulty-<plan>-<graph>``; recorded before same-shape trials ran as one batch.
_FAULTY_PLANS = {
    "drop": FaultPlan(messages=_DROP),
    "duplicate": FaultPlan(messages=MessageFaults(duplicate_probability=0.05)),
    "delay1": FaultPlan(delays=DelayFaults(max_delay=1)),
    "delay3": FaultPlan(delays=DelayFaults(max_delay=3)),
    "edges": FaultPlan(edges=EdgeFaults(removal_probability=0.1, at_round=20)),
    "drop-crash": FaultPlan(messages=_DROP, crashes=CrashFaults(count=2, at_phase=2)),
}
_FAULTY_GRAPHS = {
    "expander16": _EXPANDER_16,
    "hypercube4": _HYPERCUBE_4,
    "expander64": _EXPANDER_64,
}
_FAULTY_SPECS = {
    "%s-%s" % (plan_name, graph_name): TrialSpec(
        graph=graph, seed=20 + seed, simulator="vectorized", fault_plan=plan
    )
    for seed, (plan_name, plan) in enumerate(_FAULTY_PLANS.items())
    for graph_name, graph in _FAULTY_GRAPHS.items()
}
_FAULTY_DIGESTS = {
    "drop-expander16": "d70c6393fc8e0c560e404ff2379e27e63269bd1ec930e0366eb04c94f67b2753",
    "drop-hypercube4": "c7212b180bb2070a8ced9a56d91ece42597d8f3f8e7542be2cd8957b9ebd5905",
    "drop-expander64": "9933de6d6d0b394f07cf19925284898fe0d90ccaaa802e0aa6bf31117b2f1aa5",
    "duplicate-expander16": "b4d6416c26a9cfa8fae5a3c386ff745fea16955c62f460297388a87d64dff794",
    "duplicate-hypercube4": "d3e470ac13ce0a367a36efa990f190af3d63e13cebbfe2b12579c061cc7a4f0a",
    "duplicate-expander64": "013bc3ae48cf710786abeae6b34c2c16e77990e085a2470beeb662d0edd97464",
    "delay1-expander16": "673dfcffe0f8b7ae76b262d83d8a9c77d836daee2413e9f1ba9388eb9516090e",
    "delay1-hypercube4": "a7712699e2bbe5690c503b564b11871e069566df189e33ef7f6f84a26f45c4c3",
    "delay1-expander64": "a0e0aaf8a1ca424dfcf7964f5a1f78a63b4d50da6cdfe5de38f40e73d19d28e1",
    "delay3-expander16": "ce1e9093639f3058e7065d083c9507036cada174350acbf3cac111aed9bf47dc",
    "delay3-hypercube4": "71f688cd5e7fa4d2d876def8764415adec0eee461dd1ccd952859625d8710683",
    "delay3-expander64": "d6c35c23de35d7e364175b3913ef44490ce101f62b787a74a9aa52d96c5aeb7e",
    "edges-expander16": "1dde466e8a98c21e7a7640c3d29a2127921c7a2059f264688bcb31d2d2d31276",
    "edges-hypercube4": "34c7908c0f63678aaf9204f873cc248a6505e6eac70f0e6e47fe8e8950f08f2f",
    "edges-expander64": "260eb968c9332c9b95c330be07954631280bb8f945fb10476acb4e9ad2e261a0",
    "drop-crash-expander16": "dc3c2aadb17b660f5d9a0a510c82dcc2c7b7f153301d14985b371e20028d3281",
    "drop-crash-hypercube4": "8ac8b1f1a7a0e1ee8ba3d4bdd9246e8ceab533255a288eedc280bdc96a18f7de",
    "drop-crash-expander64": "ff2e55a05decf7d837aaeaecd04d10564884696cc8778b5a870ce019976ccd64",
}
_GOLDEN.update(
    ("faulty-" + name, (spec, _FAULTY_DIGESTS[name])) for name, spec in _FAULTY_SPECS.items()
)


def _digest(outcome) -> str:
    return hashlib.sha256(json.dumps(outcome_to_dict(outcome)).encode()).hexdigest()


class TestGoldenOutcomes:
    @pytest.mark.parametrize("name", sorted(_GOLDEN))
    def test_outcome_digest_is_pinned(self, name):
        spec, expected = _GOLDEN[name]
        outcome = execute_trial(spec)
        assert outcome.extras["simulator"] == "vectorized"
        assert _digest(outcome) == expected
        # The crash and congestion pins must keep exercising those paths.
        if name.endswith("-crash"):
            assert len(outcome.crashed_nodes) == 2
            assert outcome.metrics.fault_events["lost_to_crash"] > 0
        if name.startswith("crash-"):
            assert outcome.metrics.fault_events["lost_to_crash"] > 0
        if name == "crash-mid-collect":
            assert outcome.winners == []
        if name == "election-congestion":
            assert outcome.metrics.congestion_events > 0
        if name.startswith("faulty-"):  # the adversary acted
            events = outcome.metrics.fault_events
            assert events["dropped"] + events["duplicated"] + events["delayed"] > 0 or (
                events["edge_dropped"] > 0
            )
        assert outcome.metrics.completed is not name.startswith("cap-")


class TestTracedRun:
    @pytest.mark.parametrize(
        "name",
        [
            "election-expander-crash",
            "known_tmix-expander",
            "election-congestion",
            "faulty-drop-expander64",
        ],
    )
    def test_traced_outcome_matches_untraced(self, name, tmp_path):
        spec, expected = _GOLDEN[name]
        sink = JsonlTraceSink(tmp_path / "trace.jsonl")
        with use_tracer(Tracer(sink)):
            traced = execute_trial(spec)
        sink.close()
        assert _digest(traced) == expected
        records = read_trace(tmp_path / "trace.jsonl")
        phases = [r for r in records if r["name"] == "vec.phase"]
        assert phases
        last = phases[-1]["attrs"]
        assert last["messages"] == traced.metrics.messages
        assert last["message_units"] == traced.metrics.message_units
        # Every phase splits its wall time into the engine's three parts.
        for phase in phases:
            for part in ("walk_s", "exchange_s", "cascade_s"):
                assert phase["attrs"][part] >= 0.0
        # How many of each phase's walk, REPORT and COLLECT ran still: all
        # three of [25]'s one phase, none under a message adversary.
        still = [phase["attrs"]["still"] for phase in phases]
        if name == "known_tmix-expander":
            assert still == [3]
        if name.startswith("faulty-"):
            assert still == [0] * len(phases)
