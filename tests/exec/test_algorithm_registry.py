"""Registry-wide properties of the unified algorithm API.

The redesign's acceptance criteria, pinned per registered algorithm rather
than per hand-picked name: every public entry executes through
``TrialSpec``/``BatchRunner`` into a :class:`TrialOutcome`, is bit-identical
serial vs 4 workers for a fixed seed, and behaves exactly as its declared
capabilities promise (fault plans rejected iff not fault-aware, non-default
parameters rejected iff ignored).
"""

import json

import pytest

from repro.core import ElectionParameters
from repro.core.result import KIND_CLASSIFICATIONS, TrialOutcome
from repro.exec import (
    BatchRunner,
    ExecutionProfile,
    GraphSpec,
    TrialSpec,
    algorithm_names,
    execute_trial,
    fault_aware_algorithms,
    get_algorithm,
    outcome_to_dict,
)
from repro.exec.algorithms import ALGORITHMS, register_algorithm
from repro.faults import FaultPlan

FAST = ElectionParameters(c1=3.0, c2=0.5)

#: Eight public algorithms ship with the registry; private ``_``-prefixed
#: test registrations (this file adds one) never count.
PUBLIC_ALGORITHMS = (
    "clique_sublinear",
    "controlled_flooding",
    "election",
    "flood_max",
    "flooding",
    "known_tmix",
    "push_pull",
    "spanning_tree",
)


def _spec(name, seed=3, fault_plan=None):
    """A cheap spec for any algorithm, honouring its declared capabilities."""
    algorithm = get_algorithm(name)
    kwargs = {"params": FAST} if algorithm.needs_params else {}
    algo_kwargs = {"mixing_time": 1} if name == "known_tmix" else {}
    return TrialSpec(
        graph=GraphSpec("clique", (12,)),
        algorithm=name,
        seed=seed,
        algo_kwargs=algo_kwargs,
        fault_plan=fault_plan,
        **kwargs,
    )


class TestCatalog:
    def test_public_registry_is_the_eight_algorithms(self):
        assert tuple(algorithm_names()) == PUBLIC_ALGORITHMS

    def test_every_entry_declares_a_known_kind(self):
        for name in algorithm_names():
            assert get_algorithm(name).outcome_kind in KIND_CLASSIFICATIONS

    def test_every_public_entry_is_fault_aware_and_described(self):
        for name in algorithm_names():
            algorithm = get_algorithm(name)
            assert algorithm.fault_aware, name
            assert algorithm.description, name
        assert set(algorithm_names()) <= fault_aware_algorithms()

    def test_unknown_name_lists_known_ones(self):
        with pytest.raises(KeyError, match="election"):
            get_algorithm("nope")

    def test_duplicate_registration_rejected(self):
        with pytest.raises(ValueError, match="twice"):
            register_algorithm("election")(lambda graph, spec: None)


class TestUnifiedExecution:
    def test_every_algorithm_returns_a_trial_outcome(self):
        for name in algorithm_names():
            outcome = execute_trial(_spec(name))
            assert isinstance(outcome, TrialOutcome)
            assert outcome.algorithm == name
            assert outcome.kind == get_algorithm(name).outcome_kind
            assert outcome.num_nodes == 12
            assert outcome.classification in KIND_CLASSIFICATIONS[outcome.kind]
            assert outcome.messages > 0

    def test_registry_wide_serial_matches_4_workers_bitwise(self):
        """The determinism contract, per algorithm, through the real executor."""
        specs = [
            _spec(name, seed=seed)
            for name in algorithm_names()
            for seed in (1, 2)
        ]
        serial = BatchRunner(workers=1).run(specs)
        parallel = BatchRunner(workers=4).run(specs)

        def signature(results):
            return [
                json.dumps(outcome_to_dict(result.outcome), sort_keys=True)
                for result in results
            ]

        assert signature(serial) == signature(parallel)

    def test_registry_wide_faulty_replay_serial_matches_4_workers(self):
        plan = FaultPlan.dropping(0.2)
        specs = [_spec(name, seed=5, fault_plan=plan) for name in algorithm_names()]
        serial = BatchRunner(workers=1).run(specs)
        parallel = BatchRunner(workers=4).run(specs)
        for a, b in zip(serial, parallel):
            assert outcome_to_dict(a.outcome) == outcome_to_dict(b.outcome)
            assert a.outcome.metrics.fault_events == b.outcome.metrics.fault_events

    def test_registry_wide_every_backend_matches_serial_bitwise(self):
        """The backend determinism contract (this PR's acceptance pin): for a
        fixed master seed, every execution backend -- in-process, process
        pool, persistent wire workers -- produces bitwise
        identical TrialOutcome sets for every registered algorithm, fault
        plans included (the plan's SplitMix64 streams must survive the JSON
        wire exactly)."""
        from repro.exec import backend_names

        plan = FaultPlan.dropping(0.2)
        specs = [_spec(name, seed=7) for name in algorithm_names()]
        specs += [_spec(name, seed=7, fault_plan=plan) for name in algorithm_names()]

        def signature(results):
            return [
                json.dumps(outcome_to_dict(result.outcome), sort_keys=True)
                for result in results
            ]

        reference = signature(
            BatchRunner(profile=ExecutionProfile(backend="serial")).run(specs)
        )
        for backend in backend_names():
            if backend == "serial":
                continue
            results = BatchRunner(
                workers=2, profile=ExecutionProfile(backend=backend)
            ).run(specs)
            assert signature(results) == reference, backend

    def test_non_trial_outcome_return_is_a_registration_bug(self):
        if "_raw_return_test_only" not in ALGORITHMS:

            @register_algorithm("_raw_return_test_only")
            def _run_raw(graph, spec):
                return {"not": "a TrialOutcome"}

        with pytest.raises(TypeError, match="TrialOutcome"):
            execute_trial(
                TrialSpec(graph=GraphSpec("clique", (8,)), algorithm="_raw_return_test_only")
            )


class TestDeclaredCapabilitiesMatchBehaviour:
    def test_non_fault_aware_entry_rejects_non_empty_plans(self):
        if "_capability_probe_test_only" not in ALGORITHMS:

            @register_algorithm("_capability_probe_test_only")
            def _run_probe(graph, spec):
                from repro.baselines import flood_max_trial

                return flood_max_trial(graph, seed=spec.seed)

        assert "_capability_probe_test_only" not in fault_aware_algorithms()
        spec = TrialSpec(
            graph=GraphSpec("clique", (8,)),
            algorithm="_capability_probe_test_only",
            fault_plan=FaultPlan.dropping(0.5),
        )
        with pytest.raises(ValueError, match="not fault-aware"):
            BatchRunner(workers=1).run([spec])
        with pytest.raises(ValueError, match="not fault-aware"):
            execute_trial(spec)

    def test_params_blind_entries_reject_non_default_params(self):
        for name in algorithm_names():
            if get_algorithm(name).needs_params:
                continue
            spec = TrialSpec(
                graph=GraphSpec("clique", (8,)), algorithm=name, params=FAST
            )
            with pytest.raises(ValueError, match="ignores election parameters"):
                execute_trial(spec)

    def test_fault_aware_entries_actually_consume_the_plan(self):
        """Declared fault-awareness is real: a drop plan moves the counters."""
        plan = FaultPlan.dropping(0.3)
        for name in algorithm_names():
            outcome = execute_trial(_spec(name, seed=11, fault_plan=plan))
            assert outcome.metrics.fault_events.get("dropped", 0) > 0, name

    def test_every_entry_declares_reference_plus_known_simulators(self):
        from repro.core.runner import KNOWN_SIMULATORS

        for name in algorithm_names():
            declared = get_algorithm(name).simulators
            assert "reference" in declared, name
            assert set(declared) <= set(KNOWN_SIMULATORS), name

    def test_undeclared_simulator_rejected_up_front(self):
        spec = TrialSpec(
            graph=GraphSpec("clique", (8,)),
            algorithm="flood_max",
            simulator="vectorized",
        )
        with pytest.raises(ValueError, match="does not support simulator"):
            execute_trial(spec)

    def test_simulators_follow_the_batch_adapter(self):
        from repro.exec.algorithms import Algorithm

        plain = Algorithm(name="_x", runner=lambda g, s: None)
        assert plain.simulators == ("reference",)
        batched = Algorithm(name="_x", runner=lambda g, s: None, batch=lambda g, s: None)
        assert batched.simulators == ("reference", "vectorized")
