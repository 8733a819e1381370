"""The execution-backend layer: protocol, factory, env override, dispatch."""

import json

import pytest

from repro.core import ElectionParameters
from repro.exec import (
    BatchRunner,
    ExecutionBackend,
    ExecutionProfile,
    GraphSpec,
    SerialBackend,
    SweepSpec,
    TrialSpec,
    WorkerPoolBackend,
    backend_names,
    make_backend,
    outcome_to_dict,
)

FAST = ElectionParameters(c1=3.0, c2=0.5)


def _sweep(trials=2):
    configs = (
        TrialSpec(graph=GraphSpec("clique", (12,)), params=FAST, label="n=12"),
        TrialSpec(graph=GraphSpec("clique", (16,)), params=FAST, label="n=16"),
    )
    return SweepSpec(name="backends", configs=configs, trials=trials, base_seed=42)


def _signature(results):
    return [
        (result.spec.label, json.dumps(outcome_to_dict(result.outcome), sort_keys=True))
        for result in results
    ]


class TestRegistry:
    def test_two_backends_are_registered(self):
        assert backend_names() == ("serial", "workerpool")

    def test_factory_builds_each(self):
        for name in backend_names():
            backend = make_backend(name, workers=2)
            assert isinstance(backend, ExecutionBackend)
            assert backend.name == name
            backend.close()

    def test_unknown_name_lists_known_ones(self):
        with pytest.raises(KeyError, match="workerpool"):
            make_backend("nope")

    def test_runner_rejects_a_non_backend(self):
        with pytest.raises(TypeError, match="backend"):
            BatchRunner(profile=ExecutionProfile(backend=42))

    def test_add_backend_argument_tracks_the_registry(self):
        """The shared CLI helper (one definition for every campaign example)
        accepts exactly the registered names plus the empty default."""
        import argparse

        from repro.exec import add_backend_argument

        parser = argparse.ArgumentParser()
        add_backend_argument(parser)
        assert parser.parse_args([]).backend == ""
        for name in backend_names():
            assert parser.parse_args(["--backend", name]).backend == name
        with pytest.raises(SystemExit):
            parser.parse_args(["--backend", "bogus"])


class TestEnvOverride:
    def test_env_override_selects_the_backend(self, monkeypatch):
        monkeypatch.setenv("REPRO_EXEC_BACKEND", "serial")
        runner = BatchRunner(workers=4)
        runner.run_sweep(_sweep(trials=1))
        assert runner.last_backend_name == "serial"

    def test_invalid_env_value_fails_fast(self, monkeypatch):
        monkeypatch.setenv("REPRO_EXEC_BACKEND", "bogus")
        with pytest.raises(KeyError, match="bogus"):
            BatchRunner(workers=1).run_sweep(_sweep(trials=1))

    def test_explicit_backend_beats_the_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_EXEC_BACKEND", "bogus")
        runner = BatchRunner(workers=1, profile=ExecutionProfile(backend="serial"))
        runner.run_sweep(_sweep(trials=1))
        assert runner.last_backend_name == "serial"

    def test_default_selection_without_env(self, monkeypatch):
        monkeypatch.delenv("REPRO_EXEC_BACKEND", raising=False)
        serial = BatchRunner(workers=1)
        serial.run_sweep(_sweep(trials=1))
        assert serial.last_backend_name == "serial"
        parallel = BatchRunner(workers=2)
        parallel.run_sweep(_sweep(trials=2))
        assert parallel.last_backend_name == "workerpool"


class TestProtocol:
    def test_map_is_the_one_abstract_dispatch_method(self):
        """A backend needs only ``map``; ``submit`` alone is not a backend."""

        class MapOnly(ExecutionBackend):
            def map(self, specs):
                return iter(())

        class SubmitOnly(ExecutionBackend):
            def submit(self, spec):
                raise NotImplementedError

        assert list(MapOnly().map([])) == []
        with pytest.raises(TypeError):
            SubmitOnly()


class TestCallerOwnedLifecycle:
    def test_backend_instance_serves_multiple_batches(self):
        """A caller-owned pool is not closed by the runner between runs."""
        with WorkerPoolBackend(workers=2) as backend:
            runner = BatchRunner(workers=2, profile=ExecutionProfile(backend=backend))
            first = runner.run_sweep(_sweep())
            pids = set(backend.worker_pids())
            second = runner.run_sweep(_sweep())
            assert set(backend.worker_pids()) == pids, "workers were recycled"
        assert _signature(first) == _signature(second)
        assert backend.worker_pids() == []

    def test_map_of_one_spec_answers_it(self):
        spec = _sweep(trials=1).expand()[0]
        for backend in (SerialBackend(), WorkerPoolBackend(workers=1)):
            [(index, payload)] = backend.map([spec])
            assert index == 0
            assert payload.error is None
            assert payload.outcome.num_nodes == 12
            backend.close()


class TestInlineFallback:
    def test_unwire_safe_trials_run_in_process(self):
        """A locally registered algorithm cannot reach wire workers; the
        runner executes it in-process and the batch still completes."""
        from repro.exec.algorithms import ALGORITHMS, register_algorithm

        if "_inline_fallback_test_only" not in ALGORITHMS:

            @register_algorithm("_inline_fallback_test_only")
            def _run_inline(graph, spec):
                from repro.baselines import flood_max_trial

                return flood_max_trial(graph, seed=spec.seed)

        specs = [
            TrialSpec(graph=GraphSpec("clique", (10,)), algorithm="flood_max", seed=1),
            TrialSpec(
                graph=GraphSpec("clique", (10,)),
                algorithm="_inline_fallback_test_only",
                seed=1,
            ),
        ]
        with WorkerPoolBackend(workers=1) as backend:
            results = BatchRunner(profile=ExecutionProfile(backend=backend)).run(specs)
        assert [result.failed for result in results] == [False, False]
        # Identical trials, identical outcomes -- wherever each one ran.
        assert outcome_to_dict(results[0].outcome) == outcome_to_dict(results[1].outcome)
