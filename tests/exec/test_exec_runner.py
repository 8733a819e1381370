"""Tests for the batch executor: determinism, parallelism, reporting."""

import os
import signal
import threading

import pytest

from repro.core import ElectionParameters
from repro.exec import (
    BatchRunner,
    ExecutionProfile,
    GraphSpec,
    ProgressSink,
    ResultCache,
    SweepSpec,
    TrialSpec,
    backend_names,
    execute_trial,
)
from repro.exec.execute import work_units
from repro.obs import Tracer, TraceSink, use_tracer
from repro.sim.errors import CongestViolationError

FAST = ElectionParameters(c1=3.0, c2=0.5)


def _sweep(trials=2):
    configs = (
        TrialSpec(graph=GraphSpec("clique", (20,)), params=FAST, label="n=20"),
        TrialSpec(graph=GraphSpec("clique", (28,)), params=FAST, label="n=28"),
    )
    return SweepSpec(name="determinism", configs=configs, trials=trials, base_seed=99)


def _signature(results):
    """Everything observable about an outcome sequence, order included."""
    return [
        (
            result.spec.label,
            result.fingerprint,
            result.outcome.as_record(),
            result.outcome.leaders,
            result.outcome.metrics.messages_by_kind,
        )
        for result in results
    ]


class TestDeterminism:
    def test_parallel_matches_serial_outcome_sequence(self):
        """The core guarantee: identical outcome sequences."""
        sweep = _sweep()
        serial = BatchRunner(workers=1).run_sweep(sweep)
        parallel = BatchRunner(workers=3).run_sweep(sweep)
        assert _signature(serial) == _signature(parallel)

    def test_runner_matches_direct_execution(self):
        specs = _sweep().expand()
        direct = [execute_trial(spec) for spec in specs]
        batched = BatchRunner(workers=1).run(specs)
        assert [o.as_record() for o in direct] == [r.outcome.as_record() for r in batched]

    def test_results_come_back_in_submission_order(self):
        sweep = _sweep()
        results = BatchRunner(workers=2).run_sweep(sweep)
        assert [result.spec.label for result in results] == ["n=20", "n=20", "n=28", "n=28"]
        grouped = sweep.group(results)
        assert len(grouped) == 2 and all(len(chunk) == 2 for chunk in grouped)


class TestRunnerBehaviour:
    def test_rejects_invalid_worker_count(self):
        with pytest.raises(ValueError):
            BatchRunner(workers=0)

    def test_unknown_algorithm_fails_before_execution(self):
        runner = BatchRunner(workers=1)
        with pytest.raises(KeyError):
            runner.run([TrialSpec(graph=GraphSpec("clique", (8,)), algorithm="nope")])

    def test_unknown_family_fails_before_execution(self):
        with pytest.raises(KeyError):
            BatchRunner(workers=1).run([TrialSpec(graph=GraphSpec("no_such", (8,)))])

    def test_unseeded_random_family_is_rejected(self):
        """An unseeded expander differs per build: running it would poison caches."""
        bad = TrialSpec(graph=GraphSpec("expander", (16,), {"degree": 4}), params=FAST)
        with pytest.raises(ValueError, match="explicit seed"):
            BatchRunner(workers=1).run([bad])
        # ... but a SweepSpec derives the seed, so the sweep path stays valid.
        sweep = SweepSpec(name="ok", configs=(bad,), trials=1, base_seed=2)
        assert len(BatchRunner(workers=1).run_sweep(sweep)) == 1

    def test_keep_simulation_is_rejected_with_a_cache(self, tmp_path):
        spec = TrialSpec(
            graph=GraphSpec("clique", (12,)),
            params=FAST,
            algo_kwargs={"keep_simulation": True},
        )
        with pytest.raises(ValueError, match="keep_simulation"):
            BatchRunner(workers=1, cache=ResultCache(tmp_path)).run([spec])
        # Without a cache the transcript can be kept.
        result = BatchRunner(workers=1).run([spec])[0]
        assert result.outcome.simulation is not None

    def test_fingerprint_only_computed_when_caching(self, tmp_path):
        spec = TrialSpec(graph=GraphSpec("clique", (12,)), params=FAST)
        plain = BatchRunner(workers=1).run([spec])[0]
        cached = BatchRunner(workers=1, cache=ResultCache(tmp_path)).run([spec])[0]
        assert plain.fingerprint == ""
        assert len(cached.fingerprint) == 64

    def test_empty_batch(self):
        runner = BatchRunner(workers=2)
        assert runner.run([]) == []
        assert runner.last_summary.trials == 0

    def test_summary_accounts_for_cache_hits(self, tmp_path):
        cache = ResultCache(tmp_path)
        sweep = _sweep()
        warm = BatchRunner(workers=1, cache=cache)
        warm.run_sweep(sweep)
        assert warm.last_summary.executed == sweep.num_trials
        assert warm.last_summary.cache_hits == 0

        served = BatchRunner(workers=2, cache=cache)
        results = served.run_sweep(sweep)
        assert all(result.from_cache for result in results)
        assert served.last_summary.executed == 0
        assert served.last_summary.cache_hits == sweep.num_trials
        assert served.last_summary.trials == sweep.num_trials

    def test_parallel_run_populates_cache_for_serial_reader(self, tmp_path):
        cache = ResultCache(tmp_path)
        sweep = _sweep()
        parallel = BatchRunner(workers=2, cache=cache).run_sweep(sweep)
        serial = BatchRunner(workers=1, cache=cache).run_sweep(sweep)
        assert all(result.from_cache for result in serial)
        assert _signature(parallel) == _signature(serial)

    def test_worker_exception_propagates(self):
        # A disconnected-family argument error inside the worker must surface.
        bad = TrialSpec(graph=GraphSpec("cycle", (1,)), params=FAST)
        with pytest.raises(ValueError):
            BatchRunner(workers=2).run([bad, bad])

    @pytest.mark.parametrize("backend", backend_names())
    @pytest.mark.parametrize(
        "spec, exc_type",
        [
            (TrialSpec(graph=GraphSpec("cycle", (1,)), params=FAST), ValueError),
            (
                TrialSpec(
                    graph=GraphSpec("clique", (12,)),
                    params=FAST,
                    algo_kwargs={"congest_mode": "strict", "edge_capacity_words": 1},
                ),
                CongestViolationError,
            ),
        ],
        ids=["ValueError", "CongestViolationError"],
    )
    def test_raise_mode_keeps_the_exception_type(self, backend, spec, exc_type):
        """Every backend re-raises what serial raises, wire included."""
        runner = BatchRunner(workers=2, profile=ExecutionProfile(backend=backend))
        with pytest.raises(exc_type) as caught:
            runner.run([spec, spec])
        assert type(caught.value) is exc_type


class TestErrorCapture:
    def test_capture_mode_returns_failures_as_results(self):
        bad = TrialSpec(graph=GraphSpec("cycle", (1,)), params=FAST, label="bad")
        good = TrialSpec(graph=GraphSpec("clique", (12,)), params=FAST, label="good")
        results = BatchRunner(on_error="capture").run([bad, good])
        assert [result.failed for result in results] == [True, False]
        assert results[0].outcome is None
        assert "cycle" in results[0].error
        assert results[1].outcome.num_leaders == 1
        summary = BatchRunner(on_error="capture")
        results = summary.run([bad])
        assert summary.last_summary.failures == 1
        assert "1 FAILED" in str(summary.last_summary)

    def test_capture_mode_parallel_matches_serial(self):
        bad = TrialSpec(graph=GraphSpec("cycle", (1,)), params=FAST, label="bad")
        good = TrialSpec(graph=GraphSpec("clique", (12,)), params=FAST, label="good")
        specs = [bad, good, bad, good]
        serial = BatchRunner(workers=1, on_error="capture").run(specs)
        parallel = BatchRunner(workers=2, on_error="capture").run(specs)
        assert [r.failed for r in serial] == [r.failed for r in parallel]
        assert serial[0].error == parallel[0].error

    def test_failures_never_cached(self, tmp_path):
        cache = ResultCache(tmp_path)
        bad = TrialSpec(graph=GraphSpec("cycle", (1,)), params=FAST)
        BatchRunner(cache=cache, on_error="capture").run([bad])
        assert cache.stats().entries == 0

    def test_invalid_on_error_rejected(self):
        with pytest.raises(ValueError):
            BatchRunner(on_error="ignore")

    def test_capture_mode_survives_worker_death(self, monkeypatch):
        """A worker process dying (the OS-kill scenario the campaign retry
        policy exists for) costs only its in-flight work unit, captured as
        failures, on the default ``workers=2`` path: the first worker the pool
        spawns is SIGKILLed before its first unit reaches it."""
        monkeypatch.delenv("REPRO_EXEC_BACKEND", raising=False)
        specs = [
            TrialSpec(graph=GraphSpec("clique", (12,)), params=FAST, label="t%d" % i)
            for i in range(4)
        ]
        killer = _KillFirstSpawnedWorker()
        runner = BatchRunner(workers=2, on_error="capture")
        with use_tracer(Tracer(killer)):
            results = runner.run(specs)
        assert runner.last_backend_name == "workerpool"
        assert killer.pid is not None
        assert len(results) == 4
        failed = [index for index, result in enumerate(results) if result.failed]
        assert failed in work_units(specs, 2), "exactly the killed worker's unit"
        for index in failed:
            assert "worker died" in results[index].error and results[index].outcome is None
        assert all(result.outcome.num_leaders == 1 for result in results if not result.failed)


class _KillFirstSpawnedWorker(TraceSink):
    """SIGKILLs the worker named by the first ``worker.spawned`` event."""

    def __init__(self):
        self.pid = None
        self._lock = threading.Lock()

    def emit(self, record):
        if record["name"] != "worker.spawned":
            return
        with self._lock:
            if self.pid is not None:
                return
            self.pid = record["attrs"]["pid"]
        os.kill(self.pid, signal.SIGKILL)


class TestReporting:
    def test_progress_sink_sees_every_trial(self, capsys):
        import sys

        sweep = _sweep()
        sink = ProgressSink(stream=sys.stdout, prefix="test", keep_lines=True)
        BatchRunner(workers=1, sinks=(sink,)).run_sweep(sweep)
        out = capsys.readouterr().out
        assert out.count("test]") == sweep.num_trials + 2  # start + trials + summary
        assert "4 trials (4 executed, 0 cached)" in out
        assert "".join(line + "\n" for line in sink.lines) == out

    def test_summary_speedup_metric(self):
        runner = BatchRunner(workers=1)
        runner.run_sweep(_sweep())
        summary = runner.last_summary
        assert summary.compute_seconds > 0
        assert summary.wall_seconds > 0
        assert summary.effective_parallelism > 0
        assert "4 trials" in str(summary)