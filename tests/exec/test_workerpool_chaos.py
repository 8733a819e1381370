"""Worker-death and worker-hang chaos tests for the worker-pool backend.

The backend's contract under fire: an OS-killed worker costs exactly the
members of its work unit it had not answered (recaptured as
``on_error="capture"`` failures) while the answered ones keep their
outcomes, the slot respawns, the batch completes -- and a resume against the
same cache re-executes only the lost trials.  With heartbeats enabled the same holds
for a worker that is alive but *stuck*: a SIGSTOPped process stops emitting
frames, trips the hang deadline, and is killed and replaced.  A slot past its
respawn budget retires while the others keep serving, and the last one to
retire fails whatever is left instead of leaving it queued.

The chaos agents are *deterministic*: test-only algorithms, preloaded into
the workers from a module this test writes to disk, that SIGKILL (or
SIGSTOP) their own worker process the first time they run (leaving a marker
file) and succeed on every run after.  No timing, no races.
"""

import os
import sys
import textwrap

import pytest

from repro.core import ElectionParameters
from repro.exec import (
    BatchRunner,
    ExecutionProfile,
    GraphSpec,
    ResultCache,
    TrialSpec,
    WorkerPoolBackend,
)
from repro.exec.execute import work_units
from repro.obs import MetricsAggregator, Tracer, TraceSink, use_tracer

FAST = ElectionParameters(c1=3.0, c2=0.5)

CHAOS_MODULE = "repro_chaos_algos_test_only"

CHAOS_SOURCE = textwrap.dedent(
    '''
    """Test-only chaos algorithms, importable by wire workers via --preload."""

    import os
    import signal

    from repro.baselines.flood_max import flood_max_trial
    from repro.exec.algorithms import ALGORITHMS, register_algorithm

    if "_die_once_test_only" not in ALGORITHMS:

        @register_algorithm("_die_once_test_only")
        def _run_die_once(graph, spec):
            marker = spec.algo_kwargs["marker"]
            if not os.path.exists(marker):
                with open(marker, "w"):
                    pass
                os.kill(os.getpid(), signal.SIGKILL)
            return flood_max_trial(graph, seed=spec.seed)

    if "_stall_once_test_only" not in ALGORITHMS:

        @register_algorithm("_stall_once_test_only")
        def _run_stall_once(graph, spec):
            marker = spec.algo_kwargs["marker"]
            if not os.path.exists(marker):
                with open(marker, "w"):
                    pass
                # Freeze the whole worker (heartbeat thread included): the
                # process stays alive but can never emit another frame.
                os.kill(os.getpid(), signal.SIGSTOP)
            return flood_max_trial(graph, seed=spec.seed)

    if "_sleep_test_only" not in ALGORITHMS:

        @register_algorithm("_sleep_test_only")
        def _run_sleep(graph, spec):
            import time

            time.sleep(spec.algo_kwargs.get("seconds", 0.5))
            return flood_max_trial(graph, seed=spec.seed)
    '''
)


@pytest.fixture
def chaos_module(tmp_path_factory):
    """Write the chaos module where both this process and workers find it."""
    directory = tmp_path_factory.mktemp("chaos")
    path = directory / ("%s.py" % CHAOS_MODULE)
    path.write_text(CHAOS_SOURCE)
    sys.path.insert(0, str(directory))
    try:
        __import__(CHAOS_MODULE)  # register in the submitting process too
        yield str(directory)
    finally:
        sys.path.remove(str(directory))


def _specs(marker):
    good = [
        TrialSpec(graph=GraphSpec("clique", (10,)), algorithm="flood_max", seed=seed)
        for seed in (1, 2, 3)
    ]
    killer = TrialSpec(
        graph=GraphSpec("clique", (10,)),
        algorithm="_die_once_test_only",
        seed=9,
        algo_kwargs={"marker": marker},
    )
    return [good[0], killer, good[1], good[2]]


def _flood(n, seed, family="clique"):
    return TrialSpec(graph=GraphSpec(family, (n,)), algorithm="flood_max", seed=seed)


def _mid_unit(algorithm, marker, workers):
    """Specs whose first work unit runs a flood, the chaos trial, then a
    flood it never reaches; every other unit is clean floods."""
    chaos = TrialSpec(
        graph=GraphSpec("clique", (10,)),
        algorithm=algorithm,
        seed=9,
        algo_kwargs={"marker": marker},
    )
    specs = [_flood(10, 1), chaos, _flood(12, 2)]
    specs += [_flood(10, seed, family="cycle") for seed in range(3, 3 * workers)]
    assert work_units(specs, workers)[0] == [0, 1, 2], "the chaos trial sits mid-unit"
    return specs


def _backend(chaos_module, workers=2):
    return WorkerPoolBackend(
        workers=workers, preload=(CHAOS_MODULE,), extra_paths=(chaos_module,)
    )


class TestWorkerDeath:
    def test_killed_worker_loses_only_the_inflight_trial(self, chaos_module, tmp_path):
        """The satellite scenario: kill a worker mid-unit; the run completes,
        exactly the members the worker had not answered -- the chaos trial
        and the flood queued behind it -- come back as failures, the flood it
        answered first and every other unit keep their outcomes, and resume
        re-executes only the two lost trials."""
        marker = str(tmp_path / "marker")
        cache = ResultCache(tmp_path / "cache")
        specs = _mid_unit("_die_once_test_only", marker, workers=2)
        alone = BatchRunner(on_error="capture").run(specs[:1] + specs[2:])

        with _backend(chaos_module) as backend:
            runner = BatchRunner(
                cache=cache, on_error="capture", profile=ExecutionProfile(backend=backend)
            )
            results = runner.run(specs)
            assert backend.deaths == 1
            assert os.path.exists(marker), "the chaos trial ran on a worker"
        assert [result.failed for result in results] == [False, True, True, False, False, False]
        for lost in results[1:3]:
            assert "worker died" in lost.error
            assert lost.spec.describe() in lost.error
        kept = results[:1] + results[3:]
        assert [result.outcome for result in kept] == [result.outcome for result in alone[:1]] + [
            result.outcome for result in alone[2:]
        ]
        assert runner.last_summary.failures == 2
        assert runner.last_summary.executed == 4

        # Resume: the four survivors are cache hits; only the lost trials
        # re-execute -- and succeed, because the marker now exists.
        with _backend(chaos_module) as backend:
            resumed = BatchRunner(
                cache=cache, on_error="capture", profile=ExecutionProfile(backend=backend)
            ).run(specs)
            assert backend.deaths == 0
        assert [result.from_cache for result in resumed] == [True, False, False, True, True, True]
        assert [result.failed for result in resumed] == [False] * 6
        assert resumed[2].outcome == alone[1].outcome

    def test_pool_respawns_and_keeps_serving(self, chaos_module, tmp_path):
        """After a death the slot comes back: a single-worker pool executes
        the next batches on a fresh subprocess."""
        marker = str(tmp_path / "marker")
        with _backend(chaos_module, workers=1) as backend:
            runner = BatchRunner(on_error="capture", profile=ExecutionProfile(backend=backend))
            first = runner.run(_specs(marker))
            # One slot serves the batch as one unit, the three floods placed
            # ahead of the chaos trial; they were answered before the kill.
            assert [result.failed for result in first] == [False, True, False, False]
            assert backend.deaths == 1
            assert backend.worker_pids() == [], "a slot respawns when work arrives"
            second = runner.run([_flood(10, 4)])
            assert [result.failed for result in second] == [False]
            respawned = backend.worker_pids()
            assert respawned != [], "a fresh worker serves the slot"
            third = runner.run([_flood(10, 5)])
            assert [result.failed for result in third] == [False]
            assert backend.worker_pids() == respawned, "the respawn persists"

    def test_close_aborts_queued_trials_instead_of_executing_them(self):
        """A raise-mode abort closes the backend with trials still queued;
        those must drain as "backend closed" payloads, not keep running on
        daemon threads after the exception propagated."""
        backend = WorkerPoolBackend(workers=1)
        backend.start()
        backend._closed = True  # what close() sets before the drain
        future = backend.submit(
            TrialSpec(graph=GraphSpec("clique", (10,)), algorithm="flood_max", seed=1)
        )
        payload = future.result(timeout=30)
        assert payload.outcome is None
        assert "backend closed" in payload.error
        stale_queue = backend._tasks
        backend.close()
        # A restarted backend starts a new generation on a *fresh* queue --
        # stale tasks and shutdown sentinels stay with any thread that
        # outlived close()'s join timeout -- and executes again.
        backend.start()
        assert backend._tasks is not stale_queue
        revived = backend.submit(
            TrialSpec(graph=GraphSpec("clique", (10,)), algorithm="flood_max", seed=1)
        )
        assert revived.result(timeout=60).outcome is not None
        backend.close()

    def test_respawn_budget_bounds_spawn_loops(self, chaos_module, tmp_path):
        """A slot that keeps dying eventually reports budget exhaustion
        instead of spawning workers forever.  Each killer is submitted as its
        own unit, so each costs one death."""
        markers = [str(tmp_path / ("marker-%d" % i)) for i in range(3)]
        killers = [
            TrialSpec(
                graph=GraphSpec("clique", (10,)),
                algorithm="_die_once_test_only",
                seed=9,
                algo_kwargs={"marker": marker},
            )
            for marker in markers
        ]
        backend = WorkerPoolBackend(
            workers=1,
            preload=(CHAOS_MODULE,),
            extra_paths=(chaos_module,),
            max_respawns_per_slot=1,
        )
        with backend:
            futures = [backend.submit(spec) for spec in killers]
            results = [future.result(timeout=60) for future in futures]
        assert [result.failed for result in results] == [True, True, True]
        assert "worker died" in results[0].error
        assert "worker died" in results[1].error
        assert "respawn budget" in results[2].error

    def test_exhausted_slot_retires_while_the_others_keep_serving(self, chaos_module, tmp_path):
        """A slot past its respawn budget stops pulling units instead of
        failing each one it pulls: the healthy slot runs the whole rest of
        the queue (every trial submitted as its own unit)."""
        killer = TrialSpec(
            graph=GraphSpec("clique", (10,)),
            algorithm="_die_once_test_only",
            seed=9,
            algo_kwargs={"marker": str(tmp_path / "marker")},
        )
        floods = [
            TrialSpec(graph=GraphSpec("clique", (40,)), algorithm="flood_max", seed=seed)
            for seed in range(12)
        ]
        backend = WorkerPoolBackend(
            workers=2,
            preload=(CHAOS_MODULE,),
            extra_paths=(chaos_module,),
            max_respawns_per_slot=0,
        )
        with backend:
            futures = [backend.submit(spec) for spec in [killer] + floods]
            results = [future.result(timeout=60) for future in futures]
            assert backend.deaths == 1
            assert len(backend.worker_pids()) == 1, "the retired slot stays empty"
        assert "worker died" in results[0].error
        assert [result.error for result in results[1:]] == [None] * 12

    def test_last_retired_slot_fails_the_rest_of_the_queue(self, chaos_module, tmp_path):
        """With no live slot left, queued and later trials fail at once with
        an error naming the budget, instead of waiting forever."""
        killer = TrialSpec(
            graph=GraphSpec("clique", (10,)),
            algorithm="_die_once_test_only",
            seed=9,
            algo_kwargs={"marker": str(tmp_path / "marker")},
        )
        floods = [
            TrialSpec(graph=GraphSpec("clique", (10,)), algorithm="flood_max", seed=seed)
            for seed in range(3)
        ]
        backend = WorkerPoolBackend(
            workers=1,
            preload=(CHAOS_MODULE,),
            extra_paths=(chaos_module,),
            max_respawns_per_slot=0,
        )
        with backend:
            futures = [backend.submit(spec) for spec in [killer] + floods]
            results = [future.result(timeout=60) for future in futures]
            runner = BatchRunner(on_error="capture", profile=ExecutionProfile(backend=backend))
            later = runner.run(floods[:1])
        assert "worker died" in results[0].error
        for result in results[1:] + later:
            assert "respawn budget" in result.error
            assert "no live worker remains" in result.error

    def test_slots_retiring_together_strand_no_trial(self, chaos_module, tmp_path):
        """More slots than cores retire at once while trials are still being
        submitted: every future resolves, none waits forever."""
        killers = [
            TrialSpec(
                graph=GraphSpec("clique", (10,)),
                algorithm="_die_once_test_only",
                seed=9,
                algo_kwargs={"marker": str(tmp_path / ("marker-%d" % i))},
            )
            for i in range(4)
        ]
        flood = TrialSpec(graph=GraphSpec("clique", (10,)), algorithm="flood_max", seed=1)
        backend = WorkerPoolBackend(
            workers=4,
            preload=(CHAOS_MODULE,),
            extra_paths=(chaos_module,),
            max_respawns_per_slot=0,
        )
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with backend:
                futures = [backend.submit(spec) for spec in killers]
                futures += [backend.submit(flood) for _ in range(200)]
                payloads = [future.result(timeout=60) for future in futures]
        finally:
            sys.setswitchinterval(interval)
        assert backend.deaths == 4
        assert all("worker died" in payload.error for payload in payloads[:4])
        assert all("no live worker remains" in payload.error for payload in payloads[4:])


class _RaiseOnFirstAnswer(TraceSink):
    """A sink that raises on the first ``worker.trial_finished`` it sees."""

    def __init__(self):
        self.raised = False

    def emit(self, record):
        if record["name"] == "worker.trial_finished" and not self.raised:
            self.raised = True
            raise RuntimeError("sink failed")


def test_an_exchange_broken_off_mid_unit_retires_the_worker():
    """When the parent side breaks off a unit (here a trace sink raising on
    the first answer), the members still open fail with that error and the
    worker is replaced, so its answers in flight can never be read as a
    later unit's."""
    specs = [_flood(10, seed) for seed in (1, 2, 3)]
    backend = WorkerPoolBackend(workers=1, heartbeat_seconds=5.0)
    sink = _RaiseOnFirstAnswer()
    with backend:
        runner = BatchRunner(on_error="capture", profile=ExecutionProfile(backend=backend))
        with use_tracer(Tracer(sink)):
            broken = runner.run(specs)
        assert sink.raised
        assert backend.worker_pids() == [], "the worker was retired"
        again = runner.run(specs)
        assert (backend.deaths, backend.hangs) == (0, 0)
    assert sum(result.failed for result in broken) == 2
    assert all("sink failed" in result.error for result in broken if result.failed)
    alone = BatchRunner().run(specs)
    assert [result.outcome for result in again] == [result.outcome for result in alone]


class TestWorkerHang:
    def _hang_backend(self, chaos_module, **kwargs):
        kwargs.setdefault("heartbeat_seconds", 0.1)
        kwargs.setdefault("hang_deadline_seconds", 2.0)
        return WorkerPoolBackend(
            workers=1, preload=(CHAOS_MODULE,), extra_paths=(chaos_module,), **kwargs
        )

    def test_sigstopped_worker_is_flagged_hung_and_replaced(self, chaos_module, tmp_path):
        """The satellite scenario: a worker freezes (SIGSTOP) mid-trial; the
        hang deadline trips, the process is killed and respawned, the trial
        is captured as a failure, and the batch completes."""
        marker = str(tmp_path / "marker")
        good = TrialSpec(graph=GraphSpec("clique", (10,)), algorithm="flood_max", seed=1)
        staller = TrialSpec(
            graph=GraphSpec("clique", (10,)),
            algorithm="_stall_once_test_only",
            seed=9,
            algo_kwargs={"marker": marker},
        )
        after = TrialSpec(graph=GraphSpec("clique", (10,)), algorithm="flood_max", seed=2)
        with self._hang_backend(chaos_module) as backend:
            runner = BatchRunner(on_error="capture", profile=ExecutionProfile(backend=backend))
            results = runner.run([good, staller, after])
            assert backend.hangs == 1
            assert backend.deaths == 0
            # The marker exists now, so the same spec succeeds on the respawn.
            retried = runner.run([staller])
            assert [result.failed for result in retried] == [False]
            assert backend.worker_pids() != [], "a fresh worker serves the slot"
        assert [result.failed for result in results] == [False, True, False]
        assert "worker hung" in results[1].error

    def test_sigstopped_worker_loses_exactly_its_unanswered_members(
        self, chaos_module, tmp_path
    ):
        """A worker frozen mid-unit: the flood it answered before the stall
        keeps its outcome, the stalled trial and the flood queued behind it
        are captured as hung, and resume re-executes only those two."""
        marker = str(tmp_path / "marker")
        cache = ResultCache(tmp_path / "cache")
        specs = _mid_unit("_stall_once_test_only", marker, workers=1)
        with self._hang_backend(chaos_module) as backend:
            runner = BatchRunner(
                cache=cache, on_error="capture", profile=ExecutionProfile(backend=backend)
            )
            results = runner.run(specs)
            assert (backend.hangs, backend.deaths) == (1, 0)
            resumed = runner.run(specs)
        assert [result.failed for result in results] == [False, True, True]
        for lost in results[1:]:
            assert "worker hung" in lost.error
            assert lost.spec.describe() in lost.error
        assert results[0].outcome == BatchRunner().run(specs[:1])[0].outcome
        assert [result.from_cache for result in resumed] == [True, False, False]
        assert [result.failed for result in resumed] == [False] * 3

    def test_progress_frames_reach_the_tracer(self, chaos_module, tmp_path):
        """Worker progress/heartbeat frames flow into the current tracer as
        ``worker.*`` events: one ``unit_started`` per unit and one
        ``trial_finished`` per answered trial; slow (but healthy) trials emit
        heartbeats without ever tripping the hang deadline."""
        sleepers = [
            TrialSpec(
                graph=GraphSpec("clique", (10,)),
                algorithm="_sleep_test_only",
                seed=seed,
                algo_kwargs={"seconds": 0.3},
            )
            for seed in (3, 4)
        ]
        aggregator = MetricsAggregator()
        with self._hang_backend(chaos_module) as backend, use_tracer(Tracer(aggregator)):
            results = BatchRunner(
                on_error="capture", profile=ExecutionProfile(backend=backend)
            ).run(sleepers)
        assert [result.failed for result in results] == [False, False]
        assert backend.hangs == 0
        counters = aggregator.snapshot()["counters"]
        assert counters.get("worker.spawned", 0) == 1
        assert counters.get("worker.unit_started", 0) == 1, "both trials make one unit"
        assert counters.get("worker.trial_finished", 0) == 2
        assert counters.get("worker.heartbeat", 0) >= 1

    def test_hang_deadline_requires_heartbeats(self):
        """A deadline without heartbeats would flag every slow trial as hung;
        the constructor rejects the combination outright."""
        with pytest.raises(ValueError, match="heartbeat"):
            WorkerPoolBackend(workers=1, hang_deadline_seconds=5.0)
        with pytest.raises(ValueError, match="exceed"):
            WorkerPoolBackend(workers=1, heartbeat_seconds=1.0, hang_deadline_seconds=0.5)
