"""Host-death chaos tests for campaigns on a ``FleetBackend``.

The fleet's contract under fire: SIGKILL any one host mid-campaign and the
run still completes -- the dead host stays dead, its one in-flight trial is
a captured failure that the campaign's retry policy re-runs on a survivor,
and not one completed trial ever executes twice (asserted from an execution
log the chaos algorithms write, and from the resume manifest).  A
SIGSTOPped host -- alive but frozen, heartbeats included -- trips the hang
deadline and is treated exactly like a death.

The chaos agents are deterministic: test-only algorithms, preloaded into the
hosts from a module this test writes to disk, that SIGKILL (or SIGSTOP) their
own host process the first time they run (leaving a marker file) and succeed
on every run after.  No timing, no races.

CI's fleet-smoke job runs this file with ``FLEET_SMOKE_DIR`` pointing at a
workspace directory; the campaign artifacts (``manifest.json``, the cache)
then land there for artifact upload instead of in tmp_path.
"""

import os
import sys
import textwrap

import pytest

from repro.campaign import CampaignRunner, CampaignSpec
from repro.exec import ExecutionProfile, GraphSpec, ResultCache, SweepSpec, TrialSpec
from repro.fleet import FleetBackend, local_inventory
from repro.obs import TraceSink

CHAOS_MODULE = "repro_fleet_chaos_algos_test_only"

CHAOS_SOURCE = textwrap.dedent(
    '''
    """Test-only fleet chaos algorithms, importable by hosts via preload."""

    import os
    import signal

    from repro.baselines.flood_max import flood_max_trial
    from repro.exec.algorithms import ALGORITHMS, register_algorithm

    if "_fleet_die_once_test_only" not in ALGORITHMS:

        @register_algorithm("_fleet_die_once_test_only")
        def _run_die_once(graph, spec):
            marker = spec.algo_kwargs["marker"]
            if not os.path.exists(marker):
                with open(marker, "w"):
                    pass
                os.kill(os.getpid(), signal.SIGKILL)
            return flood_max_trial(graph, seed=spec.seed)

    if "_fleet_stall_once_test_only" not in ALGORITHMS:

        @register_algorithm("_fleet_stall_once_test_only")
        def _run_stall_once(graph, spec):
            marker = spec.algo_kwargs["marker"]
            if not os.path.exists(marker):
                with open(marker, "w"):
                    pass
                # Freeze the whole host process (heartbeat thread included):
                # it stays alive but can never emit another frame.
                os.kill(os.getpid(), signal.SIGSTOP)
            return flood_max_trial(graph, seed=spec.seed)

    if "_fleet_counted_test_only" not in ALGORITHMS:

        @register_algorithm("_fleet_counted_test_only")
        def _run_counted(graph, spec):
            # One append per *execution*: the zero-re-run assertions count
            # these lines across kills and resumes.
            with open(spec.algo_kwargs["log"], "a") as handle:
                handle.write("%d\\n" % spec.seed)
            return flood_max_trial(graph, seed=spec.seed)
    '''
)


@pytest.fixture
def chaos_module(tmp_path_factory):
    """Write the chaos module where this process and the hosts find it."""
    directory = tmp_path_factory.mktemp("fleet-chaos")
    path = directory / ("%s.py" % CHAOS_MODULE)
    path.write_text(CHAOS_SOURCE)
    sys.path.insert(0, str(directory))
    try:
        __import__(CHAOS_MODULE)  # register in the dispatching process too
        yield str(directory)
    finally:
        sys.path.remove(str(directory))


def _smoke_dir(tmp_path, name):
    """Campaign directory: ``FLEET_SMOKE_DIR`` (CI artifact upload) or tmp."""
    base = os.environ.get("FLEET_SMOKE_DIR")
    if base:
        directory = os.path.join(base, name)
        os.makedirs(directory, exist_ok=True)
        return directory
    return str(tmp_path / name)


def _chaos_campaign(killer_algorithm, marker, log, name, trials=6):
    counted = TrialSpec(
        graph=GraphSpec("clique", (10,)),
        algorithm="_fleet_counted_test_only",
        algo_kwargs={"log": log},
    )
    killer = TrialSpec(
        graph=GraphSpec("clique", (10,)),
        algorithm=killer_algorithm,
        algo_kwargs={"marker": marker},
    )
    return CampaignSpec(
        name=name,
        sweeps=(
            SweepSpec(
                name="counted", configs=(counted,), trials=trials, base_seed=41
            ),
            SweepSpec(name="chaos", configs=(killer,), trials=1, base_seed=43),
        ),
    )


class WorkerEvents(TraceSink):
    """Collects the pool's ``worker.*`` trace events, the fleet's health record."""

    def __init__(self):
        self.records = []

    def emit(self, record):
        if record["name"].startswith("worker."):
            self.records.append(record)

    def named(self, name):
        return [record["attrs"] for record in self.records if record["name"] == name]


def _fleet_run(campaign, directory, chaos_module, hosts=3, **kwargs):
    """Run ``campaign`` on a local fleet; returns (result, backend, events)."""
    kwargs.setdefault("heartbeat_seconds", 0.1)
    kwargs.setdefault("hang_deadline_seconds", 2.0)
    events = WorkerEvents()
    cache = ResultCache(os.path.join(directory, "cache"))
    backend = FleetBackend(
        local_inventory(hosts),
        preload=(CHAOS_MODULE,),
        extra_paths=(chaos_module,),
        **kwargs,
    )
    with backend:
        result = CampaignRunner(
            campaign,
            cache,
            directory=directory,
            sinks=(events,),
            profile=ExecutionProfile(backend=backend),
        ).run()
    return result, backend, events


def _execution_log(log):
    if not os.path.exists(log):
        return []
    with open(log, "r", encoding="utf-8") as handle:
        return [line.strip() for line in handle if line.strip()]


class TestHostSigkill:
    def test_killed_host_shard_is_stolen_and_nothing_reruns(self, chaos_module, tmp_path):
        """The acceptance scenario: SIGKILL one host mid-campaign.  The lost
        trial is retried on a surviving host, the campaign completes with
        zero failures, and a resume re-executes nothing."""
        directory = _smoke_dir(tmp_path, "sigkill")
        marker = os.path.join(directory, "killed.marker")
        log = os.path.join(directory, "executions.log")
        campaign = _chaos_campaign(
            "_fleet_die_once_test_only", marker, log, "fleet-sigkill"
        )

        result, backend, events = _fleet_run(campaign, directory, chaos_module)

        assert os.path.exists(marker), "the chaos trial ran on a host"
        counts = result.manifest.counts()
        assert counts["failed"] == 0, [
            entry.error for entry in result.manifest.entries if entry.status == "failed"
        ]
        assert counts["executed"] == campaign.num_trials
        assert (backend.deaths, backend.hangs) == (1, 0)
        host_of = {event["pid"]: event["host"] for event in events.named("worker.spawned")}
        dead = [host_of[event["pid"]] for event in events.named("worker.death")]
        assert len(dead) == 1, "exactly the SIGKILLed host is marked dead"
        respawned = [event for event in events.named("worker.spawned") if event["respawn"]]
        assert respawned == [], "a dead host stays dead"

        # Every counted trial executed exactly once across the whole fleet,
        # the retry of the lost trial included.
        executions = _execution_log(log)
        assert len(executions) == len(set(executions)) == 6

        # Resume in the same directory: everything is served from the
        # campaign cache -- zero re-executions, no host process started.
        resumed, _, resumed_events = _fleet_run(campaign, directory, chaos_module)
        resumed_counts = resumed.manifest.counts()
        assert resumed_counts["cached"] == campaign.num_trials
        assert resumed_counts["executed"] == 0
        assert _execution_log(log) == executions, "resume re-ran nothing"
        assert resumed_events.named("worker.spawned") == []

    def test_single_host_fleet_fails_the_lost_shard_but_survives(
        self, chaos_module, tmp_path
    ):
        """With no survivor to retry on, the dead host's trial is recorded
        as a failure -- the campaign itself returns."""
        directory = str(tmp_path / "lonely")
        marker = os.path.join(directory, "killed.marker")
        log = os.path.join(directory, "executions.log")
        os.makedirs(directory)
        campaign = _chaos_campaign(
            "_fleet_die_once_test_only", marker, log, "fleet-lonely", trials=2
        )
        result, backend, _ = _fleet_run(campaign, directory, chaos_module, hosts=1)
        counts = result.manifest.counts()
        assert counts["failed"] >= 1
        assert "no live worker remains" in [
            entry.error for entry in result.manifest.entries if entry.status == "failed"
        ][0]
        assert backend.deaths == 1
        # What the host finished before dying is in the campaign cache.
        assert counts["executed"] == len(_execution_log(log))


class TestHostSigstop:
    def test_frozen_host_trips_the_hang_deadline_and_is_replaced(
        self, chaos_module, tmp_path
    ):
        """A SIGSTOPped host emits no frames; the hang deadline marks it
        dead, SIGKILLs it, and its trial completes on a surviving host."""
        directory = str(tmp_path / "sigstop")
        marker = os.path.join(directory, "stalled.marker")
        log = os.path.join(directory, "executions.log")
        os.makedirs(directory)
        campaign = _chaos_campaign(
            "_fleet_stall_once_test_only", marker, log, "fleet-sigstop", trials=4
        )

        result, backend, events = _fleet_run(campaign, directory, chaos_module)

        assert os.path.exists(marker), "the stall trial ran on a host"
        counts = result.manifest.counts()
        assert counts["failed"] == 0
        assert counts["executed"] == campaign.num_trials
        assert (backend.deaths, backend.hangs) == (0, 1)
        hung = events.named("worker.hung")
        assert len(hung) == 1, "the frozen host is marked dead, not hung forever"
        # The frozen host was SIGKILLed: no process with its pid remains.
        with pytest.raises(OSError):
            os.kill(hung[0]["pid"], 0)
