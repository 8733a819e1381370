"""Fleet campaign tests: ``CampaignRunner`` driving a ``FleetBackend``.

The load-bearing property: a campaign run over ``m`` hosts produces a
``report.json``/``report.md`` byte-identical to the same campaign run on a
single machine, and re-running it serves every trial from the campaign's
cache without starting a single host process.
"""

import dataclasses
import io
import json
import os

import pytest

from repro.campaign import CampaignRunner, CampaignSpec, write_report
from repro.core import ElectionParameters
from repro.exec import ExecutionProfile, GraphSpec, ResultCache, SweepSpec, TrialSpec
from repro.exec import worker as serve_loop
from repro.exec.wire import WIRE_VERSION, read_frame, write_frame
from repro.fleet import FleetBackend, HostSpec, local_inventory
from repro.obs import TraceSink

#: Fast fleet supervision cadence for tests (hosts answer in well under 2 s).
FLEET_KWARGS = dict(heartbeat_seconds=0.5, hang_deadline_seconds=10.0)


class WorkerEvents(TraceSink):
    """Collects the pool's ``worker.*`` trace events, the fleet's health record."""

    def __init__(self):
        self.records = []

    def emit(self, record):
        if record["name"].startswith("worker."):
            self.records.append(record)

    def named(self, name):
        return [record["attrs"] for record in self.records if record["name"] == name]


def fleet_run(campaign, directory, hosts, profile=ExecutionProfile(), **kwargs):
    """Run ``campaign`` over ``hosts`` into ``directory`` and write its report.

    Returns ``(result, backend, events)``: the campaign result, the closed
    fleet backend (for its death and hang counters) and the ``worker.*``
    events the run traced.
    """
    events = WorkerEvents()
    cache = ResultCache(os.path.join(directory, "cache"))
    with FleetBackend(hosts, **{**FLEET_KWARGS, **kwargs}) as backend:
        fleet_profile = dataclasses.replace(profile, backend=backend)
        result = CampaignRunner(
            campaign, cache, directory=directory, sinks=(events,), profile=fleet_profile
        ).run()
    write_report(campaign, cache, directory, profile=fleet_profile)
    return result, backend, events


def _campaign(trials=2, name="fleet-test", sizes=(8, 10)):
    return CampaignSpec(
        name=name,
        sweeps=(
            SweepSpec(
                name="cliques",
                configs=tuple(
                    TrialSpec(graph=GraphSpec("clique", (n,)), algorithm="flood_max")
                    for n in sizes
                ),
                trials=trials,
                base_seed=3,
            ),
        ),
    )


class TestConstructorValidation:
    def test_needs_hosts_with_unique_names(self):
        with pytest.raises(ValueError, match="at least one host"):
            FleetBackend(())
        twins = (HostSpec(name="a"), HostSpec(name="a"))
        with pytest.raises(ValueError, match="unique"):
            FleetBackend(twins)

    def test_supervision_parameters_are_validated(self):
        hosts = local_inventory(1)
        with pytest.raises(ValueError, match="heartbeat_seconds"):
            FleetBackend(hosts, heartbeat_seconds=0)
        with pytest.raises(ValueError, match="exceed"):
            FleetBackend(hosts, heartbeat_seconds=2.0, hang_deadline_seconds=1.0)

    def test_each_host_contributes_its_workers_as_slots(self):
        backend = FleetBackend((HostSpec(name="a", workers=2), HostSpec(name="b")))
        assert backend.workers == 3
        assert [host.name for host in backend.slot_hosts] == ["a", "a", "b"]
        assert backend.max_respawns_per_slot == 0, "a dead host stays dead"
        assert backend.hang_deadline_seconds == 20.0, "four 5 s heartbeats"


class TestFleetRun:
    def test_fleet_executes_campaign_and_writes_all_artifacts(self, tmp_path):
        campaign = _campaign()
        directory = str(tmp_path / "run")
        result, backend, events = fleet_run(campaign, directory, local_inventory(2))

        counts = result.manifest.counts()
        assert counts["executed"] == campaign.num_trials
        assert counts["failed"] == 0
        assert counts["cached"] == 0
        assert os.path.exists(os.path.join(directory, "manifest.json"))
        assert os.path.exists(os.path.join(directory, "report.json"))
        assert (backend.deaths, backend.hangs) == (0, 0)
        spawned = events.named("worker.spawned")
        assert {event["host"] for event in spawned} <= {"host-0", "host-1"}
        assert len({event["pid"] for event in spawned}) == len(spawned)
        # Every trial ran on some host exactly once: nothing ran twice.
        assert len(events.named("worker.trial_finished")) == campaign.num_trials

    @pytest.mark.parametrize("m", [2, 3])
    def test_fleet_report_is_byte_identical_to_single_machine(self, tmp_path, m):
        """The acceptance property: the fleet's report == single-machine
        report, byte for byte, for m hosts."""
        campaign = _campaign(name="fleet-equiv")
        single_dir = str(tmp_path / "single")
        cache = ResultCache(os.path.join(single_dir, "cache"))
        CampaignRunner(campaign, cache, workers=1, directory=single_dir).run()
        write_report(campaign, cache, single_dir)

        fleet_dir = str(tmp_path / ("fleet-%d" % m))
        fleet_run(campaign, fleet_dir, local_inventory(m))

        for artifact in ("report.json", "report.md"):
            with open(os.path.join(single_dir, artifact), "rb") as handle:
                expected = handle.read()
            with open(os.path.join(fleet_dir, artifact), "rb") as handle:
                assert handle.read() == expected, "%s differs for m=%d" % (artifact, m)

    def test_profiled_fleet_report_matches_a_campaign_naming_the_simulator(self, tmp_path):
        """The fleet renders its report through the profile too: a run under
        a run-wide simulator reports full coverage, byte-identical to a
        single-machine campaign naming that engine on every spec."""

        def election_campaign(simulator):
            configs = tuple(
                TrialSpec(
                    graph=GraphSpec("clique", (n,)),
                    params=ElectionParameters(c1=3.0, c2=0.5),
                    simulator=simulator,
                    label="n=%d" % n,
                )
                for n in (8, 10)
            )
            sweep = SweepSpec(name="cliques", configs=configs, trials=2, base_seed=3)
            return CampaignSpec(name="fleet-profiled", sweeps=(sweep,))

        campaign = election_campaign("reference")
        named = election_campaign("vectorized")
        single_dir = str(tmp_path / "single")
        cache = ResultCache(os.path.join(single_dir, "cache"))
        CampaignRunner(named, cache, workers=1).run()
        write_report(named, cache, single_dir)

        fleet_dir = str(tmp_path / "fleet")
        fleet_run(
            campaign,
            fleet_dir,
            local_inventory(2),
            profile=ExecutionProfile(simulator="vectorized"),
        )
        with open(os.path.join(single_dir, "report.json"), "rb") as handle:
            expected = handle.read()
        with open(os.path.join(fleet_dir, "report.json"), "rb") as handle:
            produced = handle.read()
        assert json.loads(produced)["coverage"] == 1.0
        assert produced == expected

    def test_rerun_resumes_fully_from_the_merged_cache(self, tmp_path):
        campaign = _campaign()
        directory = str(tmp_path / "run")
        fleet_run(campaign, directory, local_inventory(2))
        resumed, _, events = fleet_run(campaign, directory, local_inventory(2))
        counts = resumed.manifest.counts()
        assert counts["cached"] == campaign.num_trials
        assert counts["executed"] == 0
        # Nothing was pending, so no host process was ever spawned.
        assert events.named("worker.spawned") == []

    def test_undispatchable_spec_fails_fast(self, tmp_path):
        from repro.exec.algorithms import ALGORITHMS, register_algorithm

        @register_algorithm("_fleet_local_only_test")
        def local_algorithm(graph, spec):  # pragma: no cover - never runs
            raise AssertionError

        try:
            campaign = CampaignSpec(
                name="undispatchable",
                sweeps=(
                    SweepSpec(
                        name="s",
                        configs=(
                            TrialSpec(
                                graph=GraphSpec("clique", (8,)),
                                algorithm="_fleet_local_only_test",
                            ),
                        ),
                        trials=1,
                        base_seed=1,
                    ),
                ),
            )
            with pytest.raises(ValueError, match="cannot be dispatched"):
                fleet_run(campaign, str(tmp_path / "run"), local_inventory(1))
        finally:
            del ALGORITHMS["_fleet_local_only_test"]


def _drive_host(*frames):
    """Feed frames to the one serve loop in-process; return (status, replies).

    Fleet hosts and pool workers are the same ``repro.exec.worker --serve``
    process, so every case here drives that loop.
    """
    stdin = io.BytesIO()
    for frame in frames:
        write_frame(stdin, frame)
    stdin.seek(0)
    stdout = io.BytesIO()
    status = serve_loop._serve(stdin, stdout)
    stdout.seek(0)
    replies = []
    while True:
        frame = read_frame(stdout)
        if frame is None:
            break
        replies.append(frame)
    return status, replies


class TestHostServeLoop:
    def test_ping_shutdown_and_clean_eof(self):
        status, replies = _drive_host({"op": "ping"})
        assert status == 0, "EOF is a clean shutdown"
        assert replies[0]["ok"] is True
        assert replies[0]["version"] == WIRE_VERSION
        status, replies = _drive_host({"op": "shutdown"}, {"op": "ping"})
        assert status == 0
        assert len(replies) == 1, "shutdown stops before later frames"

    def test_unknown_op_answers_an_error_frame(self):
        _, replies = _drive_host({"op": "launch_missiles"})
        assert "unknown op" in replies[0]["error"]
