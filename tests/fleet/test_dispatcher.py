"""Fleet dispatcher tests: placement, resume, and single-machine equivalence.

The load-bearing property: a campaign dispatched over ``m`` hosts produces a
merged ``report.json``/``report.md`` byte-identical to the same campaign run
on a single machine, and re-running the fleet serves every trial from the
merged cache without placing anything.
"""

import io
import json
import os

import pytest

from repro.campaign import CampaignRunner, CampaignSpec, write_report
from repro.core import ElectionParameters
from repro.exec import ExecutionProfile, GraphSpec, ResultCache, SweepSpec, TrialSpec
from repro.exec.wire import WIRE_VERSION, read_frame, spec_to_dict, write_frame
from repro.exec.fingerprint import trial_fingerprint
from repro.fleet import (
    FLEET_STATUS_SCHEMA,
    FleetDispatcher,
    HostSpec,
    local_inventory,
)
from repro.exec import worker as serve_loop

#: Fast fleet supervision cadence for tests (hosts answer in well under 2 s).
FLEET_KWARGS = dict(heartbeat_seconds=0.5, hang_deadline_seconds=10.0)


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
    def test_needs_hosts_with_unique_names(self, tmp_path):
        with pytest.raises(ValueError, match="at least one host"):
            FleetDispatcher(_campaign(), (), tmp_path)
        twins = (HostSpec(name="a"), HostSpec(name="a"))
        with pytest.raises(ValueError, match="unique"):
            FleetDispatcher(_campaign(), twins, tmp_path)

    def test_profile_must_be_a_profile_of_names(self, tmp_path):
        hosts = local_inventory(1)
        with pytest.raises(TypeError, match="ExecutionProfile"):
            FleetDispatcher(_campaign(), hosts, tmp_path, profile="sqlite")
        live = ExecutionProfile(cache_backend=ResultCache(tmp_path / "c")._backend)
        with pytest.raises(TypeError, match="live instance"):
            FleetDispatcher(_campaign(), hosts, tmp_path, profile=live)

    def test_supervision_parameters_are_validated(self, tmp_path):
        hosts = local_inventory(1)
        with pytest.raises(ValueError, match="heartbeat_seconds"):
            FleetDispatcher(_campaign(), hosts, tmp_path, heartbeat_seconds=0)
        with pytest.raises(ValueError, match="exceed"):
            FleetDispatcher(
                _campaign(), hosts, tmp_path, heartbeat_seconds=2.0, hang_deadline_seconds=1.0
            )
        with pytest.raises(ValueError, match="shards"):
            FleetDispatcher(_campaign(), hosts, tmp_path, shards=0)
        with pytest.raises(ValueError, match="max_placements"):
            FleetDispatcher(_campaign(), hosts, tmp_path, max_placements_per_shard=0)

    def test_default_shards_oversubscribe_the_fleet(self, tmp_path):
        dispatcher = FleetDispatcher(_campaign(), local_inventory(3), tmp_path)
        assert dispatcher.shards == 6, "2x hosts so fast hosts can steal work"


class TestFleetRun:
    def test_fleet_executes_campaign_and_writes_all_artifacts(self, tmp_path):
        campaign = _campaign()
        directory = str(tmp_path / "run")
        result = FleetDispatcher(
            campaign, local_inventory(2), directory, **FLEET_KWARGS
        ).run()

        counts = result.manifest.counts()
        assert counts["executed"] == campaign.num_trials
        assert counts["failed"] == 0
        assert counts["cached"] == 0
        assert os.path.exists(os.path.join(directory, "manifest.json"))
        assert os.path.exists(os.path.join(directory, "report.json"))
        assert result.status["schema"] == FLEET_STATUS_SCHEMA
        assert result.status["trials"]["done"] == campaign.num_trials
        statuses = {host["name"]: host["status"] for host in result.status["hosts"]}
        assert statuses == {"host-0": "done", "host-1": "done"}
        assert "0 died" in result.describe()
        # The per-host trial tallies cover the whole campaign: work stealing
        # split the shards, nothing ran twice.
        assert sum(h["trials_done"] for h in result.status["hosts"]) == campaign.num_trials

    @pytest.mark.parametrize("m", [2, 3])
    def test_fleet_report_is_byte_identical_to_single_machine(self, tmp_path, m):
        """The acceptance property: merged fleet report == single-machine
        report, byte for byte, for m hosts."""
        campaign = _campaign(name="fleet-equiv")
        single_dir = str(tmp_path / "single")
        cache = ResultCache(os.path.join(single_dir, "cache"))
        CampaignRunner(campaign, cache, workers=1, directory=single_dir).run()
        write_report(campaign, cache, single_dir)

        fleet_dir = str(tmp_path / ("fleet-%d" % m))
        FleetDispatcher(
            campaign, local_inventory(m), fleet_dir, **FLEET_KWARGS
        ).run()

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
        FleetDispatcher(
            campaign,
            local_inventory(2),
            fleet_dir,
            profile=ExecutionProfile(simulator="vectorized"),
            **FLEET_KWARGS,
        ).run()
        with open(os.path.join(single_dir, "report.json"), "rb") as handle:
            expected = handle.read()
        with open(os.path.join(fleet_dir, "report.json"), "rb") as handle:
            produced = handle.read()
        assert json.loads(produced)["coverage"] == 1.0
        assert produced == expected

    def test_rerun_resumes_fully_from_the_merged_cache(self, tmp_path):
        campaign = _campaign()
        directory = str(tmp_path / "run")
        FleetDispatcher(campaign, local_inventory(2), directory, **FLEET_KWARGS).run()
        resumed = FleetDispatcher(
            campaign, local_inventory(2), directory, **FLEET_KWARGS
        ).run()
        counts = resumed.manifest.counts()
        assert counts["cached"] == campaign.num_trials
        assert counts["executed"] == 0
        # Nothing was pending, so no host process was ever spawned.
        assert all(host["pid"] is None for host in resumed.status["hosts"])

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
            dispatcher = FleetDispatcher(
                campaign, local_inventory(1), tmp_path / "run", **FLEET_KWARGS
            )
            with pytest.raises(ValueError, match="cannot be dispatched"):
                dispatcher.run()
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

    def test_version_mismatch_is_a_request_level_error(self):
        _, replies = _drive_host(
            {"op": "run_shard", "version": WIRE_VERSION + 1, "shard": "0/1", "trials": []}
        )
        assert "wire version" in replies[0]["error"]
        assert replies[0]["results"] == []

    def test_missing_cache_root_is_a_request_level_error(self):
        _, replies = _drive_host(
            {"op": "run_shard", "version": WIRE_VERSION, "shard": "0/1", "trials": []}
        )
        assert "cache_root" in replies[0]["error"]

    def test_run_shard_executes_and_reports_per_trial_statuses(self, tmp_path):
        spec = TrialSpec(graph=GraphSpec("clique", (8,)), algorithm="flood_max", seed=5)
        fingerprint = trial_fingerprint(spec)
        request = {
            "op": "run_shard",
            "version": WIRE_VERSION,
            "shard": "0/1",
            "cache_root": str(tmp_path / "cache"),
            "workers": 1,
            "heartbeat_seconds": 0,
            "trials": [
                {
                    "fingerprint": fingerprint,
                    "sweep": "s",
                    "index": 0,
                    "spec": spec_to_dict(spec),
                },
                {"fingerprint": "bogus", "sweep": "s", "index": 1, "spec": {"junk": 1}},
            ],
        }
        _, replies = _drive_host(request)
        progress = [frame for frame in replies if frame.get("op") == "progress"]
        assert progress[0]["event"] == "trial_started"
        assert progress[-1]["event"] == "trial_finished"
        result = [frame for frame in replies if frame.get("op") == "shard_result"][0]
        by_fingerprint = {entry["fingerprint"]: entry for entry in result["results"]}
        assert by_fingerprint[fingerprint]["status"] == "executed"
        assert by_fingerprint["bogus"]["status"] == "failed"
        assert "undecodable" in by_fingerprint["bogus"]["error"]
        # The executed trial landed in the host's cache...
        assert ResultCache(tmp_path / "cache").get(fingerprint) is not None
        # ...so the same request again is served as "cached".
        _, replies = _drive_host(request)
        result = [frame for frame in replies if frame.get("op") == "shard_result"][0]
        by_fingerprint = {entry["fingerprint"]: entry for entry in result["results"]}
        assert by_fingerprint[fingerprint]["status"] == "cached"


class TestFleetStatusFile:
    def test_fleet_json_is_valid_and_schema_tagged(self, tmp_path):
        directory = str(tmp_path / "run")
        FleetDispatcher(
            _campaign(), local_inventory(2), directory, **FLEET_KWARGS
        ).run()
        with open(os.path.join(directory, "fleet.json"), "r", encoding="utf-8") as handle:
            document = json.load(handle)
        assert document["schema"] == FLEET_STATUS_SCHEMA
        assert document["version"] == 1
        assert document["campaign"] == "fleet-test"
        for host in document["hosts"]:
            assert set(host) == {
                "name",
                "status",
                "pid",
                "shard",
                "shards_done",
                "trials_done",
                "heartbeats",
                "last_frame_age_s",
            }
