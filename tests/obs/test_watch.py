"""Tests for the campaign watch dashboard: tailing, rendering, exit codes."""

import io
import json

import pytest

from repro.obs.tracer import TRACE_SCHEMA_VERSION
from repro.obs.watch import TraceTail, campaign_snapshot, main, render_snapshot, watch


def _header(version=TRACE_SCHEMA_VERSION):
    return json.dumps({"kind": "header", "schema": "repro.obs/trace", "version": version})


def _event(name, ts=0.0, **attrs):
    return json.dumps({"kind": "event", "name": name, "ts": ts, "attrs": attrs})


def _manifest(tmp_path, **overrides):
    trials = [
        {"sweep": "clique", "status": "executed", "error": ""},
        {"sweep": "clique", "status": "cached", "error": ""},
        {"sweep": "ring", "status": "failed", "error": "ValueError: cycle too small"},
        {"sweep": "ring", "status": "other_shard", "error": ""},
    ]
    document = {
        "campaign": "demo",
        "shard": "shard 0/2",
        "counts": {"cached": 1, "executed": 1, "failed": 1, "other_shard": 1},
        "trials": trials,
    }
    document.update(overrides)
    (tmp_path / "manifest.json").write_text(json.dumps(document))
    return document


class TestTraceTail:
    def test_poll_is_incremental(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        tail = TraceTail()
        path.write_text(_header() + "\n" + _event("trial.finished") + "\n")
        assert tail.poll([str(path)]) == 1
        assert tail.poll([str(path)]) == 0, "no new bytes, no new records"
        with open(path, "a") as handle:
            handle.write(_event("trial.finished") + "\n")
        assert tail.poll([str(path)]) == 1
        assert tail.aggregator.count("trial.finished") == 2

    def test_partial_trailing_line_waits_for_completion(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        tail = TraceTail()
        full = _event("trial.finished")
        path.write_text(_header() + "\n" + full[:10])
        assert tail.poll([str(path)]) == 0
        with open(path, "a") as handle:
            handle.write(full[10:] + "\n")
        assert tail.poll([str(path)]) == 1

    def test_truncated_file_starts_over(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        tail = TraceTail()
        path.write_text(_header() + "\n" + _event("a") + "\n" + _event("b") + "\n")
        assert tail.poll([str(path)]) == 2
        path.write_text(_header() + "\n" + _event("c") + "\n")
        assert tail.poll([str(path)]) == 1
        assert tail.aggregator.count("c") == 1

    def test_mismatched_schema_version_skips_file_without_raising(self, tmp_path):
        old = tmp_path / "old.jsonl"
        new = tmp_path / "new.jsonl"
        old.write_text(_header(version=999) + "\n" + _event("ignored") + "\n")
        new.write_text(_header() + "\n" + _event("seen") + "\n")
        tail = TraceTail()
        assert tail.poll([str(old), str(new)]) == 1
        assert tail.aggregator.count("ignored") == 0
        assert tail.aggregator.count("seen") == 1
        assert tail.skipped_versions == [999]

    def test_missing_files_and_garbage_lines_are_tolerated(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        path.write_text(_header() + "\n{broken\n[1]\n" + _event("ok") + "\n")
        tail = TraceTail()
        assert tail.poll([str(path), str(tmp_path / "absent.jsonl")]) == 1

    def test_tracks_latest_progress_and_failures(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        lines = [
            _header(),
            _event("trial.finished", done=1, total=3, failed=False),
            _event(
                "trial.finished",
                done=2,
                total=3,
                failed=True,
                label="ring n=1",
                error="ValueError: cycle too small",
            ),
        ]
        path.write_text("\n".join(lines) + "\n")
        tail = TraceTail()
        tail.poll([str(path)])
        assert tail.latest_progress["done"] == 2
        assert tail.latest_progress["total"] == 3
        assert tail.recent_failures == [("ring n=1", "ValueError: cycle too small")]


class TestRenderSnapshot:
    def test_manifest_frame_shows_progress_and_sweeps(self, tmp_path):
        _manifest(tmp_path)
        frame = render_snapshot(campaign_snapshot(str(tmp_path), TraceTail()))
        assert "campaign 'demo' shard 0/2" in frame
        assert "3/3 assigned (100.0%)" in frame
        assert "1 cached, 1 executed, 1 failed, 1 on other shards" in frame
        assert "per-sweep:" in frame
        assert "clique" in frame and "ring" in frame
        assert "failure hotspots:" in frame
        assert "ValueError: cycle too small" in frame

    def test_empty_directory_renders_waiting_frame(self, tmp_path):
        frame = render_snapshot(campaign_snapshot(str(tmp_path), TraceTail()))
        assert "waiting for manifest.json" in frame

    def test_zero_trial_startup_manifest_renders_without_dividing(self, tmp_path):
        """A manifest written before any trial resolved (the startup window)
        renders as 0% instead of raising on the empty denominator."""
        _manifest(
            tmp_path,
            counts={"cached": 0, "executed": 0, "failed": 0, "other_shard": 0},
            trials=[],
        )
        frame = render_snapshot(campaign_snapshot(str(tmp_path), TraceTail()))
        assert "0/0 assigned (0.0%)" in frame

    def test_all_other_shard_manifest_renders_as_zero_assigned(self, tmp_path):
        """Every trial on another shard: assigned is clamped to zero, not
        rendered as a negative count."""
        _manifest(
            tmp_path,
            counts={"cached": 0, "executed": 0, "failed": 0, "other_shard": 2},
            trials=[
                {"sweep": "s", "status": "other_shard", "error": ""},
                {"sweep": "s", "status": "other_shard", "error": ""},
            ],
        )
        frame = render_snapshot(campaign_snapshot(str(tmp_path), TraceTail()))
        assert "0/0 assigned (0.0%)" in frame
        assert "2 on other shards" in frame

    def test_malformed_counts_and_trials_are_tolerated(self, tmp_path):
        _manifest(tmp_path, counts="not-a-dict", trials="not-a-list")
        frame = render_snapshot(campaign_snapshot(str(tmp_path), TraceTail()))
        assert "0/0 assigned (0.0%)" in frame

    def test_trace_tail_contributes_rate_and_worker_health(self, tmp_path):
        lines = [
            _header(),
            _event("worker.spawned", ts=10.0),
            _event("worker.heartbeat", ts=10.5),
            _event("trial.finished", ts=11.0, done=1, total=2),
            _event("trial.finished", ts=12.0, done=2, total=2),
        ]
        (tmp_path / "trace.jsonl").write_text("\n".join(lines) + "\n")
        frame = render_snapshot(campaign_snapshot(str(tmp_path), TraceTail()))
        assert "trace: 2 trial(s) seen" in frame
        assert "1.00 trials/sec" in frame
        assert "latest batch 2/2" in frame
        assert "workers: 1 spawned, 0 deaths, 0 hangs, 1 heartbeats" in frame


class TestWatchEntryPoint:
    def test_once_renders_single_frame_and_exits_zero(self, tmp_path):
        _manifest(tmp_path)
        stream = io.StringIO()
        assert watch(str(tmp_path), once=True, stream=stream) == 0
        frame = stream.getvalue()
        assert "campaign 'demo'" in frame
        assert "\x1b[2J" not in frame, "--once never clears the screen"

    def test_missing_directory_exits_two(self, tmp_path, capsys):
        assert watch(str(tmp_path / "nope"), once=True) == 2
        assert "no such directory" in capsys.readouterr().err

    def test_max_frames_bounds_live_mode(self, tmp_path):
        stream = io.StringIO()
        assert watch(str(tmp_path), interval=0.01, stream=stream, max_frames=2) == 0
        assert stream.getvalue().count("waiting for manifest.json") == 2

    def test_main_once(self, tmp_path, capsys):
        _manifest(tmp_path)
        assert main([str(tmp_path), "--once"]) == 0
        assert "campaign 'demo'" in capsys.readouterr().out

    def test_main_rejects_non_positive_interval(self, tmp_path):
        with pytest.raises(SystemExit):
            main([str(tmp_path), "--interval", "0"])
