"""Live terminal dashboard for a running (or finished) campaign directory.

``python -m repro.obs.watch <campaign_dir>`` tails the artefacts a campaign
drops into its directory -- the ``manifest.json`` ledger and any ``*.jsonl``
trace files (``--trace`` on the campaign examples, or
:func:`repro.obs.report.campaign_telemetry`) -- and re-renders a one-screen
summary every ``--interval`` seconds: completion percentage, trials per
second, per-sweep outcome tallies, failure hotspots and worker health (the
worker pool's and the fleet's ``worker.*`` events).
``--once`` renders a single frame and exits, which is what the CI smoke run
asserts against; it renders cleanly on a freshly created (still empty)
campaign directory -- every artefact is optional and every tally guards the
zero-trial/zero-elapsed startup window.

Everything here is read-only and stdlib-only: the result cache is only ever
*peeked at* (a read-only row count when the campaign's ``cache/`` directory
holds a SQLite store -- never opened for writing, never scanned when it is
a JSON file tree), and a half-written line in a live trace file is simply
picked up on the next poll (:class:`TraceTail` keeps per-file offsets, so
each poll parses only the newly appended bytes).
"""

from __future__ import annotations

import argparse
import json
import os
import sqlite3
import sys
import time
from collections import Counter
from typing import Dict, List, Optional, Sequence, Tuple

from .sinks import MetricsAggregator
from .tracer import TRACE_SCHEMA_VERSION

__all__ = ["TraceTail", "campaign_snapshot", "render_snapshot", "watch", "main"]

#: How wide the progress bar renders.
_BAR_WIDTH = 30


class TraceTail:
    """Incrementally folds growing JSONL trace files into live state.

    Each :meth:`poll` reads only the bytes appended since the previous poll
    (per-file offsets; a truncated/rewritten file starts over), feeds every
    complete record into a :class:`MetricsAggregator`, and keeps the pieces
    the dashboard renders directly: the latest batch progress event and the
    most recent failure labels.
    """

    def __init__(self, max_recent_failures: int = 50) -> None:
        self.aggregator = MetricsAggregator()
        self.latest_progress: Optional[Dict[str, object]] = None
        self.recent_failures: List[Tuple[str, str]] = []
        self.skipped_versions: List[object] = []
        self._max_recent = max_recent_failures
        self._offsets: Dict[str, int] = {}
        self._buffers: Dict[str, bytes] = {}
        self._skip: Dict[str, bool] = {}

    def poll(self, paths: Sequence[str]) -> int:
        """Consume newly appended records from ``paths``; returns how many."""
        consumed = 0
        for path in paths:
            try:
                size = os.path.getsize(path)
            except OSError:
                continue
            offset = self._offsets.get(path, 0)
            if size < offset:  # truncated or rewritten: start over
                offset = 0
                self._buffers[path] = b""
                self._skip.pop(path, None)
            if size == offset:
                continue
            try:
                with open(path, "rb") as handle:
                    handle.seek(offset)
                    data = handle.read()
            except OSError:
                continue
            self._offsets[path] = offset + len(data)
            buffer = self._buffers.get(path, b"") + data
            lines = buffer.split(b"\n")
            self._buffers[path] = lines.pop()  # partial trailing line
            for line in lines:
                if self._consume_line(path, line):
                    consumed += 1
        return consumed

    def _consume_line(self, path: str, line: bytes) -> bool:
        line = line.strip()
        if not line:
            return False
        try:
            record = json.loads(line.decode("utf-8"))
        except (ValueError, UnicodeDecodeError):
            return False
        if not isinstance(record, dict):
            return False
        if record.get("kind") == "header":
            version = record.get("version")
            if version != TRACE_SCHEMA_VERSION:
                # Unlike the offline reader this must not raise: a live
                # directory may mix traces from several code versions.
                self._skip[path] = True
                self.skipped_versions.append(version)
            else:
                self._skip[path] = False
            return False
        if self._skip.get(path):
            return False
        self._record(record)
        return True

    def _record(self, record: Dict[str, object]) -> None:
        self.aggregator.emit(record)
        name = record.get("name")
        attrs = record.get("attrs")
        if not isinstance(attrs, dict):
            attrs = {}
        if name == "trial.finished":
            if isinstance(attrs.get("done"), int) and isinstance(attrs.get("total"), int):
                self.latest_progress = {
                    "done": attrs["done"],
                    "total": attrs["total"],
                    "ts": record.get("ts"),
                }
            if attrs.get("failed"):
                self.recent_failures.append(
                    (str(attrs.get("label", "?")), str(attrs.get("error", "?")))
                )
                del self.recent_failures[: -self._max_recent]


def _load_json(path: str) -> Optional[Dict[str, object]]:
    """One JSON document, or ``None`` while it is absent or mid-write."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            document = json.load(handle)
    except (OSError, ValueError):
        return None
    return document if isinstance(document, dict) else None


def _trace_paths(directory: str) -> List[str]:
    try:
        names = sorted(os.listdir(directory))
    except OSError:
        return []
    return [
        os.path.join(directory, name) for name in names if name.endswith(".jsonl")
    ]


def _cache_summary(directory: str) -> Optional[Dict[str, object]]:
    """Which cache backend the campaign's ``cache/`` directory holds, if any.

    SQLite stores answer a read-only ``COUNT(*)`` (cheap: one B-tree walk);
    JSON trees are only *recognised* -- counting would stat every entry file
    of a potentially huge campaign on every refresh, so the dashboard
    reports the backend without a count.  Never raises: a mid-migration or
    locked store simply reports no entry count this frame.
    """
    cache_dir = os.path.join(directory, "cache")
    database = os.path.join(cache_dir, "cache.sqlite")
    if os.path.exists(database):
        entries: Optional[int] = None
        try:
            connection = sqlite3.connect("file:%s?mode=ro" % database, uri=True)
            try:
                entries = int(
                    connection.execute("SELECT COUNT(*) FROM entries").fetchone()[0]
                )
            finally:
                connection.close()
        except (sqlite3.Error, OSError, TypeError):
            entries = None
        return {"backend": "sqlite", "entries": entries}
    try:
        names = os.listdir(cache_dir)
    except OSError:
        return None
    if any(os.path.isdir(os.path.join(cache_dir, name)) for name in names):
        return {"backend": "json", "entries": None}
    return None


def campaign_snapshot(directory: str, tail: Optional[TraceTail] = None) -> Dict[str, object]:
    """Read one render-ready snapshot of a campaign directory.

    Combines the manifest ledger (authoritative per-trial statuses once a
    run has written it) with whatever the trace tail has seen (live batch
    progress, rates, worker health).  Every part is optional: an empty
    directory snapshots to a "waiting for artefacts" frame.
    """
    if tail is not None:
        tail.poll(_trace_paths(directory))
    manifest = _load_json(os.path.join(directory, "manifest.json"))
    snapshot: Dict[str, object] = {
        "directory": directory,
        "manifest": manifest,
        "telemetry": _load_json(os.path.join(directory, "telemetry.json")),
        "cache": _cache_summary(directory),
        "tail": tail,
    }
    return snapshot


def _int(value: object, default: int = 0) -> int:
    """Best-effort integer for tallies read from on-disk JSON documents.

    A live directory may briefly expose documents written by other tools or
    older code; a malformed count renders as 0 instead of crashing the
    dashboard mid-campaign.
    """
    try:
        return int(value)
    except (TypeError, ValueError):
        return default


def _bar(fraction: float, width: int = _BAR_WIDTH) -> str:
    filled = int(round(max(0.0, min(1.0, fraction)) * width))
    return "[%s%s]" % ("#" * filled, "." * (width - filled))


def _fmt_rate(rate: Optional[float]) -> str:
    return "%.2f trials/sec" % rate if rate is not None else "n/a"


def _sweep_table(trials: List[Dict[str, object]]) -> List[str]:
    per_sweep: Dict[str, Counter] = {}
    for trial in trials:
        if not isinstance(trial, dict):
            continue
        tally = per_sweep.setdefault(str(trial.get("sweep", "?")), Counter())
        tally[str(trial.get("status", "?"))] += 1
    if not per_sweep:
        return []
    width = max(len(name) for name in per_sweep)
    width = max(width, len("sweep"))
    header = "  %-*s %7s %7s %9s %7s %12s" % (
        width, "sweep", "total", "cached", "executed", "failed", "other_shard",
    )
    lines = [header]
    for name in sorted(per_sweep):
        tally = per_sweep[name]
        lines.append(
            "  %-*s %7d %7d %9d %7d %12d"
            % (
                width,
                name,
                sum(tally.values()),
                tally.get("cached", 0),
                tally.get("executed", 0),
                tally.get("failed", 0),
                tally.get("other_shard", 0),
            )
        )
    return lines


def _failure_hotspots(
    manifest: Optional[Dict[str, object]], tail: Optional[TraceTail], limit: int = 5
) -> List[str]:
    errors: Counter = Counter()
    if manifest:
        for trial in manifest.get("trials", []):
            if isinstance(trial, dict) and trial.get("status") == "failed":
                errors[str(trial.get("error", "?"))] += 1
    if tail is not None:
        for _label, error in tail.recent_failures:
            errors[error] += 1
    if not errors:
        return []
    lines = ["failure hotspots:"]
    for error, count in errors.most_common(limit):
        if len(error) > 90:
            error = error[:87] + "..."
        lines.append("  %3dx %s" % (count, error))
    return lines


def render_snapshot(snapshot: Dict[str, object]) -> str:
    """Render one snapshot as the plain-text dashboard frame."""
    directory = snapshot.get("directory", "?")
    manifest = snapshot.get("manifest")
    tail = snapshot.get("tail")
    lines: List[str] = []

    stamp = time.strftime("%H:%M:%S")
    if isinstance(manifest, dict):
        name = manifest.get("campaign", "?")
        # Shard.describe() already reads "shard K/M"; use it verbatim.
        shard = manifest.get("shard")
        where = " %s" % shard if shard else ""
        lines.append("campaign %r%s -- %s (refreshed %s)" % (name, where, directory, stamp))
        counts = manifest.get("counts", {}) or {}
        if not isinstance(counts, dict):
            counts = {}
        other = _int(counts.get("other_shard", 0))
        trials = manifest.get("trials", []) or []
        if not isinstance(trials, list):
            trials = []
        # Guard the zero-trial startup window: a manifest written before any
        # trial resolved (or one recording only other-shard trials) renders
        # as 0% instead of dividing by zero or by a negative count.
        assigned = max(0, len(trials) - other)
        done = _int(counts.get("cached", 0)) + _int(counts.get("executed", 0))
        resolved = done + _int(counts.get("failed", 0))
        fraction = resolved / assigned if assigned > 0 else 0.0
        lines.append(
            "progress %s %d/%d assigned (%.1f%%) -- %d cached, %d executed, "
            "%d failed, %d on other shards"
            % (
                _bar(fraction),
                resolved,
                assigned,
                100.0 * fraction,
                _int(counts.get("cached", 0)),
                _int(counts.get("executed", 0)),
                _int(counts.get("failed", 0)),
                other,
            )
        )
        sweep_lines = _sweep_table(trials)
        if sweep_lines:
            lines.append("per-sweep:")
            lines.extend(sweep_lines)
    else:
        lines.append("campaign %s (refreshed %s)" % (directory, stamp))
        lines.append("waiting for manifest.json (campaign still in its first run?)")

    cache = snapshot.get("cache")
    if isinstance(cache, dict):
        entries = cache.get("entries")
        lines.append(
            "cache: %s backend%s"
            % (
                cache.get("backend", "?"),
                ", %d entr%s" % (entries, "y" if entries == 1 else "ies")
                if isinstance(entries, int)
                else "",
            )
        )

    if isinstance(tail, TraceTail):
        aggregator = tail.aggregator
        finished = aggregator.count("trial.finished")
        if finished:
            parts = [
                "trace: %d trial(s) seen" % finished,
                _fmt_rate(aggregator.rate("trial.finished")),
            ]
            progress = tail.latest_progress
            if progress:
                parts.append("latest batch %s/%s" % (progress["done"], progress["total"]))
            lines.append(" | ".join(parts))
        health = [
            ("spawned", aggregator.count("worker.spawned")),
            ("deaths", aggregator.count("worker.death")),
            ("hangs", aggregator.count("worker.hung")),
            ("heartbeats", aggregator.count("worker.heartbeat")),
        ]
        if any(value for _key, value in health):
            lines.append(
                "workers: " + ", ".join("%d %s" % (value, key) for key, value in health)
            )
        if tail.skipped_versions:
            lines.append(
                "note: skipped trace file(s) of schema version(s) %s"
                % sorted(set(map(str, tail.skipped_versions)))
            )

    lines.extend(_failure_hotspots(manifest, tail if isinstance(tail, TraceTail) else None))
    return "\n".join(lines)


def watch(
    directory: str,
    interval: float = 2.0,
    once: bool = False,
    stream=None,
    max_frames: Optional[int] = None,
) -> int:
    """Render the dashboard until interrupted (or once); returns exit status."""
    stream = stream if stream is not None else sys.stdout
    if not os.path.isdir(directory):
        print("repro.obs.watch: no such directory: %s" % directory, file=sys.stderr)
        return 2
    tail = TraceTail()
    frames = 0
    try:
        while True:
            frame = render_snapshot(campaign_snapshot(directory, tail))
            if not once:
                stream.write("\x1b[2J\x1b[H")  # clear screen, home cursor
            stream.write(frame + "\n")
            stream.flush()
            frames += 1
            if once or (max_frames is not None and frames >= max_frames):
                return 0
            time.sleep(interval)
    except KeyboardInterrupt:
        return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Entry point of ``python -m repro.obs.watch``."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.obs.watch",
        description="live terminal dashboard over a campaign directory "
        "(manifest.json + *.jsonl trace files)",
    )
    parser.add_argument("directory", help="campaign directory to watch")
    parser.add_argument(
        "--interval",
        type=float,
        default=2.0,
        help="seconds between re-renders (default: 2)",
    )
    parser.add_argument(
        "--once",
        action="store_true",
        help="render a single frame and exit (no screen clearing)",
    )
    arguments = parser.parse_args(argv)
    if arguments.interval <= 0:
        parser.error("--interval must be positive")
    return watch(arguments.directory, interval=arguments.interval, once=arguments.once)


if __name__ == "__main__":
    sys.exit(main())
