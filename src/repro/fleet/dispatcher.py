"""The fleet dispatcher: one campaign, many hosts, zero re-executed trials.

:class:`FleetDispatcher` maps a campaign's deterministic ``Shard(k, m)``
partitions onto a declarative host inventory and supervises the result:

* **placement** -- the campaign expands through the same
  :func:`~repro.campaign.spec.expand_trials` as
  :class:`~repro.campaign.runner.CampaignRunner` (profile simulator applied
  before fingerprinting), trials already in the campaign cache are served
  without dispatch, and the rest are partitioned into ``shards`` tasks by
  :func:`~repro.exec.shard.shard_index_for` -- more tasks than hosts
  (default ``2 * len(hosts)``), so fast hosts pull more work;
* **work stealing** -- tasks live in one shared queue; every host's
  supervisor thread pulls the next task the moment its host is idle, so a
  straggler host simply ends up owning fewer shards;
* **supervision** -- each host is a serve-mode :mod:`repro.exec.worker`
  subprocess behind a
  :class:`~repro.exec.backends.workerpool.WorkerChannel` (the worker
  pool's own channel), streaming ``{"op": "progress"}`` frames; a host
  silent past the hang deadline, or one whose stream dies, is SIGKILLed and marked dead, its cache is salvaged by
  :meth:`~repro.exec.cache.ResultCache.merge_from`, and only the trials the
  salvage did *not* recover are re-placed on surviving hosts;
* **collection** -- after every shard (and every salvage) the host's cache
  merges into the campaign cache and ``report.md``/``report.json`` are
  rewritten, so the merged report is byte-identical to a single-machine run
  of the same campaign; ``fleet.json`` snapshots per-host health for
  :mod:`repro.obs.watch`'s fleet panel.

Execution choices arrive through one
:class:`~repro.exec.config.ExecutionProfile`; names (not live instances)
cross to the hosts, and the campaign cache's detected backend is what every
host cache uses, so merges stay homogeneous.
"""

from __future__ import annotations

import json
import logging
import os
import queue
import threading
import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple, Union

from ..campaign.manifest import CampaignManifest, TrialEntry
from ..campaign.report import write_report
from ..campaign.runner import MANIFEST_NAME
from ..campaign.spec import CampaignSpec, expand_trials
from ..exec.backends.workerpool import WorkerChannel, WorkerHungError, worker_environment
from ..exec.cache import ResultCache, atomic_write_bytes
from ..exec.config import ExecutionProfile
from ..exec.shard import shard_index_for
from ..exec.wire import WIRE_VERSION, spec_to_dict, spec_wire_error
from ..obs.report import campaign_telemetry
from ..obs.tracer import TraceSink, current_tracer
from .inventory import HostSpec

__all__ = [
    "FleetDispatcher",
    "FleetResult",
    "FLEET_STATUS_NAME",
    "FLEET_STATUS_SCHEMA",
]

logger = logging.getLogger(__name__)

#: File name of the per-host health snapshot inside a campaign directory.
FLEET_STATUS_NAME = "fleet.json"

#: Schema tag of the ``fleet.json`` document (the watch panel checks it).
FLEET_STATUS_SCHEMA = "repro.fleet/status"

#: Sentinel a supervisor thread interprets as "queue drained, shut down".
_SHUTDOWN = object()


@dataclass
class FleetResult:
    """What one fleet run did: the manifest plus per-host accounting."""

    spec: CampaignSpec
    hosts: Tuple[HostSpec, ...]
    manifest: CampaignManifest
    status: Dict[str, object]
    report_paths: Tuple[str, str]

    def describe(self) -> str:
        """One-line human summary of the fleet run."""
        counts = self.manifest.counts()
        dead = sum(1 for host in self.status.get("hosts", []) if host["status"] == "dead")
        return (
            "fleet %r over %d host(s) (%d died): %d trial(s) -- %d cached, "
            "%d executed, %d failed"
            % (
                self.spec.name,
                len(self.hosts),
                dead,
                self.spec.num_trials,
                counts["cached"],
                counts["executed"],
                counts["failed"],
            )
        )


class _ShardTask:
    """One placement unit: a shard's still-pending trial positions."""

    __slots__ = ("shard_index", "positions", "attempt", "placements")

    def __init__(
        self, shard_index: int, positions: List[int], attempt: int = 1, placements: int = 1
    ) -> None:
        self.shard_index = shard_index
        self.positions = positions
        #: Execution attempt (bounded by the campaign's retry policy).
        self.attempt = attempt
        #: Dispatch count including host-death re-placements (bounded by
        #: ``max_placements_per_shard``).
        self.placements = placements


class _HostState:
    """Mutable supervision state of one host (guarded by the fleet lock)."""

    def __init__(self, spec: HostSpec) -> None:
        self.spec = spec
        self.channel: Optional[WorkerChannel] = None
        self.pid: Optional[int] = None
        self.status = "idle"  # idle | running | dead | done
        self.shard: Optional[str] = None
        self.shards_done = 0
        self.trials_done = 0
        self.heartbeats = 0
        self.last_frame_at: Optional[float] = None

    @property
    def name(self) -> str:
        return self.spec.name


class FleetDispatcher:
    """Distribute one campaign over a host inventory (see module docstring).

    ``shards`` is the number of placement units (default ``2 * len(hosts)``,
    at least one); ``heartbeat_seconds`` is the host progress cadence and
    ``hang_deadline_seconds`` (default four heartbeats) how long a silent
    host lives; ``max_placements_per_shard`` bounds how many times a shard
    may be re-placed after host deaths before its trials are recorded as
    failed (default ``len(hosts) + 1``).
    """

    def __init__(
        self,
        spec: CampaignSpec,
        hosts: Sequence[HostSpec],
        directory: Union[str, os.PathLike],
        profile: Optional[ExecutionProfile] = None,
        shards: Optional[int] = None,
        heartbeat_seconds: float = 5.0,
        hang_deadline_seconds: Optional[float] = None,
        max_placements_per_shard: Optional[int] = None,
        sinks: Sequence[TraceSink] = (),
        preload: Sequence[str] = (),
        extra_paths: Sequence[str] = (),
    ) -> None:
        if not hosts:
            raise ValueError("a fleet needs at least one host")
        names = [host.name for host in hosts]
        if len(set(names)) != len(names):
            raise ValueError("host names must be unique; got %s" % names)
        if profile is not None and not isinstance(profile, ExecutionProfile):
            raise TypeError(
                "profile must be an ExecutionProfile; got %r" % type(profile).__name__
            )
        if heartbeat_seconds <= 0:
            raise ValueError("heartbeat_seconds must be positive")
        if hang_deadline_seconds is not None and hang_deadline_seconds <= heartbeat_seconds:
            raise ValueError("hang_deadline_seconds must exceed heartbeat_seconds")
        self.spec = spec
        self.hosts = tuple(hosts)
        self.directory = os.path.abspath(os.fspath(directory))
        self.profile = profile if profile is not None else ExecutionProfile()
        # Host processes receive *names*; a profile holding live backend or
        # cache instances cannot cross and is rejected up front.
        self.profile.to_document()
        self.shards = shards if shards is not None else max(1, 2 * len(self.hosts))
        if self.shards < 1:
            raise ValueError("shards must be at least 1, got %d" % self.shards)
        self.heartbeat_seconds = heartbeat_seconds
        self.hang_deadline_seconds = (
            hang_deadline_seconds
            if hang_deadline_seconds is not None
            else 4.0 * heartbeat_seconds
        )
        self.max_placements_per_shard = (
            max_placements_per_shard
            if max_placements_per_shard is not None
            else len(self.hosts) + 1
        )
        if self.max_placements_per_shard < 1:
            raise ValueError("max_placements_per_shard must be at least 1")
        self.sinks = tuple(sinks)
        self.preload = tuple(preload)
        self.extra_paths = tuple(os.fspath(path) for path in extra_paths)

        self._lock = threading.Lock()
        self._collect_lock = threading.Lock()
        self._states = {host.name: _HostState(host) for host in self.hosts}
        self._tasks: "queue.Queue" = queue.Queue()
        self._tracer = current_tracer()
        # Per-run state, (re)initialised by _run().
        self._trials: List[Tuple[str, int, object, str]] = []
        self._fp_positions: Dict[str, List[int]] = {}
        self._results: Dict[int, Dict[str, object]] = {}
        self._done: set = set()
        self._precached: set = set()
        self._outstanding = 0
        self._live_hosts = len(self.hosts)
        self._campaign_cache: Optional[ResultCache] = None
        self._cache_backend_name: Optional[str] = None

    # ------------------------------------------------------------------ paths
    @property
    def manifest_path(self) -> str:
        """Where the fleet run's manifest lands."""
        return os.path.join(self.directory, MANIFEST_NAME)

    @property
    def status_path(self) -> str:
        """Where the per-host health snapshot lands."""
        return os.path.join(self.directory, FLEET_STATUS_NAME)

    def host_cache_root(self, name: str) -> str:
        """The cache root host ``name`` writes into (chaos hooks read it)."""
        return os.path.join(self.directory, "hosts", name, "cache")

    def host_pids(self) -> Dict[str, int]:
        """PIDs of the currently-live host processes (chaos hooks)."""
        with self._lock:
            return {
                state.name: state.pid
                for state in self._states.values()
                if state.pid is not None and state.status in ("idle", "running")
            }

    # ------------------------------------------------------------------- run
    def run(self) -> FleetResult:
        """Dispatch (or resume) the campaign across the fleet."""
        if self.profile.effective_trace():
            with campaign_telemetry(self.directory):
                return self._run()
        return self._run()

    def _run(self) -> FleetResult:
        tracer = current_tracer().with_sinks(self.sinks)
        self._tracer = tracer

        trials = list(expand_trials(self.spec, self.profile))
        self._trials = trials
        fingerprints = [fp for _, _, _, fp in trials]
        campaign_fingerprint = self.spec.fingerprint(fingerprints)

        self._fp_positions = {}
        for position, fp in enumerate(fingerprints):
            self._fp_positions.setdefault(fp, []).append(position)

        os.makedirs(self.directory, exist_ok=True)
        self._campaign_cache = self.profile.open_cache(
            os.path.join(self.directory, "cache")
        )
        self._cache_backend_name = self._campaign_cache.backend_name
        try:
            return self._dispatch(campaign_fingerprint, tracer)
        finally:
            self._campaign_cache.close()
            self._campaign_cache = None

    def _dispatch(self, campaign_fingerprint: str, tracer) -> FleetResult:
        trials = self._trials
        fingerprints = [fp for _, _, _, fp in trials]

        # Resume pre-scan: anything already in the campaign cache is served
        # without dispatch (the fleet analogue of CampaignRunner's resume).
        summaries = self._campaign_cache.get_summaries(fingerprints)
        self._precached = {i for i, summary in enumerate(summaries) if summary is not None}
        self._done = set(self._precached)
        self._results = {}
        pending = [i for i in range(len(trials)) if i not in self._precached]

        # Fail fast on specs that cannot cross the wire: a fleet has no
        # in-process fallback (trials run on hosts or not at all).
        for position in pending:
            reason = spec_wire_error(trials[position][2], extra_modules=self.preload)
            if reason is not None:
                raise ValueError(
                    "trial %r cannot be dispatched to a fleet host: %s"
                    % (trials[position][2].describe(), reason)
                )

        groups: Dict[int, List[int]] = {}
        for position in pending:
            shard = shard_index_for(fingerprints[position], self.shards)
            groups.setdefault(shard, []).append(position)

        self._tasks = queue.Queue()
        self._outstanding = len(groups)
        self._live_hosts = len(self.hosts)
        for state in self._states.values():
            state.status = "idle"
        for shard in sorted(groups):
            self._tasks.put(_ShardTask(shard, groups[shard]))

        with tracer.span(
            "fleet.run",
            campaign=self.spec.name,
            hosts=len(self.hosts),
            shards=self.shards,
            trials=len(trials),
            cached=len(self._precached),
            pending=len(pending),
        ):
            self._write_status()
            if self._outstanding == 0:
                # Fully resumed: nothing to place, no host to spawn.
                pass
            else:
                threads = [
                    threading.Thread(
                        target=self._supervise,
                        args=(state,),
                        name="repro-fleet-%s" % state.name,
                        daemon=True,
                    )
                    for state in self._states.values()
                ]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join()
            for state in self._states.values():
                if state.status != "dead":
                    state.status = "done"
            report_paths = self._write_outputs()

        manifest = self._build_manifest(campaign_fingerprint)
        manifest.save(self.manifest_path)
        tracer.event(
            "fleet.finished",
            campaign=self.spec.name,
            metrics=dict(manifest.counts()),
        )
        self._write_status()
        with open(self.status_path, "r", encoding="utf-8") as handle:
            status = json.load(handle)
        return FleetResult(
            spec=self.spec,
            hosts=self.hosts,
            manifest=manifest,
            status=status,
            report_paths=report_paths,
        )

    # ------------------------------------------------------------ supervision
    def _supervise(self, state: _HostState) -> None:
        """One host's loop: pull shard tasks until the queue drains or the
        host dies.  Pulling from the shared queue *is* the work stealing."""
        while True:
            task = self._tasks.get()
            if task is _SHUTDOWN:
                break
            if not self._process_task(state, task):
                return  # host died; its tasks were salvaged/re-placed
        self._retire(state)

    def _process_task(self, state: _HostState, task: _ShardTask) -> bool:
        """Dispatch one shard task; returns ``False`` when the host died."""
        with self._lock:
            positions = [p for p in task.positions if p not in self._done]
        if not positions:
            self._resolve_task()
            return True
        if task.placements > self.max_placements_per_shard:
            self._fail_positions(
                positions,
                "shard %d exceeded its placement budget (%d placements)"
                % (task.shard_index, self.max_placements_per_shard),
                task.attempt,
            )
            self._resolve_task()
            return True

        label = "%d/%d" % (task.shard_index, self.shards)
        try:
            self._ensure_host(state)
            with self._lock:
                state.status = "running"
                state.shard = label
            self._tracer.event(
                "fleet.shard_dispatched",
                host=state.name,
                shard=label,
                trials=len(positions),
                attempt=task.attempt,
                placement=task.placements,
            )
            response = self._exchange(state, self._shard_request(label, positions))
        except (OSError, EOFError, ValueError, WorkerHungError) as exc:
            self._host_died(state, task, exc)
            return False

        with self._lock:
            state.status = "idle"
            state.shard = None
            state.shards_done += 1
        requeued = self._record_shard_result(state, task, label, response)
        self._collect(state)
        if not requeued:
            # A requeued retry inherits this task's outstanding slot.
            self._resolve_task()
        return True

    def _shard_request(self, label: str, positions: List[int]) -> Dict[str, object]:
        backend = self.profile.effective_backend()
        seen = set()
        documents = []
        for position in positions:
            sweep, index, spec, fp = self._trials[position]
            if fp in seen:  # duplicate specs share one execution
                continue
            seen.add(fp)
            documents.append(
                {
                    "fingerprint": fp,
                    "sweep": sweep,
                    "index": index,
                    "spec": spec_to_dict(spec),
                }
            )
        return {
            "op": "run_shard",
            "version": WIRE_VERSION,
            "campaign": self.spec.name,
            "shard": label,
            "trials": documents,
            "cache_root": None,  # per-host; filled in by _exchange's caller
            "cache_backend": self._cache_backend_name,
            "backend": backend if isinstance(backend, str) else None,
            "workers": None,  # per-host; filled in below
            "heartbeat_seconds": self.heartbeat_seconds,
            "preload": list(self.preload),
        }

    def _exchange(self, state: _HostState, request: Dict[str, object]) -> Dict[str, object]:
        """One shard round trip (raises on a dead or silent host)."""
        request = dict(request)
        request["cache_root"] = self.host_cache_root(state.name)
        request["workers"] = state.spec.workers
        return state.channel.request(
            request,
            deadline=self.hang_deadline_seconds,
            on_progress=lambda frame: self._note_progress(state, frame),
        )

    def _ensure_host(self, state: _HostState) -> None:
        if state.channel is not None and state.channel.process.poll() is None:
            return
        state.channel = WorkerChannel(
            state.spec.command_argv(),
            state.spec.environment(worker_environment(self.extra_paths)),
        )
        with self._lock:
            state.pid = state.channel.pid
            state.last_frame_at = time.monotonic()
        # Startup handshake: interpreter boot plus imports (plus SSH or pod
        # attach for remote templates) can far exceed the steady-state hang
        # deadline, so the first exchange is a ping with its own generous
        # deadline -- after the pong, silence is judged by heartbeats.
        pong = state.channel.request(
            {"op": "ping"}, deadline=max(30.0, self.hang_deadline_seconds)
        )
        if not pong.get("ok"):
            raise ValueError("host %r answered the startup ping with %r" % (state.name, pong))
        with self._lock:
            state.last_frame_at = time.monotonic()
        self._tracer.event("fleet.host_spawned", host=state.name, pid=state.pid)
        self._write_status()

    def _note_progress(self, state: _HostState, frame: Dict[str, object]) -> None:
        event = frame.get("event")
        with self._lock:
            state.last_frame_at = time.monotonic()
            if event == "heartbeat":
                state.heartbeats += 1
            elif event == "trial_finished" and frame.get("label") != state.shard:
                # Per-trial completions (the shard-level bracket frame
                # carries the shard label instead and is not a trial).
                state.trials_done += 1
        if event in ("trial_started", "heartbeat", "trial_finished"):
            self._tracer.event(
                "fleet.%s" % event,
                host=state.name,
                pid=frame.get("pid"),
                label=frame.get("label"),
            )
        if event == "trial_finished":
            self._write_status()

    # ------------------------------------------------------------- accounting
    def _record_shard_result(
        self,
        state: _HostState,
        task: _ShardTask,
        label: str,
        response: Dict[str, object],
    ) -> bool:
        """Record one shard result; returns whether a retry was requeued."""
        if response.get("op") != "shard_result":
            raise ValueError(
                "host %r answered op %r to a run_shard request"
                % (state.name, response.get("op"))
            )
        request_error = response.get("error")
        failed_positions: List[int] = []
        failure_error: Optional[str] = None
        with self._lock:
            for entry in response.get("results", []):
                positions = self._fp_positions.get(entry.get("fingerprint"), [])
                status = entry.get("status")
                for position in positions:
                    if position in self._done:
                        continue
                    if status in ("executed", "cached"):
                        # "cached" here means served from the *host's* own
                        # cache (a previous placement's work); from the
                        # fleet's view the trial executed during this run.
                        self._done.add(position)
                        self._results[position] = {
                            "status": "executed",
                            "error": None,
                            "elapsed_seconds": float(entry.get("elapsed_seconds") or 0.0),
                            "attempts": task.attempt,
                        }
                    else:
                        failed_positions.append(position)
                        failure_error = entry.get("error") or failure_error
        if request_error:
            # The host rejected the request wholesale (version mismatch,
            # missing cache root): every position stays pending.
            failed_positions = [p for p in task.positions if p not in self._done]
            failure_error = str(request_error)
        if failed_positions and task.attempt < self.spec.retry.max_attempts:
            logger.warning(
                "fleet %r: %d trial(s) of shard %s failed on attempt %d/%d; retrying",
                self.spec.name,
                len(failed_positions),
                label,
                task.attempt,
                self.spec.retry.max_attempts,
            )
            self._tracer.event(
                "fleet.shard_retry",
                shard=label,
                failures=len(failed_positions),
                attempt=task.attempt,
            )
            self._requeue(
                _ShardTask(
                    task.shard_index,
                    failed_positions,
                    attempt=task.attempt + 1,
                    placements=task.placements + 1,
                )
            )
            return True
        if failed_positions:
            self._fail_positions(failed_positions, failure_error, task.attempt)
        return False

    def _fail_positions(
        self, positions: List[int], error: Optional[str], attempts: int
    ) -> None:
        with self._lock:
            for position in positions:
                if position in self._done:
                    continue
                self._done.add(position)
                self._results[position] = {
                    "status": "failed",
                    "error": error or "trial failed on every fleet attempt",
                    "elapsed_seconds": 0.0,
                    "attempts": attempts,
                }

    def _resolve_task(self) -> None:
        """One task reached a terminal state; last one out posts shutdowns."""
        with self._lock:
            self._outstanding -= 1
            finished = self._outstanding == 0
        if finished:
            for _ in self.hosts:
                self._tasks.put(_SHUTDOWN)

    def _requeue(self, task: _ShardTask) -> None:
        """Hand a follow-up task to the pool (outstanding count unchanged)."""
        self._tasks.put(task)

    # ------------------------------------------------------------ host death
    def _host_died(self, state: _HostState, task: _ShardTask, exc: Exception) -> None:
        """SIGKILL a dead/silent host, salvage its cache, re-place the rest."""
        hung = isinstance(exc, WorkerHungError)
        channel, pid = state.channel, state.pid
        with self._lock:
            state.status = "dead"
            state.shard = None
            state.channel = None
            self._live_hosts -= 1
            last_host = self._live_hosts == 0
        if channel is not None:
            # Politeness is for live hosts: SIGKILL first, then reap.
            channel.kill()
            channel.close()
        self._tracer.event(
            "fleet.host_death",
            host=state.name,
            pid=pid,
            hung=hung,
            error=str(exc),
            metrics={"host_deaths": 1},
        )
        logger.warning(
            "fleet %r: host %r died (%s); salvaging its cache and re-placing "
            "its shard",
            self.spec.name,
            state.name,
            exc,
        )

        # Salvage: whatever the dead host finished is already in its cache;
        # merge it so those trials are never re-executed.
        self._collect(state)
        pending_positions = [p for p in task.positions if p not in self._done]
        recovered: List[int] = []
        if pending_positions:
            fps = sorted({self._trials[p][3] for p in pending_positions})
            with self._collect_lock:
                summaries = self._campaign_cache.get_summaries(fps)
            present = {fp for fp, summary in zip(fps, summaries) if summary is not None}
            with self._lock:
                for position in pending_positions:
                    if self._trials[position][3] in present and position not in self._done:
                        self._done.add(position)
                        self._results[position] = {
                            "status": "executed",
                            "error": None,
                            "elapsed_seconds": 0.0,
                            "attempts": task.attempt,
                        }
                        recovered.append(position)
        remaining = [p for p in pending_positions if p not in recovered]
        if remaining and not last_host:
            self._tracer.event(
                "fleet.shard_reassigned",
                shard="%d/%d" % (task.shard_index, self.shards),
                trials=len(remaining),
                recovered=len(recovered),
                dead_host=state.name,
            )
            self._requeue(
                _ShardTask(
                    task.shard_index,
                    remaining,
                    attempt=task.attempt,
                    placements=task.placements + 1,
                )
            )
        else:
            if remaining:  # no host left to steal the work
                self._fail_positions(
                    remaining,
                    "host %r died and no live host remains" % state.name,
                    task.attempt,
                )
            self._resolve_task()
        if last_host:
            self._drain_remaining("no live hosts left (all %d died)" % len(self.hosts))
        self._write_status()

    def _drain_remaining(self, reason: str) -> None:
        """Fail every still-queued task (called when the last host died)."""
        while True:
            try:
                task = self._tasks.get_nowait()
            except queue.Empty:
                return
            if task is _SHUTDOWN:
                continue
            self._fail_positions(
                [p for p in task.positions if p not in self._done], reason, task.attempt
            )
            self._resolve_task()

    def _retire(self, state: _HostState) -> None:
        """Shut a surviving host down politely: EOF, terminate, kill."""
        if state.channel is None:
            return
        state.channel.close()
        with self._lock:
            state.channel = None

    # -------------------------------------------------------------- collection
    def _collect(self, state: _HostState) -> int:
        """Merge one host's cache into the campaign cache and re-render."""
        root = self.host_cache_root(state.name)
        if not os.path.isdir(root):
            return 0
        with self._collect_lock:
            source = ResultCache(root, backend=self._cache_backend_name)
            try:
                imported = self._campaign_cache.merge_from(source)
            finally:
                source.close()
            write_report(
                self.spec, self._campaign_cache, self.directory, profile=self.profile
            )
        self._tracer.event(
            "fleet.collected",
            host=state.name,
            imported=imported,
            metrics={"merged_entries": imported},
        )
        self._write_status()
        return imported

    def _write_outputs(self) -> Tuple[str, str]:
        """Final collection pass: every host cache, then the merged report."""
        for state in self._states.values():
            root = self.host_cache_root(state.name)
            if not os.path.isdir(root):
                continue
            with self._collect_lock:
                source = ResultCache(root, backend=self._cache_backend_name)
                try:
                    self._campaign_cache.merge_from(source)
                finally:
                    source.close()
        with self._collect_lock:
            markdown_path, json_path = write_report(
                self.spec, self._campaign_cache, self.directory, profile=self.profile
            )
        return markdown_path, json_path

    # ------------------------------------------------------------ fleet.json
    def _write_status(self) -> None:
        """Atomically snapshot per-host health for the watch panel.

        Ages are *stored* (seconds since each host's last frame at write
        time), so the watch renderer never does clock math of its own.
        """
        now = time.monotonic()
        with self._lock:
            hosts = [
                {
                    "name": state.name,
                    "status": state.status,
                    "pid": state.pid,
                    "shard": state.shard,
                    "shards_done": state.shards_done,
                    "trials_done": state.trials_done,
                    "heartbeats": state.heartbeats,
                    "last_frame_age_s": (
                        None
                        if state.last_frame_at is None
                        else round(now - state.last_frame_at, 3)
                    ),
                }
                for state in self._states.values()
            ]
            failed = sum(
                1 for record in self._results.values() if record["status"] == "failed"
            )
            trials = {
                "total": len(self._trials),
                "done": len(self._done),
                "cached": len(self._precached),
                "failed": failed,
            }
        document = {
            "schema": FLEET_STATUS_SCHEMA,
            "version": 1,
            "campaign": self.spec.name,
            "updated": time.time(),
            "hosts": hosts,
            "trials": trials,
        }
        payload = json.dumps(document, sort_keys=True, indent=2) + "\n"
        atomic_write_bytes(self.status_path, payload.encode("utf-8"))

    # -------------------------------------------------------------- manifest
    def _build_manifest(self, campaign_fingerprint: str) -> CampaignManifest:
        manifest = CampaignManifest(
            campaign=self.spec.name,
            fingerprint=campaign_fingerprint,
            shard=None,  # the fleet runs the whole campaign
        )
        for position, (sweep_name, index, spec, fingerprint) in enumerate(self._trials):
            if position in self._precached:
                manifest.record(
                    TrialEntry(
                        sweep=sweep_name,
                        index=index,
                        fingerprint=fingerprint,
                        label=spec.describe(),
                        status="cached",
                    )
                )
                continue
            record = self._results.get(position)
            if record is None:  # defensive: an unresolved trial is a failure
                record = {
                    "status": "failed",
                    "error": "trial was never placed on a host",
                    "elapsed_seconds": 0.0,
                    "attempts": 0,
                }
            manifest.record(
                TrialEntry(
                    sweep=sweep_name,
                    index=index,
                    fingerprint=fingerprint,
                    label=spec.describe(),
                    status=record["status"],
                    attempts=int(record["attempts"]),
                    elapsed_seconds=float(record["elapsed_seconds"]),
                    error=record["error"],
                )
            )
        return manifest
