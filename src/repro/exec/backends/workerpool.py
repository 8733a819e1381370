"""A resilient pool of persistent wire workers, respawned on death.

Each worker is a ``python -m repro.exec.worker --serve`` subprocess speaking
length-prefixed JSON frames over stdio (see :mod:`repro.exec.wire`).  Trials
travel in *work units*: :meth:`WorkerPoolBackend.map` cuts a batch with
:func:`~repro.exec.execute.work_units` (same-configuration specs together,
at most ``min(BATCH_TRIALS, ceil(pending / workers))`` per unit),
:meth:`~WorkerPoolBackend.submit` sends a unit of one, and a worker answers
each member as soon as it finishes.  A worker the OS kills mid-unit does not
break the batch: exactly the members it had not answered come back as
``on_error="capture"`` failures ("worker died ..."), a fresh worker is
spawned in its slot, and every other unit keeps going -- resume then
re-executes only the lost trials, because everything that finished is
already in the result cache.  A slot whose worker died more often than
``max_respawns_per_slot`` retires and stops pulling units while the other
slots keep serving; when the last slot retires, whatever is still queued
(and anything submitted later) fails with an error naming the budget.  The
fleet backend (:class:`repro.fleet.FleetBackend`) is this pool with its
slots launched from a host inventory and a respawn budget of 0.

Workers are fresh interpreters, so trials reach them as versioned JSON
documents, not pickles: algorithms registered outside the ``repro`` package
are only executable when their module is named in ``preload`` (imported by
each worker at startup; ``extra_paths`` extends the workers' ``sys.path``
for modules that live outside the installed package, e.g. a campaign's local
extension file).
"""

from __future__ import annotations

import functools
import os
import queue
import select
import subprocess
import sys
import threading
from concurrent.futures import Future
from typing import Callable, Iterator, List, Optional, Sequence, Tuple

from ...obs.tracer import current_tracer
from ..execute import TrialPayload, default_worker_count, format_error, work_units
from ..spec import TrialSpec
from ..wire import (
    PreparedDocuments,
    encode_frame,
    encode_run_request,
    payload_from_dict,
    read_frame,
    spec_wire_text,
    write_encoded_frame,
)
from .base import ExecutionBackend

__all__ = [
    "WorkerChannel",
    "WorkerPoolBackend",
    "WorkerHungError",
    "worker_command",
    "worker_environment",
]

#: Sentinel a serving thread interprets as "drain finished, exit".
_SHUTDOWN = object()

#: How long :meth:`WorkerChannel.close` waits after each polite step (EOF,
#: then SIGTERM) before escalating.
_CLOSE_GRACE_SECONDS = 2.0

#: The least time a fresh worker gets to answer its startup ping when a
#: hang deadline is set: interpreter boot plus imports (plus an SSH or pod
#: attach for remote hosts) can far exceed the steady-state deadline.
_STARTUP_SECONDS = 30.0


class WorkerHungError(RuntimeError):
    """A worker stopped emitting frames (heartbeats included) before its
    hang deadline: the process is alive but not making progress."""


def worker_command(preload: Sequence[str] = (), python: Optional[str] = None) -> List[str]:
    """The argv that starts a serve-mode wire worker with this interpreter."""
    argv = [python or sys.executable, "-m", "repro.exec.worker", "--serve"]
    for module in preload:
        argv += ["--preload", module]
    return argv


def worker_environment(extra_paths: Sequence[str] = ()) -> dict:
    """The child environment: current env with ``repro`` importable.

    The submitting process may have put the package on ``sys.path`` by hand
    (the test and benchmark harnesses do); a spawned worker only inherits
    ``PYTHONPATH``, so the package's parent directory -- and any
    ``extra_paths`` carrying preload modules -- are prepended there.
    """
    import repro

    package_parent = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    paths = [os.fspath(path) for path in extra_paths] + [package_parent]
    env = dict(os.environ)
    existing = env.get("PYTHONPATH")
    if existing:
        paths.append(existing)
    env["PYTHONPATH"] = os.pathsep.join(paths)
    return env


class WorkerChannel:
    """One supervised subprocess speaking length-prefixed JSON frames on stdio.

    The parent side of every out-of-process path: each worker-pool slot,
    local or on a fleet host, is one channel to a
    ``repro.exec.worker --serve`` process, started from an argv and an
    environment.  Pipes are unbuffered and stderr is inherited, so child
    tracebacks stay visible.
    """

    def __init__(self, argv: Sequence[str], env: dict) -> None:
        self.process = subprocess.Popen(
            argv,
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            stderr=None,
            env=env,
            bufsize=0,
        )

    @property
    def pid(self) -> int:
        return self.process.pid

    def request(
        self,
        document: dict,
        deadline: Optional[float] = None,
        on_progress: Optional[Callable[[dict], None]] = None,
    ) -> dict:
        """Write one request frame; return the first non-progress frame."""
        self.send(encode_frame(document))
        return self.receive(deadline=deadline, on_progress=on_progress)

    def send(self, frame: bytes) -> None:
        """Write one encoded request frame."""
        write_encoded_frame(self.process.stdin, frame)

    def receive(
        self,
        deadline: Optional[float] = None,
        on_progress: Optional[Callable[[dict], None]] = None,
    ) -> dict:
        """Return the next non-progress frame.

        ``{"op": "progress"}`` frames arriving first are handed to
        ``on_progress``.  ``deadline`` bounds the wait for *any* next frame:
        a child alive but silent past it raises :class:`WorkerHungError`.  A
        closed stream raises :class:`EOFError`.  Without a deadline the
        exchange is blocking reads -- no ``select``, no lock.
        """
        stdout = self.process.stdout
        while True:
            if deadline is not None:
                # The pipe is unbuffered (bufsize=0), so select on the raw
                # descriptor reflects exactly what read_frame would block on.
                ready, _, _ = select.select([stdout], [], [], deadline)
                if not ready:
                    raise WorkerHungError(
                        "no frame (not even a heartbeat) within %.1fs" % deadline
                    )
            response = read_frame(stdout)
            if response is None:
                raise EOFError("worker closed its stream")
            if response.get("op") == "progress":
                if on_progress is not None:
                    on_progress(response)
                continue
            return response

    def kill(self) -> None:
        """SIGKILL the child: the one signal even a stopped process obeys."""
        self.process.kill()

    def close(self) -> None:
        """Shut the child down, escalating politely: EOF, terminate, kill."""
        try:
            self.process.stdin.close()
        except OSError:
            pass
        try:
            self.process.wait(timeout=_CLOSE_GRACE_SECONDS)
        except subprocess.TimeoutExpired:
            self.process.terminate()
            try:
                self.process.wait(timeout=_CLOSE_GRACE_SECONDS)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait()
        self.process.stdout.close()


class WorkerPoolBackend(ExecutionBackend):
    """Persistent worker subprocesses with per-slot respawn on death.

    With ``heartbeat_seconds`` set, workers bracket each unit in progress
    frames (unit started, then heartbeats) that are forwarded into the
    current :mod:`repro.obs` tracer as ``worker.*`` events, together with
    one ``worker.trial_finished`` per answered member, and a worker that
    goes silent past ``hang_deadline_seconds`` (default: four heartbeat
    periods) is declared *hung*: killed, respawned, and the members of its
    unit it had not answered captured as failures -- the same recovery a
    worker death gets, but for processes that are alive and stuck.  Hangs
    count against the slot's respawn budget like deaths do.
    """

    name = "workerpool"

    def __init__(
        self,
        workers: Optional[int] = None,
        preload: Sequence[str] = (),
        extra_paths: Sequence[str] = (),
        python: Optional[str] = None,
        max_respawns_per_slot: int = 8,
        heartbeat_seconds: Optional[float] = None,
        hang_deadline_seconds: Optional[float] = None,
    ) -> None:
        self.workers = workers if workers is not None else default_worker_count()
        if self.workers < 1:
            raise ValueError("workers must be at least 1, got %d" % self.workers)
        if max_respawns_per_slot < 0:
            raise ValueError("max_respawns_per_slot must be non-negative")
        if heartbeat_seconds is not None and heartbeat_seconds <= 0:
            raise ValueError("heartbeat_seconds must be positive")
        if hang_deadline_seconds is not None:
            if heartbeat_seconds is None:
                # Without heartbeats the only frame of a long trial is its
                # payload, so any deadline would flag slow trials as hangs.
                raise ValueError(
                    "hang_deadline_seconds requires heartbeat_seconds (a "
                    "deadline without heartbeats cannot tell slow from hung)"
                )
            if hang_deadline_seconds <= heartbeat_seconds:
                raise ValueError(
                    "hang_deadline_seconds must exceed heartbeat_seconds"
                )
        self.heartbeat_seconds = heartbeat_seconds
        #: How long a slot waits for any frame before declaring its worker
        #: hung; defaults to four heartbeat periods when heartbeats are on.
        self.hang_deadline_seconds = hang_deadline_seconds
        if heartbeat_seconds is not None and hang_deadline_seconds is None:
            self.hang_deadline_seconds = 4.0 * heartbeat_seconds
        self.preload = tuple(preload)
        self.extra_paths = tuple(os.fspath(path) for path in extra_paths)
        self.python = python
        self.max_respawns_per_slot = max_respawns_per_slot
        #: Worker deaths observed (and survived) since ``start``.
        self.deaths = 0
        #: Workers flagged as hung (alive but silent) and killed since ``start``.
        self.hangs = 0
        # The task queue and the serve threads are generation-scoped: every
        # start() after a close() creates a *fresh* queue and bumps the
        # generation, so a thread that outlived close()'s join timeout (a
        # trial can run arbitrarily long) keeps draining its own old queue
        # and can never consume the new generation's tasks or sentinels --
        # nor touch its slot mirror (_slots is guarded by generation).
        self._generation = 0
        self._tasks: "queue.SimpleQueue" = queue.SimpleQueue()
        self._threads: List[threading.Thread] = []
        self._slots: List[Optional[WorkerChannel]] = []
        # Slots of the current generation still pulling trials, and the
        # error every trial gets once none is left.
        self._live = 0
        self._exhausted: Optional[str] = None
        self._closed = False
        self._lock = threading.Lock()
        # Hands the partition pass's wire text to the dispatch pass (see
        # PreparedDocuments for the aliasing and size-cap arguments).
        self._prepared = PreparedDocuments()

    # ------------------------------------------------------------- lifecycle
    def start(self) -> None:
        with self._lock:
            if self._threads:
                return
            self._closed = False
            self._generation += 1
            self._tasks = queue.SimpleQueue()
            self._slots = [None] * self.workers
            self._live = self.workers
            self._exhausted = None
            for slot in range(self.workers):
                thread = threading.Thread(
                    target=self._serve,
                    args=(slot, self._generation, self._tasks),
                    name="repro-workerpool-%d" % slot,
                    daemon=True,
                )
                thread.start()
                self._threads.append(thread)

    def close(self) -> None:
        """Shut the pool down, *aborting* still-queued trials.

        An ``on_error="raise"`` abort closes the backend with units still
        queued behind the failure; those must not keep executing after the
        exception propagated, so serve threads drain them as "backend
        closed" error payloads instead of running them.
        """
        with self._lock:
            threads, self._threads = self._threads, []
            self._closed = True
            tasks = self._tasks
        self._prepared.clear()
        for _ in threads:
            tasks.put(_SHUTDOWN)
        for thread in threads:
            thread.join(timeout=30)

    def worker_pids(self) -> List[int]:
        """PIDs of the currently-live worker subprocesses (chaos hooks)."""
        return [worker.pid for worker in self._slots if worker is not None]

    # -------------------------------------------------------------- dispatch
    def wire_safe(self, spec: TrialSpec) -> bool:
        """Strict JSON-wire check; a safe spec's document is memoised."""
        return self._prepare(spec) is None

    def submit(self, spec: TrialSpec) -> "Future[TrialPayload]":
        """Dispatch ``spec`` as a unit of one (outside the backend protocol:
        :meth:`map` puts same-configuration specs in one unit)."""
        future: "Future[TrialPayload]" = Future()
        self._enqueue([_Member(spec, future.set_result)])
        return future

    def map(self, specs: Sequence[TrialSpec]) -> Iterator[Tuple[int, TrialPayload]]:
        """Dispatch ``specs`` as work units (:func:`~repro.exec.execute.work_units`
        over this pool's workers), yielding ``(index, payload)`` as members
        are answered."""
        answered: "queue.SimpleQueue" = queue.SimpleQueue()
        for unit in work_units(specs, self.workers):
            self._enqueue(
                [
                    _Member(specs[index], functools.partial(_answer, answered, index))
                    for index in unit
                ]
            )
        for _ in range(len(specs)):
            yield answered.get()

    # ------------------------------------------------------------- internals
    def _enqueue(self, unit: List["_Member"]) -> None:
        self.start()
        # Checked and enqueued under the lock: the last slot to retire
        # drains the queue under the same lock's verdict, so a unit is
        # either drained by it or refused here, never stranded.
        with self._lock:
            exhausted = self._exhausted
            if exhausted is None:
                self._tasks.put(unit)
        if exhausted is not None:
            _settle(unit, exhausted)

    def _prepare(self, spec: TrialSpec) -> Optional[str]:
        """Memoise ``spec``'s wire text; returns why it cannot cross."""
        text, error = spec_wire_text(spec, extra_modules=self.preload)
        if error is None:
            self._prepared.put(spec, text)
        return error

    def _launch(self, slot: int) -> Tuple[List[str], dict, Optional[str]]:
        """The argv, environment and host name (``None``: this machine) a
        slot's worker starts with."""
        return (
            worker_command(preload=self.preload, python=self.python),
            worker_environment(self.extra_paths),
            None,
        )

    def _wire_text(self, spec: TrialSpec) -> Tuple[Optional[str], Optional[str]]:
        """The (text, error) for a spec, served from the memo if fresh."""
        text = self._prepared.take(spec)
        if text is not None:
            return text, None
        return spec_wire_text(spec, extra_modules=self.preload)

    def _stale(self, generation: int) -> bool:
        """Whether this serve thread belongs to a closed/superseded pool."""
        return self._closed or generation != self._generation

    def _publish_slot(
        self, slot: int, generation: int, worker: Optional[WorkerChannel]
    ) -> None:
        """Mirror a thread's worker into _slots for worker_pids(), but only
        while the thread's generation is current -- a thread that outlived
        close() must never touch a restarted pool's state."""
        with self._lock:
            if generation == self._generation:
                self._slots[slot] = worker

    def _serve(self, slot: int, generation: int, tasks: "queue.SimpleQueue") -> None:
        """One slot's loop: pull units, keep exactly one (thread-local) worker.

        The worker handle and death count live on the thread, never shared:
        two generations of slot-``k`` threads can overlap after a timed-out
        close(), and thread-local state is what keeps them from interleaving
        frames on one subprocess.
        """
        worker: Optional[WorkerChannel] = None
        deaths = 0
        while True:
            unit = tasks.get()
            if unit is _SHUTDOWN:
                break
            if self._stale(generation):
                _settle(unit, "backend closed before the trial was dispatched")
                continue
            try:
                worker, deaths = self._execute(slot, generation, worker, deaths, unit)
            except Exception as exc:  # noqa: BLE001 -- every member must resolve
                _settle(unit, format_error(exc))
            if deaths > self.max_respawns_per_slot:
                self._retire(slot, generation, deaths, tasks)
                break
        self._publish_slot(slot, generation, None)
        if worker is not None:
            worker.close()

    def _retire(self, slot: int, generation: int, deaths: int, tasks: "queue.SimpleQueue") -> None:
        """Stop a slot past its respawn budget; the last one out fails the rest.

        A retired slot pulls nothing more, so the live slots keep the queue.
        When no live slot remains, every queued unit resolves at once with
        an error naming the budget, and :meth:`submit` refuses later ones
        the same way until the pool is closed and restarted.
        """
        error = (
            "worker slot %d exceeded its respawn budget (%d deaths) and no live "
            "worker remains" % (slot, deaths)
        )
        with self._lock:
            if generation != self._generation:
                return
            self._live -= 1
            if self._live:
                return
            self._exhausted = error
        while True:
            try:
                unit = tasks.get_nowait()
            except queue.Empty:
                return
            if unit is not _SHUTDOWN:
                _settle(unit, error)

    def _forward_progress(self, slot: int, frame: dict) -> None:
        """Relay one worker progress frame into the current tracer."""
        tracer = current_tracer()
        if not tracer.enabled:
            return
        event = frame.get("event")
        if event not in ("unit_started", "heartbeat"):
            return
        tracer.event(
            "worker.%s" % event,
            slot=slot,
            pid=frame.get("pid"),
            label=frame.get("label"),
            trials=frame.get("trials"),
        )

    def _execute(self, slot, generation, worker, deaths, unit):
        """Run one unit on this thread's worker; returns (worker, deaths).

        Every member is settled on return: answered by the worker, refused
        before sending (a spec that cannot cross the wire fails alone), or --
        when the worker dies or hangs mid-unit -- captured as a failure,
        exactly the members it had not answered.
        """
        sent: List[_Member] = []
        texts = []
        for member in unit:
            text, unsafe = self._wire_text(member.spec)
            if unsafe is not None:
                member.settle(_failure(unsafe))
            else:
                sent.append(member)
                texts.append(text)
        if not sent:
            return worker, deaths
        tracer = current_tracer()
        fresh = worker is None
        if fresh:
            argv, env, host = self._launch(slot)
            try:
                worker = WorkerChannel(argv, env)
            except OSError as exc:
                # A slot that cannot start its worker spends its budget the
                # way one whose worker dies does.
                _settle(sent, "could not spawn worker: %s" % format_error(exc))
                return None, deaths + 1
            self._publish_slot(slot, generation, worker)
            if tracer.enabled:
                tracer.event(
                    "worker.spawned",
                    slot=slot,
                    pid=worker.pid,
                    host=host,
                    respawn=deaths > 0,
                    metrics={"respawns": int(deaths > 0)},
                )
        # With heartbeats on, the worker brackets the unit in progress
        # frames, and the hang deadline bounds the wait for any next frame.
        watched = self.heartbeat_seconds is not None
        progress = {"heartbeat_seconds": self.heartbeat_seconds} if watched else None
        try:
            if fresh and self.hang_deadline_seconds is not None:
                # Startup handshake: silence is judged by heartbeats only
                # once the fresh worker has answered a ping.
                worker.request(
                    {"op": "ping"}, deadline=max(_STARTUP_SECONDS, self.hang_deadline_seconds)
                )
            worker.send(encode_run_request(texts, progress))
            self._collect(slot, worker, sent, watched and tracer.enabled)
        except WorkerHungError as exc:
            # The worker is alive but silent past the deadline (stalled I/O,
            # a stopped process, a wedged extension): SIGKILL it and respawn
            # the slot, capturing the unanswered members as failures.
            with self._lock:
                self.hangs += 1
            self._publish_slot(slot, generation, None)
            pid = worker.pid
            worker.kill()
            worker.close()
            if tracer.enabled:
                tracer.event("worker.hung", slot=slot, pid=pid, metrics={"hangs": 1})
            for member in sent:
                member.settle(
                    _failure(
                        "worker hung (pid %s killed) while executing %r: %s"
                        % (pid, member.spec.describe(), format_error(exc))
                    )
                )
            return None, deaths + 1
        except (OSError, EOFError, ValueError) as exc:
            # The worker died (or garbled its stream) mid-unit: capture the
            # unanswered members as failures and retire the subprocess; the
            # next unit on this thread spawns a fresh one.
            with self._lock:  # serve threads can observe deaths concurrently
                self.deaths += 1
            self._publish_slot(slot, generation, None)
            pid = worker.pid
            worker.close()
            code = worker.process.returncode
            if tracer.enabled:
                tracer.event(
                    "worker.death",
                    slot=slot,
                    pid=pid,
                    exit_code=code,
                    metrics={"deaths": 1},
                )
            for member in sent:
                member.settle(
                    _failure(
                        "worker died (exit %s) while executing %r: %s"
                        % (code, member.spec.describe(), format_error(exc))
                    )
                )
            return None, deaths + 1
        except Exception as exc:  # noqa: BLE001 -- e.g. a trace sink that raised
            # The exchange broke off on this side with answers possibly still
            # in flight: retire the worker, so that no later unit can read
            # them as its own.  The worker did nothing wrong; no budget spent.
            self._publish_slot(slot, generation, None)
            worker.kill()
            worker.close()
            _settle(sent, format_error(exc))
            return None, deaths
        return worker, deaths

    def _collect(
        self, slot: int, worker: WorkerChannel, sent: List["_Member"], watched: bool
    ) -> None:
        """Settle each member of a sent unit from its answer frame, as it arrives.

        A frame without a ``member`` tag answers for the whole unit (a
        worker that could not serve the request at all) and settles every
        member still open; a tag that names no open member is a garbled
        stream.
        """
        tracer = current_tracer()
        on_progress = functools.partial(self._forward_progress, slot)
        remaining = len(sent)
        while remaining:
            frame = worker.receive(deadline=self.hang_deadline_seconds, on_progress=on_progress)
            if "member" not in frame:
                for member in sent:
                    member.settle(_decoded(frame, member.spec))
                return
            index = frame["member"]
            if not (type(index) is int and 0 <= index < len(sent)) or sent[index].settled:
                raise ValueError("answer for member %r, which is not open" % (index,))
            member = sent[index]
            member.settle(_decoded(frame, member.spec))
            remaining -= 1
            if watched:
                tracer.event(
                    "worker.trial_finished", slot=slot, pid=worker.pid, label=member.spec.label
                )


class _Member:
    """One trial of a queued unit, and where its payload goes once settled."""

    __slots__ = ("spec", "resolve", "settled")

    def __init__(self, spec: TrialSpec, resolve: Callable[[TrialPayload], None]) -> None:
        self.spec = spec
        self.resolve = resolve
        self.settled = False

    def settle(self, payload: TrialPayload) -> None:
        """Hand over the payload; a member settles once, later calls are no-ops."""
        if not self.settled:
            self.settled = True
            self.resolve(payload)


def _answer(answered: "queue.SimpleQueue", index: int, payload: TrialPayload) -> None:
    answered.put((index, payload))


def _failure(error: str) -> TrialPayload:
    return TrialPayload(outcome=None, error=error, elapsed_seconds=0.0)


def _settle(members: Sequence[_Member], error: str) -> None:
    """Fail every member of ``members`` not settled yet with ``error``."""
    for member in members:
        member.settle(_failure(error))


def _decoded(frame: dict, spec: TrialSpec) -> TrialPayload:
    """A member's payload from its answer frame.

    A frame that arrived intact but does not decode (for example an outcome
    schema from a mismatched repro version on the worker side) is a protocol
    problem, not a death: the worker stays up and the trial is captured as a
    failure.
    """
    try:
        return payload_from_dict(frame)
    except (KeyError, TypeError, ValueError) as exc:
        return _failure(
            "undecodable worker response for %r: %s" % (spec.describe(), format_error(exc))
        )
