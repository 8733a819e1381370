"""Wire-protocol worker: the process side of every out-of-process path.

``python -m repro.exec.worker --serve`` speaks length-prefixed JSON frames
over stdio until EOF, one request per frame.  It is the persistent worker
the :class:`~repro.exec.backends.workerpool.WorkerPoolBackend` keeps a pool
of -- on this machine, or, for the :class:`~repro.fleet.FleetBackend`, on
the hosts whose :class:`~repro.fleet.inventory.HostSpec` command templates
start it:

* ``{"op": "run", "version": 3, "trial": <doc>}`` executes one trial and
  answers a payload frame.  A request carrying
  ``{"progress": {"heartbeat_seconds": h}}`` additionally streams
  ``{"op": "progress"}`` frames -- ``trial_started`` immediately, a
  ``heartbeat`` every ``h`` seconds while the trial executes, and
  ``trial_finished`` -- before the final payload frame, so the pool can
  tell a *hung* worker (alive but silent) from a merely slow trial;
* ``{"op": "ping"}`` answers ``{"ok": true, "pid": ...}`` and
  ``{"op": "shutdown"}`` acknowledges and exits; EOF on stdin is a clean
  shutdown too.

Trial failures are *data* (a payload with ``error`` set); the process only
exits non-zero for protocol errors -- a frame that does not decode.
``--preload MODULE`` imports extension modules before serving so that
algorithms registered outside the built-in registry become executable on
the worker side too.

Stdout is reserved for the protocol; anything the worker wants to say lands
on stderr.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import os
import sys
import threading
import time
from typing import Dict, Iterator, Optional, Sequence

from .execute import TrialPayload, format_error, guarded_payload
from .wire import (
    WIRE_VERSION,
    payload_to_dict,
    read_frame,
    spec_from_dict,
    write_frame,
)

__all__ = ["main", "run_trial_document"]


def run_trial_document(document: Dict[str, object]) -> Dict[str, object]:
    """Execute one wire trial document, guarded: failures come back as data.

    Decoding errors (an unknown graph family, a bad fault-plan document) are
    captured exactly like execution errors -- the submitting side cannot tell
    where behind the wire a trial went wrong, only that it did and why.
    """
    start = time.perf_counter()
    try:
        spec = spec_from_dict(document)
    except Exception as exc:  # noqa: BLE001 -- protocol boundary, captured
        payload = TrialPayload(
            outcome=None,
            error="undecodable trial document: %s" % format_error(exc),
            elapsed_seconds=time.perf_counter() - start,
        )
        return payload_to_dict(payload)
    return payload_to_dict(guarded_payload(spec))


def _check_version(version: object) -> Optional[str]:
    if version != WIRE_VERSION:
        return "wire version %r does not match this worker's %d" % (
            version,
            WIRE_VERSION,
        )
    return None


def _heartbeat_seconds(request: Dict[str, object]) -> Optional[float]:
    """The requested heartbeat period, or ``None`` for the plain exchange."""
    progress = request.get("progress")
    if not isinstance(progress, dict):
        return None
    seconds = progress.get("heartbeat_seconds")
    if isinstance(seconds, (int, float)) and not isinstance(seconds, bool) and seconds > 0:
        return float(seconds)
    return None


class _FrameWriter:
    """The serve process's stdout, and its one heartbeat thread.

    The heartbeat thread and the serve loop share one stdout, so every frame
    is written whole under one lock: interleaved *bytes* (as opposed to
    interleaved whole frames, which the protocol allows) would corrupt the
    stream.  The thread starts with the first trial that asks for heartbeats,
    lives as long as the process and beats only while such a trial is in
    flight; it writes under the same lock that arms and disarms it, so no
    heartbeat of a trial can follow the trial's ``trial_finished`` frame.
    """

    def __init__(self, stream) -> None:
        self._stream = stream
        self._lock = threading.Condition()
        #: ``(heartbeat frame, period)`` of the in-flight trial, fresh per trial.
        self._beat: Optional[tuple] = None
        self._thread: Optional[threading.Thread] = None

    def write(self, document: Dict[str, object]) -> None:
        with self._lock:
            write_frame(self._stream, document)

    @contextlib.contextmanager
    def progress(self, label: object, period: float) -> Iterator[None]:
        """Bracket one trial in progress frames.

        ``trial_started`` now, a ``heartbeat`` every ``period`` seconds while
        the body runs, ``trial_finished`` after it.
        """
        pid = os.getpid()

        def frame(event: str) -> Dict[str, object]:
            return {"op": "progress", "event": event, "pid": pid, "label": label}

        with self._lock:
            write_frame(self._stream, frame("trial_started"))
            if self._thread is None:
                self._thread = threading.Thread(
                    target=self._heartbeats, name="repro-worker-heartbeat", daemon=True
                )
                self._thread.start()
            self._beat = (frame("heartbeat"), period)
            self._lock.notify()
        try:
            yield
        finally:
            with self._lock:
                self._beat = None
        self.write(frame("trial_finished"))

    def _heartbeats(self) -> None:
        with self._lock:
            while True:
                beat = self._beat

                def rearmed() -> bool:
                    return self._beat is not beat

                if beat is None:
                    self._lock.wait_for(rearmed)
                elif not self._lock.wait_for(rearmed, timeout=beat[1]):
                    write_frame(self._stream, beat[0])


def _serve(stdin, stdout) -> int:
    """Frame loop of a pool worker, local or on a fleet host; returns the exit status."""
    writer = _FrameWriter(stdout)
    while True:
        try:
            request = read_frame(stdin)
        except (EOFError, ValueError) as exc:
            print("repro.exec.worker: bad frame: %s" % exc, file=sys.stderr)
            return 1
        if request is None:  # clean EOF: the parent closed our stdin
            return 0
        op = request.get("op")
        if op == "run":
            mismatch = _check_version(request.get("version"))
            if mismatch is not None:
                response = {"outcome": None, "error": mismatch, "elapsed_seconds": 0.0}
            else:
                trial = request.get("trial", {})
                period = _heartbeat_seconds(request)
                if period is None:
                    response = run_trial_document(trial)
                else:
                    label = trial.get("label") if isinstance(trial, dict) else None
                    with writer.progress(label, period):
                        response = run_trial_document(trial)
            writer.write(response)
        elif op == "ping":
            writer.write({"ok": True, "pid": os.getpid(), "version": WIRE_VERSION})
        elif op == "shutdown":
            writer.write({"ok": True})
            return 0
        else:
            writer.write(
                {
                    "outcome": None,
                    "error": "unknown op %r" % op,
                    "elapsed_seconds": 0.0,
                },
            )


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Entry point of ``python -m repro.exec.worker``."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.exec.worker",
        description="execute repro trials from framed stdin "
        "(see repro.exec.backends and repro.fleet)",
    )
    parser.add_argument(
        "--serve",
        action="store_true",
        help="persistent mode: length-prefixed JSON frames until EOF (the "
        "only mode; the flag keeps command templates readable)",
    )
    parser.add_argument(
        "--preload",
        action="append",
        default=[],
        metavar="MODULE",
        help="import MODULE before serving (registers extension algorithms)",
    )
    arguments = parser.parse_args(argv)
    for module in arguments.preload:
        importlib.import_module(module)
    return _serve(sys.stdin.buffer, sys.stdout.buffer)


if __name__ == "__main__":
    sys.exit(main())
