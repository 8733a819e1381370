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


class _FrameWriter:
    """Serialises frame writes: the heartbeat thread and the serve loop share
    one stdout, and interleaved *bytes* (as opposed to interleaved whole
    frames, which the protocol allows) would corrupt the stream."""

    def __init__(self, stream) -> None:
        self._stream = stream
        self._lock = threading.Lock()

    def write(self, document: Dict[str, object]) -> None:
        with self._lock:
            write_frame(self._stream, document)


def _heartbeat_seconds(request: Dict[str, object]) -> Optional[float]:
    """The requested heartbeat period, or ``None`` for the plain exchange."""
    progress = request.get("progress")
    if not isinstance(progress, dict):
        return None
    seconds = progress.get("heartbeat_seconds")
    if isinstance(seconds, (int, float)) and not isinstance(seconds, bool) and seconds > 0:
        return float(seconds)
    return None


@contextlib.contextmanager
def _progress(writer: _FrameWriter, label: object, heartbeat: Optional[float]) -> Iterator[None]:
    """Bracket one trial in progress frames.

    ``trial_started`` now, a ``heartbeat`` every ``heartbeat`` seconds while
    the body runs (none when ``None``), ``trial_finished`` after it.
    """
    pid = os.getpid()

    def frame(event: str) -> Dict[str, object]:
        return {"op": "progress", "event": event, "pid": pid, "label": label}

    writer.write(frame("trial_started"))
    stop = threading.Event()
    thread = None
    if heartbeat is not None:

        def beat() -> None:
            while not stop.wait(heartbeat):
                writer.write(frame("heartbeat"))

        thread = threading.Thread(target=beat, name="repro-worker-heartbeat", daemon=True)
        thread.start()
    try:
        yield
    finally:
        stop.set()
        if thread is not None:
            thread.join(timeout=heartbeat + 1.0)
    writer.write(frame("trial_finished"))


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
                heartbeat = _heartbeat_seconds(request)
                if heartbeat is None:
                    response = run_trial_document(trial)
                else:
                    label = trial.get("label") if isinstance(trial, dict) else None
                    with _progress(writer, label, heartbeat):
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
