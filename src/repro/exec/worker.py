"""Wire-protocol worker: the process side of every out-of-process path.

``python -m repro.exec.worker --serve`` speaks length-prefixed JSON frames
over stdio until EOF, one request per frame.  It is the persistent worker
the :class:`~repro.exec.backends.workerpool.WorkerPoolBackend` keeps a pool
of -- on this machine, or, for the :class:`~repro.fleet.FleetBackend`, on
the hosts whose :class:`~repro.fleet.inventory.HostSpec` command templates
start it:

* ``{"op": "run", "version": 4, "trials": [<doc>, ...]}`` executes a *work
  unit*: a list of trial documents (the pool cuts them with
  :func:`~repro.exec.execute.work_units`).  The unit runs through
  :func:`~repro.exec.execute.batched_payloads`, as on the serial backend,
  so same-shape vectorized members run as one engine call and every other
  member runs alone.  The worker answers one payload frame per member,
  tagged ``"member": <position in the unit>``, as soon as that member
  finishes -- completion order, not unit order.  A member whose document
  does not decode fails alone; a unit of the wrong wire version answers
  one error per member.  A request carrying
  ``{"progress": {"heartbeat_seconds": h}}`` additionally brackets the unit
  in ``{"op": "progress"}`` frames: ``unit_started`` at once, then a
  ``heartbeat`` every ``h`` seconds until the unit's last answer, so the
  pool can tell a *hung* worker (alive but silent) from a merely slow unit;
* ``{"op": "ping"}`` answers ``{"ok": true, "pid": ...}`` and
  ``{"op": "shutdown"}`` acknowledges and exits; EOF on stdin is a clean
  shutdown too.

Trial failures are *data* (a payload with ``error`` set); the process only
exits non-zero for protocol errors -- a frame that does not decode.  A
request the worker cannot serve at all (an unknown op, a ``run`` without a
trial list) gets one error frame without a ``member`` tag.
``--preload MODULE`` imports extension modules before serving so that
algorithms registered outside the built-in registry become executable on
the worker side too.

Stdout is reserved for the protocol; anything the worker wants to say lands
on stderr.
"""

from __future__ import annotations

import argparse
import importlib
import os
import sys
import threading
import time
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from .execute import TrialPayload, batched_payloads, format_error
from .wire import (
    WIRE_VERSION,
    payload_to_dict,
    read_frame,
    spec_from_dict,
    write_frame,
)

__all__ = ["main", "run_unit"]


def run_unit(documents: Sequence[object]) -> Iterator[Tuple[int, Dict[str, object]]]:
    """Execute a work unit of wire trial documents, guarded.

    Yields ``(member, payload document)`` once per member, in completion
    order.  A document that does not decode (an unknown graph family, a bad
    fault-plan document) fails alone, captured exactly like an execution
    error -- the submitting side cannot tell where behind the wire a trial
    went wrong, only that it did and why.
    """
    specs = []
    members: List[int] = []
    for member, document in enumerate(documents):
        start = time.perf_counter()
        try:
            spec = spec_from_dict(document)
        except Exception as exc:  # noqa: BLE001 -- protocol boundary, captured
            payload = TrialPayload(
                outcome=None,
                error="undecodable trial document: %s" % format_error(exc),
                elapsed_seconds=time.perf_counter() - start,
            )
            yield member, payload_to_dict(payload)
            continue
        specs.append(spec)
        members.append(member)
    for index, payload in batched_payloads(specs):
        yield members[index], payload_to_dict(payload)


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


def _error(message: str, member: Optional[int] = None) -> Dict[str, object]:
    """A failed answer: for one member, or for the whole request (untagged)."""
    frame: Dict[str, object] = {"outcome": None, "error": message, "elapsed_seconds": 0.0}
    if member is not None:
        frame["member"] = member
    return frame


class _FrameWriter:
    """The serve process's stdout, and its one heartbeat thread.

    The heartbeat thread and the serve loop share one stdout, so every frame
    is written whole under one lock: interleaved *bytes* (as opposed to
    interleaved whole frames, which the protocol allows) would corrupt the
    stream.  The thread starts with the first unit that asks for heartbeats,
    lives as long as the process and beats only while such a unit is in
    flight; it writes under the same lock that arms and disarms it, and the
    unit's last answer is written under that lock as it disarms, so no
    heartbeat of a unit can follow the unit's last answer.
    """

    def __init__(self, stream) -> None:
        self._stream = stream
        self._lock = threading.Condition()
        #: ``(heartbeat frame, period)`` of the in-flight unit, fresh per unit.
        self._beat: Optional[tuple] = None
        self._thread: Optional[threading.Thread] = None

    def write(self, document: Dict[str, object]) -> None:
        with self._lock:
            write_frame(self._stream, document)

    def arm(self, label: object, trials: int, period: float) -> None:
        """Open a unit's bracket: ``unit_started`` now, then a ``heartbeat``
        every ``period`` seconds until :meth:`disarm`."""
        frame = {"op": "progress", "pid": os.getpid(), "label": label, "trials": trials}
        with self._lock:
            write_frame(self._stream, dict(frame, event="unit_started"))
            if self._thread is None:
                self._thread = threading.Thread(
                    target=self._heartbeats, name="repro-worker-heartbeat", daemon=True
                )
                self._thread.start()
            self._beat = (dict(frame, event="heartbeat"), period)
            self._lock.notify()

    def disarm(self, last: Optional[Dict[str, object]] = None) -> None:
        """Close the bracket, writing the unit's ``last`` answer as it closes."""
        with self._lock:
            self._beat = None
            if last is not None:
                write_frame(self._stream, last)

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


def _run(writer: _FrameWriter, request: Dict[str, object]) -> None:
    """Answer one ``run`` request: one frame per member of its unit."""
    documents = request.get("trials")
    mismatch = _check_version(request.get("version"))
    if not isinstance(documents, list):
        writer.write(_error(mismatch or "run request carries no 'trials' list"))
        return
    if mismatch is not None:
        for member in range(len(documents)):
            writer.write(_error(mismatch, member))
        return
    if not documents:
        return
    answers = (dict(payload, member=member) for member, payload in run_unit(documents))
    period = _heartbeat_seconds(request)
    if period is None:
        for answer in answers:
            writer.write(answer)
        return
    first = documents[0]
    writer.arm(first.get("label") if isinstance(first, dict) else None, len(documents), period)
    try:
        for count, answer in enumerate(answers, 1):
            if count == len(documents):
                writer.disarm(last=answer)
            else:
                writer.write(answer)
    finally:
        writer.disarm()


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
            _run(writer, request)
        elif op == "ping":
            writer.write({"ok": True, "pid": os.getpid(), "version": WIRE_VERSION})
        elif op == "shutdown":
            writer.write({"ok": True})
            return 0
        else:
            writer.write(_error("unknown op %r" % op))


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
