"""The JSON wire format trials travel over to out-of-process workers.

The worker pool and the fleet cannot rely on pickle: their workers are
freshly spawned interpreters (possibly on another machine, behind SSH or a
job queue), so everything crossing the boundary is plain, versioned JSON:

* **trial documents** -- :func:`spec_to_dict` / :func:`spec_from_dict`
  round-trip a :class:`~repro.exec.spec.TrialSpec` exactly: graph (family
  spec, or inline edge list), algorithm name, seed, election parameters,
  algorithm kwargs and fault plan.  Because every field the trial's
  randomness derives from survives the round trip bit-for-bit, a trial
  executed behind the wire replays identically to an in-process run;
* **result payloads** -- :func:`payload_to_dict` / :func:`payload_from_dict`
  carry the :class:`~repro.exec.execute.TrialPayload` envelope (outcome via
  the cache's versioned serialisation, or a one-line error and its exception
  type name, plus timing);
* **frames** -- :func:`read_frame` / :func:`write_frame` implement the
  length-prefixed framing persistent workers speak over stdio (4-byte
  big-endian length, then UTF-8 JSON).

Not everything can cross a wire: :func:`spec_wire_error` names the reason a
spec cannot (an algorithm registered outside the ``repro`` package that a
fresh worker would not know, ``keep_simulation`` transcripts, non-JSON
``algo_kwargs``), and the batch runner falls back to in-process execution
for exactly those specs -- the backend choice never changes *what* a run
returns, only *where* trials execute.

>>> from repro.exec.spec import GraphSpec, TrialSpec
>>> spec = TrialSpec(graph=GraphSpec("clique", (8,)), seed=3)
>>> spec_from_dict(spec_to_dict(spec)) == spec
True
"""

from __future__ import annotations

import builtins
import dataclasses
import json
import struct
import sys
import weakref
from typing import BinaryIO, Dict, Optional, Sequence, Tuple, Union

from ..core.params import ElectionParameters
from ..faults.plan import FaultPlan
from ..graphs.topology import Graph
from .algorithms import get_algorithm
from .execute import TrialPayload
from .serialize import outcome_from_dict, outcome_to_dict
from .spec import GraphSpec, TrialSpec

__all__ = [
    "WIRE_VERSION",
    "spec_to_dict",
    "spec_from_dict",
    "spec_wire_document",
    "spec_wire_text",
    "spec_wire_error",
    "payload_to_dict",
    "payload_from_dict",
    "read_frame",
    "write_frame",
    "write_encoded_frame",
    "encode_frame",
    "encode_run_request",
    "FrameDecoder",
]

#: Version stamp of the worker wire protocol; a worker refuses requests of a
#: different version instead of misparsing them.
#: 2: trial documents carry a ``simulator`` entry (absent means "reference",
#: so version-1 documents still decode to the trial they described).
#: 3: serve-mode run requests may carry a ``progress`` mapping
#: (``{"heartbeat_seconds": h}``); the worker then interleaves
#: ``{"op": "progress"}`` frames (trial_started / heartbeat /
#: trial_finished, each with its pid and the in-flight trial's label)
#: before the final payload frame.  Requests without ``progress`` get
#: exactly the version-2 single-response exchange.
#: 4: a run request carries a work unit, ``"trials": [<doc>, ...]``, and the
#: worker answers one payload frame per member, tagged ``"member"`` (its
#: position in the unit), in completion order; progress frames bracket the
#: unit (``unit_started``, then heartbeats until its last answer).  The
#: single-trial ``"trial"`` request is gone: one trial is a unit of one.
WIRE_VERSION = 4

_LENGTH = struct.Struct(">I")


# ----------------------------------------------------------------- trial docs
def _graph_to_dict(graph: Union[GraphSpec, Graph]) -> Dict[str, object]:
    if isinstance(graph, GraphSpec):
        return {
            "kind": "family",
            "family": graph.family,
            "args": list(graph.args),
            "kwargs": dict(graph.kwargs),
            "seed": graph.seed,
        }
    if isinstance(graph, Graph):
        return {
            "kind": "inline",
            "num_nodes": graph.num_nodes,
            "edges": [[u, v] for u, v in graph.edges()],
        }
    raise TypeError("expected GraphSpec or Graph, got %r" % type(graph).__name__)


def _graph_from_dict(document: Dict[str, object]) -> Union[GraphSpec, Graph]:
    kind = document.get("kind")
    if kind == "family":
        return GraphSpec(
            family=document["family"],
            args=tuple(document["args"]),
            kwargs=dict(document["kwargs"]),
            seed=document["seed"],
        )
    if kind == "inline":
        return Graph.from_edges(document["num_nodes"], [(u, v) for u, v in document["edges"]])
    raise ValueError("unknown graph document kind %r" % kind)


def spec_to_dict(spec: TrialSpec) -> Dict[str, object]:
    """Flatten a trial description into a JSON-serialisable document."""
    plan = spec.effective_fault_plan
    return {
        "graph": _graph_to_dict(spec.graph),
        "algorithm": spec.algorithm,
        "seed": spec.seed,
        "params": dict(spec.params.document()),
        "algo_kwargs": dict(spec.algo_kwargs),
        "label": spec.label,
        "fault_plan": None if plan is None else plan.document(),
        "simulator": spec.simulator,
    }


def spec_from_dict(document: Dict[str, object]) -> TrialSpec:
    """Rebuild the :class:`TrialSpec` a wire document describes."""
    plan = document.get("fault_plan")
    return TrialSpec(
        graph=_graph_from_dict(document["graph"]),
        algorithm=document["algorithm"],
        seed=document["seed"],
        params=ElectionParameters(**document["params"]),
        algo_kwargs=dict(document["algo_kwargs"]),
        label=document.get("label", ""),
        fault_plan=None if plan is None else FaultPlan.from_document(plan),
        simulator=document.get("simulator", "reference"),
    )


def spec_wire_text(
    spec: TrialSpec, extra_modules: Sequence[str] = ()
) -> Tuple[Optional[str], Optional[str]]:
    """``(text, None)`` when the spec crosses a JSON wire exactly, else
    ``(None, reason)``; ``text`` is the trial document as compact JSON.

    Three things pin a trial to the submitting process: an algorithm
    registered from outside the ``repro`` package (a fresh worker interpreter
    would not know it -- unless its module is in ``extra_modules``, the
    backend's preload list), a ``keep_simulation`` request (the raw
    transcript is never serialised), and a spec that does not survive the
    JSON round trip **exactly** -- not merely one that fails to serialise:
    tuple-valued ``algo_kwargs`` would silently come back as lists and could
    change what the worker computes, so the check decodes the encoded
    document and demands equality with the original spec.  Backends splice
    the returned text into their requests (:func:`encode_run_request`), so
    the bytes checked are the bytes sent.

    Every trial is encoded, but the decode-and-compare check runs once per
    configuration: its verdict depends on everything but the seeds and the
    label, and an ``int`` seed or ``str`` label always survives the round
    trip, so a trial whose seeds and label have exactly those types reuses
    the verdict of the first trial of its configuration
    (:func:`_exactness_key`); any other trial is checked alone.
    """
    try:
        algorithm = get_algorithm(spec.algorithm)
    except KeyError as exc:
        return None, str(exc)
    module = getattr(algorithm.runner, "__module__", "") or ""
    known = module == "repro" or module.startswith("repro.") or module in extra_modules
    if not known:
        return None, (
            "algorithm %r is registered from module %r, which a fresh worker "
            "process does not import; preload that module or use an "
            "in-process backend" % (spec.algorithm, module)
        )
    if spec.algo_kwargs.get("keep_simulation"):
        return None, (
            "keep_simulation retains the raw simulation transcript, which "
            "never crosses the wire; use an in-process backend"
        )
    try:
        text = json.dumps(spec_to_dict(spec), separators=(",", ":"))
    except (TypeError, ValueError) as exc:
        return None, "trial spec does not JSON-serialise: %s" % exc
    key = _exactness_key(spec)
    checked = None if key is None else _EXACTNESS.get(key)
    if checked is not None and (checked[0] is None or checked[0]() is spec.graph):
        refusal = checked[1]
    else:
        refusal = _round_trip_refusal(spec, text)
        if key is not None:
            if len(_EXACTNESS) >= _EXACTNESS_LIMIT:
                _EXACTNESS.clear()
            pin = None if key[0] is None else weakref.ref(spec.graph)
            _EXACTNESS[key] = (pin, refusal)
    return (None, refusal) if refusal is not None else (text, None)


#: Verdicts of :func:`_round_trip_refusal` by :func:`_exactness_key`, each
#: with a weak reference to its inline graph (``None`` for a family spec):
#: a key holds the graph's ``id``, which a later graph may reuse once this
#: one is gone.  Cleared when full; re-checking costs one decode.
_EXACTNESS: Dict[tuple, Tuple[Optional[weakref.ref], Optional[str]]] = {}
_EXACTNESS_LIMIT = 1024


def _exactness_key(spec: TrialSpec) -> Optional[tuple]:
    """What :func:`_round_trip_refusal`'s verdict depends on: the spec but
    its seeds and label, by ``repr`` (which tells ``(1,)`` from ``[1]`` and
    ``5`` from ``5.0``), and an inline graph by identity and mutation
    counter.  ``None`` when a seed is not an ``int`` or the label not a
    ``str``: such a trial is checked alone."""
    graph = spec.graph
    if type(spec.seed) is not int or type(spec.label) is not str:
        return None
    if isinstance(graph, GraphSpec):
        if graph.seed is not None and type(graph.seed) is not int:
            return None
        identity = None
        shape = (graph.family, graph.args, graph.kwargs)
    else:
        identity = (id(graph), graph._mutations)
        shape = ()
    rest = (spec.algorithm, spec.algo_kwargs, spec.params, spec.fault_plan, spec.simulator)
    return identity, repr(shape + rest)


def _round_trip_refusal(spec: TrialSpec, text: str) -> Optional[str]:
    """Why ``spec`` does not come back from its wire ``text`` as itself, or
    ``None`` when it does."""
    try:
        rebuilt = spec_from_dict(json.loads(text))
    except Exception as exc:  # noqa: BLE001 -- any decode failure pins the spec
        return "trial spec does not decode from its wire form: %s" % exc
    # The wire deliberately canonicalises an explicit empty FaultPlan() to
    # None (the two are the same trial and fingerprint identically), so the
    # equality check compares against the same canonical form.
    expected = dataclasses.replace(spec, fault_plan=spec.effective_fault_plan)
    if rebuilt != expected:
        return (
            "trial spec does not survive the JSON round trip exactly "
            "(tuple-valued or non-string-keyed algo_kwargs?); executing it "
            "remotely could compute something else than in-process"
        )
    return None


def spec_wire_document(
    spec: TrialSpec, extra_modules: Sequence[str] = ()
) -> Tuple[Optional[Dict[str, object]], Optional[str]]:
    """:func:`spec_wire_text`'s check, answering the decoded document."""
    text, error = spec_wire_text(spec, extra_modules=extra_modules)
    return (None if text is None else json.loads(text)), error


def spec_wire_error(spec: TrialSpec, extra_modules: Sequence[str] = ()) -> Optional[str]:
    """Why this spec cannot cross a JSON wire, or ``None`` when it can."""
    return spec_wire_text(spec, extra_modules=extra_modules)[1]


class PreparedDocuments:
    """Wire texts prepared by ``wire_safe``, consumed once at dispatch.

    The runner's partition pass and a backend's dispatch pass each need the
    :func:`spec_wire_text` result (encode + decode + compare), but should
    pay for it once; this memo hands the partition pass's text to the
    dispatch pass.  It keeps the compact JSON text, not the decoded
    document: a fraction of the memory, and what the request splices in.
    Entries are keyed by ``id`` with the spec kept alive
    alongside, so a recycled id can never alias a different spec, and only
    dispatchable specs are stored (unsafe ones fall back in-process and
    would never be consumed).  The size cap guards callers that probe
    without dispatching -- recomputing a text is cheaper than unbounded
    growth.  ``pop``/assignment are single bytecode-level dict operations,
    so producer (submitting thread) and consumers (serve threads) need no
    further locking.
    """

    def __init__(self, limit: int = 4096) -> None:
        self._limit = limit
        self._entries: Dict[int, tuple] = {}

    def put(self, spec: TrialSpec, text: str) -> None:
        if len(self._entries) > self._limit:
            self._entries.clear()
        self._entries[id(spec)] = (spec, text)

    def take(self, spec: TrialSpec) -> Optional[str]:
        entry = self._entries.pop(id(spec), None)
        if entry is not None and entry[0] is spec:
            return entry[1]
        return None

    def clear(self) -> None:
        self._entries.clear()


# -------------------------------------------------------------- result docs
def payload_to_dict(payload: TrialPayload) -> Dict[str, object]:
    """Flatten an executed trial's payload (worker side of the protocol)."""
    exception = payload.exception
    return {
        "outcome": None if payload.outcome is None else outcome_to_dict(payload.outcome),
        "error": payload.error,
        "error_type": None if exception is None else _type_name(type(exception)),
        "elapsed_seconds": payload.elapsed_seconds,
    }


def _type_name(exc_type: type) -> str:
    """An exception type's name as its one-line error starts with it: bare
    for builtins, module-qualified otherwise."""
    if exc_type.__module__ == "builtins":
        return exc_type.__qualname__
    return "%s.%s" % (exc_type.__module__, exc_type.__qualname__)


def _rebuild_exception(error: Optional[str], type_name: Optional[str]) -> Optional[BaseException]:
    """Best-effort reconstruction of a worker-side exception.

    Builtin exception types and exception classes of ``repro`` modules the
    receiving process has already imported cross the wire; a module named in
    wire text is never imported.  Anything else stays a string, surfaced as
    ``TrialExecutionError``.  The rebuilt instance carries the one-line
    description, not the original arguments -- enough for
    ``on_error="raise"`` callers to catch the type they expect.
    """
    if error is None or not type_name:
        return None
    module_name, _, name = type_name.rpartition(".")
    if not module_name:
        exc_type = getattr(builtins, name, None)
    elif module_name == "repro" or module_name.startswith("repro."):
        exc_type = getattr(sys.modules.get(module_name), name, None)
    else:
        return None
    if not (isinstance(exc_type, type) and issubclass(exc_type, BaseException)):
        return None
    prefix = "%s: " % type_name
    message = error[len(prefix):] if error.startswith(prefix) else error
    try:
        return exc_type(message)
    except Exception:  # noqa: BLE001 -- exotic constructors fall back to None
        return None


def payload_from_dict(document: Dict[str, object]) -> TrialPayload:
    """Rebuild a :class:`TrialPayload` from its wire document."""
    outcome = document.get("outcome")
    error = document.get("error")
    return TrialPayload(
        outcome=None if outcome is None else outcome_from_dict(outcome),
        error=error,
        elapsed_seconds=float(document.get("elapsed_seconds", 0.0)),
        exception=_rebuild_exception(error, document.get("error_type")),
    )


# ------------------------------------------------------------------- framing
#: Upper bound on a single frame's body; a peer announcing more is corrupt
#: (or hostile), and decoding it would buffer unbounded memory.
MAX_FRAME_BYTES = 64 * 1024 * 1024


def encode_frame(document: Dict[str, object]) -> bytes:
    """One frame -- 4-byte big-endian length prefix plus UTF-8 JSON -- as bytes."""
    encoded = json.dumps(document, separators=(",", ":")).encode("utf-8")
    return _LENGTH.pack(len(encoded)) + encoded


def encode_run_request(
    trials: Sequence[str], progress: Optional[Dict[str, object]] = None
) -> bytes:
    """The ``run`` request frame of a work unit, from its members' wire texts.

    ``trials`` are :func:`spec_wire_text` results, spliced in as they are, so
    a trial is encoded once, by the check that cleared it for the wire.
    """
    head: Dict[str, object] = {"op": "run", "version": WIRE_VERSION}
    if progress is not None:
        head["progress"] = progress
    opening = json.dumps(head, separators=(",", ":"))[:-1]
    encoded = ('%s,"trials":[%s]}' % (opening, ",".join(trials))).encode("utf-8")
    return _LENGTH.pack(len(encoded)) + encoded


def write_frame(stream: BinaryIO, document: Dict[str, object]) -> None:
    """Write one length-prefixed JSON frame and flush it."""
    write_encoded_frame(stream, encode_frame(document))


def write_encoded_frame(stream: BinaryIO, frame: bytes) -> None:
    """Write one already-encoded frame whole and flush it.

    Header and body go out as a single buffer, and the write loops until the
    stream has accepted every byte: sockets (unlike the stdio pipes the
    original workers spoke over) may accept a *partial* write, and a frame
    split across two ``write`` calls from two threads would interleave.
    """
    data = memoryview(frame)
    while data:
        written = stream.write(data)
        if written is None:
            # A non-blocking stream that accepted nothing; BinaryIO contracts
            # say "all or none" here, so treat it as a full write of 0 and
            # retry -- callers use blocking streams in practice.
            written = 0
        data = data[written:]
    stream.flush()


def _frame_length(header, limit: int) -> int:
    """The body length a frame header announces, refused above ``limit``."""
    (length,) = _LENGTH.unpack_from(header)
    if length > limit:
        raise ValueError(
            "frame announces %d bytes (limit %d); stream is corrupt" % (length, limit)
        )
    return length


class FrameDecoder:
    """Incremental frame decoder for byte streams that fragment arbitrarily.

    ``read_frame`` assumes a blocking file-like stream; TCP/UDS transports
    instead surface whatever chunks the kernel hands them -- a frame may
    arrive one byte at a time, or many frames may arrive fused in one chunk.
    Feed every received chunk in; complete frames come out, partial ones stay
    buffered until their remaining bytes arrive:

    >>> decoder = FrameDecoder()
    >>> data = encode_frame({"op": "ping"})
    >>> [frame for byte in data[:-1] for frame in decoder.feed(bytes([byte]))]
    []
    >>> decoder.feed(data[-1:])
    [{'op': 'ping'}]
    """

    def __init__(self, max_frame_bytes: int = MAX_FRAME_BYTES) -> None:
        self._buffer = bytearray()
        self._max_frame_bytes = max_frame_bytes

    @property
    def pending_bytes(self) -> int:
        """How many buffered bytes await the rest of their frame."""
        return len(self._buffer)

    def feed(self, data: bytes) -> "list[Dict[str, object]]":
        """Buffer ``data`` and return every frame it completed, in order."""
        self._buffer.extend(data)
        frames = []
        while len(self._buffer) >= _LENGTH.size:
            length = _frame_length(self._buffer, self._max_frame_bytes)
            end = _LENGTH.size + length
            if len(self._buffer) < end:
                break
            body = bytes(self._buffer[_LENGTH.size:end])
            del self._buffer[:end]
            frames.append(json.loads(body.decode("utf-8")))
        return frames


def _read_exact(stream: BinaryIO, count: int) -> Optional[bytes]:
    chunks = []
    remaining = count
    while remaining:
        chunk = stream.read(remaining)
        if not chunk:
            if chunks:
                raise EOFError(
                    "stream ended mid-frame (%d of %d bytes)"
                    % (count - remaining, count)
                )
            return None
        chunks.append(chunk)
        remaining -= len(chunk)
    return b"".join(chunks)


def read_frame(stream: BinaryIO) -> Optional[Dict[str, object]]:
    """Read one frame; ``None`` on clean EOF, ``EOFError`` on truncation.

    A header announcing more than :data:`MAX_FRAME_BYTES` raises
    ``ValueError`` at once instead of blocking until that many bytes (or EOF)
    arrive -- a garbled peer must not outlive the caller's hang deadline.
    """
    header = _read_exact(stream, _LENGTH.size)
    if header is None:
        return None
    length = _frame_length(header, MAX_FRAME_BYTES)
    body = _read_exact(stream, length)
    if body is None:
        raise EOFError("stream ended after frame header")
    return json.loads(body.decode("utf-8"))
