"""The wire format: exact spec/payload round-trips, framing, wire safety."""

import io
import json
import sys

import pytest

from repro.core import ElectionParameters
from repro.exec import GraphSpec, TrialSpec, execute_trial, outcome_to_dict
from repro.exec.execute import TrialPayload, guarded_payload
from repro.exec.fingerprint import trial_fingerprint
from repro.exec.wire import (
    MAX_FRAME_BYTES,
    WIRE_VERSION,
    FrameDecoder,
    encode_frame,
    encode_run_request,
    payload_from_dict,
    payload_to_dict,
    read_frame,
    spec_from_dict,
    spec_to_dict,
    spec_wire_document,
    spec_wire_error,
    spec_wire_text,
    write_frame,
)
from repro.faults import CrashFaults, FaultPlan, MessageFaults
from repro.graphs import Graph
from repro.sim.errors import CongestViolationError

FAST = ElectionParameters(c1=3.0, c2=0.5)


def _inline_graph():
    graph = Graph(4)
    for u, v in ((0, 1), (1, 2), (2, 3), (3, 0)):
        graph.add_edge(u, v)
    return graph


SPECS = [
    TrialSpec(graph=GraphSpec("clique", (8,)), seed=3),
    TrialSpec(
        graph=GraphSpec("expander", (16,), {"degree": 4}, seed=7),
        params=FAST,
        seed=11,
        label="expander trial",
    ),
    TrialSpec(graph=_inline_graph(), algorithm="flood_max", seed=5),
    TrialSpec(
        graph=GraphSpec("clique", (10,)),
        algorithm="known_tmix",
        params=FAST,
        algo_kwargs={"mixing_time": 2},
        seed=9,
        fault_plan=FaultPlan(
            messages=MessageFaults(drop_probability=0.25),
            crashes=CrashFaults(count=2, at_round=3),
        ),
    ),
]


class TestSpecRoundTrip:
    @pytest.mark.parametrize("spec", SPECS, ids=lambda spec: spec.describe())
    def test_round_trip_is_exact(self, spec):
        document = json.loads(json.dumps(spec_to_dict(spec)))
        assert spec_from_dict(document) == spec

    @pytest.mark.parametrize("spec", SPECS, ids=lambda spec: spec.describe())
    def test_round_trip_preserves_the_fingerprint(self, spec):
        """The cache key -- and through it the shard assignment and every
        SplitMix64 seed stream -- survives the wire exactly."""
        document = json.loads(json.dumps(spec_to_dict(spec)))
        assert trial_fingerprint(spec_from_dict(document)) == trial_fingerprint(spec)

    @pytest.mark.parametrize("spec", SPECS[:2], ids=lambda spec: spec.describe())
    def test_round_trip_executes_identically(self, spec):
        direct = execute_trial(spec)
        rebuilt = execute_trial(spec_from_dict(json.loads(json.dumps(spec_to_dict(spec)))))
        assert outcome_to_dict(direct) == outcome_to_dict(rebuilt)

    def test_empty_fault_plan_canonicalises_to_none(self):
        spec = TrialSpec(graph=GraphSpec("clique", (8,)), fault_plan=FaultPlan())
        assert spec_to_dict(spec)["fault_plan"] is None
        # ... and that canonicalisation must not flag the spec as lossy:
        # an explicit empty plan is the same trial as no plan at all.
        assert spec_wire_error(spec) is None


class TestPayloadRoundTrip:
    def test_success_payload(self):
        payload = guarded_payload(TrialSpec(graph=GraphSpec("clique", (8,)), seed=2))
        rebuilt = payload_from_dict(json.loads(json.dumps(payload_to_dict(payload))))
        assert rebuilt.error is None
        assert outcome_to_dict(rebuilt.outcome) == outcome_to_dict(payload.outcome)
        assert rebuilt.elapsed_seconds == payload.elapsed_seconds

    def test_failure_payload_rebuilds_builtin_exception(self):
        payload = guarded_payload(
            TrialSpec(graph=GraphSpec("cycle", (1,)), params=FAST)
        )
        rebuilt = payload_from_dict(json.loads(json.dumps(payload_to_dict(payload))))
        assert rebuilt.outcome is None
        assert rebuilt.error == payload.error
        assert isinstance(rebuilt.exception, ValueError)

    def test_failure_payload_rebuilds_repro_exception(self):
        spec = TrialSpec(
            graph=GraphSpec("clique", (12,)),
            params=FAST,
            algo_kwargs={"congest_mode": "strict", "edge_capacity_words": 1},
        )
        payload = guarded_payload(spec)
        document = json.loads(json.dumps(payload_to_dict(payload)))
        assert document["error_type"] == "repro.sim.errors.CongestViolationError"
        rebuilt = payload_from_dict(document)
        assert type(rebuilt.exception) is CongestViolationError
        assert str(rebuilt.exception) == str(payload.exception)

    def test_modules_named_on_the_wire_are_never_imported(self):
        for type_name in ("repro.not_a_module_test_only.Boom", "json.JSONDecodeError"):
            document = {
                "outcome": None,
                "error": "%s: boom" % type_name,
                "error_type": type_name,
                "elapsed_seconds": 0.0,
            }
            assert payload_from_dict(document).exception is None
        assert "repro.not_a_module_test_only" not in sys.modules

    def test_unknown_exception_type_stays_a_string(self):
        document = {
            "outcome": None,
            "error": "CustomError: boom",
            "error_type": "CustomError",
            "elapsed_seconds": 0.5,
        }
        rebuilt = payload_from_dict(document)
        assert rebuilt.exception is None
        assert rebuilt.error == "CustomError: boom"


class TestFraming:
    def test_frames_round_trip_in_order(self):
        stream = io.BytesIO()
        documents = [{"op": "ping"}, {"op": "run", "trial": {"seed": 1}}, {"ok": True}]
        for document in documents:
            write_frame(stream, document)
        stream.seek(0)
        assert [read_frame(stream) for _ in documents] == documents
        assert read_frame(stream) is None  # clean EOF

    def test_truncated_frame_raises(self):
        stream = io.BytesIO()
        write_frame(stream, {"op": "ping"})
        truncated = io.BytesIO(stream.getvalue()[:-2])
        with pytest.raises(EOFError):
            read_frame(truncated)

    def test_oversize_header_raises_without_reading_the_body(self):
        """A garbled header must fail at once, not block waiting for ~4 GiB."""

        class NoBodyStream(io.BytesIO):
            def read(self, size=-1):
                if self.tell() >= 4:
                    raise AssertionError("read_frame tried to read the body")
                return super().read(size)

        stream = NoBodyStream(b"\xff\xff\xff\xf0{}")
        with pytest.raises(ValueError, match="limit %d" % MAX_FRAME_BYTES):
            read_frame(stream)

    def test_write_frame_emits_exactly_encode_frame(self):
        stream = io.BytesIO()
        document = {"op": "run", "trial": {"seed": 1}}
        write_frame(stream, document)
        assert stream.getvalue() == encode_frame(document)

    def test_write_frame_survives_partial_writes(self):
        """Sockets may accept one byte per ``write``; the frame must still go
        out whole and unfragmented."""

        class TricklingStream(io.BytesIO):
            def write(self, data):
                return super().write(data[:1])

        stream = TricklingStream()
        write_frame(stream, {"op": "ping", "payload": list(range(50))})
        stream.seek(0)
        assert read_frame(stream) == {"op": "ping", "payload": list(range(50))}

    def test_write_frame_retries_a_zero_byte_write(self):
        class ReluctantStream(io.BytesIO):
            def __init__(self):
                super().__init__()
                self.calls = 0

            def write(self, data):
                self.calls += 1
                if self.calls == 1:
                    return None  # non-blocking stream accepted nothing
                return super().write(data)

        stream = ReluctantStream()
        write_frame(stream, {"op": "ping"})
        stream.seek(0)
        assert read_frame(stream) == {"op": "ping"}


class TestFrameDecoder:
    def test_byte_at_a_time(self):
        decoder = FrameDecoder()
        document = {"op": "round", "inbox": {"0": [1, 2, 3]}}
        frames = []
        for offset, byte in enumerate(encode_frame(document)):
            frames.extend(decoder.feed(bytes([byte])))
            if frames:
                # Nothing before the very last byte may complete the frame.
                assert offset == len(encode_frame(document)) - 1
        assert frames == [document]
        assert decoder.pending_bytes == 0

    def test_many_frames_fused_in_one_chunk(self):
        documents = [{"n": index} for index in range(5)]
        chunk = b"".join(encode_frame(document) for document in documents)
        decoder = FrameDecoder()
        assert decoder.feed(chunk) == documents

    def test_fragmentation_straddling_frame_boundaries(self):
        documents = [{"op": "a"}, {"op": "b", "x": [True, None]}, {"op": "c"}]
        data = b"".join(encode_frame(document) for document in documents)
        # Split mid-header of the second frame and mid-body of the third.
        first_len = len(encode_frame(documents[0]))
        pieces = [data[: first_len + 2], data[first_len + 2 : -3], data[-3:]]
        decoder = FrameDecoder()
        frames = [frame for piece in pieces for frame in decoder.feed(piece)]
        assert frames == documents
        assert decoder.pending_bytes == 0

    def test_pending_bytes_tracks_the_buffered_partial_frame(self):
        decoder = FrameDecoder()
        data = encode_frame({"op": "ping"})
        decoder.feed(data[:5])
        assert decoder.pending_bytes == 5

    def test_oversize_frame_is_rejected(self):
        decoder = FrameDecoder(max_frame_bytes=16)
        with pytest.raises(ValueError, match="limit 16"):
            decoder.feed(encode_frame({"op": "x" * 64}))

    def test_decoder_agrees_with_read_frame(self):
        """The incremental decoder and the blocking reader speak the same
        format: whatever one writes, the other reads."""
        stream = io.BytesIO()
        for spec in SPECS[:2]:
            write_frame(stream, spec_to_dict(spec))
        decoder = FrameDecoder()
        documents = decoder.feed(stream.getvalue())
        assert [spec_from_dict(document) for document in documents] == SPECS[:2]


class TestWireSafety:
    def test_builtin_algorithms_are_wire_safe(self):
        for spec in SPECS:
            assert spec_wire_error(spec) is None

    def test_locally_registered_algorithm_is_not(self):
        from repro.exec.algorithms import ALGORITHMS, register_algorithm

        if "_wire_probe_test_only" not in ALGORITHMS:

            @register_algorithm("_wire_probe_test_only")
            def _run_probe(graph, spec):  # pragma: no cover - never executed
                raise AssertionError

        spec = TrialSpec(graph=GraphSpec("clique", (8,)), algorithm="_wire_probe_test_only")
        error = spec_wire_error(spec)
        assert error is not None and "preload" in error
        # ... unless the backend preloads the registering module.
        assert spec_wire_error(spec, extra_modules=(__name__,)) is None

    def test_keep_simulation_is_not_wire_safe(self):
        spec = TrialSpec(
            graph=GraphSpec("clique", (8,)),
            params=FAST,
            algo_kwargs={"keep_simulation": True},
        )
        assert "keep_simulation" in spec_wire_error(spec)

    def test_non_json_kwargs_are_not_wire_safe(self):
        spec = TrialSpec(
            graph=GraphSpec("clique", (8,)),
            params=FAST,
            algo_kwargs={"bomb": object()},
        )
        assert "JSON" in spec_wire_error(spec)

    def test_lossy_round_trip_is_not_wire_safe(self):
        """Serialisable is not enough: tuple-valued kwargs would silently
        come back as lists on the worker, so they pin the trial in-process."""
        for kwargs in ({"sources": (0, 1)}, {3: "int key"}):
            spec = TrialSpec(
                graph=GraphSpec("clique", (8,)), params=FAST, algo_kwargs=kwargs
            )
            error = spec_wire_error(spec)
            assert error is not None and "round trip" in error

    def test_wire_document_matches_error_contract(self):
        document, error = spec_wire_document(SPECS[0])
        assert error is None
        assert spec_from_dict(document) == SPECS[0]
        document, error = spec_wire_document(
            TrialSpec(graph=GraphSpec("clique", (8,)), algo_kwargs={"t": (1,)})
        )
        assert document is None and error is not None


def test_trial_payload_failed_property():
    assert TrialPayload(outcome=None, error="x", elapsed_seconds=0.0).failed
    assert not TrialPayload(outcome=None, error=None, elapsed_seconds=0.0).failed


def test_run_request_splices_the_wire_texts():
    """A unit's request carries each member's checked wire text verbatim."""
    texts = [spec_wire_text(spec)[0] for spec in SPECS[:2]]
    frame = encode_run_request(texts, progress={"heartbeat_seconds": 1.0})
    request = read_frame(io.BytesIO(frame))
    assert request["op"] == "run" and request["version"] == WIRE_VERSION
    assert request["progress"] == {"heartbeat_seconds": 1.0}
    assert [spec_from_dict(document) for document in request["trials"]] == SPECS[:2]
    assert "progress" not in read_frame(io.BytesIO(encode_run_request(texts)))
