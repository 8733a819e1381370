"""The serve loop of ``python -m repro.exec.worker``, driven in-process.

A serve process keeps one heartbeat thread for its whole life and arms it
only while a trial with a heartbeat request is in flight; requests without
one get the plain single-frame exchange and start no thread at all.
"""

import io
import sys
import threading

import pytest

from repro.exec import GraphSpec, TrialSpec
from repro.exec import worker
from repro.exec.wire import WIRE_VERSION, encode_frame, read_frame, spec_to_dict

HEARTBEAT_THREAD = "repro-worker-heartbeat"


@pytest.fixture
def started_heartbeats(monkeypatch):
    """Every heartbeat thread started while the test runs."""
    started = []
    original = threading.Thread.start

    def start(thread):
        if thread.name == HEARTBEAT_THREAD:
            started.append(thread)
        original(thread)

    monkeypatch.setattr(threading.Thread, "start", start)
    return started


def _serve(requests):
    """Serve ``requests`` to EOF; returns the exit status and every frame."""
    stdin = io.BytesIO(b"".join(encode_frame(request) for request in requests))
    stdout = io.BytesIO()
    status = worker._serve(stdin, stdout)
    stdout.seek(0)
    frames = []
    while True:
        frame = read_frame(stdout)
        if frame is None:
            return status, frames
        frames.append(frame)


def _run_request(seed, heartbeat=None, n=64):
    spec = TrialSpec(graph=GraphSpec("clique", (n,)), seed=seed, label="t%d" % seed)
    request = {"op": "run", "version": WIRE_VERSION, "trial": spec_to_dict(spec)}
    if heartbeat is not None:
        request["progress"] = {"heartbeat_seconds": heartbeat}
    return request


def _assert_bracketed(frames, trials):
    """Per trial: started, heartbeats, finished, then the payload -- never a
    heartbeat outside its own trial's bracket."""
    payloads = [frame for frame in frames if frame.get("op") != "progress"]
    assert [payload["error"] for payload in payloads] == [None] * trials
    in_flight = None
    for frame in frames:
        if frame.get("op") != "progress":
            assert in_flight is None
            continue
        event = frame["event"]
        if event == "trial_started":
            assert in_flight is None
            in_flight = frame["label"]
        else:
            assert frame["label"] == in_flight
            if event == "trial_finished":
                in_flight = None


def test_heartbeat_requests_share_one_thread(started_heartbeats):
    status, frames = _serve([_run_request(seed, heartbeat=0.01) for seed in (1, 2, 3)])
    assert status == 0
    assert len(started_heartbeats) == 1
    _assert_bracketed(frames, 3)
    heartbeats = [frame for frame in frames if frame.get("event") == "heartbeat"]
    assert heartbeats, "a ~0.2 s trial outlasts a 0.01 s heartbeat period"


def test_heartbeats_stay_in_their_trial_under_thread_switching(started_heartbeats):
    """Short trials and a period near their length put beats right at the
    arm/disarm boundaries; a tiny switch interval interleaves the threads."""
    previous = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        status, frames = _serve(
            [_run_request(seed, heartbeat=0.002, n=8) for seed in range(40)]
        )
    finally:
        sys.setswitchinterval(previous)
    assert status == 0
    assert len(started_heartbeats) == 1
    _assert_bracketed(frames, 40)


def test_plain_requests_start_no_thread(started_heartbeats):
    status, frames = _serve([_run_request(seed) for seed in (1, 2)])
    assert status == 0
    assert started_heartbeats == []
    assert [sorted(frame) for frame in frames] == [
        ["elapsed_seconds", "error", "error_type", "outcome"]
    ] * 2
