"""The serve loop of ``python -m repro.exec.worker``, driven in-process.

A ``run`` request carries a work unit and gets one answer frame per member,
tagged with the member's position.  A serve process keeps one heartbeat
thread for its whole life and arms it only while a unit with a heartbeat
request is in flight; requests without one get the plain answers and start
no thread at all.
"""

import io
import sys
import threading

import pytest

from repro.exec import GraphSpec, TrialSpec
from repro.exec import worker
from repro.exec.execute import guarded_payload
from repro.exec.wire import (
    WIRE_VERSION,
    encode_frame,
    payload_to_dict,
    read_frame,
    spec_to_dict,
)

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


def _spec(seed, n=64):
    return TrialSpec(graph=GraphSpec("clique", (n,)), seed=seed, label="t%d" % seed)


def _run_request(seed, heartbeat=None, n=64, members=1):
    """A unit of ``members`` trials, seeds ``seed`` onwards."""
    documents = [spec_to_dict(_spec(seed + offset, n)) for offset in range(members)]
    request = {"op": "run", "version": WIRE_VERSION, "trials": documents}
    if heartbeat is not None:
        request["progress"] = {"heartbeat_seconds": heartbeat}
    return request


def _assert_bracketed(frames, units, members=1):
    """Per unit: started, heartbeats and answers, every member answered once
    -- never a heartbeat outside its own unit's bracket."""
    in_flight = None
    answered = []
    finished = 0
    for frame in frames:
        if frame.get("op") != "progress":
            assert in_flight is not None, "an answer outside its unit's bracket"
            assert frame["error"] is None
            answered.append(frame["member"])
            if len(answered) == members:
                assert sorted(answered) == list(range(members))
                in_flight, answered = None, []
                finished += 1
            continue
        event = frame["event"]
        if event == "unit_started":
            assert in_flight is None
            assert frame["trials"] == members
            in_flight = frame["label"]
        else:
            assert event == "heartbeat"
            assert frame["label"] == in_flight
    assert in_flight is None and finished == units


def test_heartbeat_requests_share_one_thread(started_heartbeats):
    status, frames = _serve([_run_request(seed, heartbeat=0.01) for seed in (1, 2, 3)])
    assert status == 0
    assert len(started_heartbeats) == 1
    _assert_bracketed(frames, 3)
    heartbeats = [frame for frame in frames if frame.get("event") == "heartbeat"]
    assert heartbeats, "a ~0.2 s trial outlasts a 0.01 s heartbeat period"


def test_a_unit_is_bracketed_once_and_answers_every_member(started_heartbeats):
    status, frames = _serve([_run_request(1, heartbeat=0.01, members=3)])
    assert status == 0
    _assert_bracketed(frames, 1, members=3)
    started = [frame for frame in frames if frame.get("event") == "unit_started"]
    assert len(started) == 1 and started[0]["label"] == "t1"


def test_a_unit_answers_each_member_as_it_runs_alone():
    """Every member's answer is the payload the trial has alone."""
    specs = [_spec(seed, n=8) for seed in (4, 5, 6)]
    request = {"op": "run", "version": WIRE_VERSION, "trials": [spec_to_dict(s) for s in specs]}
    status, frames = _serve([request])
    assert status == 0
    by_member = {frame.pop("member"): frame for frame in frames}
    assert sorted(by_member) == [0, 1, 2]
    for member, spec in enumerate(specs):
        alone = payload_to_dict(guarded_payload(spec))
        assert by_member[member]["outcome"] == alone["outcome"]


def test_an_undecodable_member_fails_alone():
    good = spec_to_dict(_spec(1, n=8))
    broken = {"algorithm": "election"}  # no graph at all
    request = {"op": "run", "version": WIRE_VERSION, "trials": [good, broken, good]}
    status, frames = _serve([request])
    assert status == 0
    by_member = {frame["member"]: frame for frame in frames}
    assert sorted(by_member) == [0, 1, 2]
    assert "undecodable trial document" in by_member[1]["error"]
    assert by_member[0]["error"] is None and by_member[2]["error"] is None
    assert by_member[0]["outcome"] == by_member[2]["outcome"]


def test_a_version_mismatch_answers_one_error_per_member():
    request = _run_request(1, members=3)
    request["version"] = WIRE_VERSION - 1
    status, frames = _serve([request])
    assert status == 0
    assert [frame["member"] for frame in frames] == [0, 1, 2]
    for frame in frames:
        assert frame["outcome"] is None and "wire version" in frame["error"]


def test_a_run_without_a_trial_list_answers_one_untagged_error():
    status, frames = _serve(
        [{"op": "run", "version": WIRE_VERSION, "trial": spec_to_dict(_spec(1, n=8))}]
    )
    assert status == 0
    assert len(frames) == 1 and "member" not in frames[0]
    assert "'trials'" in frames[0]["error"]


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
        ["elapsed_seconds", "error", "error_type", "member", "outcome"]
    ] * 2
