"""The one parent-side channel of every out-of-process path.

``WorkerChannel`` is what every worker-pool slot, local or on a fleet
host, talks through, so its three failure modes are pinned here directly: a
silent child (hang deadline), a child that exits (EOF), and a child that
ignores EOF at shutdown (escalation to terminate).  The last case drives a
real ``repro.exec.worker --serve`` subprocess through the channel.
"""

import sys
import time

import pytest

from repro.exec import GraphSpec, TrialSpec
from repro.exec.backends.workerpool import (
    WorkerChannel,
    WorkerHungError,
    worker_command,
    worker_environment,
)
from repro.exec.wire import encode_run_request, spec_wire_text


def _python(code):
    return WorkerChannel([sys.executable, "-c", code], worker_environment())


def test_silent_child_raises_the_hang_error_within_the_deadline():
    channel = _python("import time; time.sleep(60)")
    try:
        start = time.monotonic()
        with pytest.raises(WorkerHungError):
            channel.request({"op": "ping"}, deadline=0.5)
        assert time.monotonic() - start < 2.0
    finally:
        channel.kill()
        channel.close()


def test_exiting_child_raises_eof():
    channel = _python("pass")
    try:
        with pytest.raises(EOFError):
            channel.request({"op": "ping"})
    finally:
        channel.close()


def test_close_reaps_a_child_that_ignores_eof():
    channel = _python("import time; time.sleep(60)")
    channel.close()
    assert channel.process.poll() is not None


def test_one_serve_process_answers_run_then_ping():
    specs = [
        TrialSpec(graph=GraphSpec("clique", (8,)), algorithm="flood_max", seed=seed)
        for seed in (5, 6)
    ]
    channel = WorkerChannel(worker_command(), worker_environment())
    progress = []
    try:
        texts = [spec_wire_text(spec)[0] for spec in specs]
        channel.send(encode_run_request(texts, progress={"heartbeat_seconds": 5.0}))
        answers = [
            channel.receive(deadline=30.0, on_progress=progress.append) for _ in specs
        ]
        pong = channel.request({"op": "ping"})
    finally:
        channel.close()
    assert sorted(answer["member"] for answer in answers) == [0, 1]
    assert all(answer["error"] is None and answer["outcome"] for answer in answers)
    assert pong["ok"] is True and pong["pid"] == channel.pid
    assert channel.process.returncode == 0, "EOF is a clean shutdown"
    # run: one bracket for the whole unit, opened before its answers.
    assert [frame["event"] for frame in progress] == ["unit_started"]
    assert progress[0]["trials"] == 2
