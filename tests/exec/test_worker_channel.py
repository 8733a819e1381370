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
from repro.exec.wire import WIRE_VERSION, spec_to_dict


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
    spec = TrialSpec(graph=GraphSpec("clique", (8,)), algorithm="flood_max", seed=5)
    channel = WorkerChannel(worker_command(), worker_environment())
    progress = []
    try:
        run = channel.request(
            {
                "op": "run",
                "version": WIRE_VERSION,
                "trial": spec_to_dict(spec),
                "progress": {"heartbeat_seconds": 5.0},
            },
            deadline=30.0,
            on_progress=progress.append,
        )
        pong = channel.request({"op": "ping"})
    finally:
        channel.close()
    assert run["error"] is None and run["outcome"] is not None
    assert pong["ok"] is True and pong["pid"] == channel.pid
    assert channel.process.returncode == 0, "EOF is a clean shutdown"
    # run: started/finished around the trial.
    assert [frame["event"] for frame in progress] == ["trial_started", "trial_finished"]
