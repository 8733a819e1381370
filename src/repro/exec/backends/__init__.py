"""Pluggable execution backends for the batch runner.

Two registered implementations of one :class:`ExecutionBackend` protocol
decide where trials run, plus the fleet, which needs a host inventory and
so is built by hand; the :class:`~repro.exec.runner.BatchRunner` stays the
single deterministic orchestrator on top, so every backend replays
bit-identically to serial for a fixed master seed:

========== =====================================================
name       execution
========== =====================================================
serial     in the submitting process; the default for one
           worker or a single pending trial
workerpool persistent ``python -m repro.exec.worker --serve``
           subprocesses over length-prefixed JSON stdio,
           respawned on death; the default for ``workers > 1``
fleet      :class:`repro.fleet.FleetBackend`: the worker pool
           with ``HostSpec.workers`` serve processes per host
           (local, SSH or ``kubectl`` command templates); a
           dead host stays dead and its trial is retried
           elsewhere by the campaign
========== =====================================================

Every out-of-process slot, local or remote, reaches its subprocess through
one :class:`~repro.exec.backends.workerpool.WorkerChannel`.

Backends are picked three ways, strongest first: put an instance in the
profile (``BatchRunner(profile=ExecutionProfile(backend=WorkerPoolBackend(
workers=8)))``; the caller owns its lifecycle), put a registry name there
(``ExecutionProfile(backend="workerpool")``), or set the
:data:`BACKEND_ENV_VAR` environment override -- which is how the CI backend
matrix runs the whole exec/campaign test tier under every backend without
touching a line of test code.
"""

from __future__ import annotations

from typing import Optional

from ..execute import default_worker_count
from .base import ExecutionBackend, TrialExecutionError
from .serial import SerialBackend
from .workerpool import WorkerPoolBackend, worker_command, worker_environment

__all__ = [
    "BACKEND_ENV_VAR",
    "ExecutionBackend",
    "TrialExecutionError",
    "SerialBackend",
    "WorkerPoolBackend",
    "add_backend_argument",
    "backend_names",
    "make_backend",
    "worker_command",
    "worker_environment",
]

#: Environment override consulted by ``BatchRunner`` when no backend was
#: passed explicitly; one of :func:`backend_names`.
BACKEND_ENV_VAR = "REPRO_EXEC_BACKEND"

_FACTORIES = {
    "serial": lambda workers: SerialBackend(),
    "workerpool": lambda workers: WorkerPoolBackend(workers=workers),
}


def backend_names() -> tuple:
    """The registered backend names, sorted.

    >>> backend_names()
    ('serial', 'workerpool')
    """
    return tuple(sorted(_FACTORIES))


def make_backend(name: str, workers: Optional[int] = None) -> ExecutionBackend:
    """Instantiate a backend by registry name with a worker budget."""
    try:
        factory = _FACTORIES[name]
    except KeyError:
        raise KeyError(
            "unknown execution backend %r; known backends: %s"
            % (name, ", ".join(backend_names()))
        ) from None
    return factory(workers if workers is not None else default_worker_count())


def add_backend_argument(parser) -> None:
    """Attach the standard ``--backend`` option to an argparse parser.

    One definition for every campaign CLI: choices track the registry, and
    the empty-string default means "no explicit choice" (the workers-derived
    default and the ``REPRO_EXEC_BACKEND`` override still apply) -- pass
    ``arguments.backend or None`` through to the runner.
    """
    parser.add_argument(
        "--backend",
        default="",
        choices=("",) + backend_names(),
        help="execution backend (default: serial for one worker, "
        "workerpool otherwise)",
    )
