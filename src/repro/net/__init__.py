"""Election as a service: live node processes over real sockets.

Everything below :mod:`repro.sim` executes the paper's model in one process.
This package deploys the *same* protocols as real operating-system processes
exchanging :mod:`repro.exec.wire` frames over TCP or Unix-domain sockets:

* :mod:`repro.net.node` -- one protocol instance per process, anonymous and
  topology-blind exactly as the model demands;
* :mod:`repro.net.coordinator` -- spawns the node fleet, routes frames in
  lock-step rounds, injects the trial's fault plan as real transport faults
  (message drops/delays on the relay, crash-stops as ``SIGKILL``), and
  aggregates the final :class:`~repro.core.result.TrialOutcome`;
* :mod:`repro.net.transport` -- framing, addresses, and the payload codec;
* :mod:`repro.net.protocols` -- which specs deploy live, as which
  :class:`~repro.core.runner.ElectionRecipe`;
* :mod:`repro.net.faults` -- the plan-to-transport fault mapping;
* :mod:`repro.net.status` -- the stdlib REST status endpoint.

The headline guarantee is **cross-validation**: a live run of a
:class:`~repro.exec.spec.TrialSpec` produces the exact outcome the simulator
produces for the same seed -- winners, classification, crashed nodes and all
model-level metrics -- with the transport's own costs recorded separately in
``metrics.net_events``.  :func:`cross_validate` (the CLI's ``--verify``)
checks it in one call::

    python -m repro.net.coordinator --family expander --n 8 --seed 42 --verify
"""

from .protocols import LIVE_ALGORITHMS, live_recipe
from .status import StatusBoard, StatusServer, write_snapshot
from .transport import NET_WIRE_VERSION, FrameStream, parse_address

#: Coordinator re-exports resolved lazily (PEP 562): ``python -m
#: repro.net.coordinator`` first imports this package, and an eager import of
#: the submodule about to be run as ``__main__`` would trigger runpy's
#: double-execution warning.
_COORDINATOR_EXPORTS = (
    "Agreement",
    "LiveElection",
    "compare_outcomes",
    "cross_validate",
    "run_live_trial",
)


def __getattr__(name: str):
    if name in _COORDINATOR_EXPORTS:
        from . import coordinator

        return getattr(coordinator, name)
    raise AttributeError("module %r has no attribute %r" % (__name__, name))

__all__ = [
    "Agreement",
    "LiveElection",
    "compare_outcomes",
    "cross_validate",
    "run_live_trial",
    "LIVE_ALGORITHMS",
    "live_recipe",
    "StatusBoard",
    "StatusServer",
    "write_snapshot",
    "NET_WIRE_VERSION",
    "FrameStream",
    "parse_address",
]
