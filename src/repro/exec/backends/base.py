"""The execution-backend protocol the batch runner orchestrates over.

An :class:`ExecutionBackend` owns *where* trials run -- in-process, in a
process pool, on a pool of persistent wire workers -- and nothing else.
The :class:`~repro.exec.runner.BatchRunner` stays the single deterministic
orchestrator: it validates specs, consults
the cache, derives nothing from dispatch order, and re-assembles results in
submission order; a backend only turns specs into
:class:`~repro.exec.execute.TrialPayload` envelopes.  Because every trial's
randomness is a function of its spec alone, *all* backends are bit-identical
for a fixed master seed (pinned registry-wide by
``tests/exec/test_algorithm_registry.py``).

The contract:

* :meth:`submit` dispatches one spec and returns a future-like object
  (``concurrent.futures.Future`` in every built-in backend) resolving to a
  :class:`TrialPayload`;
* :meth:`map` dispatches a batch and yields ``(index, payload)`` pairs in
  *completion* order -- the runner, not the backend, restores submission
  order;
* :meth:`start` / :meth:`close` bracket the backend's lifetime (idempotent;
  the backend is also a context manager).  A runner that instantiated the
  backend itself closes it after the batch; a backend instance passed in by
  the caller is left running so its pool can serve the next batch;
* :meth:`wire_safe` reports whether a spec can reach this backend's workers
  at all.  In-process and pickle transports take everything; the JSON-wire
  worker pool refuses specs that cannot cross (see
  :func:`repro.exec.wire.spec_wire_error`), and the runner transparently
  executes those in-process instead -- except on the fleet, which has no
  in-process fallback and raises :class:`ValueError`;
* :attr:`survives_worker_death` declares the recovery capability: ``True``
  when a dying worker process costs only its in-flight trial (captured as an
  ``on_error="capture"`` failure) while the batch keeps going.
"""

from __future__ import annotations

import abc
from concurrent.futures import Future, as_completed
from typing import Dict, Iterator, Sequence, Tuple

from ..execute import TrialPayload
from ..spec import TrialSpec

__all__ = ["ExecutionBackend", "TrialExecutionError"]


class TrialExecutionError(RuntimeError):
    """A trial failed behind a wire that cannot ship exception objects.

    Raised by ``on_error="raise"`` runs over the worker-pool backend,
    carrying the worker-side one-line error description; the
    in-process and process-pool backends re-raise the original exception
    instead.
    """


class ExecutionBackend(abc.ABC):
    """Where trials execute; see the module docstring for the contract."""

    #: Registry name of the backend (``ExecutionProfile(backend=<name>)``).
    name: str = "abstract"

    #: Whether a dying worker process costs only its in-flight trials
    #: (recaptured as failures) instead of the whole batch.
    survives_worker_death: bool = False

    # ------------------------------------------------------------- lifecycle
    def start(self) -> None:
        """Acquire worker resources (idempotent; called before dispatch)."""

    def close(self) -> None:
        """Release worker resources (idempotent)."""

    def __enter__(self) -> "ExecutionBackend":
        self.start()
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    # -------------------------------------------------------------- dispatch
    def wire_safe(self, spec: TrialSpec) -> bool:
        """Whether this backend's workers can execute ``spec`` at all."""
        return True

    @abc.abstractmethod
    def submit(self, spec: TrialSpec) -> "Future[TrialPayload]":
        """Dispatch one trial; the future resolves to its payload."""

    def map(self, specs: Sequence[TrialSpec]) -> Iterator[Tuple[int, TrialPayload]]:
        """Dispatch a batch, yielding ``(index, payload)`` in completion order."""
        futures: Dict["Future[TrialPayload]", int] = {
            self.submit(spec): index for index, spec in enumerate(specs)
        }
        for future in as_completed(futures):
            yield futures[future], future.result()

