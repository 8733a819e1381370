"""The trial execution primitives every backend dispatches to.

:func:`execute_trial` is the single entry point that turns a
:class:`~repro.exec.spec.TrialSpec` into a
:class:`~repro.core.result.TrialOutcome`; it is module-level and
deterministic in the spec alone, so any execution backend -- in-process,
local wire worker, fleet host -- produces the same outcome for the same
spec.  :class:`TrialPayload` is the uniform envelope a backend hands back
per trial: outcome or one-line error, plus timing, plus the exception object
(the original in-process, rebuilt from its type name behind the wire) so
``on_error="raise"`` callers see the real exception type.
"""

from __future__ import annotations

import os
import time
import traceback
from dataclasses import dataclass
from typing import Optional

from ..core.params import DEFAULT_PARAMETERS
from ..core.result import TrialOutcome
from ..obs.tracer import current_tracer
from .algorithms import fault_aware_algorithms, get_algorithm
from .spec import TrialSpec

__all__ = [
    "TrialPayload",
    "execute_trial",
    "guarded_payload",
    "format_error",
    "default_worker_count",
]


def default_worker_count() -> int:
    """A sensible worker count for the current machine (>= 1)."""
    return max(1, os.cpu_count() or 1)


def format_error(exc: BaseException) -> str:
    """One-line rendering of an exception, identical on every transport."""
    return traceback.format_exception_only(type(exc), exc)[-1].strip()


@dataclass
class TrialPayload:
    """One backend-executed trial: outcome or captured failure, plus timing.

    ``error`` is ``None`` for successful trials; when set, ``outcome`` is
    ``None`` and ``error`` holds the failure's one-line description (the only
    form that crosses a JSON wire).  ``exception`` additionally carries an
    exception object so ``on_error="raise"`` re-raises the real type: the
    original one in-process, one rebuilt from the shipped type name behind a
    wire (see :func:`repro.exec.wire.payload_from_dict`), ``None`` when the
    type cannot be rebuilt.
    """

    outcome: Optional[TrialOutcome]
    error: Optional[str]
    elapsed_seconds: float
    exception: Optional[BaseException] = None

    @property
    def failed(self) -> bool:
        """Whether the trial raised instead of producing an outcome."""
        return self.error is not None


def _check_capabilities(spec: TrialSpec) -> None:
    """Reject specs whose inputs the named algorithm declares it would ignore.

    All rejections guard the cache: a silently ignored fault plan, parameter
    set or simulator choice still participates in the trial fingerprint, so
    running the trial would store mislabelled results under keys that look
    meaningfully distinct.
    """
    algorithm = get_algorithm(spec.algorithm)
    if spec.effective_fault_plan is not None and not algorithm.fault_aware:
        raise ValueError(
            "algorithm %r is not fault-aware; fault plans are supported by: %s"
            % (spec.algorithm, ", ".join(sorted(fault_aware_algorithms())))
        )
    if not algorithm.needs_params and spec.params != DEFAULT_PARAMETERS:
        raise ValueError(
            "algorithm %r ignores election parameters, but the spec sets "
            "non-default params; drop them (they would fingerprint identical "
            "results under distinct cache keys)" % spec.algorithm
        )
    if spec.simulator not in algorithm.simulators:
        raise ValueError(
            "algorithm %r does not support simulator %r; it declares: %s"
            % (spec.algorithm, spec.simulator, ", ".join(algorithm.simulators))
        )


def execute_trial(spec: TrialSpec) -> TrialOutcome:
    """Run one trial exactly as described (graph build + algorithm run).

    Deterministic in ``spec`` alone.  Every registered algorithm must return
    the unified :class:`~repro.core.result.TrialOutcome`; anything else is a
    registration bug surfaced here rather than at cache-serialisation time.
    """
    _check_capabilities(spec)
    tracer = current_tracer()
    if tracer.enabled:
        # Setup (graph build) and run timings are separate spans so a trace
        # can show where a trial's wall time went; timestamps never feed back
        # into seeds or fingerprints, so outcomes are bit-identical traced or
        # not (tests/obs/test_trace_determinism.py).
        label = spec.describe()
        with tracer.span("trial.build_graph", label=label):
            graph = spec.build_graph()
        algorithm = get_algorithm(spec.algorithm)
        with tracer.span(
            "trial.run", label=label, algorithm=spec.algorithm, simulator=spec.simulator
        ):
            outcome = algorithm.run(graph, spec)
    else:
        graph = spec.build_graph()
        algorithm = get_algorithm(spec.algorithm)
        outcome = algorithm.run(graph, spec)
    if not isinstance(outcome, TrialOutcome):
        raise TypeError(
            "algorithm %r returned %s instead of a TrialOutcome; registry "
            "runners must produce the unified envelope"
            % (spec.algorithm, type(outcome).__name__)
        )
    return outcome


def guarded_payload(spec: TrialSpec) -> TrialPayload:
    """Execute one trial in-process; failures come back as payload data."""
    start = time.perf_counter()
    try:
        outcome = execute_trial(spec)
    except Exception as exc:  # noqa: BLE001 -- captured by design
        return TrialPayload(
            outcome=None,
            error=format_error(exc),
            elapsed_seconds=time.perf_counter() - start,
            exception=exc,
        )
    return TrialPayload(
        outcome=outcome,
        error=None,
        elapsed_seconds=time.perf_counter() - start,
    )

