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

import math
import os
import time
import traceback
from dataclasses import dataclass
from functools import partial
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

from ..core.params import DEFAULT_PARAMETERS
from ..core.result import TrialOutcome
from ..obs.tracer import current_tracer
from .algorithms import ALGORITHMS, fault_aware_algorithms, get_algorithm
from .spec import GraphSpec, TrialSpec

__all__ = [
    "TrialPayload",
    "execute_trial",
    "batched_payloads",
    "work_units",
    "BATCH_TRIALS",
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


def _build_graph(spec: TrialSpec):
    """The first half of :func:`execute_trial`: capability checks and the
    graph build, under a ``trial.build_graph`` span when traced.

    Setup (graph build) and run timings are separate spans so a trace can
    show where a trial's wall time went; timestamps never feed back into
    seeds or fingerprints, so outcomes are bit-identical traced or not
    (tests/obs/test_trace_determinism.py).
    """
    _check_capabilities(spec)
    tracer = current_tracer()
    if not tracer.enabled:
        return spec.build_graph()
    with tracer.span("trial.build_graph", label=spec.describe()):
        return spec.build_graph()


def _checked(spec: TrialSpec, outcome) -> TrialOutcome:
    if not isinstance(outcome, TrialOutcome):
        raise TypeError(
            "algorithm %r returned %s instead of a TrialOutcome; registry "
            "runners must produce the unified envelope"
            % (spec.algorithm, type(outcome).__name__)
        )
    return outcome


def _run_on(spec: TrialSpec, graph) -> TrialOutcome:
    """The second half of :func:`execute_trial`: the algorithm run on the
    built ``graph``."""
    algorithm = get_algorithm(spec.algorithm)
    return _traced_run(spec, lambda: algorithm.run(graph, spec))


def _traced_run(spec: TrialSpec, run: Callable[[], TrialOutcome]) -> TrialOutcome:
    """``run()``'s checked outcome, under a ``trial.run`` span when traced."""
    tracer = current_tracer()
    if not tracer.enabled:
        return _checked(spec, run())
    with tracer.span(
        "trial.run", label=spec.describe(), algorithm=spec.algorithm, simulator=spec.simulator
    ):
        return _checked(spec, run())


def execute_trial(spec: TrialSpec) -> TrialOutcome:
    """Run one trial exactly as described (graph build + algorithm run).

    Deterministic in ``spec`` alone.  Every registered algorithm must return
    the unified :class:`~repro.core.result.TrialOutcome`; anything else is a
    registration bug surfaced here rather than at cache-serialisation time.
    """
    return _run_on(spec, _build_graph(spec))


def _captured(start: float, run: Callable[[], TrialOutcome]) -> TrialPayload:
    """``run()``'s outcome, or its failure as payload data, timed from ``start``."""
    try:
        outcome = run()
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


#: Same-shape vectorized trials per batch: enough to spread the phase loop's
#: per-call cost over many trials, few enough that a batch's tables stay
#: small and its trials report back in step with the rest.
BATCH_TRIALS = 8


def _configuration(spec: TrialSpec) -> tuple:
    """What :func:`work_units` places together: algorithm, graph family and
    arguments, algorithm arguments, parameters and simulator -- everything
    but the seeds and the fault plan."""
    graph = spec.graph
    if isinstance(graph, GraphSpec):
        shape = (graph.family, repr(graph.args), repr(graph.kwargs))
    else:
        shape = ("inline", graph.num_nodes)
    return (spec.algorithm, shape, repr(spec.algo_kwargs), spec.params, spec.simulator)


def work_units(specs: Sequence[TrialSpec], workers: int) -> List[List[int]]:
    """Cut ``specs`` into work units for a pool of ``workers``: lists of positions.

    Specs of one configuration (see :func:`_configuration`) are placed next
    to each other first -- configurations in order of first appearance,
    members in submission order -- so same-shape vectorized trials meet in
    one unit, where :func:`batched_payloads` runs them as one engine call.
    The order is then cut into units of at most
    ``min(BATCH_TRIALS, ceil(len(specs) / workers))`` specs, so every worker
    gets work.  Dispatch order never changes an outcome: the runner
    restores submission order.

    >>> from repro.exec.spec import GraphSpec, TrialSpec
    >>> a = TrialSpec(graph=GraphSpec("clique", (8,)), algorithm="flood_max")
    >>> b = TrialSpec(graph=GraphSpec("cycle", (8,)), algorithm="flood_max")
    >>> work_units([a, b, a, b, a], workers=2)
    [[0, 2, 4], [1, 3]]
    """
    groups: Dict[tuple, List[int]] = {}
    for position, spec in enumerate(specs):
        groups.setdefault(_configuration(spec), []).append(position)
    order = [position for group in groups.values() for position in group]
    size = max(1, min(BATCH_TRIALS, math.ceil(len(order) / workers)))
    return [order[start : start + size] for start in range(0, len(order), size)]


@dataclass
class _Waiting:
    """One trial waiting in a batch: its built graph and engine inputs, and
    what its graph build cost."""

    index: int
    spec: TrialSpec
    graph: object
    trial: object
    build_seconds: float


def batched_payloads(specs: Sequence[TrialSpec]) -> Iterator[Tuple[int, TrialPayload]]:
    """Execute ``specs`` in-process, running same-shape vectorized trials as
    batches; yields ``(index, payload)`` in completion order.

    A spec whose algorithm's ``batch`` adapter makes it a vectorized batch
    member waits -- graph built -- with the others of
    its :attr:`~repro.sim.vectorized.VectorizedTrial.shape` until
    :data:`BATCH_TRIALS` of them run as one engine call; the rest of a shape
    run together at the end.  Every other spec runs alone, at once.  Each
    member's outcome is the one it has alone; see :func:`_run_batch` for
    fallbacks, failures and timing.
    """
    waiting: Dict[tuple, List[_Waiting]] = {}
    for index, spec in enumerate(specs):
        start = time.perf_counter()
        algorithm = ALGORITHMS.get(spec.algorithm)
        if algorithm is None or algorithm.batch is None or spec.simulator != "vectorized":
            yield index, _captured(start, lambda: execute_trial(spec))
            continue
        try:
            graph = _build_graph(spec)
        except Exception:  # noqa: BLE001 -- the trial fails alone, as it would
            yield index, _captured(start, lambda: execute_trial(spec))
            continue
        try:
            trial = algorithm.batch(graph, spec)
        except Exception:  # noqa: BLE001 -- alone, it falls back or fails the same way
            yield index, _captured(start, lambda: _run_on(spec, graph))
            continue
        member = _Waiting(index, spec, graph, trial, time.perf_counter() - start)
        chunk = waiting.setdefault(trial.shape, [])
        chunk.append(member)
        if len(chunk) == BATCH_TRIALS:
            del waiting[trial.shape]
            yield from _run_batch(chunk)
    for chunk in waiting.values():
        yield from _run_batch(chunk)


def _run_batch(chunk: List[_Waiting]) -> Iterator[Tuple[int, TrialPayload]]:
    """One engine call for the chunk's trials.

    Every member that runs on the engine records the chunk's wall time
    (graph builds included) divided by the chunk's size as its
    ``elapsed_seconds``.  A member whose setup raised is settled by
    :meth:`~repro.exec.algorithms.Algorithm.settle` as it would be alone --
    :class:`~repro.sim.vectorized.VectorizedUnsupported` runs it once on the
    reference engine, anything else fails it -- and times only that; a
    fault inside the batched run sends every member to run alone.
    """
    from ..sim.vectorized import run_vectorized_batch

    start = time.perf_counter()
    tracer = current_tracer()
    lead = chunk[0].spec
    try:
        with tracer.span(
            "trial.run",
            label=lead.describe(),
            algorithm=lead.algorithm,
            simulator=lead.simulator,
            trials=len(chunk),
        ):
            results = run_vectorized_batch([member.trial for member in chunk])
    except Exception:  # noqa: BLE001 -- each member alone fails, or not, by itself
        results = [None] * len(chunk)
    share = (time.perf_counter() - start + sum(m.build_seconds for m in chunk)) / len(chunk)
    algorithm = ALGORITHMS[lead.algorithm]
    for member, result in zip(chunk, results):
        settle = partial(algorithm.settle, member.graph, member.spec, result)
        if result is None:
            yield member.index, _captured(
                time.perf_counter(), lambda: _run_on(member.spec, member.graph)
            )
        elif isinstance(result, BaseException):
            yield member.index, _captured(
                time.perf_counter(), lambda: _traced_run(member.spec, settle)
            )
        else:
            payload = _captured(start, lambda: _checked(member.spec, settle()))
            payload.elapsed_seconds = share
            yield member.index, payload
