"""The batch orchestrator: run many independent trials on any backend.

``BatchRunner`` executes :class:`~repro.exec.spec.TrialSpec` lists through a
pluggable :class:`~repro.exec.backends.ExecutionBackend` -- in-process
(``serial``) or persistent wire workers (``workerpool``).  The runner itself
stays the single deterministic orchestrator: every bit of randomness
a trial consumes is derived from fields of its spec -- never from worker
identity, dispatch order or shared state -- and results always come back in
submission order, so **all backends are bit-identical** for a fixed master
seed (pinned registry-wide by ``tests/exec/test_algorithm_registry.py``).

The backend is chosen per run, strongest selector first: an
:class:`ExecutionBackend` instance (caller owns its lifecycle), a registry
name string, the ``REPRO_EXEC_BACKEND`` environment override, and finally
the workers-derived default -- serial for ``workers=1`` (or single-trial
batches), the worker pool otherwise.  That chain is the
:class:`~repro.exec.config.ExecutionProfile`'s precedence rule (explicit >
CLI > env > default): ``BatchRunner(profile=...)`` is the configuration
surface.  Trials that cannot reach the worker pool's fresh worker
interpreters (locally registered algorithms,
``keep_simulation`` transcripts, non-JSON kwargs) transparently execute
in-process instead: the backend never changes *what* a run returns, only
*where* trials execute.

An optional :class:`~repro.exec.cache.ResultCache` is consulted before
dispatch and filled from the parent process after execution (a single
writer, though entry writes are atomic anyway), making re-runs of large
campaigns free.

Two extensions serve multi-machine campaigns (see :mod:`repro.campaign`):
``run(specs, shard=Shard(k, m))`` executes only the trials whose fingerprint
assigns them to shard ``k`` of ``m``, and ``on_error="capture"`` turns a
failing trial into a :class:`TrialResult` with ``error`` set instead of
aborting the whole batch -- the campaign runner's bounded-retry loop is
built on it.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Iterable, List, Optional, Sequence, Tuple

from ..core.result import TrialOutcome
from ..graphs.generators import get_family
from ..obs.tracer import Tracer, TraceSink, current_tracer
from .algorithms import get_algorithm
from .backends import (
    ExecutionBackend,
    TrialExecutionError,
    make_backend,
)
from .cache import ResultCache
from .config import ExecutionProfile
from .execute import (
    TrialPayload,
    _check_capabilities,
    default_worker_count,
    execute_trial,
    guarded_payload,
)
from .fingerprint import release_trial_document, trial_fingerprint
from .report import BatchSummary
from .shard import Shard
from .spec import GraphSpec, SweepSpec, TrialSpec

__all__ = ["BatchRunner", "TrialResult", "execute_trial", "default_worker_count"]


@dataclass
class TrialResult:
    """One executed (or cache-served, or failed-and-captured) trial.

    ``fingerprint`` is only computed when the runner has a cache configured
    or the batch is sharded (the inline-graph digest is O(m)); it is the
    empty string otherwise.  ``error`` is ``None`` for successful trials; a
    runner in ``on_error="capture"`` mode sets it to the failure's
    one-line description and leaves ``outcome`` as ``None``.
    """

    spec: TrialSpec
    fingerprint: str
    outcome: Optional[TrialOutcome]
    elapsed_seconds: float
    from_cache: bool
    error: Optional[str] = None

    @property
    def failed(self) -> bool:
        """Whether this trial raised instead of producing an outcome."""
        return self.error is not None


class BatchRunner:
    """Deterministic executor for independent trials over a chosen backend."""

    def __init__(
        self,
        workers: Optional[int] = None,
        cache: Optional[ResultCache] = None,
        on_error: str = "raise",
        sinks: Sequence[TraceSink] = (),
        profile: Optional[ExecutionProfile] = None,
    ) -> None:
        if on_error not in ("raise", "capture"):
            raise ValueError("on_error must be 'raise' or 'capture', got %r" % on_error)
        if profile is not None and not isinstance(profile, ExecutionProfile):
            raise TypeError(
                "profile must be an ExecutionProfile or None; got %r"
                % type(profile).__name__
            )
        self.profile = profile if profile is not None else ExecutionProfile()
        workers = workers if workers is not None else self.profile.effective_workers(default=1)
        if workers < 1:
            raise ValueError("workers must be at least 1, got %d" % workers)
        self.sinks: Tuple[TraceSink, ...] = tuple(sinks)
        for sink in self.sinks:
            if not isinstance(sink, TraceSink):
                raise TypeError(
                    "sinks must be TraceSink instances; got %r" % type(sink).__name__
                )
        self.workers = workers
        self.cache = cache
        self.on_error = on_error
        self.last_summary: Optional[BatchSummary] = None
        #: Registry name of the backend the most recent ``run`` dispatched to.
        self.last_backend_name: Optional[str] = None

    # ------------------------------------------------------------ validation
    def _validate_spec(self, spec: TrialSpec) -> None:
        """Fail fast on specs that would execute wrongly or non-reproducibly."""
        get_algorithm(spec.algorithm)  # unknown algorithm name
        _check_capabilities(spec)
        if isinstance(spec.graph, GraphSpec):
            family = get_family(spec.graph.family)  # unknown family name
            if family.supports_seed and spec.graph.seed is None:
                raise ValueError(
                    "randomised graph family %r needs an explicit seed: an unseeded "
                    "build differs per execution, which would break the runner's "
                    "determinism and poison the cache (SweepSpec.expand derives "
                    "graph seeds automatically)" % spec.graph.family
                )
        if self.cache is not None and spec.algo_kwargs.get("keep_simulation"):
            raise ValueError(
                "keep_simulation cannot be combined with a result cache: the raw "
                "simulation transcript is not cached, so hits would silently "
                "return outcomes without it"
            )

    # ------------------------------------------------------------------- api
    def run(
        self,
        specs: Iterable[TrialSpec],
        shard: Optional[Shard] = None,
        fingerprints: Optional[List[str]] = None,
    ) -> List[TrialResult]:
        """Execute every spec and return results in submission order.

        With ``shard=Shard(k, m)`` only the trials whose fingerprint assigns
        them to shard ``k`` of ``m`` are executed; the returned list covers
        just those trials (still in submission order).  Because assignment is
        by fingerprint, the union of the ``m`` shard runs equals the
        unsharded run trial for trial, and all shards fill compatible cache
        entries.

        ``fingerprints`` may carry the specs' precomputed trial fingerprints
        (one per spec, in order) to spare recomputation -- the inline-graph
        digest is O(m), and campaign runners already hold them.
        """
        spec_list = list(specs)
        if self.profile.effective_simulator() is not None:
            # The profile's run-wide engine is applied before validation and
            # fingerprinting (the simulator participates in the trial
            # fingerprint).  Callers passing precomputed ``fingerprints``
            # must pass profile-applied specs -- the campaign runner does.
            spec_list = [self.profile.apply_to_spec(spec) for spec in spec_list]
        for spec in spec_list:
            self._validate_spec(spec)

        if fingerprints is not None and len(fingerprints) != len(spec_list):
            raise ValueError(
                "expected %d fingerprints, got %d" % (len(spec_list), len(fingerprints))
            )
        if fingerprints is None:
            # The fingerprint is only worth computing when something keys off
            # it: a cache to consult or a shard assignment to decide.
            need_fingerprint = self.cache is not None or shard is not None
            fingerprints = [
                trial_fingerprint(spec) if need_fingerprint else "" for spec in spec_list
            ]
        if shard is not None:
            keep = [i for i, fp in enumerate(fingerprints) if shard.owns(fp)]
            spec_list = [spec_list[i] for i in keep]
            fingerprints = [fingerprints[i] for i in keep]

        total = len(spec_list)
        tracer = current_tracer().with_sinks(self.sinks)
        traced = tracer.enabled
        tracer.event("batch.started", total=total, workers=self.workers)
        start = time.perf_counter()

        results: List[Optional[TrialResult]] = [None] * total
        done = 0
        cache_hits = 0
        failures = 0
        compute_seconds = 0.0

        # Serve cache hits first, collect the misses for execution.  The
        # lookup is one batched get_many call (a handful of indexed queries
        # on the SQLite backend instead of one per trial); hit/miss
        # accounting and the per-trial trace events are unchanged.
        cached_list: List[Optional[object]] = (
            self.cache.get_many(fingerprints) if self.cache is not None else []
        )
        pending: List[Tuple[int, str, TrialSpec]] = []
        for index, (spec, fingerprint) in enumerate(zip(spec_list, fingerprints)):
            cached = cached_list[index] if self.cache is not None else None
            if traced and self.cache is not None:
                tracer.event(
                    "cache.hit" if cached is not None else "cache.miss",
                    fingerprint=fingerprint,
                )
            if cached is not None:
                release_trial_document(spec)  # a hit never stores it
                results[index] = TrialResult(
                    spec=spec,
                    fingerprint=fingerprint,
                    outcome=cached.outcome,
                    elapsed_seconds=0.0,
                    from_cache=True,
                )
                done += 1
                cache_hits += 1
                self._trial_finished(tracer, results[index], done, total)
            else:
                pending.append((index, fingerprint, spec))

        if pending:
            for index, result in self._execute_pending(pending):
                results[index] = result
                compute_seconds += result.elapsed_seconds
                if result.failed:
                    failures += 1
                elif self.cache is not None:
                    with tracer.span("cache.put", fingerprint=result.fingerprint):
                        self.cache.put(
                            result.fingerprint,
                            result.spec,
                            result.outcome,
                            result.elapsed_seconds,
                        )
                done += 1
                self._trial_finished(tracer, result, done, total)

        summary = BatchSummary(
            trials=total,
            executed=len(pending) - failures,
            cache_hits=cache_hits,
            workers=self.workers,
            wall_seconds=time.perf_counter() - start,
            compute_seconds=compute_seconds,
            failures=failures,
        )
        self.last_summary = summary
        tracer.event(
            "batch.finished",
            trials=total,
            executed=summary.executed,
            cache_hits=cache_hits,
            failures=failures,
            wall_s=summary.wall_seconds,
            compute_s=summary.compute_seconds,
            _summary=summary,
        )
        return [result for result in results if result is not None]

    def _trial_finished(
        self, tracer: Tracer, result: TrialResult, done: int, total: int
    ) -> None:
        """Emit one trial's completion event (free when nothing subscribes)."""
        if not tracer.enabled:
            return
        outcome = result.outcome
        metrics = {"cached": int(result.from_cache), "failed": int(result.failed)}
        if outcome is not None:
            metrics.update(
                messages=outcome.messages,
                message_units=outcome.message_units,
                rounds=outcome.rounds,
            )
        tracer.event(
            "trial.finished",
            done=done,
            total=total,
            label=result.spec.describe(),
            algorithm=result.spec.algorithm,
            cached=result.from_cache,
            failed=result.failed,
            error=result.error,
            elapsed_s=result.elapsed_seconds,
            metrics=metrics,
            _result=result,
        )

    def run_sweep(self, sweep: SweepSpec, shard: Optional[Shard] = None) -> List[TrialResult]:
        """Expand a sweep and run it (flat, ``expand``-ordered results)."""
        return self.run(sweep.expand(), shard=shard)

    # ------------------------------------------------------------- execution
    def _resolve_backend(self, pending_count: int) -> Tuple[ExecutionBackend, bool]:
        """The backend this run dispatches to, plus whether this run owns it.

        Selection order (the profile's precedence rule): explicit instance
        (caller-owned, left running for the next batch), explicit name, the
        ``REPRO_EXEC_BACKEND`` environment override, then the
        workers-derived default -- in-process for ``workers=1`` and
        single-trial batches, the worker pool otherwise.
        """
        choice = self.profile.effective_backend()
        if isinstance(choice, ExecutionBackend):
            return choice, False
        if choice is None:
            choice = "serial" if self.workers == 1 or pending_count == 1 else "workerpool"
        return make_backend(choice, workers=min(self.workers, pending_count)), True

    def _execute_pending(
        self, pending: List[Tuple[int, str, TrialSpec]]
    ) -> Iterable[Tuple[int, TrialResult]]:
        backend, owned = self._resolve_backend(len(pending))
        self.last_backend_name = backend.name
        wired, inline = [], []
        for entry in pending:
            (wired if backend.wire_safe(entry[2]) else inline).append(entry)
        try:
            if owned:
                backend.start()
            if wired:
                specs = [spec for _, _, spec in wired]
                for position, payload in backend.map(specs):
                    index, fingerprint, spec = wired[position]
                    yield index, self._to_result(spec, fingerprint, payload)
            # Trials the backend's workers cannot reach (see the module
            # docstring) execute in the orchestrating process instead;
            # outcomes are identical wherever a trial runs.
            for index, fingerprint, spec in inline:
                yield index, self._to_result(spec, fingerprint, guarded_payload(spec))
        finally:
            if owned:
                backend.close()

    def _to_result(self, spec: TrialSpec, fingerprint: str, payload: TrialPayload) -> TrialResult:
        """Wrap a backend payload into a TrialResult (raise mode re-raises)."""
        if payload.error is not None and self.on_error != "capture":
            if payload.exception is not None:
                raise payload.exception
            raise TrialExecutionError(payload.error)
        return TrialResult(
            spec=spec,
            fingerprint=fingerprint,
            outcome=payload.outcome,
            elapsed_seconds=payload.elapsed_seconds,
            from_cache=False,
            error=payload.error,
        )
