"""Progress and summary reporting for batch campaigns.

Progress is delivered through the :mod:`repro.obs` sink API: the runner
emits ``batch.started`` / ``trial.finished`` / ``batch.finished`` trace
events, and anything that wants live progress subscribes a
:class:`~repro.obs.tracer.TraceSink` (``BatchRunner(sinks=...)`` or the
process-wide tracer).  :class:`ProgressSink` is the stock terminal renderer.
``BatchSummary.effective_parallelism`` is compute-seconds over wall-seconds
-- the measured speedup the pool actually delivered, which the scaling
benchmarks log.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from typing import Dict, List, Optional, TextIO

from ..obs.tracer import TraceSink

__all__ = ["BatchSummary", "ProgressSink"]


@dataclass
class BatchSummary:
    """What one ``BatchRunner.run`` call did, in aggregate."""

    trials: int
    #: Trials that ran to a successful outcome this call (cache hits and
    #: captured failures excluded) -- matches ``CampaignResult.executed``.
    executed: int
    cache_hits: int
    workers: int
    wall_seconds: float
    compute_seconds: float
    #: Trials that raised under ``on_error="capture"`` (always 0 otherwise).
    failures: int = 0

    @property
    def effective_parallelism(self) -> float:
        """Measured speedup: total trial compute time over wall-clock time."""
        if self.wall_seconds <= 0:
            return 1.0
        return self.compute_seconds / self.wall_seconds

    def __str__(self) -> str:
        failed = ", %d FAILED" % self.failures if self.failures else ""
        return (
            "%d trials (%d executed, %d cached%s) on %d worker(s) in %.2fs "
            "wall / %.2fs compute (x%.2f effective)"
            % (
                self.trials,
                self.executed,
                self.cache_hits,
                failed,
                self.workers,
                self.wall_seconds,
                self.compute_seconds,
                self.effective_parallelism,
            )
        )


class ProgressSink(TraceSink):
    """The stock terminal progress renderer, as a trace sink.

    Plain-text progress lines for long campaigns on a terminal, subscribed
    through ``BatchRunner(sinks=(ProgressSink(prefix="e1", every=4),))``.
    The batch runner's progress events carry the live objects the lines are
    rendered from (the :class:`TrialResult` under ``attrs["_result"]``, the
    :class:`BatchSummary` under ``attrs["_summary"]``) -- underscore-prefixed,
    so serialising sinks drop them.  Events of other layers (simulator
    rounds, worker heartbeats) are ignored.
    """

    def __init__(
        self,
        stream: Optional[TextIO] = None,
        every: int = 1,
        prefix: str = "exec",
        keep_lines: bool = False,
    ) -> None:
        if every < 1:
            raise ValueError("every must be at least 1")
        self.stream = stream if stream is not None else sys.stderr
        self.every = every
        self.prefix = prefix
        # Retention is opt-in: long campaigns emit one line per trial, and an
        # always-on transcript would grow for the sink's whole lifetime.
        self.keep_lines = keep_lines
        self.lines: List[str] = []

    def _emit(self, line: str) -> None:
        if self.keep_lines:
            self.lines.append(line)
        self.stream.write(line + "\n")
        self.stream.flush()

    def emit(self, record: Dict[str, object]) -> None:
        name = record.get("name")
        attrs = record.get("attrs", {})
        if name == "batch.started":
            self._emit(
                "[%s] %d trial(s) on %d worker(s)"
                % (self.prefix, attrs["total"], attrs["workers"])
            )
        elif name == "trial.finished" and "_result" in attrs:
            self._trial_finished(attrs["_result"], attrs["done"], attrs["total"])
        elif name == "batch.finished" and "_summary" in attrs:
            self._emit("[%s] %s" % (self.prefix, attrs["_summary"]))

    def _trial_finished(self, result, done: int, total: int) -> None:
        """One progress line per ``every`` trials; failures always print."""
        outcome = result.outcome
        if outcome is None:
            self._emit(
                "[%s] %d/%d %s: FAILED (%s)"
                % (self.prefix, done, total, result.spec.describe(), result.error)
            )
            return
        if done % self.every and done != total:
            return
        self._emit(
            "[%s] %d/%d %s: messages=%d rounds=%d leaders=%d%s"
            % (
                self.prefix,
                done,
                total,
                result.spec.describe(),
                outcome.messages,
                outcome.rounds,
                outcome.num_leaders,
                " (cached)" if result.from_cache else "",
            )
        )
