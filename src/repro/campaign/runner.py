"""Execute a campaign: resume from cache, retry failures, record a manifest.

``CampaignRunner`` turns a :class:`~repro.campaign.spec.CampaignSpec` into
trial executions through the :class:`~repro.exec.runner.BatchRunner`, adding
the three campaign-level behaviours the executor itself stays agnostic of:

* **resume** -- every trial already present in the (required) result cache is
  served from disk, so re-running an interrupted campaign only pays for the
  trials that never finished; a completed campaign re-runs with zero
  executions;
* **bounded retry** -- a trial that raises is re-run up to
  ``spec.retry.max_attempts`` times in total (failures are captured, never
  abort the batch), and only then recorded as failed;
* **sharding** -- with ``shard=Shard(k, m)`` only the trials whose
  fingerprint assigns them to shard ``k`` run here; because assignment is by
  fingerprint, ``m`` machines running the ``m`` shards into their own caches
  produce caches whose union is bit-identical to a single-machine run.

Every trial's fate is recorded in a :class:`~repro.campaign.manifest.CampaignManifest`
(written to ``<directory>/manifest.json`` when a directory is given), and the
outcome data itself lives in the cache -- which is what the cache-backed
reporting layer (:mod:`repro.campaign.report`) renders without re-running
anything.
"""

from __future__ import annotations

import logging
import os
from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Sequence, Union

from ..exec.cache import ResultCache
from ..exec.config import ExecutionProfile
from ..exec.runner import BatchRunner, TrialResult, resolve_backend, runner_options
from ..exec.shard import Shard
from ..obs.report import campaign_telemetry
from ..obs.tracer import TraceSink, current_tracer, use_tracer
from .manifest import CampaignManifest, TrialEntry
from .spec import CampaignSpec, expand_trials

__all__ = ["CampaignRunner", "CampaignResult", "MANIFEST_NAME"]

logger = logging.getLogger(__name__)

#: File name of the manifest inside a campaign directory.
MANIFEST_NAME = "manifest.json"


@dataclass
class CampaignResult:
    """What one campaign run (one shard of it, possibly) did.

    ``results`` maps sweep name to ``{index in sweep expansion: TrialResult}``
    for every trial assigned to this run's shard; trials of other shards are
    absent here but present in the manifest with status ``other_shard``.
    """

    spec: CampaignSpec
    shard: Optional[Shard]
    manifest: CampaignManifest
    results: Dict[str, Dict[int, TrialResult]] = field(default_factory=dict)

    # ------------------------------------------------------------- accessors
    @property
    def assigned(self) -> int:
        """Trials this run was responsible for (cache hits included)."""
        return sum(len(per_sweep) for per_sweep in self.results.values())

    @property
    def cache_hits(self) -> int:
        """Assigned trials served from the cache without executing."""
        return self._count(lambda r: r.from_cache)

    @property
    def executed(self) -> int:
        """Trials that actually ran (successfully) during this call."""
        return self._count(lambda r: not r.from_cache and not r.failed)

    @property
    def failed(self) -> int:
        """Assigned trials that exhausted every attempt without an outcome."""
        return self._count(lambda r: r.failed)

    def _count(self, predicate) -> int:
        return sum(
            1
            for per_sweep in self.results.values()
            for result in per_sweep.values()
            if predicate(result)
        )

    def outcomes_for(self, sweep_name: str) -> List[Optional[object]]:
        """Flat expansion-ordered outcome list for one sweep.

        Entries are ``None`` for trials that failed or belong to another
        shard, so the list always has the sweep's full ``num_trials`` length
        and lines up with ``SweepSpec.group``.
        """
        sweep = self.spec.sweep(sweep_name)
        per_sweep = self.results.get(sweep_name, {})
        return [
            per_sweep[i].outcome if i in per_sweep and not per_sweep[i].failed else None
            for i in range(sweep.num_trials)
        ]

    def describe(self) -> str:
        """One-line human summary of what this run did."""
        counts = self.manifest.counts()
        where = " %s" % self.shard.describe() if self.shard is not None else ""
        return (
            "campaign %r%s: %d trial(s) -- %d cached, %d executed, %d failed, "
            "%d on other shards"
            % (
                self.spec.name,
                where,
                self.spec.num_trials,
                counts["cached"],
                counts["executed"],
                counts["failed"],
                counts["other_shard"],
            )
        )


class CampaignRunner:
    """Resumable, retrying, shard-aware executor for campaign specs.

    Execution choices (backend, simulator engine, tracing, worker count)
    arrive through one :class:`~repro.exec.config.ExecutionProfile` whose
    precedence rule is explicit > CLI > env > default.  Campaign semantics
    are backend-independent: results, caches, manifests and reports are
    bit-identical whichever backend ran the trials.
    """

    def __init__(
        self,
        spec: CampaignSpec,
        cache: ResultCache,
        workers: Optional[int] = None,
        shard: Optional[Shard] = None,
        directory: Optional[Union[str, os.PathLike]] = None,
        sinks: Sequence[TraceSink] = (),
        profile: Optional[ExecutionProfile] = None,
    ) -> None:
        if not isinstance(cache, ResultCache):
            raise TypeError(
                "a campaign needs a ResultCache (resume and reporting are "
                "cache-backed); got %r" % type(cache).__name__
            )
        self.spec = spec
        self.cache = cache
        self.profile, self.workers, self.sinks = runner_options(profile, workers, sinks)
        self.shard = shard
        self.directory = os.fspath(directory) if directory is not None else None

    @property
    def manifest_path(self) -> Optional[str]:
        """Where the manifest lands (``None`` when no directory was given)."""
        if self.directory is None:
            return None
        return os.path.join(self.directory, MANIFEST_NAME)

    # ------------------------------------------------------------------- run
    def run(self) -> CampaignResult:
        """Execute (or resume) the campaign's shard and write the manifest."""
        if self.profile.effective_trace() and self.directory is not None:
            with campaign_telemetry(self.directory):
                return self._run()
        return self._run()

    def _run(self) -> CampaignResult:
        # The canonical expansion's fingerprints are reused for the campaign
        # fingerprint, shard assignment, cache lookups (via the batch
        # runner) and the manifest.
        trials = list(expand_trials(self.spec, self.profile))
        campaign_fingerprint = self.spec.fingerprint(
            [fingerprint for _, _, _, fingerprint in trials]
        )
        self._warn_on_foreign_manifest(campaign_fingerprint)

        if self.shard is None:
            assigned = list(range(len(trials)))
        else:
            assigned = [
                i for i, (_, _, _, fp) in enumerate(trials) if self.shard.owns(fp)
            ]
        assigned_set = set(assigned)

        # The backend is resolved once around the whole attempt loop: retry
        # rounds then reuse one worker pool instead of paying its startup per
        # round.  A backend *instance* stays caller-owned, exactly as in
        # BatchRunner.
        backend, backend_owned = resolve_backend(self.profile, self.workers, len(assigned))

        # Campaign-level sinks are installed as the current tracer around the
        # attempt loop, so one subscription observes every nested layer: the
        # batch runner's progress events, per-trial spans, simulator rounds
        # and (for the worker-pool backend) worker heartbeats.
        tracer = current_tracer().with_sinks(self.sinks)
        traced = tracer.enabled

        # The nested batch runner inherits the profile with the backend
        # already resolved (so the env override is not consulted twice) and
        # the simulator cleared (already applied to the expanded specs).
        batch = BatchRunner(
            workers=self.workers,
            cache=self.cache,
            on_error="capture",
            profile=replace(self.profile, backend=backend, simulator=None),
        )
        results: Dict[int, TrialResult] = {}
        attempts: Dict[int, int] = {}

        try:
            with use_tracer(tracer), tracer.span(
                "campaign.run",
                campaign=self.spec.name,
                shard=self.shard.describe() if self.shard is not None else None,
                trials=len(trials),
                assigned=len(assigned),
            ):
                pending = assigned
                for attempt in range(1, self.spec.retry.max_attempts + 1):
                    if not pending:
                        break
                    if traced:
                        tracer.event(
                            "campaign.attempt",
                            campaign=self.spec.name,
                            attempt=attempt,
                            max_attempts=self.spec.retry.max_attempts,
                            pending=len(pending),
                        )
                    batch_results = batch.run(
                        [trials[i][2] for i in pending],
                        fingerprints=[trials[i][3] for i in pending],
                    )
                    still_failing: List[int] = []
                    for position, result in zip(pending, batch_results):
                        results[position] = result
                        if not result.from_cache:
                            attempts[position] = attempt
                        if result.failed:
                            still_failing.append(position)
                    if still_failing and attempt < self.spec.retry.max_attempts:
                        logger.warning(
                            "campaign %r: %d trial(s) failed on attempt %d/%d; retrying",
                            self.spec.name,
                            len(still_failing),
                            attempt,
                            self.spec.retry.max_attempts,
                        )
                        if traced:
                            tracer.event(
                                "campaign.retry",
                                campaign=self.spec.name,
                                attempt=attempt,
                                failures=len(still_failing),
                            )
                    pending = still_failing
        finally:
            if backend_owned:
                backend.close()

        manifest = CampaignManifest(
            campaign=self.spec.name,
            fingerprint=campaign_fingerprint,
            shard=self.shard.describe() if self.shard is not None else None,
        )
        per_sweep: Dict[str, Dict[int, TrialResult]] = {}
        for position, (sweep_name, index, spec, fingerprint) in enumerate(trials):
            if position not in assigned_set:
                manifest.record(
                    TrialEntry(
                        sweep=sweep_name,
                        index=index,
                        fingerprint=fingerprint,
                        label=spec.describe(),
                        status="other_shard",
                    )
                )
                continue
            result = results[position]
            per_sweep.setdefault(sweep_name, {})[index] = result
            if result.failed:
                status = "failed"
            elif result.from_cache:
                status = "cached"
            else:
                status = "executed"
            manifest.record(
                TrialEntry(
                    sweep=sweep_name,
                    index=index,
                    fingerprint=fingerprint,
                    label=spec.describe(),
                    status=status,
                    attempts=attempts.get(position, 0),
                    elapsed_seconds=result.elapsed_seconds,
                    error=result.error,
                )
            )

        if traced:
            for sweep_name, per_index in per_sweep.items():
                tally = {"cached": 0, "executed": 0, "failed": 0}
                for result in per_index.values():
                    if result.failed:
                        tally["failed"] += 1
                    elif result.from_cache:
                        tally["cached"] += 1
                    else:
                        tally["executed"] += 1
                tracer.event(
                    "campaign.sweep",
                    campaign=self.spec.name,
                    sweep=sweep_name,
                    assigned=len(per_index),
                    metrics=tally,
                )
        if self.manifest_path is not None:
            manifest.save(self.manifest_path)
            if traced:
                tracer.event(
                    "campaign.manifest_written",
                    campaign=self.spec.name,
                    path=self.manifest_path,
                )
        return CampaignResult(
            spec=self.spec, shard=self.shard, manifest=manifest, results=per_sweep
        )

    # ------------------------------------------------------------- internals
    def _warn_on_foreign_manifest(self, campaign_fingerprint: str) -> None:
        """Flag resuming over a manifest from a different campaign or code."""
        path = self.manifest_path
        if path is None or not os.path.exists(path):
            return
        try:
            previous = CampaignManifest.load(path)
        except (OSError, ValueError, KeyError, TypeError):
            logger.warning("ignoring unreadable campaign manifest at %s", path)
            return
        if previous.fingerprint != campaign_fingerprint:
            logger.warning(
                "manifest at %s records campaign %r with a different fingerprint "
                "(name, retry policy, sweeps or code version changed); it will be "
                "overwritten.  Trials whose own specs and code are unchanged are "
                "still served from the result cache",
                path,
                previous.campaign,
            )
