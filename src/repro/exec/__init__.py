"""repro.exec -- parallel experiment orchestration.

Every experiment in the paper's evaluation is a batch of independent trials
over (graph, algorithm, parameters, seed) tuples.  This subsystem gives that
shape first-class support:

* :class:`TrialSpec` / :class:`GraphSpec` / :class:`SweepSpec` -- plain-data
  descriptions of trials and sweeps with deterministic seed derivation;
* :class:`Algorithm` / :data:`ALGORITHMS` -- the capability-declaring
  algorithm registry: the paper's election, the four prior-work baselines
  and the three broadcast substrates all run through one
  ``(graph, spec) -> TrialOutcome`` contract, with declared
  ``fault_aware``/``needs_params``/``outcome_kind`` capabilities validated
  before execution;
* :class:`BatchRunner` -- the deterministic orchestrator over pluggable
  :class:`ExecutionBackend` implementations (``serial``, ``process``,
  ``workerpool`` -- see :mod:`repro.exec.backends`); every
  backend is bit-identical to serial for a fixed master seed, and the
  ``REPRO_EXEC_BACKEND`` environment override re-routes runs that did not
  pick a backend explicitly;
* :class:`ResultCache` -- an on-disk store keyed by a stable trial
  fingerprint (graph, parameters, seed, code version), making campaign
  re-runs free; two pluggable backends share one byte-identical entry
  format (``json`` -- one file per trial -- and ``sqlite`` -- a single
  WAL-mode database built for million-trial campaigns), selected per cache
  or through the ``REPRO_CACHE_BACKEND`` environment override;
* :class:`ProgressSink` -- live progress and a wall/compute-time summary,
  subscribed through the :mod:`repro.obs` trace-sink API;
* :class:`Shard` -- deterministic fingerprint-based partitioning, so
  ``run(specs, shard=Shard(k, m))`` executes slice ``k`` of ``m`` and the
  union of all slices is bit-identical to the unsharded run (the
  :mod:`repro.campaign` layer builds multi-machine campaigns on this).

Quickstart::

    from repro.exec import BatchRunner, GraphSpec, SweepSpec, TrialSpec

    sweep = SweepSpec(
        name="e1",
        configs=tuple(
            TrialSpec(graph=GraphSpec("expander", (n,), {"degree": 4}))
            for n in (64, 128, 256)
        ),
        trials=4,
        base_seed=11,
    )
    results = BatchRunner(workers=4).run_sweep(sweep)
    for per_config in sweep.group(results):
        print([r.outcome.messages for r in per_config])
"""

from .algorithms import (
    ALGORITHMS,
    Algorithm,
    algorithm_names,
    fault_aware_algorithms,
    get_algorithm,
    register_algorithm,
)
from .backends import (
    BACKEND_ENV_VAR,
    ExecutionBackend,
    ProcessPoolBackend,
    SerialBackend,
    TrialExecutionError,
    WorkerPoolBackend,
    add_backend_argument,
    backend_names,
    make_backend,
)
from .cache import (
    CACHE_BACKEND_ENV_VAR,
    CacheBackend,
    CachedTrial,
    CacheStats,
    JsonDirBackend,
    OutcomeSummary,
    ResultCache,
    SqliteBackend,
    SummaryAggregate,
    add_cache_backend_argument,
    cache_backend_names,
    make_cache_backend,
)
from .config import (
    SIMULATOR_ENV_VAR,
    TRACE_ENV_VAR,
    ExecutionProfile,
    add_execution_arguments,
)
from .execute import TrialPayload
from .fingerprint import canonical_trial_document, code_version_tag, trial_fingerprint
from .report import BatchSummary, ProgressSink
from .runner import BatchRunner, TrialResult, default_worker_count, execute_trial
from .serialize import outcome_from_dict, outcome_to_dict
from .shard import Shard, shard_index_for
from .spec import GraphSpec, SweepSpec, TrialSpec, build_graph

__all__ = [
    "ALGORITHMS",
    "Algorithm",
    "algorithm_names",
    "fault_aware_algorithms",
    "get_algorithm",
    "register_algorithm",
    "ResultCache",
    "CachedTrial",
    "CacheStats",
    "CacheBackend",
    "OutcomeSummary",
    "SummaryAggregate",
    "JsonDirBackend",
    "SqliteBackend",
    "CACHE_BACKEND_ENV_VAR",
    "cache_backend_names",
    "make_cache_backend",
    "add_cache_backend_argument",
    "trial_fingerprint",
    "canonical_trial_document",
    "code_version_tag",
    "BatchSummary",
    "ProgressSink",
    "BatchRunner",
    "ExecutionProfile",
    "add_execution_arguments",
    "SIMULATOR_ENV_VAR",
    "TRACE_ENV_VAR",
    "TrialResult",
    "TrialPayload",
    "execute_trial",
    "default_worker_count",
    "BACKEND_ENV_VAR",
    "ExecutionBackend",
    "TrialExecutionError",
    "SerialBackend",
    "ProcessPoolBackend",
    "WorkerPoolBackend",
    "add_backend_argument",
    "backend_names",
    "make_backend",
    "outcome_to_dict",
    "outcome_from_dict",
    "Shard",
    "shard_index_for",
    "GraphSpec",
    "SweepSpec",
    "TrialSpec",
    "build_graph",
]

