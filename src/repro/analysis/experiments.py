"""Experiment harness: repeated trials, size sweeps and plain-text tables.

The paper's evaluation consists of asymptotic claims rather than numeric
tables, so each experiment here produces the table the paper *implies*: one
row per graph size (or per budget, per algorithm, ...) with the measured cost
and the corresponding theoretical reference curve.  ``format_table`` renders
the rows for the examples and for ``EXPERIMENTS.md``.

Trial execution goes through :mod:`repro.exec`: every experiment is expressed
as a :class:`~repro.exec.spec.SweepSpec` and handed to a
:class:`~repro.exec.runner.BatchRunner`, so callers get process parallelism
(``workers``) and result caching (``cache``) for free.  Seed derivation is
unchanged from the original serial harness, which means results are
bit-identical to earlier versions and across worker counts.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from ..core.params import DEFAULT_PARAMETERS, ElectionParameters
from ..core.result import (
    CLASSIFICATIONS,
    KIND_CLASSIFICATIONS,
    ElectionOutcome,
    TrialOutcome,
)
from ..core.runner import run_leader_election
from ..exec.algorithms import get_algorithm
from ..exec.cache import OutcomeSummary, ResultCache, SummaryAggregate
from ..exec.runner import BatchRunner
from ..exec.spec import SweepSpec, TrialSpec
from ..faults.plan import CrashFaults, FaultPlan, MessageFaults
from ..graphs.mixing import cached_mixing_time, mixing_time
from ..graphs.topology import Graph
from ..obs.tracer import TraceSink
from ..sim.rng import derive_seed
from .stats import success_rate, summarize

__all__ = [
    "TrialSet",
    "run_election_trials",
    "ScalingRecord",
    "scaling_sweep",
    "RobustnessRecord",
    "robustness_configs",
    "robustness_sweep",
    "algorithm_robustness_configs",
    "sweep_summary",
    "summarize_config_groups",
    "format_table",
    "records_to_columns",
]


@dataclass
class TrialSet:
    """A collection of election outcomes for one configuration."""

    label: str
    outcomes: List[ElectionOutcome] = field(default_factory=list)
    elapsed_seconds: float = 0.0

    @property
    def num_trials(self) -> int:
        return len(self.outcomes)

    @property
    def success_rate(self) -> float:
        """Fraction of trials that elected exactly one leader."""
        return success_rate([outcome.success for outcome in self.outcomes])

    @property
    def mean_messages(self) -> float:
        return summarize([outcome.messages for outcome in self.outcomes]).mean

    @property
    def mean_message_units(self) -> float:
        return summarize([outcome.message_units for outcome in self.outcomes]).mean

    @property
    def mean_rounds(self) -> float:
        return summarize([outcome.rounds for outcome in self.outcomes]).mean

    @property
    def mean_contenders(self) -> float:
        return summarize([outcome.num_contenders for outcome in self.outcomes]).mean

    def as_record(self) -> Dict[str, object]:
        """Aggregate record for table output."""
        return {
            "label": self.label,
            "trials": self.num_trials,
            "success_rate": round(self.success_rate, 3),
            "messages": round(self.mean_messages, 1),
            "message_units": round(self.mean_message_units, 1),
            "rounds": round(self.mean_rounds, 1),
            "contenders": round(self.mean_contenders, 1),
        }


def run_election_trials(
    graph: Graph,
    num_trials: int,
    params: ElectionParameters = DEFAULT_PARAMETERS,
    base_seed: int = 0,
    known_n: int = -1,
    label: Optional[str] = None,
    runner: Callable[..., ElectionOutcome] = run_leader_election,
    workers: int = 1,
    cache: Optional[ResultCache] = None,
) -> TrialSet:
    """Run ``num_trials`` independent elections on ``graph`` with derived seeds.

    Trials execute through :class:`~repro.exec.runner.BatchRunner`, so
    ``workers > 1`` runs them in parallel and ``cache`` persists results.  A
    custom ``runner`` callable bypasses the executor (callables cannot be
    fingerprinted or shipped to worker processes) and runs serially.
    """
    if num_trials < 1:
        raise ValueError("num_trials must be at least 1")
    trial_set = TrialSet(label=label or "n=%d" % graph.num_nodes)
    start = time.perf_counter()
    if runner is not run_leader_election:
        for trial in range(num_trials):
            seed = derive_seed(base_seed, trial)
            trial_set.outcomes.append(runner(graph, params=params, seed=seed, known_n=known_n))
    else:
        specs = [
            TrialSpec(
                graph=graph,
                algorithm="election",
                seed=derive_seed(base_seed, trial),
                params=params,
                algo_kwargs={"known_n": known_n},
                label="%s trial %d" % (trial_set.label, trial),
            )
            for trial in range(num_trials)
        ]
        results = BatchRunner(workers=workers, cache=cache).run(specs)
        trial_set.outcomes.extend(result.outcome for result in results)
    trial_set.elapsed_seconds = time.perf_counter() - start
    return trial_set


@dataclass
class ScalingRecord:
    """One row of a size sweep: measured cost plus graph characteristics."""

    num_nodes: int
    num_edges: int
    mixing_time: int
    trials: int
    success_rate: float
    mean_messages: float
    mean_message_units: float
    mean_rounds: float
    mean_contenders: float

    def as_dict(self) -> Dict[str, object]:
        return {
            "n": self.num_nodes,
            "m": self.num_edges,
            "t_mix": self.mixing_time,
            "trials": self.trials,
            "success_rate": round(self.success_rate, 3),
            "messages": round(self.mean_messages, 1),
            "message_units": round(self.mean_message_units, 1),
            "rounds": round(self.mean_rounds, 1),
            "contenders": round(self.mean_contenders, 1),
        }


def scaling_sweep(
    graph_builder: Callable[[int, int], Graph],
    sizes: Sequence[int],
    trials: int = 3,
    params: ElectionParameters = DEFAULT_PARAMETERS,
    base_seed: int = 0,
    compute_mixing_time: bool = True,
    workers: int = 1,
    cache: Optional[ResultCache] = None,
    sinks: Sequence[TraceSink] = (),
) -> List[ScalingRecord]:
    """Sweep graph sizes, running ``trials`` elections per size.

    ``graph_builder(n, seed)`` must return a connected graph on ``n`` nodes
    (lambdas are fine: graphs are built here, in the calling process, and the
    built instances are shipped to workers).  ``compute_mixing_time=False``
    skips the exact mixing-time computation for sizes where its dense
    ``n x n`` matrix products would be too slow.  The whole sweep is one
    :class:`~repro.exec.spec.SweepSpec` executed by a single
    :class:`~repro.exec.runner.BatchRunner`, so with ``workers > 1`` *all*
    trials of *all* sizes run concurrently, not size by size.
    """
    graphs = [
        graph_builder(n, derive_seed(base_seed, 1000 + index)) for index, n in enumerate(sizes)
    ]
    sweep = SweepSpec(
        name="scaling_sweep",
        configs=tuple(
            TrialSpec(
                graph=graph,
                algorithm="election",
                params=params,
                label="n=%d" % graph.num_nodes,
            )
            for graph in graphs
        ),
        trials=trials,
        base_seed=base_seed,
    )
    runner = BatchRunner(workers=workers, cache=cache, sinks=sinks)
    grouped = sweep.group(runner.run_sweep(sweep))
    records: List[ScalingRecord] = []
    for graph, config_results in zip(graphs, grouped):
        t_mix = mixing_time(graph) if compute_mixing_time else -1
        trial_set = TrialSet(
            label="n=%d" % graph.num_nodes,
            outcomes=[result.outcome for result in config_results],
        )
        records.append(
            ScalingRecord(
                num_nodes=graph.num_nodes,
                num_edges=graph.num_edges,
                mixing_time=t_mix,
                trials=trials,
                success_rate=trial_set.success_rate,
                mean_messages=trial_set.mean_messages,
                mean_message_units=trial_set.mean_message_units,
                mean_rounds=trial_set.mean_rounds,
                mean_contenders=trial_set.mean_contenders,
            )
        )
    return records


@dataclass
class RobustnessRecord:
    """One row of a robustness sweep: the election under one adversary.

    ``success_rate`` is the fraction of trials classified ``"elected"`` -- a
    unique leader that the adversary then crash-stopped does *not* count (a
    dead leader is not a working one), which is stricter than
    ``ElectionOutcome.success``.  ``message_overhead`` is the ratio of this
    configuration's mean message count to the fault-free baseline of the
    same sweep (1.0 for the baseline itself); ``classification_counts``
    tallies the degraded-outcome labels of
    :data:`~repro.core.result.CLASSIFICATIONS` over the trials.
    """

    num_nodes: int
    drop_rate: float
    crash_count: int
    trials: int
    success_rate: float
    classification_counts: Dict[str, int]
    mean_messages: float
    mean_message_units: float
    mean_rounds: float
    message_overhead: float
    fault_events: Dict[str, int]

    def as_dict(self) -> Dict[str, object]:
        row: Dict[str, object] = {
            "n": self.num_nodes,
            "drop": self.drop_rate,
            "crashes": self.crash_count,
            "trials": self.trials,
            "success_rate": round(self.success_rate, 3),
            "messages": round(self.mean_messages, 1),
            "rounds": round(self.mean_rounds, 1),
            "overhead": round(self.message_overhead, 3),
        }
        for label in CLASSIFICATIONS:
            row[label] = self.classification_counts.get(label, 0)
        return row


def robustness_configs(
    graph: Graph,
    drop_rates: Sequence[float] = (0.0, 0.05, 0.1),
    crash_counts: Sequence[int] = (0,),
    params: ElectionParameters = DEFAULT_PARAMETERS,
    crash_phase: int = 2,
) -> Tuple[List[Tuple[float, int]], Tuple[TrialSpec, ...]]:
    """The (drop rate, crash count) grid of a robustness sweep as trial configs.

    Returns the ordered pair list and the matching :class:`TrialSpec` tuple,
    with the fault-free anchor ``(0.0, 0)`` prepended when absent.  This is
    the config builder both :func:`robustness_sweep` and the campaign-based
    robustness example share, so the two express the exact same trials (and
    therefore hit the same cache entries).
    """
    pairs = [(drop, crashes) for crashes in crash_counts for drop in drop_rates]
    if (0.0, 0) not in pairs:
        pairs.insert(0, (0.0, 0))

    def plan_for(drop: float, crashes: int) -> Optional[FaultPlan]:
        if drop == 0.0 and crashes == 0:
            return None
        crash_model = (
            CrashFaults(count=crashes, at_phase=crash_phase) if crashes else CrashFaults()
        )
        return FaultPlan(
            messages=MessageFaults(drop_probability=drop), crashes=crash_model
        )

    configs = tuple(
        TrialSpec(
            graph=graph,
            algorithm="election",
            params=params,
            fault_plan=plan_for(drop, crashes),
            label="drop=%g crashes=%d" % (drop, crashes),
        )
        for drop, crashes in pairs
    )
    return pairs, configs


def robustness_sweep(
    graph: Graph,
    drop_rates: Sequence[float] = (0.0, 0.05, 0.1),
    crash_counts: Sequence[int] = (0,),
    trials: int = 3,
    params: ElectionParameters = DEFAULT_PARAMETERS,
    base_seed: int = 0,
    crash_phase: int = 2,
    workers: int = 1,
    cache: Optional[ResultCache] = None,
    sinks: Sequence[TraceSink] = (),
) -> List[RobustnessRecord]:
    """Sweep the election over message-drop rates and crash counts (E11).

    Runs ``trials`` elections per ``(drop_rate, crash_count)`` pair on
    ``graph``, under a :class:`~repro.faults.plan.FaultPlan` combining
    per-message drop with crash-stop of ``crash_count`` random nodes at the
    start of guess-and-double phase ``crash_phase``.  The fault-free pair
    ``(0.0, 0)`` is prepended when absent -- it anchors the
    ``message_overhead`` column.  Execution goes through the batch runner, so
    ``workers``/``cache`` behave exactly as in :func:`scaling_sweep` and every
    trial is bit-for-bit replayable from ``(base_seed, plan)``.
    """
    if trials < 1:
        raise ValueError("trials must be at least 1")
    pairs, configs = robustness_configs(
        graph,
        drop_rates=drop_rates,
        crash_counts=crash_counts,
        params=params,
        crash_phase=crash_phase,
    )
    sweep = SweepSpec(
        name="robustness_sweep",
        configs=configs,
        trials=trials,
        base_seed=base_seed,
    )
    runner = BatchRunner(workers=workers, cache=cache, sinks=sinks)
    grouped = sweep.group(runner.run_sweep(sweep))

    baseline_index = pairs.index((0.0, 0))
    baseline_messages = summarize(
        [result.outcome.messages for result in grouped[baseline_index]]
    ).mean

    records: List[RobustnessRecord] = []
    for (drop, crashes), config_results in zip(pairs, grouped):
        outcomes = [result.outcome for result in config_results]
        classification_counts: Dict[str, int] = {}
        fault_events: Dict[str, int] = {}
        for outcome in outcomes:
            label = outcome.classification
            classification_counts[label] = classification_counts.get(label, 0) + 1
            for kind, count in outcome.metrics.fault_events.items():
                fault_events[kind] = fault_events.get(kind, 0) + count
        mean_messages = summarize([o.messages for o in outcomes]).mean
        overhead = mean_messages / baseline_messages if baseline_messages else 1.0
        records.append(
            RobustnessRecord(
                num_nodes=graph.num_nodes,
                drop_rate=drop,
                crash_count=crashes,
                trials=trials,
                success_rate=classification_counts.get("elected", 0) / len(outcomes),
                classification_counts=classification_counts,
                mean_messages=mean_messages,
                mean_message_units=summarize([o.message_units for o in outcomes]).mean,
                mean_rounds=summarize([o.rounds for o in outcomes]).mean,
                message_overhead=overhead,
                fault_events=fault_events,
            )
        )
    return records


#: Default round cap for broadcast/spanning-tree trials in cross-algorithm
#: fault grids: far above any healthy run on the graphs these grids use, yet
#: small enough that a gossip trial with crash-stopped sources (uninformed
#: nodes retry their pulls every round, forever) ends promptly as "partial".
BROADCAST_FAULT_MAX_ROUNDS = 10_000


def algorithm_robustness_configs(
    graph: Graph,
    algorithms: Sequence[str] = (
        "election",
        "known_tmix",
        "flood_max",
        "controlled_flooding",
    ),
    drop_rates: Sequence[float] = (0.0, 0.1),
    crash_counts: Sequence[int] = (0,),
    crash_round: int = 4,
    params: ElectionParameters = DEFAULT_PARAMETERS,
    max_rounds: Optional[int] = None,
) -> Tuple[List[Tuple[str, float, int]], Tuple[TrialSpec, ...]]:
    """The cross-algorithm fault grid of E13 as ready-to-run trial configs.

    For every registered algorithm name in ``algorithms`` and every
    ``(drop rate, crash count)`` pair, one :class:`TrialSpec` runs that
    algorithm under the combined adversary; the fault-free pair ``(0.0, 0)``
    is prepended when absent, so every algorithm contributes a fault-free
    row -- which is also each algorithm's ``overhead`` anchor:
    :func:`sweep_summary` anchors every row on *its own algorithm's* first
    fault-free config, so the column reads "relative to this algorithm,
    fault-free" (cross-algorithm comparisons use the absolute ``messages``
    column).  Crashes fire at round ``crash_round`` (a *round* boundary, not
    a phase -- flood-style baselines and broadcast substrates have no
    guess-and-double schedule to anchor phases against).

    Capabilities come from the registry: ``params`` is set only on
    algorithms that declare ``needs_params``, and a ``known_tmix`` entry gets
    the exact mixing time pinned via ``algo_kwargs`` (computed once here,
    through the memoised :func:`~repro.graphs.mixing.cached_mixing_time`,
    rather than once per trial in the workers).  ``max_rounds`` caps every
    trial; when left ``None``, non-election algorithms are still capped at
    :data:`BROADCAST_FAULT_MAX_ROUNDS` -- a push-pull trial whose sources
    were all crash-stopped otherwise pulls against dead nodes for the
    substrate's default million-round budget.

    Returns the ordered ``(algorithm, drop, crashes)`` triples and the
    matching config tuple, shared by the E13 benchmark and the
    ``algorithm_robustness`` example so both express the exact same trials.
    """
    pairs = [(drop, crashes) for crashes in crash_counts for drop in drop_rates]
    if (0.0, 0) not in pairs:
        pairs.insert(0, (0.0, 0))

    def plan_for(drop: float, crashes: int) -> Optional[FaultPlan]:
        if drop == 0.0 and crashes == 0:
            return None
        return FaultPlan(
            messages=MessageFaults(drop_probability=drop),
            crashes=CrashFaults(count=crashes, at_round=crash_round if crashes else None),
        )

    triples: List[Tuple[str, float, int]] = []
    configs: List[TrialSpec] = []
    for name in algorithms:
        algorithm = get_algorithm(name)
        algo_kwargs: Dict[str, object] = {}
        if name == "known_tmix":
            algo_kwargs["mixing_time"] = cached_mixing_time(graph)
        if max_rounds is not None:
            algo_kwargs["max_rounds"] = max_rounds
        elif algorithm.outcome_kind != "election":
            algo_kwargs["max_rounds"] = BROADCAST_FAULT_MAX_ROUNDS
        for drop, crashes in pairs:
            triples.append((name, drop, crashes))
            configs.append(
                TrialSpec(
                    graph=graph,
                    algorithm=name,
                    params=params if algorithm.needs_params else DEFAULT_PARAMETERS,
                    algo_kwargs=dict(algo_kwargs),
                    fault_plan=plan_for(drop, crashes),
                    label="%s drop=%g crashes=%d" % (name, drop, crashes),
                )
            )
    return triples, tuple(configs)


def sweep_summary(
    sweep: SweepSpec,
    outcomes: Sequence[Optional[object]],
) -> List[Dict[str, object]]:
    """Aggregate a sweep's (possibly partial) outcomes into per-config rows.

    ``outcomes`` must be the flat ``SweepSpec.expand``-ordered list with
    ``None`` for trials that have no result yet (not cached, failed, or owned
    by another shard) -- exactly what
    :meth:`repro.campaign.runner.CampaignResult.outcomes_for` and the
    cache-backed report layer produce.  Each row carries the config label,
    ``trials``/``done`` counts and -- over the completed trials -- success
    rate, mean messages/units/rounds and the classification tallies of the
    outcome kind's label family (:data:`~repro.core.result.KIND_CLASSIFICATIONS`).
    Success follows :attr:`TrialOutcome.success` -- kind-aware, so a crashed
    leader is not a working one and a broadcast that covered every live node
    counts; legacy election outcomes use ``classification == "elected"`` and
    anything else falls back to its ``success`` flag.

    When at least one config runs under a fault plan, every row also gets an
    ``overhead`` column: its mean message count relative to *its own
    algorithm's* first fault-free config (matching :func:`robustness_sweep`
    for single-algorithm sweeps).  Anchoring per algorithm keeps the column
    meaningful on mixed-algorithm sweeps like E13's cross-algorithm fault
    grids -- a faulty flood-max reads "x1.4 of clean flood-max", never "x90
    of the clean election"; rows of an algorithm that has no fault-free
    config carry no overhead rather than a misleading one.

    All values are plain JSON-serialisable scalars rounded to fixed
    precision, so two runs that produced the same outcomes render the same
    bytes -- the property the campaign report's byte-identical-across-shards
    guarantee rests on.
    """
    return summarize_config_groups(sweep, sweep.group(list(outcomes)))


def _succeeded(outcome) -> bool:
    """Kind-aware success of one outcome (full or summary or legacy)."""
    if isinstance(outcome, (TrialOutcome, OutcomeSummary)):
        # Both carry an explicit, kind-aware success flag; OutcomeSummary is
        # checked here because it also has a classification attribute and
        # must never fall into the legacy election-only branch below.
        return outcome.success
    if hasattr(outcome, "classification"):
        return outcome.classification == "elected"
    return outcome.success


def _aggregate_row(config: TrialSpec, aggregate: SummaryAggregate):
    """:func:`_config_row` over an already-folded configuration group.

    The arithmetic mirrors the outcome-list path exactly: success rate and
    means divide exact integer sums by exact counts -- the same numerator
    and denominator the list path feeds :func:`success_rate` and
    :func:`summarize` -- so both paths round to identical values and the
    report stays byte-identical whichever one produced it.
    """
    row: Dict[str, object] = {
        "label": config.label or config.describe(),
        "trials": aggregate.requested,
        "done": aggregate.done,
    }
    mean_messages: Optional[float] = None
    if aggregate.done:
        row["success_rate"] = round(aggregate.successes / aggregate.done, 3)
        mean_messages = aggregate.sum_messages / aggregate.done
        row["messages"] = round(mean_messages, 1)
        row["message_units"] = round(aggregate.sum_message_units / aggregate.done, 1)
        row["rounds"] = round(aggregate.sum_rounds / aggregate.done, 1)
        labels = KIND_CLASSIFICATIONS.get(aggregate.kind, CLASSIFICATIONS)
        tallies = {label: 0 for label in labels}
        for label, count in aggregate.classification_counts:
            tallies[label] = tallies.get(label, 0) + count
        row["classifications"] = tallies
    return row, mean_messages


def _config_row(config: TrialSpec, group):
    """One configuration's aggregate row plus its unrounded mean messages.

    ``group`` holds that configuration's outcomes (``None`` per missing
    trial): full :class:`TrialOutcome` objects,
    :class:`~repro.exec.cache.OutcomeSummary` projections or legacy outcome
    objects -- all aggregate identically because only the summary-projected
    fields are read.  A pre-folded
    :class:`~repro.exec.cache.SummaryAggregate` (the streaming report path)
    is accepted in place of the whole group.
    """
    if isinstance(group, SummaryAggregate):
        return _aggregate_row(config, group)
    done = [outcome for outcome in group if outcome is not None]
    row: Dict[str, object] = {
        "label": config.label or config.describe(),
        "trials": len(group),
        "done": len(done),
    }
    mean_messages: Optional[float] = None
    if done:
        successes = [_succeeded(outcome) for outcome in done]
        row["success_rate"] = round(success_rate(successes), 3)
        mean_messages = summarize([o.messages for o in done]).mean
        row["messages"] = round(mean_messages, 1)
        row["message_units"] = round(summarize([o.message_units for o in done]).mean, 1)
        row["rounds"] = round(summarize([o.rounds for o in done]).mean, 1)
        classified = [o for o in done if hasattr(o, "classification")]
        if classified:
            # Zero-fill the kind's full label family (legacy outcomes are
            # election-kind), then count; stray labels still land.
            kind = getattr(classified[0], "kind", "election")
            labels = KIND_CLASSIFICATIONS.get(kind, CLASSIFICATIONS)
            tallies = {label: 0 for label in labels}
            for outcome in classified:
                label = outcome.classification
                tallies[label] = tallies.get(label, 0) + 1
            row["classifications"] = tallies
    return row, mean_messages


def summarize_config_groups(
    sweep: SweepSpec,
    groups: Iterable[Sequence[Optional[object]]],
) -> List[Dict[str, object]]:
    """:func:`sweep_summary` over per-config outcome groups, streamed.

    ``groups`` yields one configuration's outcomes at a time in config
    order (exactly ``SweepSpec.group``'s chunks) -- or a pre-folded
    :class:`~repro.exec.cache.SummaryAggregate` per configuration, which is
    what the cache-backed report streams -- and may be a generator: each
    group is aggregated into its row and discarded, so peak memory is
    one configuration's outcomes -- the property that lets the campaign
    report layer walk a million-trial cache without materialising it.  The
    rows (including the overhead second pass, which only needs the rows and
    their unrounded means) are identical to ``sweep_summary`` over the
    concatenated list.
    """
    rows: List[Dict[str, object]] = []
    exact_means: List[Optional[float]] = []
    for config, group in zip(sweep.configs, groups):
        row, mean_messages = _config_row(config, group)
        rows.append(row)
        exact_means.append(mean_messages)
    if len(rows) != len(sweep.configs):
        raise ValueError(
            "expected %d config groups for sweep %r, got %d"
            % (len(sweep.configs), sweep.name, len(rows))
        )

    # Each algorithm anchors on its *first* fault-free config, even when that
    # config's data is still partial (a partial mean beats silently
    # re-anchoring on some other config).
    any_faults = any(
        config.effective_fault_plan is not None for config in sweep.configs
    )
    anchors: Dict[str, Optional[float]] = {}
    if any_faults:
        for config, mean_messages in zip(sweep.configs, exact_means):
            if (
                config.effective_fault_plan is None
                and config.algorithm not in anchors
            ):
                anchors[config.algorithm] = mean_messages
    # The ratio divides unrounded means (matching robustness_sweep), so
    # every anchor row's own overhead is exactly 1.0.
    for row, config, mean_messages in zip(rows, sweep.configs, exact_means):
        baseline_messages = anchors.get(config.algorithm)
        if baseline_messages and mean_messages is not None:
            row["overhead"] = round(mean_messages / baseline_messages, 3)
    return rows


def records_to_columns(records: Iterable[Dict[str, object]]) -> Dict[str, List[object]]:
    """Transpose a list of records into named columns (for fitting)."""
    columns: Dict[str, List[object]] = {}
    for record in records:
        for key, value in record.items():
            columns.setdefault(key, []).append(value)
    return columns


def format_table(records: Sequence[Dict[str, object]], title: Optional[str] = None) -> str:
    """Render records as an aligned plain-text table."""
    if not records:
        return "(no rows)"
    headers = list(records[0].keys())
    rows = [[str(record.get(header, "")) for header in headers] for record in records]
    widths = [
        max(len(header), max(len(row[i]) for row in rows)) for i, header in enumerate(headers)
    ]
    lines = []
    if title:
        lines.append(title)
    lines.append("  ".join(header.ljust(widths[i]) for i, header in enumerate(headers)))
    lines.append("  ".join("-" * widths[i] for i in range(len(headers))))
    for row in rows:
        lines.append("  ".join(row[i].ljust(widths[i]) for i in range(len(headers))))
    return "\n".join(lines)
