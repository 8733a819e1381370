"""Sweep aggregation and plain-text tables.

The paper's evaluation consists of asymptotic claims rather than numeric
tables, so each experiment produces the table the paper *implies*: one row per
configuration (graph size, adversary, algorithm, ...) with its success rate
and mean messages and rounds -- the quantities Theorem 13 bounds.  There is
one sweep path: describe the configurations as a
:class:`~repro.exec.spec.SweepSpec`, run it with a
:class:`~repro.exec.runner.BatchRunner` or a
:class:`~repro.campaign.runner.CampaignRunner`, and aggregate the outcomes
with :func:`sweep_summary`.  ``format_table`` renders the rows for the
examples and for ``EXPERIMENTS.md``.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from ..core.params import DEFAULT_PARAMETERS, ElectionParameters
from ..core.result import CLASSIFICATIONS, KIND_CLASSIFICATIONS
from ..exec.algorithms import get_algorithm
from ..exec.cache import SummaryAggregate
from ..exec.spec import SweepSpec, TrialSpec
from ..faults.plan import CrashFaults, FaultPlan, MessageFaults
from ..graphs.mixing import cached_mixing_time
from ..graphs.topology import Graph
from .stats import success_rate, summarize

__all__ = [
    "algorithm_robustness_configs",
    "sweep_summary",
    "summarize_config_groups",
    "format_table",
    "records_to_columns",
]


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
    crash_phase: Optional[int] = None,
    params: ElectionParameters = DEFAULT_PARAMETERS,
) -> Tuple[List[Tuple[str, float, int]], Tuple[TrialSpec, ...]]:
    """The (drop rate, crash count) fault grid of E11 and E13 as trial configs.

    For every registered algorithm name in ``algorithms`` and every
    ``(drop rate, crash count)`` pair, one :class:`TrialSpec` runs that
    algorithm under the combined adversary; the fault-free pair ``(0.0, 0)``
    is prepended when absent, so every algorithm contributes a fault-free
    row -- which is also each algorithm's ``overhead`` anchor:
    :func:`sweep_summary` anchors every row on *its own algorithm's* first
    fault-free config, so the column reads "relative to this algorithm,
    fault-free" (cross-algorithm comparisons use the absolute ``messages``
    column).

    Crashes fire at round ``crash_round`` -- flood-style baselines and
    broadcast substrates have no guess-and-double schedule to anchor phases
    against -- or, when ``crash_phase`` is set, at the first round of that
    guess-and-double phase (E11's election-only grids).

    Capabilities come from the registry: ``params`` is set only on
    algorithms that declare ``needs_params``, and a ``known_tmix`` entry gets
    the exact mixing time pinned via ``algo_kwargs`` (computed once here,
    through the memoised :func:`~repro.graphs.mixing.cached_mixing_time`,
    rather than once per trial in the workers).  Non-election algorithms are
    capped at :data:`BROADCAST_FAULT_MAX_ROUNDS` -- a push-pull trial whose
    sources were all crash-stopped otherwise pulls against dead nodes for the
    substrate's default million-round budget.

    Returns the ordered ``(algorithm, drop, crashes)`` triples and the
    matching config tuple, shared by the E11/E13 benchmarks and the
    robustness examples so each pair expresses the exact same trials (and
    hits the same cache entries).
    """
    pairs = [(drop, crashes) for crashes in crash_counts for drop in drop_rates]
    if (0.0, 0) not in pairs:
        pairs.insert(0, (0.0, 0))
    anchor = {"at_round": crash_round} if crash_phase is None else {"at_phase": crash_phase}
    plans = [
        None
        if drop == 0.0 and crashes == 0
        else FaultPlan(
            messages=MessageFaults(drop_probability=drop),
            crashes=CrashFaults(count=crashes, **anchor) if crashes else CrashFaults(),
        )
        for drop, crashes in pairs
    ]

    triples: List[Tuple[str, float, int]] = []
    configs: List[TrialSpec] = []
    for name in algorithms:
        algorithm = get_algorithm(name)
        algo_kwargs: Dict[str, object] = {}
        if name == "known_tmix":
            algo_kwargs["mixing_time"] = cached_mixing_time(graph)
        if algorithm.outcome_kind != "election":
            algo_kwargs["max_rounds"] = BROADCAST_FAULT_MAX_ROUNDS
        for (drop, crashes), plan in zip(pairs, plans):
            triples.append((name, drop, crashes))
            configs.append(
                TrialSpec(
                    graph=graph,
                    algorithm=name,
                    params=params if algorithm.needs_params else DEFAULT_PARAMETERS,
                    algo_kwargs=dict(algo_kwargs),
                    fault_plan=plan,
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
    counts.

    When at least one config runs under a fault plan, every row also gets an
    ``overhead`` column: its mean message count relative to *its own
    algorithm's* first fault-free config.  Anchoring per algorithm keeps the
    column meaningful on mixed-algorithm sweeps like E13's cross-algorithm
    fault grids -- a faulty flood-max reads "x1.4 of clean flood-max", never
    "x90 of the clean election"; rows of an algorithm that has no fault-free
    config carry no overhead rather than a misleading one.

    All values are plain JSON-serialisable scalars rounded to fixed
    precision, so two runs that produced the same outcomes render the same
    bytes -- the property the campaign report's byte-identical-across-shards
    guarantee rests on.

    >>> from repro.exec import BatchRunner, GraphSpec
    >>> sweep = SweepSpec(
    ...     name="demo",
    ...     configs=(TrialSpec(graph=GraphSpec("clique", (8,)), algorithm="flood_max"),),
    ...     trials=2,
    ... )
    >>> outcomes = [result.outcome for result in BatchRunner().run_sweep(sweep)]
    >>> row = sweep_summary(sweep, outcomes)[0]
    >>> row["done"], row["success_rate"], row["classifications"]["elected"]
    (2, 1.0, 2)
    >>> sweep_summary(sweep, [outcomes[0], None])[0]["done"]
    1
    """
    return summarize_config_groups(sweep, sweep.group(list(outcomes)))


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
    trial): full :class:`TrialOutcome` objects or
    :class:`~repro.exec.cache.OutcomeSummary` projections -- both aggregate
    identically because only the summary-projected fields are read.  A pre-folded
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
        row["success_rate"] = round(success_rate([o.success for o in done]), 3)
        mean_messages = summarize([o.messages for o in done]).mean
        row["messages"] = round(mean_messages, 1)
        row["message_units"] = round(summarize([o.message_units for o in done]).mean, 1)
        row["rounds"] = round(summarize([o.rounds for o in done]).mean, 1)
        classified = [o for o in done if hasattr(o, "classification")]
        if classified:
            # Zero-fill the kind's full label family, then count; stray
            # labels still land.
            labels = KIND_CLASSIFICATIONS.get(classified[0].kind, CLASSIFICATIONS)
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
    # The ratio divides unrounded means, so every anchor row's own overhead
    # is exactly 1.0.
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
