"""Cache-backed campaign reports: aggregate tables without re-running anything.

The "dashboard" of a campaign is computed purely from the result cache: for
every trial of the spec's canonical expansion we look its fingerprint up and
aggregate whatever is there.  Nothing is ever executed, so a report renders
in milliseconds over a cache that took machine-days to fill -- and it renders
*partial* state honestly (per-sweep coverage plus per-config ``done`` counts)
while a sharded campaign is still in flight elsewhere.

Two output formats, both deterministic functions of the cached outcomes:

* ``report.json`` -- the full document (``campaign_report``), sorted keys,
  fixed float precision.  Because trials are keyed by fingerprint, merging
  ``m`` shard caches and reporting yields **byte-identical** JSON to the
  single-machine run of the same campaign;
* ``report.md`` -- human-readable Markdown (``render_markdown``): one table
  per sweep plus a coverage/success summary.
"""

from __future__ import annotations

import itertools
import json
import os
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple, Union

from ..analysis.experiments import summarize_config_groups
from ..core.result import KIND_CLASSIFICATIONS
from ..exec.cache import ResultCache, atomic_write_bytes
from ..exec.fingerprint import code_version_tag, trial_fingerprint
from .spec import CampaignSpec, expand_trials

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..exec.config import ExecutionProfile

__all__ = ["cached_outcomes", "campaign_report", "render_markdown", "write_report"]

#: Aggregate columns in presentation order (classification tallies follow).
_COLUMNS = (
    "label",
    "trials",
    "done",
    "success_rate",
    "messages",
    "message_units",
    "rounds",
    "overhead",
)


def cached_outcomes(spec: CampaignSpec, cache: ResultCache) -> Dict[str, List[Optional[object]]]:
    """Per-sweep expansion-ordered outcome lists, ``None`` where not cached.

    This materialises every cached :class:`TrialOutcome` -- use it for
    analyses that need full outcomes; :func:`campaign_report` itself streams
    aggregate summaries instead and never holds more than one
    configuration's worth of data.
    """
    outcomes: Dict[str, List[Optional[object]]] = {}
    for sweep in spec.sweeps:
        fingerprints = [trial_fingerprint(trial) for trial in sweep.expand()]
        outcomes[sweep.name] = [
            cached.outcome if cached is not None else None
            for cached in cache.get_many(fingerprints)
        ]
    return outcomes


def _streamed_sweep(sweep, trials, cache: ResultCache):
    """One sweep's aggregate rows and cached count, config by config.

    ``trials`` is the shared expansion iterator positioned at this sweep;
    each configuration's ``sweep.trials`` entries are pulled from it and
    folded straight into a :class:`~repro.exec.cache.SummaryAggregate` --
    on the SQLite backend the fold runs inside the database (one
    ``GROUP BY`` over the summary index, no payload deserialisation, no
    per-trial Python objects); the JSON tree folds its summary rows in
    Python.  Peak memory is one aggregate however many trials the sweep
    holds.
    """
    cached = 0

    def groups():
        nonlocal cached
        for _ in range(len(sweep.configs)):
            fingerprints = [fp for _, _, _, fp in itertools.islice(trials, sweep.trials)]
            aggregate = cache.get_summary_aggregate(fingerprints)
            cached += aggregate.done
            yield aggregate

    rows = summarize_config_groups(sweep, groups())
    return rows, cached


def campaign_report(
    spec: CampaignSpec,
    cache: ResultCache,
    profile: Optional["ExecutionProfile"] = None,
) -> Dict[str, object]:
    """The full report document, computed from the cache alone.

    Deterministic in ``(spec, cached outcomes)``: no timestamps, no machine
    identity, fixed rounding -- so any two caches holding the same trial
    results (e.g. the union of shard caches versus a single-machine cache,
    or a SQLite store versus a JSON tree) produce identical documents.
    Aggregation streams one configuration at a time over cached outcome
    *summaries*, so reporting over a million-trial cache never loads a
    million outcomes into memory.  Pass the campaign's ``profile`` when it
    ran under one: its run-wide simulator is part of every trial's
    fingerprint, so the lookups must apply it exactly as the run did.
    """
    trials = expand_trials(spec, profile)
    sweeps = []
    total = 0
    total_cached = 0
    for sweep in spec.sweeps:
        rows, done = _streamed_sweep(sweep, trials, cache)
        trials_in_sweep = sweep.num_trials
        total += trials_in_sweep
        total_cached += done
        sweeps.append(
            {
                "name": sweep.name,
                "trials": trials_in_sweep,
                "cached": done,
                "coverage": round(done / trials_in_sweep, 4),
                "rows": rows,
            }
        )
    return {
        "campaign": spec.name,
        "code_version": code_version_tag(),
        "trials": total,
        "cached": total_cached,
        "coverage": round(total_cached / total, 4) if total else 0.0,
        "sweeps": sweeps,
    }


def _format_cell(value: object) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return "%g" % value
    return str(value)


def _tally_columns(rows: List[Dict[str, object]]) -> List[str]:
    """Classification columns in deterministic presentation order.

    Mixed-algorithm sweeps tally different label families per row (elections
    vs broadcast vs spanning trees), so the header is the union of observed
    labels: the known families in their canonical order first, then any
    stragglers sorted -- a pure function of the rows, keeping reports
    byte-identical across shard layouts.
    """
    observed = set()
    for row in rows:
        observed.update(row.get("classifications", {}))
    ordered: List[str] = []
    for family in KIND_CLASSIFICATIONS.values():
        for label in family:
            if label in observed and label not in ordered:
                ordered.append(label)
    ordered += sorted(observed.difference(ordered))
    return ordered


def _sweep_table(rows: List[Dict[str, object]]) -> List[str]:
    """Render one sweep's aggregate rows as a Markdown table."""
    columns = [column for column in _COLUMNS if any(column in row for row in rows)]
    tallies = _tally_columns(rows)
    header = columns + tallies
    lines = [
        "| " + " | ".join(header) + " |",
        "| " + " | ".join("---" for _ in header) + " |",
    ]
    for row in rows:
        cells = [_format_cell(row.get(column)) for column in columns]
        cells += [
            _format_cell(row.get("classifications", {}).get(label)) for label in tallies
        ]
        lines.append("| " + " | ".join(cells) + " |")
    return lines


def render_markdown(report: Dict[str, object]) -> str:
    """Render a ``campaign_report`` document as Markdown."""
    lines = [
        "# Campaign report: %s" % report["campaign"],
        "",
        "- code version: `%s`" % report["code_version"],
        "- trials cached: %d / %d (coverage %.1f%%)"
        % (report["cached"], report["trials"], 100.0 * report["coverage"]),
        "",
    ]
    for sweep in report["sweeps"]:
        lines.append("## %s" % sweep["name"])
        lines.append("")
        lines.append(
            "%d / %d trial(s) cached (coverage %.1f%%)."
            % (sweep["cached"], sweep["trials"], 100.0 * sweep["coverage"])
        )
        lines.append("")
        lines.extend(_sweep_table(sweep["rows"]))
        lines.append("")
    return "\n".join(lines)


def write_report(
    spec: CampaignSpec,
    cache: ResultCache,
    directory: Union[str, os.PathLike],
    report: Optional[Dict[str, object]] = None,
    profile: Optional["ExecutionProfile"] = None,
) -> Tuple[str, str]:
    """Write ``report.md`` and ``report.json`` under ``directory``.

    Returns the two paths.  ``report.json`` is serialised with sorted keys
    and a trailing newline, making it byte-comparable across machines (the
    property the sharding acceptance tests assert).  Pass a precomputed
    ``campaign_report`` document as ``report`` to skip re-scanning the cache
    (each report computation is one lookup per trial of the campaign), and
    the campaign's ``profile`` otherwise (see :func:`campaign_report`).
    """
    directory = os.fspath(directory)
    if report is None:
        report = campaign_report(spec, cache, profile)
    # Atomic writes (the campaign-wide protocol): a dashboard consumer
    # polling the report while a live campaign regenerates it never reads a
    # truncated file.
    json_path = os.path.join(directory, "report.json")
    document = json.dumps(report, sort_keys=True, indent=2) + "\n"
    atomic_write_bytes(json_path, document.encode("utf-8"))
    markdown_path = os.path.join(directory, "report.md")
    atomic_write_bytes(markdown_path, render_markdown(report).encode("utf-8"))
    return markdown_path, json_path
