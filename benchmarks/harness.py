"""The one perf harness behind the committed ``BENCH_*.json`` baselines.

``perf_driver.py`` (simulator cores), ``perf_cache.py`` (result-cache backends) and ``perf_net.py``
(live deployment) each declare a :class:`Grid` and call :func:`main`, which writes the grid's
``BENCH_<name>.json``, committed at the repository root.  What the three share lives here once:
the timing loop (:func:`time_cell`), the :data:`REPEATS` whole-grid passes (:func:`measure`), the
speedup summary, the baseline diff and the command line.

CI's ``perf-trajectory`` job re-runs each quick subset on every push and diffs it against the
committed baseline, so a change that silently slows a cell down fails the build.  Machines differ
in raw speed, so the diff never compares absolute numbers: it estimates a machine-speed factor (the
median of ``current / baseline`` over shared cells) and fails a gated cell that regressed by more
than :data:`FAIL_THRESHOLD` *relative to that factor*; drift beyond :data:`WARN_THRESHOLD` warns.
A uniform slowdown moves the factor, not the verdict.  The quick subset drops cells only: each
quick cell times the same work as its baseline entry.

Every driver takes ``[--quick] [--output PATH] [--baseline [PATH]]``: run the CI subset, write the
measured document, diff it against a baseline (the grid's own ``BENCH_<name>.json`` if no PATH).

Exit status: 0 on success, 1 when a gated cell regressed or the baseline is unusable (another
version, no shared cell); a cell whose own check fails raises instead of recording a number.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import sys
import tempfile
import time
from collections import Counter
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

import numpy

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(REPO_ROOT, "src"))

#: Baseline document schema version (bumped on incompatible changes).
BASELINE_VERSION = 1

MIN_SECONDS = 1.0

#: Passes over the grid, in quick and full mode alike.  One pass on a shared 2-CPU host moved a
#: cell's rate by up to 2x between runs of the same code; the median of three passes is what the
#: diff compares.
REPEATS = 3

#: Normalised per-cell slowdown that fails the run, and drift that warns.
FAIL_THRESHOLD = 0.30
WARN_THRESHOLD = 0.15

Cell = Dict[str, object]

#: One timed repetition of a cell.  It takes the rep index (the trial seed, where the grid needs
#: one) and returns counters that the harness sums over the cell's reps and records beside the
#: rate.
RunOnce = Callable[[int], Dict[str, int]]


@dataclass(frozen=True)
class Grid:
    """What a driver declares; everything else is the harness's."""

    name: str  # the committed baseline is BENCH_<name>.json at the repository root
    key: Tuple[str, ...]  # the fields that identify a cell across runs
    unit: str  # the headline rate field, which the diff compares
    count: str  # the run_once counter that the headline rate divides by wall time
    cells: List[Cell]  # the full grid in run order; each cell's "quick" marks the CI subset
    #: ``setup(workdir)`` returns ``prepare(cell)``, which does a cell's untimed setup and returns
    #: its ``run_once``; ``workdir`` is a scratch directory that lives as long as the measurement.
    setup: Callable[[str], Callable[[Cell], RunOnce]]
    max_reps: int  # hard cap, so a fast cell cannot loop forever where the clock misbehaves
    min_reps: int = 1
    warmup: Callable[[Cell], bool] = lambda cell: False  # one untimed run_once first?
    gated: Callable[[Cell], bool] = lambda cell: True  # may a slowdown FAIL, or only warn?
    pair: Optional[Tuple[str, str, str]] = None  # (field, slow, fast): print speedups
    derive: Callable[[Cell], Cell] = lambda result: {}  # extra fields of a finished cell


def cell_key(grid: Grid, cell: Cell) -> Tuple[object, ...]:
    return tuple(cell[field] for field in grid.key)


def time_cell(grid: Grid, cell: Cell, run_once: RunOnce) -> Cell:
    """Time one cell; returns the cell extended with its measurements.

    After an optional untimed warm-up call, ``run_once`` repeats until both ``min_reps`` and
    :data:`MIN_SECONDS` of wall clock are reached, capped at ``max_reps``.  Without the window,
    sub-second cells would measure mostly scheduler noise and the diff would flap.
    """
    if grid.warmup(cell):
        run_once(0)
    totals: Counter[str] = Counter()
    reps = 0
    start = time.perf_counter()
    while True:
        totals.update(run_once(reps))
        reps += 1
        elapsed = time.perf_counter() - start
        if reps >= grid.max_reps or (reps >= grid.min_reps and elapsed >= MIN_SECONDS):
            break
    result = dict(cell, reps=reps, seconds=round(elapsed, 4), **totals)
    result[grid.unit] = round(totals[grid.count] / elapsed, 4)
    result.update(grid.derive(result))
    return result


def measure(grid: Grid, quick: bool) -> Dict[str, object]:
    """Walk the grid :data:`REPEATS` times and assemble the baseline document.

    Each pass walks the whole grid before the next starts, so a slow spell of the machine lands on
    different cells in different passes.  A cell keeps the pass with its median rate (the lower
    middle one for an even count) and lists every pass's rate under ``runs``, the spread the diff's
    thresholds have to sit above.  The document's ``environment`` records where it was measured.
    """
    cells = [cell for cell in grid.cells if cell["quick"] or not quick]
    passes: List[List[Cell]] = [[] for _ in cells]
    with tempfile.TemporaryDirectory(prefix="perf-%s-" % grid.name) as workdir:
        prepare = grid.setup(workdir)
        for _ in range(REPEATS):
            for runs, cell in zip(passes, cells):
                runs.append(time_cell(grid, cell, prepare(cell)))
    results = []
    for runs in passes:
        rates = [run[grid.unit] for run in runs]
        median = sorted(runs, key=lambda run: run[grid.unit])[(len(runs) - 1) // 2]
        results.append(dict(median, runs=rates))
        print("%-44r %12.3f %s %s" % (cell_key(grid, median), median[grid.unit], grid.unit, rates))
    return {
        "version": BASELINE_VERSION,
        "unit": grid.unit,
        "quick": quick,
        "environment": environment(),
        "cells": results,
    }


def environment() -> Dict[str, object]:
    """The machine and toolchain a document was measured on."""
    return {
        "cpu_count": os.cpu_count(),
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
    }


def compare_environments(current: Dict[str, object], baseline: Dict[str, object]) -> List[str]:
    """Print both documents' environment blocks; warn when they differ.

    Baselines written before the block existed carry none: that prints one note, not a warning.
    """
    if "environment" not in baseline or "environment" not in current:
        print("note: the baseline or the fresh run records no environment; not compared")
        return []
    print("baseline environment: %s" % json.dumps(baseline["environment"], sort_keys=True))
    print("current environment:  %s" % json.dumps(current["environment"], sort_keys=True))
    if baseline["environment"] == current["environment"]:
        return []
    return ["the environment differs from the baseline's; rates may not be comparable"]


def pass_range(grid: Grid, cell: Cell) -> str:
    """The min-max of a cell's passes, so a FAIL or WARN can be told from pass-to-pass noise."""
    runs = cell.get("runs") or [cell[grid.unit]]
    return "%g-%g" % (min(runs), max(runs))


def speedup_summary(grid: Grid, document: Dict[str, object]) -> List[str]:
    """Fast-over-slow throughput ratios for every cell pair the grid names."""
    if grid.pair is None:
        return []
    field, slow, fast = grid.pair
    by_key = {cell_key(grid, cell): cell for cell in document["cells"]}
    lines = []
    for cell in document["cells"]:
        base = by_key.get(cell_key(grid, dict(cell, **{field: slow})))
        if cell[field] == fast and base is not None:
            ratio = cell[grid.unit] / base[grid.unit]
            lines.append("speedup %r %6.1fx over %s" % (cell_key(grid, cell), ratio, slow))
    return lines


def diff_against_baseline(
    grid: Grid, current: Dict[str, object], baseline: Dict[str, object]
) -> Tuple[List[str], List[str]]:
    """Machine-speed-normalised per-cell comparison; returns ``(failures, warnings)``.

    A baseline of another schema version fails outright.  A quick run skips the full-grid cells by
    design, so only two one-sided cases warn, and neither fails: a measured cell with no baseline
    entry, and a baseline cell the full grid no longer contains (the grid changed; regenerate the
    baseline).  Environments that differ warn too.  Each FAIL or WARN line about a cell carries the
    min-max of its passes on both sides, so drift can be told from pass-to-pass noise.
    """
    if baseline.get("version") != BASELINE_VERSION:
        version = baseline.get("version")
        return ["baseline version %r != %d; regenerate it" % (version, BASELINE_VERSION)], []
    current_by_key = {cell_key(grid, cell): cell for cell in current["cells"]}
    baseline_by_key = {cell_key(grid, cell): cell for cell in baseline["cells"]}
    dropped = baseline_by_key.keys() - {cell_key(grid, cell) for cell in grid.cells}
    warnings = compare_environments(current, baseline)
    warnings += ["cell %r is in the baseline but not in the grid" % (k,) for k in sorted(dropped)]
    for key in sorted(current_by_key.keys() - baseline_by_key.keys()):
        warnings.append("cell %r was measured but has no baseline entry" % (key,))
    shared = [key for key in current_by_key if key in baseline_by_key]
    if not shared:
        return ["no cells shared with the baseline; nothing to diff"], warnings
    ratios = [current_by_key[key][grid.unit] / baseline_by_key[key][grid.unit] for key in shared]
    factor = statistics.median(ratios)
    print("machine-speed factor (median current/baseline): %.3f" % factor)
    failures: List[str] = []
    for key, ratio in zip(shared, ratios):
        relative = ratio / factor
        line = "cell %r %+6.1f%% vs baseline (normalised; passes: baseline %s, current %s)" % (
            key,
            (relative - 1) * 100,
            pass_range(grid, baseline_by_key[key]),
            pass_range(grid, current_by_key[key]),
        )
        if grid.gated(current_by_key[key]) and relative < 1.0 - FAIL_THRESHOLD:
            failures.append(line)
        elif abs(relative - 1.0) > WARN_THRESHOLD:
            warnings.append(line)
    return failures, warnings


def main(grid: Grid, argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description="Measure the %s perf grid." % grid.name)
    parser.add_argument("--quick", action="store_true", help="run the CI subset of the grid")
    parser.add_argument("--output", help="write the measured baseline document to this path")
    default = os.path.join(REPO_ROOT, "BENCH_%s.json" % grid.name)
    parser.add_argument(
        "--baseline", nargs="?", const=default, help="diff against BASELINE (default %(const)s)"
    )
    args = parser.parse_args(argv)
    document = measure(grid, args.quick)
    for line in speedup_summary(grid, document):
        print(line)
    if args.output:
        with open(args.output, "w") as handle:
            json.dump(document, handle, indent=2, sort_keys=True)
            handle.write("\n")
        print("wrote %s" % args.output)
    if not args.baseline:
        return 0
    with open(args.baseline) as handle:
        baseline = json.load(handle)
    failures, warnings = diff_against_baseline(grid, document, baseline)
    for line in warnings:
        print("WARN %s" % line)
    for line in failures:
        print("FAIL %s" % line, file=sys.stderr)
    if failures:
        return 1
    print("perf trajectory OK (%d cells compared)" % len(document["cells"]))
    return 0
