#!/usr/bin/env python
"""Throughput driver for the simulator cores, with a committed baseline.

Measures **trials per second** for every cell of a fixed grid
``algorithm x graph family x n x simulator`` and writes the result as
``BENCH_simcore.json`` (committed at the repository root).  CI's
``perf-trajectory`` job re-runs the quick subset of the grid on every push
and diffs the fresh numbers against the committed baseline, so a change
that silently slows a simulator core down fails the build instead of
landing unnoticed.

Because CI runners and developer machines differ in raw speed, the diff
never compares absolute numbers: it first estimates a machine-speed factor
(the median of ``current / baseline`` over all shared cells) and then flags
cells that regressed by more than ``--fail-threshold`` (default 30%)
*relative to that factor*.  A uniform slowdown -- slower machine -- moves
the factor, not the verdict; a single cell falling behind its peers is a
real regression.  Cells drifting beyond ``--warn-threshold`` (default 15%)
are reported but do not fail the run.  The quick subset drops cells only:
each quick cell times the same seeds over the same number of passes as its
baseline entry, so both sides of the diff measure the same work.

Usage::

    python benchmarks/perf_driver.py --quick                  # measure only
    python benchmarks/perf_driver.py --output BENCH_simcore.json
    python benchmarks/perf_driver.py --quick --baseline BENCH_simcore.json

Exit status: 0 on success (or measure-only), 1 when any cell regressed
beyond the failure threshold.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys
import time
from typing import Dict, List, Optional, Tuple

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))

from repro.baselines.known_tmix import known_tmix_trial  # noqa: E402
from repro.core.runner import run_leader_election  # noqa: E402
from repro.graphs.generators import get_family, gilbert_connectivity_radius  # noqa: E402
from repro.graphs.mixing import cached_mixing_time  # noqa: E402
from repro.graphs.topology import Graph  # noqa: E402

#: Baseline document schema version (bumped on incompatible changes).
BASELINE_VERSION = 1

#: Default committed baseline, relative to the repository root.
DEFAULT_BASELINE = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "BENCH_simcore.json"
)

#: Seed for every cell's graph build (trial seeds are the trial index).
GRAPH_SEED = 20180723  # PODC'18

#: Every cell is timed over at least this long (and at least the requested
#: trial count): sub-second cells would otherwise measure mostly noise.
MIN_SECONDS = 1.0

#: Timed trials per cell (seeds 0, 1, ...) in both modes.  Quick mode drops
#: cells, never seeds: on cells slower than :data:`MIN_SECONDS` a smaller
#: count would time only seed 0, whose cost differs from the mean over the
#: seeds behind the committed baseline, and the diff would read that
#: difference as a regression.
DEFAULT_TRIALS = 3

#: Passes over the grid, in quick and full mode alike.  One pass on a
#: shared 2-CPU host moved a cell's rate by up to 2x between runs of the
#: same code; the median of three passes is what the diff compares.
REPEATS = 3

#: Hard cap on timed trials per cell, so a fast cell cannot loop forever on
#: a machine where the clock misbehaves.
MAX_TRIALS = 64


def _grid(quick: bool) -> List[Dict[str, object]]:
    """The measurement grid; ``quick`` selects the CI subset.

    Both modes keep the ``n=512`` expander election cells (reference and
    vectorized): that pair carries the committed >=3x speedup claim, so
    the trajectory job must keep watching it.  The two simulators of one
    ``(algorithm, family, n)`` run back to back, so a machine whose speed
    drifts during the run moves both halves of each speedup ratio alike.
    """
    cells: List[Dict[str, object]] = []

    def cell(algorithm: str, family: str, n: int, quick_cell: bool) -> None:
        for simulator in ("reference", "vectorized"):
            cells.append(
                {
                    "algorithm": algorithm,
                    "family": family,
                    "n": n,
                    "simulator": simulator,
                    "quick": quick_cell,
                }
            )

    cell("election", "expander", 64, True)
    cell("election", "expander", 256, False)
    cell("election", "expander", 512, True)
    cell("election", "hypercube", 64, False)
    cell("election", "hypercube", 256, False)
    cell("election", "gilbert", 64, True)
    cell("election", "gilbert", 256, False)
    cell("known_tmix", "expander", 64, True)
    cell("known_tmix", "expander", 256, False)
    if quick:
        cells = [c for c in cells if c["quick"]]
    return cells


def _build_graph(family: str, n: int) -> Graph:
    if family == "expander":
        return get_family("expander").build(n, degree=8, seed=GRAPH_SEED)
    if family == "hypercube":
        return get_family("hypercube").build(n.bit_length() - 1)
    if family == "gilbert":
        radius = gilbert_connectivity_radius(n)
        return get_family("gilbert").build(n, radius, seed=GRAPH_SEED)
    raise ValueError("unknown benchmark family %r" % family)


def _run_cell(cell: Dict[str, object], trials: int) -> Dict[str, object]:
    """Time one grid cell; returns the cell dict extended with measurements.

    One untimed warm-up trial runs first (numpy ufunc caches, memoised CSR
    tables and schedule objects all warm on the first call), then trials are
    timed until both the requested count and :data:`MIN_SECONDS` of wall
    clock are reached -- without the window, sub-second cells measure mostly
    scheduler noise and the trajectory diff flaps.
    """
    graph = _build_graph(cell["family"], cell["n"])
    algorithm = cell["algorithm"]
    simulator = cell["simulator"]
    mixing_time: Optional[int] = None
    if algorithm == "known_tmix":
        # Computed outside the timed region: the oracle input is an input,
        # not part of the simulator work being measured.
        mixing_time = cached_mixing_time(graph)

    def run_once(seed: int) -> None:
        if algorithm == "election":
            outcome = run_leader_election(graph, seed=seed, simulator=simulator)
            ok = outcome.classification == "elected"
            label = outcome.simulator
        else:
            trial_outcome = known_tmix_trial(
                graph, mixing_time, seed=seed, simulator=simulator
            )
            ok = trial_outcome.classification == "elected"
            label = trial_outcome.extras.get("simulator", "reference")
        if not ok:
            raise RuntimeError("benchmark cell %r failed to elect" % (cell,))
        if simulator == "vectorized" and label != "vectorized":
            raise RuntimeError(
                "benchmark cell %r fell back to %r; the measurement would be "
                "mislabelled" % (cell, label)
            )

    run_once(0)
    done = 0
    start = time.perf_counter()
    while True:
        run_once(done)
        done += 1
        elapsed = time.perf_counter() - start
        if done >= MAX_TRIALS:
            break
        if done >= trials and elapsed >= MIN_SECONDS:
            break
    return {
        "algorithm": algorithm,
        "family": cell["family"],
        "n": cell["n"],
        "simulator": simulator,
        "trials": done,
        "seconds": round(elapsed, 4),
        "trials_per_sec": round(done / elapsed, 4) if elapsed > 0 else float("inf"),
    }


def _cell_key(cell: Dict[str, object]) -> Tuple[str, str, int, str]:
    return (
        str(cell["algorithm"]),
        str(cell["family"]),
        int(cell["n"]),
        str(cell["simulator"]),
    )


def measure(quick: bool, trials: int) -> Dict[str, object]:
    """Run the grid :data:`REPEATS` times and assemble the baseline document.

    Each repetition walks the whole grid before the next starts, so a slow
    spell of the machine lands on different cells in different passes.  A
    cell keeps the pass with its median rate (the lower middle one for an
    even count) and lists every pass's rate under ``runs``, the spread the
    diff's thresholds have to sit above.
    """
    grid = _grid(quick)
    passes: List[List[Dict[str, object]]] = [[] for _ in grid]
    for _ in range(REPEATS):
        for index, cell in enumerate(grid):
            passes[index].append(_run_cell(cell, trials))
    results = []
    for runs in passes:
        rates = [run["trials_per_sec"] for run in runs]
        result = dict(sorted(runs, key=lambda run: run["trials_per_sec"])[(len(runs) - 1) // 2])
        result["runs"] = rates
        results.append(result)
        print(
            "%-10s %-9s n=%-4d %-10s %8.3f trials/sec (%s)"
            % (
                result["algorithm"],
                result["family"],
                result["n"],
                result["simulator"],
                result["trials_per_sec"],
                " ".join("%.3f" % rate for rate in rates),
            ),
            flush=True,
        )
    return {
        "version": BASELINE_VERSION,
        "unit": "trials_per_sec",
        "quick": quick,
        "cells": results,
    }


def speedup_summary(document: Dict[str, object]) -> List[str]:
    """Vectorized-over-reference throughput ratios for every shared cell."""
    by_key = {_cell_key(c): c for c in document["cells"]}
    lines = []
    for key, cell in sorted(by_key.items()):
        if key[3] != "vectorized":
            continue
        reference = by_key.get((key[0], key[1], key[2], "reference"))
        if reference is None:
            continue
        ratio = cell["trials_per_sec"] / reference["trials_per_sec"]
        lines.append(
            "speedup %-10s %-9s n=%-4d %6.1fx" % (key[0], key[1], key[2], ratio)
        )
    return lines


def diff_against_baseline(
    current: Dict[str, object],
    baseline: Dict[str, object],
    fail_threshold: float,
    warn_threshold: float,
) -> Tuple[List[str], List[str]]:
    """Machine-speed-normalised per-cell comparison.

    Returns ``(failures, warnings)`` as human-readable lines.  Cells present
    on only one side are warnings (the grid changed; regenerate the
    baseline), never failures.
    """
    current_by_key = {_cell_key(c): c for c in current["cells"]}
    baseline_by_key = {_cell_key(c): c for c in baseline["cells"]}
    shared = sorted(set(current_by_key) & set(baseline_by_key))
    warnings: List[str] = []
    failures: List[str] = []
    for key in sorted(set(baseline_by_key) - set(current_by_key)):
        warnings.append("cell %r is in the baseline but was not measured" % (key,))
    for key in sorted(set(current_by_key) - set(baseline_by_key)):
        warnings.append("cell %r was measured but has no baseline entry" % (key,))
    if not shared:
        failures.append("no cells shared with the baseline; nothing to diff")
        return failures, warnings

    ratios = [
        current_by_key[key]["trials_per_sec"] / baseline_by_key[key]["trials_per_sec"]
        for key in shared
    ]
    factor = statistics.median(ratios)
    print("machine-speed factor (median current/baseline): %.3f" % factor)
    for key, ratio in zip(shared, ratios):
        relative = ratio / factor
        line = "%-10s %-9s n=%-4d %-10s %+6.1f%% vs baseline (normalised)" % (
            key[0],
            key[1],
            key[2],
            key[3],
            (relative - 1.0) * 100.0,
        )
        if relative < 1.0 - fail_threshold:
            failures.append(line)
        elif abs(relative - 1.0) > warn_threshold:
            warnings.append(line)
    return failures, warnings


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick", action="store_true", help="run the CI subset of the grid"
    )
    parser.add_argument(
        "--trials",
        type=int,
        default=DEFAULT_TRIALS,
        help="minimum timed trials per cell, in quick and full mode alike "
        "(default %d)" % DEFAULT_TRIALS,
    )
    parser.add_argument(
        "--output", help="write the measured baseline document to this path"
    )
    parser.add_argument(
        "--baseline",
        nargs="?",
        const=DEFAULT_BASELINE,
        help="diff the fresh measurements against this committed baseline "
        "(default when the flag is given without a value: BENCH_simcore.json "
        "at the repository root)",
    )
    parser.add_argument(
        "--fail-threshold",
        type=float,
        default=0.30,
        help="normalised per-cell slowdown that fails the run (default 0.30)",
    )
    parser.add_argument(
        "--warn-threshold",
        type=float,
        default=0.15,
        help="normalised per-cell drift that warns (default 0.15)",
    )
    args = parser.parse_args(argv)
    document = measure(args.quick, args.trials)
    for line in speedup_summary(document):
        print(line)

    if args.output:
        with open(args.output, "w") as handle:
            json.dump(document, handle, indent=2, sort_keys=True)
            handle.write("\n")
        print("wrote %s" % args.output)

    if args.baseline:
        with open(args.baseline) as handle:
            baseline = json.load(handle)
        if baseline.get("version") != BASELINE_VERSION:
            print(
                "baseline version %r != driver version %d; regenerate it"
                % (baseline.get("version"), BASELINE_VERSION),
                file=sys.stderr,
            )
            return 1
        failures, warnings = diff_against_baseline(
            document, baseline, args.fail_threshold, args.warn_threshold
        )
        for line in warnings:
            print("WARN %s" % line)
        for line in failures:
            print("FAIL %s" % line, file=sys.stderr)
        if failures:
            return 1
        print("perf trajectory OK (%d cells compared)" % len(document["cells"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
