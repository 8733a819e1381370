#!/usr/bin/env python
"""Throughput grid of the simulator cores: ``BENCH_simcore.json``, run through :mod:`harness`.

Measures **trials per second** for every cell of ``algorithm x graph family x n x simulator``.
Every timed trial must elect a leader, and a ``vectorized`` cell must not fall back to the
reference engine, or the measurement would be mislabelled.
"""

from __future__ import annotations

import sys

import harness

from repro.baselines.known_tmix import known_tmix_trial
from repro.core.runner import run_leader_election
from repro.graphs.generators import get_family, gilbert_connectivity_radius
from repro.graphs.mixing import cached_mixing_time
from repro.graphs.topology import Graph

GRAPH_SEED = 20180723  # PODC'18; seeds every cell's graph build (trial seeds are the rep index)

#: Timed trials per cell (seeds 0, 1, ...) in both modes.  Quick mode drops cells, never seeds: on
#: cells slower than ``MIN_SECONDS`` a smaller count would time only seed 0, whose cost differs
#: from the mean over the seeds behind the committed baseline, and the diff would read that
#: difference as a regression.
DEFAULT_TRIALS = 3

#: Both modes keep the ``n=512`` expander election cells: that pair carries the committed >=3x
#: speedup claim, so the trajectory job must keep watching it.  The two simulators of one
#: ``(algorithm, family, n)`` run back to back, so a machine whose speed drifts during the run
#: moves both halves of each speedup ratio alike.
CELLS = [
    {"algorithm": algorithm, "family": family, "n": n, "simulator": simulator, "quick": quick}
    for algorithm, family, n, quick in [
        ("election", "expander", 64, True),
        ("election", "expander", 256, False),
        ("election", "expander", 512, True),
        ("election", "hypercube", 64, False),
        ("election", "hypercube", 256, False),
        ("election", "gilbert", 64, True),
        ("election", "gilbert", 256, False),
        ("known_tmix", "expander", 64, True),
        ("known_tmix", "expander", 256, False),
    ]
    for simulator in ("reference", "vectorized")
]


def _build_graph(family: str, n: int) -> Graph:
    if family == "hypercube":
        return get_family("hypercube").build(n.bit_length() - 1)
    if family == "gilbert":
        return get_family("gilbert").build(n, gilbert_connectivity_radius(n), seed=GRAPH_SEED)
    return get_family("expander").build(n, degree=8, seed=GRAPH_SEED)


def _prepare(cell: harness.Cell) -> harness.RunOnce:
    graph = _build_graph(cell["family"], cell["n"])
    simulator = cell["simulator"]
    # Computed outside the timed region: the oracle input is an input, not part of the simulator
    # work being measured.
    mixing_time = cached_mixing_time(graph) if cell["algorithm"] == "known_tmix" else None

    def run_once(seed: int):
        if mixing_time is None:
            outcome = run_leader_election(graph, seed=seed, simulator=simulator)
            label = outcome.simulator
        else:
            outcome = known_tmix_trial(graph, mixing_time, seed=seed, simulator=simulator)
            label = outcome.extras.get("simulator", "reference")
        if outcome.classification != "elected":
            raise RuntimeError("benchmark cell %r failed to elect" % (cell,))
        if simulator == "vectorized" and label != "vectorized":
            raise RuntimeError(
                "benchmark cell %r fell back to %r; the measurement would be "
                "mislabelled" % (cell, label)
            )
        return {"trials": 1}

    return run_once


GRID = harness.Grid(
    name="simcore",
    key=("algorithm", "family", "n", "simulator"),
    unit="trials_per_sec",
    count="trials",
    cells=CELLS,
    setup=lambda workdir: _prepare,
    max_reps=64,
    min_reps=DEFAULT_TRIALS,
    warmup=lambda cell: True,  # numpy ufunc caches, memoised CSR tables, schedules warm on trial 1
    pair=("simulator", "reference", "vectorized"),
)

if __name__ == "__main__":
    sys.exit(harness.main(GRID))
