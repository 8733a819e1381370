#!/usr/bin/env python
"""Throughput grid of the simulator cores: ``BENCH_simcore.json``, run through :mod:`harness`.

Measures **trials per second** for every cell of ``algorithm x graph family x n x faults x
simulator x batch x workers``.  Every timed trial must finish inside the round cap and every
fault-free one must elect a leader (an adversary may leave no leader, or several), and a
``vectorized`` cell must not fall back to the reference engine, or the measurement would be
mislabelled.  A cell of ``batch`` 1 runs one trial per engine call; a batched cell hands the serial
backend chunks of :data:`~repro.exec.execute.BATCH_TRIALS` same-shape trials, which it runs as one
engine call each.  A batched cell of ``workers`` 2 sends the same chunks as work units to a
2-worker :class:`~repro.exec.backends.workerpool.WorkerPoolBackend`, one unit per worker.
"""

from __future__ import annotations

import atexit
import sys

import harness

from repro.baselines.known_tmix import known_tmix_trial
from repro.core.runner import run_leader_election
from repro.exec import TrialSpec
from repro.exec.backends import SerialBackend, WorkerPoolBackend
from repro.exec.execute import BATCH_TRIALS
from repro.faults import DelayFaults, FaultPlan, MessageFaults
from repro.graphs.generators import get_family, gilbert_connectivity_radius
from repro.graphs.mixing import cached_mixing_time
from repro.graphs.topology import Graph

GRAPH_SEED = 20180723  # PODC'18; seeds every cell's graph build (trial seeds are the rep index)

#: Timed trials per cell (seeds 0, 1, ...) in both modes.  Quick mode drops cells, never seeds: on
#: cells slower than ``MIN_SECONDS`` a smaller count would time only seed 0, whose cost differs
#: from the mean over the seeds behind the committed baseline, and the diff would read that
#: difference as a regression.
DEFAULT_TRIALS = 3

#: The fault plans a cell's trials run under, by the label its ``faults`` field carries.
FAULTS = {
    "none": None,
    "drop 0.05": FaultPlan(messages=MessageFaults(drop_probability=0.05)),
    "delay<=1": FaultPlan(delays=DelayFaults(max_delay=1)),
}

#: Both modes keep the ``n=512`` expander election cells: that pair carries the committed >=3x
#: speedup claim, so the trajectory job must keep watching it.  The two simulators of one
#: ``(algorithm, family, n, faults)`` run back to back, then its batched cell where it has one, so a
#: machine whose speed drifts during the run moves both halves of each ratio alike.  The faulty
#: cells time the election under 5% message drop and under per-edge delays of up to one round.
#: The batched cells time expander elections at n = 16, 64 and 256, fault-free and under drop;
#: the quick subset keeps the fault-free n=64 one.  That row also has a worker-pool cell, in the
#: quick subset too, timed right after its serial batched partner.
BATCHED = {
    ("election", "expander", 16, "none"): False,
    ("election", "expander", 16, "drop 0.05"): False,
    ("election", "expander", 64, "none"): True,
    ("election", "expander", 64, "drop 0.05"): False,
    ("election", "expander", 256, "none"): False,
    ("election", "expander", 256, "drop 0.05"): False,
}

#: Workers of the pool cells, and the rows that have one.
POOL_WORKERS = 2
POOLED = {("election", "expander", 64, "none")}

CELLS = [
    {
        "algorithm": algorithm,
        "family": family,
        "n": n,
        "faults": faults,
        "simulator": simulator,
        "batch": batch,
        "workers": workers,
        "quick": quick if batch == 1 else BATCHED[algorithm, family, n, faults],
    }
    for algorithm, family, n, faults, quick in [
        ("election", "expander", 16, "none", False),
        ("election", "expander", 16, "drop 0.05", False),
        ("election", "expander", 64, "none", True),
        ("election", "expander", 256, "none", False),
        ("election", "expander", 512, "none", True),
        ("election", "hypercube", 64, "none", False),
        ("election", "hypercube", 256, "none", False),
        ("election", "gilbert", 64, "none", True),
        ("election", "gilbert", 256, "none", False),
        ("known_tmix", "expander", 64, "none", True),
        ("known_tmix", "expander", 256, "none", False),
        ("election", "expander", 64, "drop 0.05", True),
        ("election", "expander", 64, "delay<=1", True),
        ("election", "expander", 256, "drop 0.05", False),
        ("election", "expander", 256, "delay<=1", False),
        ("election", "gilbert", 64, "drop 0.05", False),
        ("election", "gilbert", 64, "delay<=1", False),
        ("election", "gilbert", 256, "drop 0.05", False),
        ("election", "gilbert", 256, "delay<=1", False),
    ]
    for simulator, batch, workers in (
        ("reference", 1, 1),
        ("vectorized", 1, 1),
        ("vectorized", BATCH_TRIALS, 1),
        ("vectorized", BATCH_TRIALS, POOL_WORKERS),
    )
    if batch == 1
    or (workers == 1 and (algorithm, family, n, faults) in BATCHED)
    or (algorithm, family, n, faults) in POOLED
]


def _build_graph(family: str, n: int) -> Graph:
    if family == "hypercube":
        return get_family("hypercube").build(n.bit_length() - 1)
    if family == "gilbert":
        return get_family("gilbert").build(n, gilbert_connectivity_radius(n), seed=GRAPH_SEED)
    return get_family("expander").build(n, degree=8, seed=GRAPH_SEED)


def _check(cell: harness.Cell, outcome, simulator: str, label: str) -> None:
    if FAULTS[cell["faults"]] is None and outcome.classification != "elected":
        raise RuntimeError("benchmark cell %r failed to elect" % (cell,))
    if not outcome.metrics.completed:
        raise RuntimeError("benchmark cell %r hit the round cap" % (cell,))
    if simulator == "vectorized" and label != "vectorized":
        raise RuntimeError(
            "benchmark cell %r fell back to %r; the measurement would be "
            "mislabelled" % (cell, label)
        )


_POOLS = {}


def _pool(workers: int) -> WorkerPoolBackend:
    """One started pool per size, shared by every pass and closed at exit: worker startup is
    setup, not part of the measured work."""
    if workers not in _POOLS:
        _POOLS[workers] = WorkerPoolBackend(workers=workers)
        _POOLS[workers].start()
        atexit.register(_POOLS[workers].close)
    return _POOLS[workers]


def _prepare_batched(cell: harness.Cell, graph: Graph) -> harness.RunOnce:
    """Rep ``r`` runs the ``batch * workers`` seeds from ``r * batch * workers`` on: one chunk of
    the serial backend, or one work unit per pool worker."""
    plan = FAULTS[cell["faults"]]
    backend = SerialBackend() if cell["workers"] == 1 else _pool(cell["workers"])
    trials = cell["batch"] * cell["workers"]

    def run_once(rep: int):
        specs = [
            TrialSpec(graph=graph, seed=seed, simulator="vectorized", fault_plan=plan)
            for seed in range(rep * trials, (rep + 1) * trials)
        ]
        for _index, payload in backend.map(specs):
            if payload.error is not None:
                raise RuntimeError("benchmark cell %r: %s" % (cell, payload.error))
            outcome = payload.outcome
            _check(cell, outcome, "vectorized", outcome.extras.get("simulator", "reference"))
        return {"trials": trials}

    return run_once


def _prepare(cell: harness.Cell) -> harness.RunOnce:
    graph = _build_graph(cell["family"], cell["n"])
    if cell["batch"] > 1:
        return _prepare_batched(cell, graph)
    simulator = cell["simulator"]
    plan = FAULTS[cell["faults"]]
    # Computed outside the timed region: the oracle input is an input, not part of the simulator
    # work being measured.
    mixing_time = cached_mixing_time(graph) if cell["algorithm"] == "known_tmix" else None

    def run_once(seed: int):
        if mixing_time is None:
            outcome = run_leader_election(graph, seed=seed, simulator=simulator, fault_plan=plan)
            label = outcome.simulator
        else:
            outcome = known_tmix_trial(graph, mixing_time, seed=seed, simulator=simulator)
            label = outcome.extras.get("simulator", "reference")
        _check(cell, outcome, simulator, label)
        return {"trials": 1}

    return run_once


GRID = harness.Grid(
    name="simcore",
    key=("algorithm", "family", "n", "faults", "simulator", "batch", "workers"),
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
