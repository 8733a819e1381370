#!/usr/bin/env python
"""Latency grid of the live networked deployment: ``BENCH_net.json``, run through :mod:`harness`.

Measures what the ``repro.net`` coordinator *adds* on top of the simulator: every cell of a fixed
``family x n x transport`` grid runs one real deployment -- node processes, frames over a socket, a
coordinator barrier per event round -- and records **rounds per second** (how fast the lock-step
barrier turns over) plus the per-round latency and per-election wall time derived from it.  Each
cell also cross-validates its live outcome against the simulator's before any number is recorded: a
benchmark run that diverges from the model is a failed run, not a slow one.
``tests/test_net_baseline.py`` pins the committed file's structure.
"""

from __future__ import annotations

import sys

import harness

from repro.core import ElectionParameters
from repro.exec import GraphSpec, TrialSpec
from repro.net.coordinator import cross_validate

FAST = ElectionParameters(c1=3.0, c2=0.5)  # keeps each election short enough to repeat
GRAPH_SEED = 20180723  # deterministic graph construction across baseline regenerations
TRIAL_SEED = 42  # the seed every cell runs (the live/sim agreement is seed-exact)


def _graph(family: str, n: int) -> GraphSpec:
    if family == "hypercube":
        dimension = n.bit_length() - 1
        assert 2**dimension == n, "hypercube cells need a power-of-two n"
        return GraphSpec("hypercube", (dimension,))
    return GraphSpec("expander", (n,), {"degree": 4}, seed=GRAPH_SEED)


CELLS = [
    {"family": "expander", "n": 8, "transport": "uds", "quick": True},
    {"family": "hypercube", "n": 8, "transport": "uds", "quick": True},
    {"family": "expander", "n": 8, "transport": "tcp", "quick": False},
    {"family": "expander", "n": 16, "transport": "uds", "quick": False},
    {"family": "hypercube", "n": 16, "transport": "uds", "quick": False},
]


def _prepare(cell: harness.Cell) -> harness.RunOnce:
    family, n, transport = cell["family"], cell["n"], cell["transport"]
    spec = TrialSpec(graph=_graph(family, n), algorithm="election", seed=TRIAL_SEED, params=FAST)

    def run_once(rep: int):
        agreement = cross_validate(spec, transport=transport)
        if not agreement.agrees:
            raise RuntimeError(
                "live run diverged from the simulator in cell %s/%d/%s:\n%s"
                % (family, n, transport, "\n".join(agreement.mismatches))
            )
        events = agreement.live.metrics.net_events
        return {"barriers": int(events["barriers"]), "frames": int(events["frames"])}

    return run_once


def _derive(result: harness.Cell) -> harness.Cell:
    return {
        "round_latency_ms": round(1000.0 * result["seconds"] / result["barriers"], 4),
        "elections_per_sec": round(result["reps"] / result["seconds"], 4),
    }


GRID = harness.Grid(
    name="net",
    key=("family", "n", "transport"),
    unit="rounds_per_sec",
    count="barriers",
    cells=CELLS,
    setup=lambda workdir: _prepare,
    max_reps=8,  # fast cells repeat whole elections, at most this many
    derive=_derive,
)

if __name__ == "__main__":
    sys.exit(harness.main(GRID))
