"""E11 -- robustness: the election under message loss and crash-stop faults.

The paper's guarantees assume a synchronous, fault-free network.  E11 measures
how the Theorem 13 election degrades when that assumption is dropped: success
probability and message overhead as a function of the per-message drop rate
and the number of crash-stopped nodes, on the two well-connected families the
paper highlights (expanders and hypercubes).  Every configuration runs under a
:class:`repro.faults.FaultPlan` through the batch executor, so the sweep is
bit-for-bit replayable from its base seed, and its rows come from
``sweep_summary`` -- the same table E13 and the campaign report render.

The companion assertions pin the anchor of every curve -- the fault-free
configuration must succeed with probability 1 and overhead exactly 1.0 -- and
sanity-check the degraded rows (probabilities in range, classification tallies
complete, fault counters actually firing once the drop rate is positive).
"""

import pytest

from repro.analysis import algorithm_robustness_configs, sweep_summary
from repro.exec import BatchRunner, SweepSpec
from repro.graphs import expander_graph, hypercube_graph

SEED = 1107
CRASH_PHASE = 2

_ROW_CACHE = {}


def _sweep(key, graph, drop_rates, crash_counts, trials):
    """The ``sweep_summary`` rows of one (drop, crash) grid, each row tagged
    with its grid point and the fault events summed over its trials."""
    if key not in _ROW_CACHE:
        triples, configs = algorithm_robustness_configs(
            graph,
            algorithms=("election",),
            drop_rates=drop_rates,
            crash_counts=crash_counts,
            crash_phase=CRASH_PHASE,
        )
        sweep = SweepSpec(name="e11-" + key, configs=configs, trials=trials, base_seed=SEED)
        outcomes = [result.outcome for result in BatchRunner().run_sweep(sweep)]
        rows = sweep_summary(sweep, outcomes)
        for (_name, drop, crashes), row, group in zip(triples, rows, sweep.group(outcomes)):
            fault_events = {}
            for outcome in group:
                for kind, count in outcome.metrics.fault_events.items():
                    fault_events[kind] = fault_events.get(kind, 0) + count
            row.update(drop=drop, crashes=crashes, fault_events=fault_events)
        _ROW_CACHE[key] = rows
    return _ROW_CACHE[key]


def _curve_info(rows):
    return {
        "drop_rates": [row["drop"] for row in rows],
        "crash_counts": [row["crashes"] for row in rows],
        "success_rates": [row["success_rate"] for row in rows],
        "overheads": [row["overhead"] for row in rows],
        "classifications": [
            {label: count for label, count in row["classifications"].items() if count}
            for row in rows
        ],
    }


def _check_curve(rows, trials):
    baseline = rows[0]
    assert baseline["drop"] == 0.0 and baseline["crashes"] == 0
    assert baseline["success_rate"] == 1.0
    assert baseline["overhead"] == 1.0
    assert baseline["fault_events"] == {}
    for row in rows:
        assert 0.0 <= row["success_rate"] <= 1.0
        assert sum(row["classifications"].values()) == row["trials"] == trials
        assert row["messages"] > 0
        if row["drop"] > 0.0:
            assert row["fault_events"].get("dropped", 0) > 0
        if row["crashes"] > 0:
            assert row["fault_events"].get("crashed_nodes", 0) > 0


def test_e11_expander_drop_smoke(benchmark):
    """Smoke slice (runs in CI): a tiny expander drop-rate curve."""
    graph = expander_graph(64, degree=4, seed=SEED)
    rows = benchmark.pedantic(
        lambda: _sweep("smoke", graph, (0.0, 0.1), (0,), 2),
        rounds=1,
        iterations=1,
    )
    benchmark.extra_info.update(_curve_info(rows))
    _check_curve(rows, trials=2)


@pytest.mark.slow
def test_e11_expander_drop_and_crash_grid(benchmark):
    """Success probability vs drop rate x crash count on a 64-node expander."""
    graph = expander_graph(64, degree=4, seed=SEED + 2)
    rows = benchmark.pedantic(
        lambda: _sweep("expander", graph, (0.0, 0.05, 0.15), (0, 4), 2),
        rounds=1,
        iterations=1,
    )
    benchmark.extra_info.update(_curve_info(rows))
    _check_curve(rows, trials=2)


@pytest.mark.slow
def test_e11_hypercube_drop_curve(benchmark):
    """The same drop-rate curve on the 6-dimensional hypercube (n=64)."""
    graph = hypercube_graph(6)
    rows = benchmark.pedantic(
        lambda: _sweep("hypercube", graph, (0.0, 0.05, 0.15), (0,), 2),
        rounds=1,
        iterations=1,
    )
    benchmark.extra_info.update(_curve_info(rows))
    _check_curve(rows, trials=2)


@pytest.mark.slow
def test_e11_crash_classification_accounting(benchmark):
    """Crash-heavy runs classify every trial and report the crashed nodes."""
    graph = expander_graph(64, degree=4, seed=SEED + 1)
    rows = benchmark.pedantic(
        lambda: _sweep("crashes", graph, (0.0,), (0, 8, 16), 2),
        rounds=1,
        iterations=1,
    )
    benchmark.extra_info.update(_curve_info(rows))
    _check_curve(rows, trials=2)
    for row in rows:
        if row["crashes"]:
            assert row["fault_events"]["crashed_nodes"] == row["crashes"] * row["trials"]
