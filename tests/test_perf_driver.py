"""The simulator-core perf driver measures the same work in quick and full mode.

CI diffs a quick run against the committed full-grid baseline, so a quick
cell must time the same seeds over the same passes as its baseline entry.
No simulation runs here: ``_run_cell`` is replaced by a stub.
"""

import importlib.util
import os

import pytest

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


@pytest.fixture(scope="module")
def driver():
    path = os.path.join(REPO_ROOT, "benchmarks", "perf_driver.py")
    spec = importlib.util.spec_from_file_location("perf_driver_under_test", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _stub_cells(driver, monkeypatch, rates):
    """Make ``_run_cell`` return ``rates`` in call order; record the calls."""
    calls = []
    feed = iter(rates)

    def run_cell(cell, trials):
        calls.append((driver._cell_key(cell), trials))
        rate = next(feed)
        return dict(cell, trials=trials, seconds=trials / rate, trials_per_sec=rate)

    monkeypatch.setattr(driver, "_run_cell", run_cell)
    return calls


@pytest.mark.parametrize("quick", [True, False])
def test_grid_runs_each_simulator_pair_back_to_back(driver, quick):
    cells = driver._grid(quick)
    assert len(cells) % 2 == 0
    for reference, vectorized in zip(cells[::2], cells[1::2]):
        assert reference["simulator"] == "reference"
        assert vectorized["simulator"] == "vectorized"
        assert driver._cell_key(reference)[:3] == driver._cell_key(vectorized)[:3]


def test_quick_and_full_mode_time_the_same_work(driver, monkeypatch):
    seen = []

    def measure(quick, trials):
        seen.append(trials)
        return {"version": driver.BASELINE_VERSION, "cells": []}

    monkeypatch.setattr(driver, "measure", measure)
    assert driver.main(["--quick"]) == 0
    assert driver.main([]) == 0
    assert seen == [driver.DEFAULT_TRIALS, driver.DEFAULT_TRIALS]


def test_measure_keeps_each_cells_median_pass(driver, monkeypatch):
    cells = driver._grid(True)
    # Three passes over the grid; cell i reads i+1, then 3*(i+1), then 2*(i+1).
    rates = [
        (index + 1) * factor for factor in (1, 3, 2) for index in range(len(cells))
    ]
    calls = _stub_cells(driver, monkeypatch, rates)
    monkeypatch.setattr(driver, "REPEATS", 3)
    document = driver.measure(True, 3)
    assert len(calls) == 3 * len(cells)
    assert {trials for _key, trials in calls} == {3}
    # Every pass walks the whole grid before the next starts.
    keys = [driver._cell_key(cell) for cell in cells]
    assert [key for key, _trials in calls] == keys * 3
    for index, cell in enumerate(document["cells"]):
        assert driver._cell_key(cell) == keys[index]
        assert cell["runs"] == [index + 1, 3 * (index + 1), 2 * (index + 1)]
        assert cell["trials_per_sec"] == 2 * (index + 1)
