"""The shared perf harness and the three grids declared on it.

CI diffs a quick run against the committed full-grid baseline, so a quick
cell must time the same work as its baseline entry and a quick run of
unchanged code must diff clean.  No simulation, cache operation or live
deployment runs here: each grid's ``setup`` is replaced by a stub whose
``run_once`` advances a fake clock by one second per rep.
"""

import dataclasses
import json
import os
import sys
import types

import pytest

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(REPO_ROOT, "benchmarks"))

import harness  # noqa: E402
import perf_cache  # noqa: E402
import perf_driver  # noqa: E402
import perf_net  # noqa: E402

GRIDS = {grid.name: grid for grid in (perf_driver.GRID, perf_cache.GRID, perf_net.GRID)}


@pytest.fixture
def clock(monkeypatch):
    fake = types.SimpleNamespace(now=0.0)
    fake.perf_counter = lambda: fake.now
    monkeypatch.setattr(harness, "time", fake)
    return fake


def _stub(grid, clock, rate):
    """``grid`` with a stub ``run_once``: every rep takes one second and adds
    ``rate(pass, cell)`` to the grid's counter.  Returns the stubbed grid and
    the ``(key, seed)`` calls it records, warm-ups included."""
    calls = []
    prepared = []

    def prepare(cell):
        pass_index = len([key for key in prepared if key == harness.cell_key(grid, cell)])
        prepared.append(harness.cell_key(grid, cell))

        def run_once(seed):
            calls.append((harness.cell_key(grid, cell), seed))
            clock.now += 1.0
            return {grid.count: rate(pass_index, cell)}

        return run_once

    return dataclasses.replace(grid, setup=lambda workdir: prepare), calls, prepared


def _quick_keys(grid):
    return [harness.cell_key(grid, cell) for cell in grid.cells if cell["quick"]]


def _committed(grid):
    with open(os.path.join(REPO_ROOT, "BENCH_%s.json" % grid.name)) as handle:
        return json.load(handle)


def _quick_subset(grid, document, scale=None):
    """The committed cells a quick run measures, rates scaled per key."""
    keys = _quick_keys(grid)
    cells = []
    for cell in document["cells"]:
        key = harness.cell_key(grid, cell)
        if key in keys:
            factor = scale(key) if scale else 1.0
            cells.append(dict(cell, **{grid.unit: cell[grid.unit] * factor}))
    return dict(document, quick=True, cells=cells)


@pytest.mark.parametrize("quick", [True, False])
def test_grid_runs_each_simulator_pair_back_to_back(quick):
    # Each reference cell is followed by its vectorized partner, then by the
    # batched vectorized cell of the same row where the row has one, then by
    # the row's worker-pool cell where it has one.
    cells = [cell for cell in perf_driver.GRID.cells if cell["quick"] or not quick]
    rows = []
    for cell in cells:
        key = harness.cell_key(perf_driver.GRID, cell)
        if cell["simulator"] == "reference":
            assert cell["batch"] == 1
            rows.append([key])
        else:
            assert key[:4] == rows[-1][0][:4]
            rows[-1].append(key)
    batch, pool = perf_driver.BATCH_TRIALS, perf_driver.POOL_WORKERS
    for row in rows:
        assert [key[4:] for key in row][:2] == [("reference", 1, 1), ("vectorized", 1, 1)]
        assert [key[4:] for key in row][2:] in (
            [],
            [("vectorized", batch, 1)],
            [("vectorized", batch, 1), ("vectorized", batch, pool)],
        )
    batched = [row[0][:4] for row in rows if len(row) >= 3]
    assert sorted(batched) == sorted(
        key for key, quick_cell in perf_driver.BATCHED.items() if quick_cell or not quick
    )
    pooled = [row[0][:4] for row in rows if len(row) == 4]
    assert sorted(pooled) == sorted(perf_driver.POOLED), "the pool cell is in the quick grid"


def test_quick_and_full_mode_time_the_same_work(clock):
    seeds = {}
    for quick in (True, False):
        grid, calls, _prepared = _stub(perf_driver.GRID, clock, lambda p, cell: 1)
        harness.measure(grid, quick)
        for key in _quick_keys(grid):
            seeds.setdefault(key, []).append([seed for k, seed in calls if k == key])
    # One untimed warm-up on seed 0, then DEFAULT_TRIALS timed seeds, per pass.
    per_pass = [0] + list(range(perf_driver.DEFAULT_TRIALS))
    for quick_run, full_run in seeds.values():
        assert quick_run == full_run == per_pass * harness.REPEATS


def test_measure_keeps_each_cells_median_pass(clock):
    assert harness.REPEATS == 3
    for base in GRIDS.values():
        keys = [harness.cell_key(base, cell) for cell in base.cells]

        # Three passes over the grid; cell i reads i+1, then 3*(i+1), then 2*(i+1).
        def rate(pass_index, cell):
            return (1, 3, 2)[pass_index] * (keys.index(harness.cell_key(base, cell)) + 1)

        grid, _calls, prepared = _stub(base, clock, rate)
        document = harness.measure(grid, False)
        # Every pass walks the whole grid before the next starts.
        assert prepared == keys * 3
        for index, cell in enumerate(document["cells"]):
            assert harness.cell_key(grid, cell) == keys[index]
            assert cell["runs"] == [index + 1, 3 * (index + 1), 2 * (index + 1)]
            assert cell[grid.unit] == 2 * (index + 1)
            assert cell["reps"] == grid.min_reps
        if base is perf_net.GRID:
            cell = document["cells"][0]
            assert cell["round_latency_ms"] == 500.0 and cell["elections_per_sec"] == 1.0


@pytest.mark.parametrize("name", sorted(GRIDS))
def test_quick_run_of_unchanged_code_diffs_clean(name, capsys):
    grid = GRIDS[name]
    committed = _committed(grid)
    quick_run = _quick_subset(grid, committed)
    assert harness.diff_against_baseline(grid, quick_run, committed) == ([], [])
    # A baseline cell the grid no longer contains still warns ...
    dropped = next(cell for cell in grid.cells if not cell["quick"])
    smaller = dataclasses.replace(grid, cells=[cell for cell in grid.cells if cell is not dropped])
    failures, warnings = harness.diff_against_baseline(smaller, quick_run, committed)
    assert failures == [] and len(warnings) == 1
    assert repr(harness.cell_key(grid, dropped)) in warnings[0]
    # ... and so does a measured cell with no baseline entry.
    missing = _quick_keys(grid)[0]
    kept = [cell for cell in committed["cells"] if harness.cell_key(grid, cell) != missing]
    failures, warnings = harness.diff_against_baseline(grid, quick_run, dict(committed, cells=kept))
    assert failures == []
    assert warnings == ["cell %r was measured but has no baseline entry" % (missing,)]


@pytest.mark.parametrize("name", sorted(GRIDS))
def test_uniform_slowdown_passes(name, capsys):
    grid = GRIDS[name]
    committed = _committed(grid)
    slower = _quick_subset(grid, committed, scale=lambda key: 0.5)
    assert harness.diff_against_baseline(grid, slower, committed) == ([], [])


@pytest.mark.parametrize(
    "name, slow_cell, fails",
    [
        ("simcore", ("election", "gilbert", 64, "none", "vectorized", 1, 1), True),
        ("cache", ("sqlite", "get", 2000), True),
        ("cache", ("json", "put", 2000), False),
    ],
)
def test_one_cell_forty_percent_slower(name, slow_cell, fails, capsys):
    grid = GRIDS[name]
    committed = _committed(grid)
    current = _quick_subset(grid, committed, scale=lambda key: 0.6 if key == slow_cell else 1.0)
    failures, warnings = harness.diff_against_baseline(grid, current, committed)
    line = failures if fails else warnings
    assert len(line) == 1 and "-40.0%" in line[0]
    assert (warnings if fails else failures) == []


@pytest.mark.parametrize("name", sorted(GRIDS))
def test_main_quick_run_matching_the_baseline_exits_clean(name, clock, capsys, tmp_path):
    grid = GRIDS[name]
    committed = _committed(grid)
    rates = {harness.cell_key(grid, cell): cell[grid.unit] for cell in committed["cells"]}
    stubbed, _calls, _prepared = _stub(grid, clock, lambda p, c: rates[harness.cell_key(grid, c)])
    output = tmp_path / "fresh.json"
    baseline = os.path.join(REPO_ROOT, "BENCH_%s.json" % name)
    assert harness.main(stubbed, ["--quick", "--baseline", baseline, "--output", str(output)]) == 0
    stdout = capsys.readouterr().out
    assert "WARN" not in stdout and "perf trajectory OK" in stdout
    written = json.loads(output.read_text())
    assert written["version"] == harness.BASELINE_VERSION and written["quick"] is True
    assert [harness.cell_key(grid, cell) for cell in written["cells"]] == _quick_keys(grid)


def test_fail_and_warn_lines_print_both_pass_ranges(capsys):
    grid = GRIDS["cache"]
    committed = _committed(grid)
    # A gated cell fails, an ungated one and one that sped up warn.
    slow_keys = {
        ("sqlite", "get", 2000): 0.6,
        ("json", "put", 2000): 0.6,
        ("json", "get", 2000): 1.2,
    }
    current = _quick_subset(grid, committed, scale=lambda key: slow_keys.get(key, 1.0))
    for cell in current["cells"]:
        cell["runs"] = [cell[grid.unit] * 0.9, cell[grid.unit], cell[grid.unit] * 1.1]
    failures, warnings = harness.diff_against_baseline(grid, current, committed)
    by_key = {harness.cell_key(grid, cell): cell for cell in committed["cells"]}
    fresh = {harness.cell_key(grid, cell): cell for cell in current["cells"]}
    assert len(failures) == 1 and len(warnings) == 2
    for line in failures + warnings:
        key = next(key for key in slow_keys if repr(key) in line)
        base_runs, fresh_runs = by_key[key]["runs"], fresh[key]["runs"]
        assert "baseline %g-%g" % (min(base_runs), max(base_runs)) in line
        assert "current %g-%g" % (min(fresh_runs), max(fresh_runs)) in line


def test_measure_records_the_environment(clock):
    grid, _calls, _prepared = _stub(perf_cache.GRID, clock, lambda p, cell: 1)
    document = harness.measure(grid, True)
    environment = document["environment"]
    assert set(environment) == {"cpu_count", "platform", "python", "numpy"}
    assert environment == harness.environment()


@pytest.mark.parametrize("name", sorted(GRIDS))
def test_environment_blocks_are_printed_and_compared(name, capsys):
    grid = GRIDS[name]
    committed = _committed(grid)
    here = harness.environment()
    quick_run = dict(_quick_subset(grid, committed), environment=here)
    # The committed baselines carry the block; one without it (every document written before the
    # block existed) notes, never warns.
    assert "environment" in committed
    legacy = {key: value for key, value in committed.items() if key != "environment"}
    assert harness.diff_against_baseline(grid, quick_run, legacy) == ([], [])
    stdout = capsys.readouterr().out
    assert stdout.count("note:") == 1 and "environment" in stdout
    # Matching blocks print both sides and stay quiet.
    baseline = dict(committed, environment=dict(here))
    assert harness.diff_against_baseline(grid, quick_run, baseline) == ([], [])
    stdout = capsys.readouterr().out
    assert "baseline environment" in stdout and "current environment" in stdout
    # A different machine warns, and the gate does not move.
    baseline = dict(committed, environment=dict(here, cpu_count=1024))
    failures, warnings = harness.diff_against_baseline(grid, quick_run, baseline)
    assert failures == [] and len(warnings) == 1 and "environment" in warnings[0]
    assert "1024" in capsys.readouterr().out
