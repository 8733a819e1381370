"""The committed cache perf baseline (BENCH_cache.json) stays well-formed.

CI's perf-trajectory job diffs fresh measurements against this file; these
checks pin its structure and the backend's headline claim -- SQLite merges
and serves report summaries >=10x faster than the JSON tree at 10^5
entries -- so a regenerated baseline cannot silently drop the cells the
claim rests on.  No cache operations run here -- the file is validated as
committed.
"""

import json
import os
import statistics
import sys

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(REPO_ROOT, "benchmarks"))

from harness import REPEATS  # noqa: E402

BASELINE_PATH = os.path.join(REPO_ROOT, "BENCH_cache.json")

REQUIRED_CELL_KEYS = {
    "backend",
    "operation",
    "entries",
    "reps",
    "seconds",
    "entries_per_sec",
}

#: The cells the acceptance claim is pinned at.
FULL_ENTRIES = 100_000
CLAIMED_OPERATIONS = ("merge", "report")
CLAIMED_SPEEDUP = 10.0


def _load():
    with open(BASELINE_PATH, "r", encoding="utf-8") as handle:
        return json.load(handle)


def _by_key(document):
    return {
        (c["backend"], c["operation"], c["entries"]): c for c in document["cells"]
    }


def test_baseline_structure():
    document = _load()
    assert document["version"] == 1
    assert document["unit"] == "entries_per_sec"
    assert document["cells"], "baseline has no cells"
    for cell in document["cells"]:
        assert REQUIRED_CELL_KEYS <= set(cell), cell
        # The harness walks the grid REPEATS times and keeps each cell's median pass.
        runs = cell["runs"]
        assert len(runs) == REPEATS and statistics.median_low(runs) == cell["entries_per_sec"], cell
        assert cell["entries_per_sec"] > 0, cell
        assert cell["reps"] >= 1, cell
        assert cell["backend"] in ("json", "sqlite"), cell
        assert cell["operation"] in ("put", "get", "merge", "report"), cell


def test_baseline_covers_both_backends_per_cell():
    by_key = _by_key(_load())
    for backend, operation, entries in by_key:
        other = "sqlite" if backend == "json" else "json"
        assert (other, operation, entries) in by_key, (
            "cell (%s, %d) measured only under %s" % (operation, entries, backend)
        )


def test_baseline_keeps_the_quick_cells_ci_diffs():
    """The full baseline must contain every quick cell, or the CI quick
    diff would have nothing to compare."""
    by_key = _by_key(_load())
    for backend in ("json", "sqlite"):
        for operation in ("put", "get", "merge", "report"):
            quick = [
                key
                for key in by_key
                if key[0] == backend and key[1] == operation and by_key[key]["quick"]
            ]
            assert quick, "no quick cell for (%s, %s)" % (backend, operation)


def test_committed_speedup_claim():
    """The acceptance pin: >=10x SQLite-over-JSON throughput for merge AND
    report at 10^5 entries (and the grid actually contains those cells)."""
    by_key = _by_key(_load())
    for operation in CLAIMED_OPERATIONS:
        sqlite_cell = by_key.get(("sqlite", operation, FULL_ENTRIES))
        json_cell = by_key.get(("json", operation, FULL_ENTRIES))
        assert sqlite_cell is not None and json_cell is not None, (
            "baseline lost its %d-entry %s cells" % (FULL_ENTRIES, operation)
        )
        ratio = sqlite_cell["entries_per_sec"] / json_cell["entries_per_sec"]
        assert ratio >= CLAIMED_SPEEDUP, (
            "committed speedup claim broken at (%s, %d): %.2fx"
            % (operation, FULL_ENTRIES, ratio)
        )
