"""The committed live-deployment perf baseline (BENCH_net.json) stays well-formed.

CI's perf-trajectory job diffs fresh measurements against this file; these
checks pin its structure so a regenerated baseline cannot silently drop the
quick cells the CI diff needs, lose a transport, or record nonsense numbers.
No live deployments run here -- the file is validated as committed.
"""

import json
import os
import statistics
import sys

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(REPO_ROOT, "benchmarks"))

from harness import REPEATS  # noqa: E402

BASELINE_PATH = os.path.join(REPO_ROOT, "BENCH_net.json")

REQUIRED_CELL_KEYS = {
    "family",
    "n",
    "transport",
    "reps",
    "seconds",
    "barriers",
    "frames",
    "rounds_per_sec",
    "round_latency_ms",
    "elections_per_sec",
}


def _load():
    with open(BASELINE_PATH, "r", encoding="utf-8") as handle:
        return json.load(handle)


def _by_key(document):
    return {
        (c["family"], c["n"], c["transport"]): c for c in document["cells"]
    }


def test_baseline_structure():
    document = _load()
    assert document["version"] == 1
    assert document["unit"] == "rounds_per_sec"
    assert document["cells"], "baseline has no cells"
    for cell in document["cells"]:
        assert REQUIRED_CELL_KEYS <= set(cell), cell
        # The harness walks the grid REPEATS times and keeps each cell's median pass.
        runs = cell["runs"]
        assert len(runs) == REPEATS and statistics.median_low(runs) == cell["rounds_per_sec"], cell
        assert cell["rounds_per_sec"] > 0, cell
        assert cell["round_latency_ms"] > 0, cell
        assert cell["reps"] >= 1, cell
        assert cell["barriers"] >= cell["reps"], cell
        # Every barrier is one frame out and one frame back per node, plus
        # the handshake -- far more frames than barriers, always.
        assert cell["frames"] > cell["barriers"], cell
        assert cell["family"] in ("expander", "hypercube"), cell
        assert cell["transport"] in ("uds", "tcp"), cell


def test_baseline_keeps_the_quick_cells_ci_diffs():
    """The full baseline must contain every quick cell, or the CI quick
    diff would have nothing to compare."""
    by_key = _by_key(_load())
    for key in (("expander", 8, "uds"), ("hypercube", 8, "uds")):
        assert key in by_key, "baseline lost quick cell %r" % (key,)
        assert by_key[key]["quick"], "cell %r no longer marked quick" % (key,)


def test_baseline_covers_both_transports():
    transports = {key[2] for key in _by_key(_load())}
    assert transports == {"uds", "tcp"}


def test_baseline_covers_a_scaling_step():
    """At least one family must be measured at two sizes, or the baseline
    says nothing about how barrier latency scales with n."""
    by_key = _by_key(_load())
    sizes = {}
    for family, n, _transport in by_key:
        sizes.setdefault(family, set()).add(n)
    assert any(len(ns) >= 2 for ns in sizes.values()), sizes
