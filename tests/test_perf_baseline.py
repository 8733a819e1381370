"""The committed perf baseline (BENCH_simcore.json) stays well-formed.

CI's perf-trajectory job diffs fresh measurements against this file; these
checks pin its structure and the repository's headline speedup claim so a
regenerated baseline cannot silently drop the cells the claim rests on.
No simulation runs here -- the file is validated as committed.
"""

import json
import os
import statistics
import sys

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(REPO_ROOT, "benchmarks"))

from harness import REPEATS  # noqa: E402

BASELINE_PATH = os.path.join(REPO_ROOT, "BENCH_simcore.json")

REQUIRED_CELL_KEYS = {
    "algorithm",
    "family",
    "n",
    "faults",
    "simulator",
    "batch",
    "trials",
    "seconds",
    "trials_per_sec",
}


def _load():
    with open(BASELINE_PATH, "r", encoding="utf-8") as handle:
        return json.load(handle)


def _by_key(document, batch=1):
    """The cells of one ``batch`` size by ``(algorithm, family, n, faults, simulator)``."""
    return {
        (c["algorithm"], c["family"], c["n"], c["faults"], c["simulator"]): c
        for c in document["cells"]
        if c["batch"] == batch
    }


def test_baseline_structure():
    document = _load()
    assert document["version"] == 1
    assert document["unit"] == "trials_per_sec"
    assert document["cells"], "baseline has no cells"
    for cell in document["cells"]:
        assert REQUIRED_CELL_KEYS <= set(cell), cell
        # The harness walks the grid REPEATS times and keeps each cell's median pass.
        runs = cell["runs"]
        assert len(runs) == REPEATS and statistics.median_low(runs) == cell["trials_per_sec"], cell
        assert cell["trials_per_sec"] > 0, cell
        assert cell["trials"] >= 1, cell
        assert cell["simulator"] in ("reference", "vectorized"), cell
        assert cell["batch"] == 1 or cell["simulator"] == "vectorized", cell


def test_baseline_covers_both_simulators_per_cell():
    by_key = _by_key(_load())
    for algorithm, family, n, faults, simulator in by_key:
        other = "vectorized" if simulator == "reference" else "reference"
        assert (algorithm, family, n, faults, other) in by_key, (
            "cell (%s, %s, %d, %s) measured only under %s"
            % (algorithm, family, n, faults, simulator)
        )


def test_batched_cells_keep_up_with_unbatched():
    """Every batched cell runs at least as many trials per second as the
    vectorized cell that runs the same trials one engine call at a time."""
    document = _load()
    unbatched = _by_key(document)
    batch_sizes = {cell["batch"] for cell in document["cells"]} - {1}
    assert batch_sizes, "baseline lost its batched cells"
    for batch in batch_sizes:
        for key, cell in _by_key(document, batch).items():
            assert key in unbatched, "batched cell %s has no unbatched partner" % (key,)
            single = unbatched[key]["trials_per_sec"]
            assert cell["trials_per_sec"] >= single, (
                "batched cell %s: %.2f trials/s, below the unbatched %.2f"
                % (key, cell["trials_per_sec"], single)
            )


def test_committed_speedup_claim():
    """The acceptance pin: >=3x vectorized speedup on n>=512 expander
    election cells (and the grid actually contains such a cell)."""
    by_key = _by_key(_load())
    large_expander = [
        key
        for key in by_key
        if key[0] == "election"
        and key[1] == "expander"
        and key[2] >= 512
        and key[4] == "vectorized"
    ]
    assert large_expander, "baseline lost its n>=512 expander election cells"
    for key in large_expander:
        vectorized = by_key[key]["trials_per_sec"]
        reference = by_key[key[:4] + ("reference",)]["trials_per_sec"]
        assert vectorized >= 3 * reference, (
            "committed speedup claim broken at %s: %.2fx"
            % (key, vectorized / reference)
        )


def _speedups(by_key, faulty):
    """Vectorized/reference trials-per-second ratio of every committed cell
    pair, of the faulty cells or of the fault-free ones."""
    return {
        key[:4]: cell["trials_per_sec"] / by_key[key[:4] + ("reference",)]["trials_per_sec"]
        for key, cell in by_key.items()
        if key[4] == "vectorized" and (key[3] != "none") == faulty
    }


def test_faulty_cells_keep_the_vectorized_engine_ten_times_faster():
    """Under message drop and delay the vectorized engine runs the faults
    itself; every faulty cell pair from n=64 up shows it >=10x the reference
    engine.  (The n=16 pairs are the unbatched partners of the batched
    cells; a trial there is mostly per-call overhead, which batches spread.)"""
    speedups = {
        key: ratio
        for key, ratio in _speedups(_by_key(_load()), faulty=True).items()
        if key[2] >= 64
    }
    assert speedups, "baseline lost its faulty cells"
    for key, ratio in speedups.items():
        assert ratio >= 10, "faulty cell %s: vectorized only %.1fx the reference" % (key, ratio)


def test_docs_quote_the_committed_speedups():
    """The docs restate the baseline's fault-free and faulty vectorized/reference
    ranges and its n=512 expander ratio; a regenerated baseline must be
    restated with them."""
    by_key = _by_key(_load())
    docs = {}
    for name in ("README.md", "docs/architecture.md", "docs/experiments.md"):
        with open(os.path.join(REPO_ROOT, name), "r", encoding="utf-8") as handle:
            docs[name] = handle.read()
    for faulty in (False, True):
        speedups = _speedups(by_key, faulty)
        quoted = "%.1f–%.1f" % (min(speedups.values()), max(speedups.values()))
        for name, text in docs.items():
            assert quoted in text, "%s does not quote the %s speedup range" % (name, quoted)
    large = "%.1f×" % _speedups(by_key, False)[("election", "expander", 512, "none")]
    assert large in docs["docs/experiments.md"], "experiments.md does not quote %s" % large
