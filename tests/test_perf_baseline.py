"""The committed perf baseline (BENCH_simcore.json) stays well-formed.

CI's perf-trajectory job diffs fresh measurements against this file; these
checks pin its structure and the repository's headline speedup claim so a
regenerated baseline cannot silently drop the cells the claim rests on.
No simulation runs here -- the file is validated as committed.
"""

import json
import os

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BASELINE_PATH = os.path.join(REPO_ROOT, "BENCH_simcore.json")

REQUIRED_CELL_KEYS = {
    "algorithm",
    "family",
    "n",
    "simulator",
    "trials",
    "seconds",
    "trials_per_sec",
}


def _load():
    with open(BASELINE_PATH, "r", encoding="utf-8") as handle:
        return json.load(handle)


def _by_key(document):
    return {
        (c["algorithm"], c["family"], c["n"], c["simulator"]): c
        for c in document["cells"]
    }


def test_baseline_structure():
    document = _load()
    assert document["version"] == 1
    assert document["unit"] == "trials_per_sec"
    assert document["cells"], "baseline has no cells"
    for cell in document["cells"]:
        assert REQUIRED_CELL_KEYS <= set(cell), cell
        assert cell["trials_per_sec"] > 0, cell
        assert cell["trials"] >= 1, cell
        assert cell["simulator"] in ("reference", "vectorized"), cell


def test_baseline_covers_both_simulators_per_cell():
    by_key = _by_key(_load())
    for algorithm, family, n, simulator in by_key:
        other = "vectorized" if simulator == "reference" else "reference"
        assert (algorithm, family, n, other) in by_key, (
            "cell (%s, %s, %d) measured only under %s"
            % (algorithm, family, n, simulator)
        )


def test_committed_speedup_claim():
    """The acceptance pin: >=3x vectorized speedup on n>=512 expander
    election cells (and the grid actually contains such a cell).  The
    committed baseline measures about 4.8x against the indexed reference
    engine."""
    by_key = _by_key(_load())
    large_expander = [
        key
        for key in by_key
        if key[0] == "election"
        and key[1] == "expander"
        and key[2] >= 512
        and key[3] == "vectorized"
    ]
    assert large_expander, "baseline lost its n>=512 expander election cells"
    for key in large_expander:
        vectorized = by_key[key]["trials_per_sec"]
        reference = by_key[(key[0], key[1], key[2], "reference")]["trials_per_sec"]
        assert vectorized >= 3 * reference, (
            "committed speedup claim broken at %s: %.2fx"
            % (key, vectorized / reference)
        )
