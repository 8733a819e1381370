#!/usr/bin/env python
"""Throughput grid of the result-cache backends: ``BENCH_cache.json``, run through :mod:`harness`.

Measures **entries per second** for every cell of ``backend x operation x entries`` -- the
operations being ``put`` (store a campaign's worth of results), ``get`` (full-outcome fingerprint
lookups), ``merge`` (union a filled shard cache into a fresh one) and ``report`` (fold the
per-configuration summary aggregates a ``campaign_report`` is made of, config by config).  A rep
that loses entries fails the run.

The committed full-size cells carry the backend's acceptance claim: at 10^5 entries the SQLite
backend must merge and report at least 10x faster than the JSON tree
(``tests/test_cache_bench_baseline.py`` pins this against the committed file, not the drift diff).
The ``report`` cell times exactly the cache-side work of a report -- the per-configuration
``get_summary_aggregate`` calls the streaming report path issues -- because the spec-side work
(expanding the sweep and fingerprinting every trial) is identical for both backends and would only
dilute the comparison.
"""

from __future__ import annotations

import os
import sys
import tempfile
from typing import Callable, Dict

import harness

from repro.campaign import CampaignSpec
from repro.core import ElectionParameters
from repro.exec import GraphSpec, ResultCache, SweepSpec, TrialSpec, execute_trial
from repro.exec.fingerprint import trial_fingerprint

#: Cache backends under measurement and the operations timed per backend.
BACKENDS = ("json", "sqlite")
OPERATIONS = ("put", "get", "merge", "report")

#: At most this many fingerprints are looked up by the ``get`` cells (a stride-sampled subset, so
#: the cell cost stays bounded at any size).
GET_SAMPLE = 10_000

FAST = ElectionParameters(c1=3.0, c2=0.5)  # keeps the one real template trial fast

#: Entry counts: the quick cell CI re-measures on every push, and the full cell the committed >=10x
#: merge/report claim is pinned at.
CELLS = [
    {"backend": backend, "operation": operation, "entries": entries, "quick": quick}
    for backend in BACKENDS
    for operation in OPERATIONS
    for entries, quick in ((2000, True), (100_000, False))
]


class Corpus:
    """A synthetic campaign of ``entries`` trials plus a filled cache per backend, shared by cells.

    The campaign is real -- a sweep of clique-election configurations whose expansion yields
    ``entries`` distinct fingerprints -- but only one trial is ever executed; its outcome is stored
    under every fingerprint, because the cache neither knows nor cares whether two entries hold
    equal payloads.  That keeps corpus construction O(entries) cache writes rather than O(entries)
    simulations.
    """

    def __init__(self, entries: int, workdir: str) -> None:
        self.entries = entries
        self.workdir = workdir
        configs = 100 if entries >= 100 else 1
        trials = entries // configs
        assert configs * trials == entries, "grid sizes must divide evenly"
        template = TrialSpec(graph=GraphSpec("clique", (8,)), algorithm="election", params=FAST)
        sweep = SweepSpec(name="main", configs=(template,) * configs, trials=trials, base_seed=11)
        campaign = CampaignSpec(name="cache-bench-%d" % entries, sweeps=(sweep,))
        expanded = [spec for _sweep, spec in campaign.expand()]
        self.template = expanded[0]
        self.outcome = execute_trial(self.template)
        self.fingerprints = [trial_fingerprint(spec) for spec in expanded]
        self.get_sample = self.fingerprints[:: max(1, entries // GET_SAMPLE)]
        # Config-major chunks: the exact per-configuration lookups the streaming report path issues
        # (fingerprints precomputed, because deriving them is spec work, not cache work).
        self.config_chunks = [
            self.fingerprints[index * trials : (index + 1) * trials] for index in range(configs)
        ]
        self.filled = {b: self.fill(os.path.join(workdir, "filled-" + b), b) for b in BACKENDS}

    def fill(self, root: str, backend: str) -> ResultCache:
        cache = ResultCache(root, backend=backend)
        for fingerprint in self.fingerprints:
            cache.put(fingerprint, self.template, self.outcome, 0.001)
        return cache

    def run_once(self, backend: str, operation: str) -> int:
        """One rep of a cell; returns the entries it processed, all checked present."""
        source = self.filled[backend]
        expected = self.entries
        if operation == "put":
            self.fill(tempfile.mkdtemp(dir=self.workdir), backend).close()
            return expected
        if operation == "get":
            expected = len(self.get_sample)
            found = sum(hit is not None for hit in source.get_many(self.get_sample))
        elif operation == "merge":
            target = ResultCache(tempfile.mkdtemp(dir=self.workdir), backend=backend)
            found = target.merge_from(source)
            target.close()
        else:
            found = sum(source.get_summary_aggregate(chunk).done for chunk in self.config_chunks)
        if found != expected:
            raise RuntimeError(
                "%s found %d of %d entries under %s" % (operation, found, expected, backend)
            )
        return found


def _setup(workdir: str) -> Callable[[harness.Cell], harness.RunOnce]:
    """Each corpus is built once per measurement and shared by its cells and passes."""
    corpora: Dict[int, Corpus] = {}

    def prepare(cell: harness.Cell) -> harness.RunOnce:
        entries = cell["entries"]
        if entries not in corpora:
            corpora[entries] = Corpus(entries, tempfile.mkdtemp(dir=workdir))
        backend, operation = cell["backend"], cell["operation"]
        return lambda rep: {"processed": corpora[entries].run_once(backend, operation)}

    return prepare


#: Warm-up: the canonical *source* cache (directory listings, SQLite page cache, WAL settling after
#: the fill) is warmed outside the timed region for every operation that reads it.  Merge
#: qualifies: each rep unions into a fresh target, so the warm-up rep only settles the shared
#: source -- symmetrically for both backends.  Only ``put`` is cold by nature.  Gating: the
#: write-heavy cells (``put``, ``merge``) only ever warn.  Raw file/row creation throughput swings
#: several-fold with the state of the OS writeback queue, far beyond any useful regression
#: threshold, while the read-side cells (``get``, ``report``) are stable enough to gate.
GRID = harness.Grid(
    name="cache",
    key=("backend", "operation", "entries"),
    unit="entries_per_sec",
    count="processed",
    cells=CELLS,
    setup=_setup,
    max_reps=32,
    warmup=lambda cell: cell["operation"] != "put",
    gated=lambda cell: cell["operation"] in ("get", "report"),
    pair=("backend", "json", "sqlite"),
)

if __name__ == "__main__":
    sys.exit(harness.main(GRID))
