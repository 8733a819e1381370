"""Property suite: every cache backend is observationally equivalent.

The pluggable backends (JSON tree, SQLite database) must be interchangeable
*implementations* of the same cache: for every registered algorithm on every
simulator it declares, a campaign run against a SQLite cache has to produce
byte-identical reports, the same manifest (up to timestamps), and the same
fingerprint hit/miss behaviour as the same campaign against a JSON-tree
cache.  Sharded runs merged across ``m`` machines must report byte-identical
to the single-machine run regardless of which backend each shard used.
"""

import json
import os

import pytest

from repro.campaign import CampaignRunner, CampaignSpec, write_report
from repro.core import ElectionParameters
from repro.exec import (
    BatchRunner,
    GraphSpec,
    ResultCache,
    Shard,
    SweepSpec,
    TrialSpec,
    cache_backend_names,
    make_cache_backend,
    trial_fingerprint,
)
from repro.exec.cache import aggregate_summaries
from repro.exec.algorithms import algorithm_names, get_algorithm

FAST = ElectionParameters(c1=3.0, c2=0.5)

BACKENDS = cache_backend_names()

#: Every (algorithm, simulator) pair the registry declares.
MATRIX = [
    (name, simulator)
    for name in algorithm_names()
    for simulator in get_algorithm(name).simulators
]


def _trial(algorithm, simulator="reference", graph_size=8):
    params = {"params": FAST} if get_algorithm(algorithm).needs_params else {}
    return TrialSpec(
        graph=GraphSpec("clique", (graph_size,)),
        algorithm=algorithm,
        simulator=simulator,
        **params,
    )


def _campaign(configs, trials=2, name="equivalence"):
    return CampaignSpec(
        name=name,
        sweeps=(
            SweepSpec(name="main", configs=tuple(configs), trials=trials, base_seed=7),
        ),
    )


def _run(campaign, directory, backend, shard=None):
    """Run ``campaign`` into ``directory`` on ``backend``; return its cache."""
    cache = ResultCache(os.path.join(directory, "cache"), backend=backend)
    runner = CampaignRunner(
        campaign, cache, workers=1, directory=directory, shard=shard
    )
    runner.run()
    return cache


def _report_bytes(campaign, cache, directory):
    _, json_path = write_report(campaign, cache, directory)
    with open(json_path, "rb") as handle:
        return handle.read()


def _normalized_manifest(directory):
    """manifest.json minus wall-clock noise (created / per-trial timings)."""
    with open(os.path.join(directory, "manifest.json"), "r", encoding="utf-8") as handle:
        document = json.load(handle)
    document.pop("created", None)
    for trial in document["trials"]:
        trial.pop("elapsed_seconds", None)
    return document


class TestCampaignEquivalence:
    @pytest.mark.parametrize("algorithm,simulator", MATRIX)
    def test_backends_agree_for_every_algorithm(self, tmp_path, algorithm, simulator):
        """Same campaign, every backend: byte-identical report.json, the same
        manifest up to timestamps, the same cache-hit accounting."""
        campaign = _campaign([_trial(algorithm, simulator)])
        artifacts = {}
        for backend in BACKENDS:
            directory = str(tmp_path / backend)
            cache = _run(campaign, directory, backend)
            artifacts[backend] = (
                _report_bytes(campaign, cache, directory),
                _normalized_manifest(directory),
                cache.stats().entries,
            )
        reference = artifacts[BACKENDS[0]]
        for backend in BACKENDS[1:]:
            report, manifest, entries = artifacts[backend]
            assert report == reference[0], "report.json differs on %s" % backend
            assert manifest == reference[1]
            assert entries == reference[2]

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_resume_serves_every_trial_from_cache(self, tmp_path, backend):
        campaign = _campaign([_trial("election"), _trial("flood_max")], trials=3)
        directory = str(tmp_path / "campaign")
        _run(campaign, directory, backend)
        cache = ResultCache(os.path.join(directory, "cache"), backend=backend)
        result = CampaignRunner(campaign, cache, workers=1, directory=directory).run()
        assert result.executed == 0
        assert result.cache_hits == campaign.num_trials

    @pytest.mark.parametrize("shards", [2, 3])
    def test_sharded_merges_report_byte_identical(self, tmp_path, shards):
        """m shard caches (each on its own backend) merged into one SQLite
        cache report byte-identically to the single-machine JSON run."""
        campaign = _campaign(
            [_trial("election"), _trial("flood_max"), _trial("spanning_tree")],
            trials=3,
            name="sharded",
        )
        single_dir = str(tmp_path / "single")
        single = _run(campaign, single_dir, "json")
        expected = _report_bytes(campaign, single, single_dir)

        merged = ResultCache(str(tmp_path / "merged"), backend="sqlite")
        for index in range(shards):
            backend = BACKENDS[index % len(BACKENDS)]
            shard_dir = str(tmp_path / ("shard-%d-of-%d" % (index, shards)))
            shard_cache = _run(
                campaign, shard_dir, backend, shard=Shard(index, shards)
            )
            merged.merge_from(shard_cache)
        assert len(merged) == campaign.num_trials
        assert _report_bytes(campaign, merged, str(tmp_path / "merged-report")) == expected


class TestHitMissParity:
    def test_hit_miss_accounting_is_backend_independent(self, tmp_path):
        specs = [_trial("election"), _trial("flooding")]
        counts = {}
        for backend in BACKENDS:
            cache = ResultCache(tmp_path / backend, backend=backend)
            runner = BatchRunner(workers=1, cache=cache)
            runner.run(specs)  # all misses
            runner.run(specs)  # all hits
            stats = cache.stats()
            counts[backend] = (stats.hits, stats.misses, stats.entries)
        assert len(set(counts.values())) == 1
        assert counts[BACKENDS[0]] == (len(specs), len(specs), len(specs))

    def test_entries_agree_across_backends(self, tmp_path):
        """The full stored documents -- trial, outcome, label -- are equal."""
        specs = [_trial("election"), _trial("push_pull")]
        documents = {}
        for backend in BACKENDS:
            cache = ResultCache(tmp_path / backend, backend=backend)
            BatchRunner(workers=1, cache=cache).run(specs)
            documents[backend] = {
                entry["fingerprint"]: {
                    key: value
                    for key, value in entry.items()
                    if key not in ("created", "elapsed_seconds")
                }
                for entry in cache.entries()
            }
        reference = documents[BACKENDS[0]]
        for backend in BACKENDS[1:]:
            assert documents[backend] == reference


class TestCrossBackendMerge:
    @pytest.mark.parametrize("source_backend", BACKENDS)
    @pytest.mark.parametrize("target_backend", BACKENDS)
    def test_merge_between_any_backend_pair(self, tmp_path, source_backend, target_backend):
        source = ResultCache(tmp_path / "source", backend=source_backend)
        target = ResultCache(tmp_path / "target", backend=target_backend)
        spec = _trial("election")
        BatchRunner(workers=1, cache=source).run([spec])
        assert target.merge_from(source) == 1
        assert target.merge_from(source) == 0  # already present: skipped
        assert target.get(trial_fingerprint(spec)) is not None
        hit = BatchRunner(workers=1, cache=target).run([spec])[0]
        assert hit.from_cache


class TestSqliteMergeWatermarks:
    """SQLite-to-SQLite merges: a page copy into an empty target, otherwise
    one ``INSERT OR IGNORE ... SELECT`` over the whole source, so
    re-merging a source adds exactly the rows the target lacks.
    """

    def _sqlite(self, tmp_path, name, specs=()):
        cache = ResultCache(tmp_path / name, backend="sqlite")
        if specs:
            BatchRunner(workers=1, cache=cache).run(list(specs))
        return cache

    def test_repeat_merges_ingest_only_new_rows(self, tmp_path):
        source = self._sqlite(tmp_path, "source", [_trial("election")])
        target = self._sqlite(tmp_path, "target", [_trial("flooding")])
        assert target.merge_from(source) == 1
        assert target.merge_from(source) == 0, "unchanged source: nothing new"
        BatchRunner(workers=1, cache=source).run([_trial("flood_max")])
        assert target.merge_from(source) == 1, "only the row the target lacks"

    def test_source_delete_then_remerge(self, tmp_path):
        dropped = _trial("election")
        source = self._sqlite(tmp_path, "source", [dropped, _trial("flooding")])
        target = self._sqlite(tmp_path, "target", [_trial("spanning_tree")])
        assert target.merge_from(source) == 2
        assert source._backend.delete([trial_fingerprint(dropped)]) == 1
        BatchRunner(workers=1, cache=source).run([_trial("flood_max")])
        # The new row lands; the rows the target already holds are skipped.
        assert target.merge_from(source) == 1
        assert len(target) == 4

    def test_backup_fast_path_into_an_empty_target(self, tmp_path):
        source = self._sqlite(
            tmp_path, "source", [_trial("election"), _trial("flooding")]
        )
        target = self._sqlite(tmp_path, "target")
        assert target.merge_from(source) == 2
        assert target.merge_from(source) == 0

    def test_json_sources_merge_without_watermarks(self, tmp_path):
        """A file-tree source streams its documents; the merge stays
        idempotent through INSERT OR IGNORE."""
        source = ResultCache(tmp_path / "source", backend="json")
        BatchRunner(workers=1, cache=source).run([_trial("election")])
        target = self._sqlite(tmp_path, "target")
        assert target.merge_from(source) == 1
        assert target.merge_from(source) == 0


class TestAggregateParity:
    """The report fold (``aggregate``) matches the reference fold exactly.

    SQLite pushes the per-configuration fold into the database (``GROUP BY``
    over the summary index); the JSON tree folds its summary rows in Python.
    Both must equal :func:`repro.exec.cache.aggregate_summaries` applied to
    the backend's own ``summaries()`` stream -- the exact-integer property
    that keeps report.json byte-identical across backends.
    """

    def _filled(self, tmp_path, backend):
        cache = ResultCache(tmp_path / backend, backend=backend)
        runner = BatchRunner(workers=1, cache=cache)
        specs = [
            _trial("election"),
            _trial("flood_max"),
            _trial("spanning_tree"),
            _trial("election", graph_size=12),
        ]
        runner.run(specs)
        return cache, [trial_fingerprint(spec) for spec in specs]

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_aggregate_matches_reference_fold(self, tmp_path, backend):
        cache, fingerprints = self._filled(tmp_path, backend)
        # Include misses and a duplicate: requested counts distinct prints.
        requested = fingerprints + ["f" * 64, fingerprints[0]]
        distinct = list(dict.fromkeys(requested))
        expected = aggregate_summaries(
            len(distinct), cache._backend.summaries(distinct)
        )
        assert cache._backend.aggregate(requested) == expected
        assert expected.requested == len(distinct)
        assert expected.done == len(fingerprints)

    def test_aggregates_agree_across_backends(self, tmp_path):
        folds = {}
        for backend in BACKENDS:
            cache, fingerprints = self._filled(tmp_path, backend)
            misses_after_fill = cache.stats().misses
            folds[backend] = cache.get_summary_aggregate(fingerprints)
            stats = cache.stats()
            # The aggregate counted every fingerprint as a hit and added no
            # misses beyond the fill run's own.
            assert (stats.hits, stats.misses) == (
                len(fingerprints),
                misses_after_fill,
            )
        assert folds["json"] == folds["sqlite"]

    def test_aggregate_of_nothing_is_empty(self, tmp_path):
        for backend in BACKENDS:
            cache = ResultCache(tmp_path / backend, backend=backend)
            aggregate = cache.get_summary_aggregate([])
            assert aggregate.requested == 0
            assert aggregate.done == 0
            assert aggregate.kind is None
            assert aggregate.classification_counts == ()


class TestBackendSurface:
    def test_registry_lists_both_backends(self):
        assert BACKENDS == ("json", "sqlite")
        with pytest.raises(KeyError, match="json"):
            make_cache_backend("mongodb", "/nonexistent")

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_stats_name_the_backend(self, tmp_path, backend):
        cache = ResultCache(tmp_path, backend=backend)
        assert cache.stats().backend == backend
        assert cache.backend_name == backend

    def test_path_for_raises_clearly_on_sqlite(self, tmp_path):
        cache = ResultCache(tmp_path, backend="sqlite")
        with pytest.raises(NotImplementedError, match="sqlite"):
            cache.path_for("ab" * 32)

    def test_sqlite_marker_wins_over_default(self, tmp_path):
        ResultCache(tmp_path, backend="sqlite").close()
        reopened = ResultCache(tmp_path)  # no explicit backend
        assert reopened.backend_name == "sqlite"

    def test_env_var_selects_backend_for_fresh_roots(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_BACKEND", "sqlite")
        assert ResultCache(tmp_path / "fresh").backend_name == "sqlite"
        # An explicit argument always beats the environment.
        assert ResultCache(tmp_path / "other", backend="json").backend_name == "json"

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_prune_and_compact_on_each_backend(self, tmp_path, backend):
        cache = ResultCache(tmp_path, backend=backend)
        runner = BatchRunner(workers=1, cache=cache)
        for spec in (_trial("election"), _trial("flooding"), _trial("flood_max")):
            runner.run([spec])
        assert cache.stats().entries == 3
        assert cache.prune(max_entries=1) == 2
        assert cache.stats().entries == 1
        cache.compact()
        assert cache.stats().entries == 1
