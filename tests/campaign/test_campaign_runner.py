"""Tests for CampaignRunner: resume, bounded retry, manifests, sharding."""

import json
import os

import pytest

from repro.baselines.flood_max import flood_max_trial
from repro.campaign import (
    MANIFEST_NAME,
    CampaignManifest,
    CampaignRunner,
    CampaignSpec,
    RetryPolicy,
    TrialEntry,
)
from repro.core import ElectionParameters
from repro.exec import GraphSpec, ResultCache, Shard, SweepSpec, TrialSpec, trial_fingerprint
from repro.exec.algorithms import ALGORITHMS, register_algorithm
from repro.obs.tracer import TraceSink

FAST = ElectionParameters(c1=3.0, c2=0.5)

# A test-only algorithm that fails a configurable number of times before
# succeeding: attempts are counted in the file named by algo_kwargs, so the
# "transient infrastructure failure" the retry policy exists for can be
# simulated deterministically.  Serial workers only -- the registration does
# not exist in spawned worker processes.
if "_flaky_test_only" not in ALGORITHMS:

    @register_algorithm("_flaky_test_only")
    def _run_flaky(graph, spec):
        state_file = spec.algo_kwargs["state_file"]
        failures_budget = spec.algo_kwargs["failures"]
        attempts = 0
        if os.path.exists(state_file):
            with open(state_file) as handle:
                attempts = int(handle.read())
        with open(state_file, "w") as handle:
            handle.write(str(attempts + 1))
        if attempts < failures_budget:
            raise RuntimeError("transient failure %d" % (attempts + 1))
        return flood_max_trial(graph, seed=spec.seed)


def _campaign(retry=RetryPolicy(), trials=2):
    return CampaignSpec(
        name="unit",
        sweeps=(
            SweepSpec(
                name="scaling",
                configs=tuple(
                    TrialSpec(graph=GraphSpec("clique", (n,)), params=FAST, label="n=%d" % n)
                    for n in (10, 12)
                ),
                trials=trials,
                base_seed=3,
            ),
        ),
        retry=retry,
    )


def _flaky_campaign(tmp_path, failures, max_attempts):
    return CampaignSpec(
        name="flaky",
        sweeps=(
            SweepSpec(
                name="only",
                configs=(
                    TrialSpec(
                        graph=GraphSpec("clique", (8,)),
                        algorithm="_flaky_test_only",
                        algo_kwargs={
                            "state_file": str(tmp_path / "attempts"),
                            "failures": failures,
                        },
                    ),
                ),
                trials=1,
                base_seed=1,
            ),
        ),
        retry=RetryPolicy(max_attempts=max_attempts),
    )


class TestResume:
    def test_first_run_executes_everything(self, tmp_path):
        result = CampaignRunner(_campaign(), ResultCache(tmp_path)).run()
        assert result.executed == 4
        assert result.cache_hits == 0
        assert result.failed == 0

    def test_rerun_is_all_cache_hits(self, tmp_path):
        cache = ResultCache(tmp_path)
        CampaignRunner(_campaign(), cache).run()
        resumed = CampaignRunner(_campaign(), cache).run()
        assert resumed.executed == 0
        assert resumed.cache_hits == 4
        assert resumed.manifest.counts()["cached"] == 4

    def test_outcomes_match_across_resume(self, tmp_path):
        cache = ResultCache(tmp_path)
        first = CampaignRunner(_campaign(), cache).run()
        resumed = CampaignRunner(_campaign(), cache).run()
        for outcome, again in zip(
            first.outcomes_for("scaling"), resumed.outcomes_for("scaling")
        ):
            assert outcome.as_record() == again.as_record()

    def test_requires_a_cache(self):
        with pytest.raises(TypeError):
            CampaignRunner(_campaign(), cache=None)


class TestRetry:
    def test_transient_failure_retried_to_success(self, tmp_path):
        campaign = _flaky_campaign(tmp_path, failures=2, max_attempts=3)
        result = CampaignRunner(campaign, ResultCache(tmp_path / "cache")).run()
        assert result.failed == 0
        assert result.executed == 1
        entry = result.manifest.entries[0]
        assert entry.status == "executed"
        assert entry.attempts == 3
        assert entry.error is None

    def test_attempts_are_bounded(self, tmp_path):
        campaign = _flaky_campaign(tmp_path, failures=5, max_attempts=2)
        result = CampaignRunner(campaign, ResultCache(tmp_path / "cache")).run()
        assert result.failed == 1
        entry = result.manifest.entries[0]
        assert entry.status == "failed"
        assert entry.attempts == 2
        assert "transient failure" in entry.error
        with open(tmp_path / "attempts") as handle:
            assert handle.read() == "2"

    def test_failed_trial_not_cached_and_succeeds_on_next_run(self, tmp_path):
        campaign = _flaky_campaign(tmp_path, failures=2, max_attempts=2)
        cache = ResultCache(tmp_path / "cache")
        first = CampaignRunner(campaign, cache).run()
        assert first.failed == 1
        assert cache.stats().entries == 0
        # The "infrastructure" recovered: the next campaign run succeeds.
        second = CampaignRunner(campaign, cache).run()
        assert second.failed == 0
        assert second.executed == 1


class _Counter(TraceSink):
    def __init__(self):
        self.names = []

    def emit(self, record):
        self.names.append(record["name"])


class TestDefaultBackendAcrossRetries:
    def test_retry_rounds_reuse_one_worker_pool(self, tmp_path):
        # Three configs of two trials each; one config (an election that may
        # not learn n) fails on every attempt, so each retry round has two
        # trials pending.  The rounds must not start new worker interpreters.
        failing = TrialSpec(
            graph=GraphSpec("clique", (8,)), params=FAST, algo_kwargs={"known_n": None}
        )
        healthy = tuple(TrialSpec(graph=GraphSpec("clique", (n,)), params=FAST) for n in (6, 9))
        campaign = CampaignSpec(
            name="retry-pool",
            sweeps=(
                SweepSpec(name="mixed", configs=(failing, *healthy), trials=2, base_seed=5),
            ),
            retry=RetryPolicy(max_attempts=3),
        )
        counter = _Counter()
        result = CampaignRunner(
            campaign, ResultCache(tmp_path), workers=2, sinks=(counter,)
        ).run()
        assert (result.failed, result.executed) == (2, 4)
        assert counter.names.count("worker.spawned") == 2


class TestSharding:
    def test_shards_partition_and_union_resumes_free(self, tmp_path):
        campaign = _campaign()
        cache = ResultCache(tmp_path)
        parts = [
            CampaignRunner(campaign, cache, shard=Shard(k, 2)).run() for k in (0, 1)
        ]
        assert sum(part.assigned for part in parts) == campaign.num_trials
        for part in parts:
            skipped = part.manifest.counts()["other_shard"]
            assert skipped == campaign.num_trials - part.assigned
        resumed = CampaignRunner(campaign, cache).run()
        assert resumed.executed == 0

    def test_outcomes_for_marks_other_shard_trials_none(self, tmp_path):
        campaign = _campaign()
        part = CampaignRunner(campaign, ResultCache(tmp_path), shard=Shard(0, 2)).run()
        outcomes = part.outcomes_for("scaling")
        assert len(outcomes) == campaign.num_trials
        assert sum(1 for outcome in outcomes if outcome is not None) == part.assigned


class TestManifest:
    def test_manifest_written_and_loadable(self, tmp_path):
        campaign = _campaign()
        CampaignRunner(
            campaign, ResultCache(tmp_path / "cache"), directory=tmp_path / "run"
        ).run()
        path = tmp_path / "run" / MANIFEST_NAME
        manifest = CampaignManifest.load(path)
        assert manifest.campaign == "unit"
        assert manifest.fingerprint == campaign.fingerprint()
        assert manifest.counts()["executed"] == 4
        assert {entry.sweep for entry in manifest.entries} == {"scaling"}
        with open(path) as handle:
            assert json.load(handle)["counts"]["executed"] == 4

    def test_foreign_manifest_warns_but_runs(self, tmp_path, caplog):
        cache = ResultCache(tmp_path / "cache")
        directory = tmp_path / "run"
        CampaignRunner(_campaign(), cache, directory=directory).run()
        other = CampaignSpec(
            name="different", sweeps=_campaign().sweeps, retry=RetryPolicy()
        )
        with caplog.at_level("WARNING", logger="repro.campaign.runner"):
            result = CampaignRunner(other, cache, directory=directory).run()
        assert result.cache_hits == 4  # same trials, so the cache still serves
        assert any("different fingerprint" in record.message for record in caplog.records)

    def test_entry_validates_status(self):
        with pytest.raises(ValueError):
            TrialEntry(
                sweep="s", index=0, fingerprint="ab", label="", status="bogus"
            )


class TestTrialDocuments:
    """Each executed trial's canonical trial document is built once: the
    campaign's expansion builds it for the fingerprint and the result cache
    stores that same document."""

    @pytest.fixture
    def builds(self, monkeypatch):
        """Counts canonical trial documents built (one graph entry each)."""
        from repro.exec import fingerprint

        counted = []
        original = fingerprint._canonical_graph

        def counting(graph):
            counted.append(graph)
            return original(graph)

        monkeypatch.setattr(fingerprint, "_canonical_graph", counting)
        return counted

    @pytest.mark.parametrize("cache_backend", ["json", "sqlite"])
    def test_one_document_per_executed_trial(self, builds, tmp_path, cache_backend):
        campaign = _campaign(trials=3)
        cache = ResultCache(tmp_path / "cache", backend=cache_backend)
        result = CampaignRunner(campaign, cache, directory=tmp_path).run()
        assert result.manifest.counts()["executed"] == campaign.num_trials == 6
        assert len(builds) == campaign.num_trials
        # A resume fingerprints every trial again and stores nothing.
        del builds[:]
        resumed = CampaignRunner(campaign, cache, directory=tmp_path).run()
        assert resumed.manifest.counts()["cached"] == campaign.num_trials
        assert len(builds) == campaign.num_trials

    def test_entries_match_documents_built_afresh(self, tmp_path):
        """The stored entries are exactly what a put of fresh, never
        fingerprinted specs writes, apart from the timestamps."""
        campaign = _campaign(trials=3)
        cache = ResultCache(tmp_path / "campaign")
        CampaignRunner(campaign, cache, directory=tmp_path).run()
        fresh = ResultCache(tmp_path / "fresh")
        for sweep in campaign.sweeps:
            for spec, twin in zip(sweep.expand(), sweep.expand()):
                fingerprint = trial_fingerprint(spec)
                stored = cache.get(fingerprint)
                # The twin was never fingerprinted: put builds its document.
                fresh.put(fingerprint, twin, stored.outcome, stored.elapsed_seconds)

        def timeless(entries):
            return sorted(
                (
                    {k: v for k, v in entry.items() if k not in ("created", "elapsed_seconds")}
                    for entry in entries
                ),
                key=lambda entry: entry["fingerprint"],
            )

        assert timeless(cache.entries()) == timeless(fresh.entries())
        assert len(list(fresh.entries())) == campaign.num_trials
