"""Sharding determinism: union of shards == the unsharded run, bit for bit.

The load-bearing property of the campaign layer (satellite requirement of the
campaign PR): for any sweep, partitioning its trials into ``m`` shards by
fingerprint and running the shards independently as campaign shards
(``CampaignRunner(shard=Shard(k, m))``) -- serially or on 4 workers, into
separate caches -- must reproduce exactly the trials, outcomes and cache
entries of the unsharded single-machine run.  The property test drives random
small sweeps through both paths for ``m in {2, 3}``.
"""

import pytest

from hypothesis import given, settings, strategies as st

from repro.campaign import CampaignRunner, CampaignSpec
from repro.core import ElectionParameters
from repro.exec import (
    BatchRunner,
    GraphSpec,
    ResultCache,
    Shard,
    SweepSpec,
    TrialSpec,
    shard_index_for,
    trial_fingerprint,
)

FAST = ElectionParameters(c1=3.0, c2=0.5)


class TestShardPrimitives:
    def test_parse_roundtrip(self):
        assert Shard.parse("0/2") == Shard(0, 2)
        assert Shard.parse("2/3") == Shard(2, 3)

    @pytest.mark.parametrize("bad", ["", "2", "2/2", "-1/2", "a/b", "1/0"])
    def test_parse_rejects_malformed(self, bad):
        with pytest.raises(ValueError):
            Shard.parse(bad)

    def test_assignment_bounds_and_validation(self):
        fingerprint = "ab" * 32
        for count in (1, 2, 3, 7):
            assert 0 <= shard_index_for(fingerprint, count) < count
        with pytest.raises(ValueError):
            shard_index_for(fingerprint, 0)
        with pytest.raises(ValueError):
            shard_index_for("abc", 2)

    @given(st.integers(min_value=0, max_value=2**64 - 1), st.integers(2, 5))
    @settings(max_examples=50, deadline=None)
    def test_every_fingerprint_owned_by_exactly_one_shard(self, value, count):
        fingerprint = "%016x%s" % (value, "0" * 48)
        owners = [k for k in range(count) if Shard(k, count).owns(fingerprint)]
        assert len(owners) == 1
        assert owners[0] == shard_index_for(fingerprint, count)


def _random_sweep(draw):
    """A small random sweep over cheap algorithms and tiny graphs."""
    families = draw(
        st.lists(
            st.sampled_from(
                [("clique", (10,)), ("clique", (14,)), ("cycle", (12,)), ("star", (9,))]
            ),
            min_size=1,
            max_size=3,
        )
    )
    algorithm = draw(st.sampled_from(["flood_max", "controlled_flooding"]))
    trials = draw(st.integers(min_value=1, max_value=3))
    base_seed = draw(st.integers(min_value=0, max_value=2**32))
    return SweepSpec(
        name="random",
        configs=tuple(
            # No params override: the flooding baselines declare
            # needs_params=False, and the capability validator holds us to it.
            TrialSpec(graph=GraphSpec(family, args), algorithm=algorithm)
            for family, args in families
        ),
        trials=trials,
        base_seed=base_seed,
    )


def _outcome_records(results):
    return [(trial_fingerprint(r.spec), r.outcome.as_record()) for r in results]


def _shard_results(sweep, shard, cache, workers=1):
    """The trial results of ``shard``'s campaign run of ``sweep`` into ``cache``."""
    campaign = CampaignSpec(name="sharded", sweeps=(sweep,))
    result = CampaignRunner(campaign, cache, workers=workers, shard=shard).run()
    return list(result.results.get(sweep.name, {}).values())


class TestUnionOfShardsEqualsUnsharded:
    @given(data=st.data(), num_shards=st.sampled_from([2, 3]))
    @settings(max_examples=15, deadline=None)
    def test_serial_union_matches(self, tmp_path_factory, data, num_shards):
        sweep = _random_sweep(data.draw)
        unsharded = BatchRunner(workers=1).run_sweep(sweep)
        union = []
        for k in range(num_shards):
            cache = ResultCache(tmp_path_factory.mktemp("shard"))
            union.extend(_shard_results(sweep, Shard(k, num_shards), cache))
        assert len(union) == len(unsharded) == sweep.num_trials
        assert sorted(_outcome_records(union)) == sorted(_outcome_records(unsharded))

    @pytest.mark.slow
    @pytest.mark.parametrize("num_shards", [2, 3])
    def test_four_worker_sharded_caches_union_to_unsharded(self, num_shards, tmp_path):
        """Shards on 4-worker runners filling per-machine caches: the merged
        cache serves the unsharded run completely, with identical outcomes."""
        sweep = SweepSpec(
            name="parallel",
            configs=tuple(
                TrialSpec(graph=GraphSpec("clique", (n,)), params=FAST, label="n=%d" % n)
                for n in (10, 12, 14)
            ),
            trials=2,
            base_seed=2024,
        )
        unsharded = BatchRunner(workers=1).run_sweep(sweep)

        merged = ResultCache(tmp_path / "merged")
        executed = 0
        for k in range(num_shards):
            shard_cache = ResultCache(tmp_path / ("shard-%d" % k))
            results = _shard_results(sweep, Shard(k, num_shards), shard_cache, workers=4)
            executed += len(results)
            merged.merge_from(shard_cache)
        assert executed == sweep.num_trials

        served = BatchRunner(workers=1, cache=merged).run_sweep(sweep)
        assert all(result.from_cache for result in served)
        assert _outcome_records(served) == _outcome_records(unsharded)
