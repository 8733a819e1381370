"""Tests for the cache-backed report layer: coverage, tables, determinism."""

import dataclasses
import json

import pytest

from repro.analysis import sweep_summary
from repro.campaign import (
    CampaignRunner,
    CampaignSpec,
    cached_outcomes,
    campaign_report,
    render_markdown,
    write_report,
)
from repro.core import DEFAULT_PARAMETERS, ElectionParameters
from repro.exec import (
    BatchRunner,
    ExecutionProfile,
    GraphSpec,
    ResultCache,
    SweepSpec,
    TrialSpec,
    cache_backend_names,
)
from repro.faults import FaultPlan

FAST = ElectionParameters(c1=3.0, c2=0.5)


def _campaign():
    return CampaignSpec(
        name="report-unit",
        sweeps=(
            SweepSpec(
                name="scaling",
                configs=tuple(
                    TrialSpec(graph=GraphSpec("clique", (n,)), params=FAST, label="n=%d" % n)
                    for n in (10, 12)
                ),
                trials=2,
                base_seed=5,
            ),
            SweepSpec(
                name="faults",
                configs=(
                    TrialSpec(graph=GraphSpec("clique", (10,)), params=FAST, label="clean"),
                    TrialSpec(
                        graph=GraphSpec("clique", (10,)),
                        params=FAST,
                        fault_plan=FaultPlan.dropping(0.05),
                        label="drop=0.05",
                    ),
                ),
                trials=2,
                base_seed=6,
            ),
        ),
    )


class TestCampaignReport:
    def test_empty_cache_reports_zero_coverage(self, tmp_path):
        report = campaign_report(_campaign(), ResultCache(tmp_path))
        assert report["coverage"] == 0.0
        assert report["cached"] == 0
        for sweep in report["sweeps"]:
            assert sweep["coverage"] == 0.0
            for row in sweep["rows"]:
                assert row["done"] == 0
                assert "messages" not in row

    def test_full_cache_reports_full_coverage_and_rows(self, tmp_path):
        campaign = _campaign()
        cache = ResultCache(tmp_path)
        CampaignRunner(campaign, cache).run()
        report = campaign_report(campaign, cache)
        assert report["coverage"] == 1.0
        assert report["trials"] == campaign.num_trials
        scaling = report["sweeps"][0]
        assert [row["label"] for row in scaling["rows"]] == ["n=10", "n=12"]
        for row in scaling["rows"]:
            assert row["done"] == row["trials"] == 2
            assert row["messages"] > 0
            assert set(row["classifications"]) == {
                "elected",
                "leader_crashed",
                "multiple_leaders",
                "no_leader",
            }

    def test_fault_sweep_gets_overhead_anchored_at_clean_config(self, tmp_path):
        campaign = _campaign()
        cache = ResultCache(tmp_path)
        CampaignRunner(campaign, cache).run()
        report = campaign_report(campaign, cache)
        faults = report["sweeps"][1]["rows"]
        assert faults[0]["overhead"] == 1.0
        assert all("overhead" in row for row in faults)
        scaling = report["sweeps"][0]["rows"]
        assert all("overhead" not in row for row in scaling)

    def test_partial_cache_reports_partial_coverage(self, tmp_path):
        campaign = _campaign()
        cache = ResultCache(tmp_path)
        # Cache the first sweep only.  A Shard(0, 2) run is not reliably
        # partial: a shard owns trials by fingerprint, which folds in the
        # source digest, so after some code edits one shard owns all eight.
        first = dataclasses.replace(campaign, sweeps=campaign.sweeps[:1])
        part = CampaignRunner(first, cache).run()
        report = campaign_report(campaign, cache)
        assert report["cached"] == part.assigned
        assert 0.0 < report["coverage"] < 1.0
        outcomes = cached_outcomes(campaign, cache)
        cached = sum(
            1 for per_sweep in outcomes.values() for o in per_sweep if o is not None
        )
        assert cached == part.assigned

    def test_report_never_executes_trials(self, tmp_path):
        campaign = _campaign()
        cache = ResultCache(tmp_path)
        campaign_report(campaign, cache)  # empty cache: nothing to aggregate
        assert cache.stats().entries == 0


class TestRendering:
    def test_markdown_contains_tables_and_coverage(self, tmp_path):
        campaign = _campaign()
        cache = ResultCache(tmp_path)
        CampaignRunner(campaign, cache).run()
        markdown = render_markdown(campaign_report(campaign, cache))
        assert "# Campaign report: report-unit" in markdown
        assert "## scaling" in markdown and "## faults" in markdown
        assert "| label |" in markdown
        assert "coverage 100.0%" in markdown

    def test_write_report_is_deterministic(self, tmp_path):
        campaign = _campaign()
        cache = ResultCache(tmp_path / "cache")
        CampaignRunner(campaign, cache).run()
        md1, json1 = write_report(campaign, cache, tmp_path / "a")
        md2, json2 = write_report(campaign, cache, tmp_path / "b")
        with open(json1, "rb") as a, open(json2, "rb") as b:
            assert a.read() == b.read()
        with open(md1, "rb") as a, open(md2, "rb") as b:
            assert a.read() == b.read()
        with open(json1) as handle:
            assert json.load(handle)["campaign"] == "report-unit"


class TestSweepSummary:
    def test_rejects_wrong_length(self, tmp_path):
        campaign = _campaign()
        try:
            sweep_summary(campaign.sweeps[0], [None])
        except ValueError as exc:
            assert "expected 4 results" in str(exc)
        else:
            raise AssertionError("length mismatch not rejected")

    def test_overhead_anchor_is_exactly_one_despite_display_rounding(self):
        """The overhead ratio divides unrounded means: an anchor whose mean
        message count does not survive 1-decimal rounding still reports 1.0."""

        class _Outcome:
            algorithm = "election"
            kind = "election"
            classification = "elected"

            def __init__(self, messages):
                self.messages = messages
                self.message_units = messages
                self.rounds = 10
                self.success = True

        sweep = SweepSpec(
            name="anchored",
            configs=(
                TrialSpec(graph=GraphSpec("clique", (10,)), params=FAST, label="clean"),
                TrialSpec(
                    graph=GraphSpec("clique", (10,)),
                    params=FAST,
                    fault_plan=FaultPlan.dropping(0.1),
                    label="faulty",
                ),
            ),
            trials=4,
            base_seed=2,
        )
        # Clean mean = 8.25 (rounds to 8.2 for display); faulty mean = 16.5.
        outcomes = [_Outcome(m) for m in (8, 8, 8, 9)] + [_Outcome(m) for m in (16, 16, 17, 17)]
        rows = sweep_summary(sweep, outcomes)
        assert rows[0]["messages"] == 8.2
        assert rows[0]["overhead"] == 1.0
        assert rows[1]["overhead"] == 2.0

    def test_overhead_anchor_stays_on_first_clean_config_under_partial_coverage(self):
        """A partially-covered first fault-free config still anchors overhead
        (with its partial mean) -- it never silently re-anchors on a later,
        more complete clean config."""

        class _Outcome:
            algorithm = "election"
            kind = "election"
            classification = "elected"

            def __init__(self, messages):
                self.messages = messages
                self.message_units = messages
                self.rounds = 10
                self.success = True

        sweep = SweepSpec(
            name="partial-anchor",
            configs=(
                TrialSpec(graph=GraphSpec("clique", (10,)), params=FAST, label="clean-a"),
                TrialSpec(graph=GraphSpec("clique", (12,)), params=FAST, label="clean-b"),
                TrialSpec(
                    graph=GraphSpec("clique", (10,)),
                    params=FAST,
                    fault_plan=FaultPlan.dropping(0.1),
                    label="faulty",
                ),
            ),
            trials=2,
            base_seed=4,
        )
        outcomes = [
            _Outcome(10), None,             # clean-a: partial, mean 10
            _Outcome(20), _Outcome(20),     # clean-b: complete, mean 20
            _Outcome(30), _Outcome(30),     # faulty: complete, mean 30
        ]
        rows = sweep_summary(sweep, outcomes)
        assert rows[0]["overhead"] == 1.0
        assert rows[1]["overhead"] == 2.0
        assert rows[2]["overhead"] == 3.0

    def test_mixed_algorithm_sweep_anchors_overhead_per_algorithm(self):
        """The E13 regression (ROADMAP PR 4 leftover): on a sweep mixing
        algorithms, each row's overhead is relative to *its own* algorithm's
        first fault-free config -- a faulty flood-max compares against clean
        flood-max, never against the election's (much smaller) anchor.  An
        algorithm with no fault-free config gets no overhead at all."""

        class _Outcome:
            algorithm = "election"
            kind = "election"
            classification = "elected"

            def __init__(self, messages):
                self.messages = messages
                self.message_units = messages
                self.rounds = 10
                self.success = True

        def config(algorithm, faulty, label):
            return TrialSpec(
                graph=GraphSpec("clique", (10,)),
                algorithm=algorithm,
                params=FAST if algorithm == "election" else DEFAULT_PARAMETERS,
                fault_plan=FaultPlan.dropping(0.1) if faulty else None,
                label=label,
            )

        sweep = SweepSpec(
            name="mixed",
            configs=(
                config("election", False, "election clean"),
                config("election", True, "election faulty"),
                config("flood_max", False, "flood clean"),
                config("flood_max", True, "flood faulty"),
                config("flooding", True, "broadcast faulty, no anchor"),
            ),
            trials=1,
            base_seed=3,
        )
        outcomes = [_Outcome(m) for m in (10, 30, 1000, 1500, 400)]
        rows = sweep_summary(sweep, outcomes)
        assert rows[0]["overhead"] == 1.0
        assert rows[1]["overhead"] == 3.0  # 30 / 10, not 30 / 1000
        assert rows[2]["overhead"] == 1.0
        assert rows[3]["overhead"] == 1.5  # 1500 / 1000, not 1500 / 10
        assert "overhead" not in rows[4]  # flooding has no fault-free anchor

    def test_baseline_outcomes_aggregate_with_election_classifications(self):
        """Baselines return the unified envelope now: same tallies as the election."""
        sweep = SweepSpec(
            name="baseline",
            configs=(TrialSpec(graph=GraphSpec("clique", (10,)), algorithm="flood_max"),),
            trials=2,
            base_seed=1,
        )
        results = BatchRunner().run_sweep(sweep)
        rows = sweep_summary(sweep, [result.outcome for result in results])
        assert rows[0]["done"] == 2
        assert rows[0]["success_rate"] == 1.0
        assert rows[0]["classifications"]["elected"] == 2

    def test_broadcast_outcomes_tally_their_own_label_family(self):
        sweep = SweepSpec(
            name="broadcast",
            configs=(TrialSpec(graph=GraphSpec("clique", (10,)), algorithm="flooding"),),
            trials=2,
            base_seed=2,
        )
        results = BatchRunner().run_sweep(sweep)
        rows = sweep_summary(sweep, [result.outcome for result in results])
        assert rows[0]["success_rate"] == 1.0
        assert set(rows[0]["classifications"]) == {
            "informed_all",
            "informed_live",
            "partial",
        }
        assert rows[0]["classifications"]["informed_all"] == 2


def _naming_simulator(campaign, simulator):
    """``campaign`` with ``simulator`` named on every configuration's spec."""
    return dataclasses.replace(
        campaign,
        sweeps=tuple(
            dataclasses.replace(
                sweep,
                configs=tuple(
                    dataclasses.replace(config, simulator=simulator)
                    for config in sweep.configs
                ),
            )
            for sweep in campaign.sweeps
        ),
    )


class TestProfiledReport:
    def test_profiled_campaign_matches_one_naming_the_simulator(self, tmp_path):
        """A campaign run under a run-wide simulator reports every trial its
        cache holds, byte-identical to the same campaign naming the engine on
        every spec."""
        campaign = _campaign()
        profile = ExecutionProfile(simulator="vectorized")
        reports = []
        for name, spec, run_profile in (
            ("profiled", campaign, profile),
            ("named", _naming_simulator(campaign, "vectorized"), None),
        ):
            cache = ResultCache(tmp_path / name / "cache")
            CampaignRunner(spec, cache, workers=1, profile=run_profile).run()
            _, json_path = write_report(spec, cache, tmp_path / name, profile=run_profile)
            with open(json_path, "rb") as handle:
                reports.append(handle.read())
        assert json.loads(reports[0])["coverage"] == 1.0
        assert reports[0] == reports[1]

    def test_cached_outcomes_read_back_a_profiled_run(self, tmp_path):
        """``cached_outcomes`` applies the run-wide simulator as the run did,
        so a profiled campaign's outcomes read back from its cache."""
        campaign = _campaign()
        profile = ExecutionProfile(simulator="vectorized")
        cache = ResultCache(tmp_path)
        CampaignRunner(campaign, cache, workers=1, profile=profile).run()
        outcomes = cached_outcomes(campaign, cache, profile)
        flat = [outcome for per_sweep in outcomes.values() for outcome in per_sweep]
        assert len(flat) == campaign.num_trials
        assert all(outcome is not None for outcome in flat)
        named = _naming_simulator(campaign, "vectorized")
        assert outcomes == cached_outcomes(named, cache)


def _mixed_campaign():
    """Every outcome kind the report folds: elections (fault-free and with
    drops), flood-max, flooding and spanning trees, over two sweeps."""
    clique = GraphSpec("clique", (10,))
    return CampaignSpec(
        name="fold-differential",
        sweeps=(
            SweepSpec(
                name="mixed",
                configs=(
                    TrialSpec(graph=clique, params=FAST, label="election clean"),
                    TrialSpec(
                        graph=clique,
                        params=FAST,
                        fault_plan=FaultPlan.dropping(0.1),
                        label="election drop=0.1",
                    ),
                    TrialSpec(graph=clique, algorithm="flood_max", label="flood_max"),
                    TrialSpec(graph=clique, algorithm="flooding", label="flooding"),
                    TrialSpec(graph=clique, algorithm="spanning_tree", label="tree"),
                ),
                trials=3,
                base_seed=8,
            ),
            SweepSpec(
                name="untouched",
                configs=(TrialSpec(graph=clique, algorithm="flood_max", label="never run"),),
                trials=2,
                base_seed=9,
            ),
        ),
    )


class TestFoldsAgree:
    """The cache-backed report (one :class:`SummaryAggregate` per
    configuration) and :func:`sweep_summary` over the full cached outcomes
    fold to the same rows, partial groups included, on every cache backend."""

    @pytest.mark.parametrize("backend", cache_backend_names())
    def test_report_rows_equal_sweep_summary_of_cached_outcomes(self, tmp_path, backend):
        campaign = _mixed_campaign()
        cache = ResultCache(tmp_path / backend, backend=backend)
        specs = [spec for sweep in campaign.sweeps for spec in sweep.expand()]
        # Cache part of it: complete, partial and empty configuration groups.
        BatchRunner(workers=1, cache=cache).run(specs[:4] + specs[6:8] + specs[10:15])
        report = campaign_report(campaign, cache)
        assert 0.0 < report["coverage"] < 1.0
        outcomes = cached_outcomes(campaign, cache)
        for sweep, reported in zip(campaign.sweeps, report["sweeps"]):
            folded = json.dumps(sweep_summary(sweep, outcomes[sweep.name]), sort_keys=True)
            assert json.dumps(reported["rows"], sort_keys=True) == folded
