"""Degraded-outcome classification and fault-aware election runs."""

from repro.core import run_leader_election
from repro.core.result import CLASSIFICATIONS, TrialOutcome, classify_election
from repro.faults import FaultPlan
from repro.sim.metrics import RunMetrics


def make_outcome(leaders, crashed=()):
    metrics = RunMetrics(
        rounds=10,
        messages=5,
        message_units=5,
        bits=40,
        messages_by_kind={},
        units_by_kind={},
        max_edge_bits_in_round=0,
        congestion_events=0,
        completed=True,
    )
    return TrialOutcome(
        algorithm="election",
        kind="election",
        num_nodes=8,
        winners=list(leaders),
        classification=classify_election(leaders, crashed),
        metrics=metrics,
        crashed_nodes=list(crashed),
        extras={"num_contenders": len(leaders)},
    )


class TestClassification:
    def test_unique_live_leader_is_elected(self):
        assert make_outcome([3]).classification == "elected"
        assert make_outcome([3], crashed=[5]).classification == "elected"

    def test_unique_crashed_leader(self):
        outcome = make_outcome([3], crashed=[3, 5])
        assert outcome.classification == "leader_crashed"
        # One node did elect itself, but it is dead: the trial failed, as
        # sweep_summary and every campaign report count it.
        assert outcome.num_leaders == 1
        assert outcome.success is False
        assert outcome.num_crashed == 2

    def test_no_leader(self):
        assert make_outcome([]).classification == "no_leader"

    def test_multiple_leaders(self):
        assert make_outcome([1, 2]).classification == "multiple_leaders"

    def test_every_label_is_registered(self):
        for leaders, crashed in ([[1], []], [[1], [1]], [[], []], [[1, 2], []]):
            assert make_outcome(leaders, crashed).classification in CLASSIFICATIONS

    def test_as_record_carries_fault_fields(self):
        record = make_outcome([3], crashed=[3]).as_record()
        assert record["classification"] == "leader_crashed"
        assert record["num_crashed"] == 1


class TestFaultyElectionRuns:
    def test_crashing_everyone_elects_no_leader(self, small_expander):
        outcome = run_leader_election(
            small_expander,
            seed=31,
            fault_plan=FaultPlan.crashing(64, at_round=0),
        )
        assert outcome.classification == "no_leader"
        assert outcome.num_crashed == 64
        assert outcome.messages == 0

    def test_fault_free_run_classifies_as_elected(self, small_expander_outcome):
        assert small_expander_outcome.classification == "elected"
        assert small_expander_outcome.crashed_nodes == []
