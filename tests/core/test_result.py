"""Unit tests for the election outcome aggregation."""

from repro.core.result import TrialOutcome, classify_election, outcome_from_simulation
from repro.sim.metrics import MetricsCollector
from repro.sim.network import SimulationResult


def make_metrics(messages=10, rounds=5):
    collector = MetricsCollector(word_bits=8)
    for _ in range(messages):
        collector.record_send("x", 8)
    return collector.finalize(rounds=rounds, completed=True)


def make_simulation(node_results):
    return SimulationResult(
        metrics=make_metrics(),
        node_results=node_results,
        messages_by_node=[0] * len(node_results),
    )


class TestOutcomeFromSimulation:
    def test_single_leader_success(self):
        sim = make_simulation(
            [
                {"leader": True, "contender": True, "phases": 3, "final_walk_length": 4},
                {"leader": False, "contender": True, "phases": 3, "final_walk_length": 4},
                {"leader": False, "contender": False},
            ]
        )
        outcome = outcome_from_simulation("election", sim)
        assert outcome.success
        assert outcome.leader == 0
        assert outcome.num_contenders == 2
        assert outcome.extras["max_phases"] == 3
        assert outcome.extras["final_walk_length"] == 4

    def test_zero_leaders_failure(self):
        sim = make_simulation([{"leader": False, "contender": False}] * 3)
        outcome = outcome_from_simulation("election", sim)
        assert not outcome.success
        assert outcome.leader is None
        assert outcome.num_leaders == 0

    def test_two_leaders_failure(self):
        sim = make_simulation(
            [{"leader": True, "contender": True}, {"leader": True, "contender": True}]
        )
        outcome = outcome_from_simulation("election", sim)
        assert not outcome.success
        assert outcome.num_leaders == 2

    def test_forced_stop_propagates(self):
        sim = make_simulation(
            [{"leader": True, "contender": True, "forced_stop": True}, {"leader": False}]
        )
        assert outcome_from_simulation("election", sim).extras["forced_stop"]

    def test_simulation_not_kept_by_default(self):
        sim = make_simulation([{"leader": True, "contender": True}])
        assert outcome_from_simulation("election", sim).simulation is None
        assert outcome_from_simulation("election", sim, keep_simulation=True).simulation is sim


class TestOutcomeAccessors:
    def make_outcome(self, leaders):
        return TrialOutcome(
            algorithm="election",
            kind="election",
            num_nodes=8,
            winners=leaders,
            classification=classify_election(leaders, []),
            metrics=make_metrics(messages=20, rounds=9),
            extras={
                "num_contenders": 3,
                "forced_stop": False,
                "max_phases": 2,
                "final_walk_length": 2,
            },
        )

    def test_metric_accessors(self):
        outcome = self.make_outcome([1])
        assert outcome.messages == 20
        assert outcome.rounds == 9
        assert outcome.message_units == 20

    def test_record_round_trip(self):
        record = self.make_outcome([1]).as_record()
        assert record["num_nodes"] == 8
        assert record["success"] is True
        assert record["messages"] == 20

    def test_str_contains_summary(self):
        text = str(self.make_outcome([1, 2]))
        assert "leaders=2" in text
        assert "success=False" in text
