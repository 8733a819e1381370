"""Tests for the fault-grid builder and the experiment tables."""

from repro.analysis import algorithm_robustness_configs, format_table, records_to_columns
from repro.analysis.experiments import BROADCAST_FAULT_MAX_ROUNDS
from repro.faults import CrashFaults
from repro.graphs import complete_graph


class TestFaultGrid:
    def test_fault_free_anchor_is_prepended_per_algorithm(self):
        triples, configs = algorithm_robustness_configs(
            complete_graph(8),
            algorithms=("election", "flooding"),
            drop_rates=(0.1,),
            crash_counts=(2,),
        )
        assert triples == [
            ("election", 0.0, 0),
            ("election", 0.1, 2),
            ("flooding", 0.0, 0),
            ("flooding", 0.1, 2),
        ]
        assert [config.label for config in configs] == [
            "election drop=0 crashes=0",
            "election drop=0.1 crashes=2",
            "flooding drop=0 crashes=0",
            "flooding drop=0.1 crashes=2",
        ]
        assert configs[0].fault_plan is None and configs[2].fault_plan is None
        assert configs[0].algo_kwargs == {}
        assert configs[2].algo_kwargs == {"max_rounds": BROADCAST_FAULT_MAX_ROUNDS}

    def test_crash_anchor_is_a_round_or_a_phase(self):
        graph = complete_graph(8)
        _, by_round = algorithm_robustness_configs(
            graph, algorithms=("election",), drop_rates=(0.0,), crash_counts=(3,)
        )
        _, by_phase = algorithm_robustness_configs(
            graph, algorithms=("election",), drop_rates=(0.0,), crash_counts=(3,), crash_phase=2
        )
        assert by_round[1].fault_plan.crashes == CrashFaults(count=3, at_round=4)
        assert by_phase[1].fault_plan.crashes == CrashFaults(count=3, at_phase=2)

    def test_crash_free_points_carry_no_crash_model(self):
        _, configs = algorithm_robustness_configs(
            complete_graph(8), algorithms=("election",), drop_rates=(0.0, 0.1), crash_phase=2
        )
        assert configs[1].fault_plan.crashes == CrashFaults()


class TestTables:
    def test_format_table_alignment(self):
        rows = [{"n": 16, "messages": 120}, {"n": 256, "messages": 98765}]
        text = format_table(rows, title="demo")
        lines = text.splitlines()
        assert lines[0] == "demo"
        assert "n" in lines[1] and "messages" in lines[1]
        assert len(lines) == 5

    def test_format_table_empty(self):
        assert format_table([]) == "(no rows)"

    def test_records_to_columns(self):
        columns = records_to_columns([{"a": 1, "b": 2}, {"a": 3, "b": 4}])
        assert columns == {"a": [1, 3], "b": [2, 4]}
