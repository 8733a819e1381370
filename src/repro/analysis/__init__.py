"""Analysis helpers: closed-form bounds, sweep aggregation, statistics and scaling fits."""

from .bounds import (
    broadcast_lower_bound_messages,
    expander_example_messages,
    explicit_broadcast_messages,
    hypercube_example_messages,
    kutten_lower_bound_messages,
    lower_bound_messages,
    mixing_time_bounds_from_conductance,
    spanning_tree_lower_bound_messages,
    upper_bound_messages_congest,
    upper_bound_messages_large,
    upper_bound_rounds_congest,
    upper_bound_rounds_large,
)
from .experiments import (
    algorithm_robustness_configs,
    format_table,
    records_to_columns,
    sweep_summary,
)
from .fitting import PowerLawFit, fit_power_law, ratio_curve
from .stats import (
    SummaryStatistics,
    confidence_interval,
    mean,
    std,
    success_rate,
    summarize,
    wilson_interval,
)

__all__ = [
    "upper_bound_messages_congest",
    "upper_bound_messages_large",
    "upper_bound_rounds_congest",
    "upper_bound_rounds_large",
    "lower_bound_messages",
    "kutten_lower_bound_messages",
    "explicit_broadcast_messages",
    "broadcast_lower_bound_messages",
    "spanning_tree_lower_bound_messages",
    "mixing_time_bounds_from_conductance",
    "expander_example_messages",
    "hypercube_example_messages",
    "algorithm_robustness_configs",
    "sweep_summary",
    "format_table",
    "records_to_columns",
    "PowerLawFit",
    "fit_power_law",
    "ratio_curve",
    "mean",
    "std",
    "confidence_interval",
    "wilson_interval",
    "success_rate",
    "SummaryStatistics",
    "summarize",
]
