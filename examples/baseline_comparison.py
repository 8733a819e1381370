#!/usr/bin/env python3
"""Compare the paper's algorithm with prior-work baselines (experiment E3).

On well-connected graphs the paper's election beats every ``Omega(m)``
flooding-style algorithm in message complexity while matching the known-t_mix
algorithm of Kutten et al. [25] without needing the mixing time as input.

The comparison runs as a ``repro.campaign`` campaign with one sweep per graph
family and one configuration per algorithm, averaged over ``--trials``
independent seeds: results are cached on disk (repeat runs are free),
``--shard K/M`` splits the grid across machines, and the aggregate table is
also written to ``report.md`` / ``report.json`` in the campaign directory.

Run with::

    python examples/baseline_comparison.py [n] [--trials T] [--workers N]
        [--dir DIR] [--shard K/M] [--backend NAME]
"""

from __future__ import annotations

import argparse
import os

from repro import complete_graph, expander_graph
from repro.analysis import format_table
from repro.campaign import CampaignRunner, CampaignSpec, campaign_report, write_report
from repro.exec import (
    ExecutionProfile,
    Shard,
    SweepSpec,
    TrialSpec,
    add_execution_arguments,
)
from repro.graphs import mixing_time

BASE_SEED = 5

#: (table label, algorithm registry name) in paper-presentation order.
ALGORITHM_ROWS = [
    ("this paper (unknown t_mix)", "election"),
    ("Kutten et al. [25] (t_mix known)", "known_tmix"),
    ("flood-max (O(mD) msgs)", "flood_max"),
    ("controlled flooding (O(m log n))", "controlled_flooding"),
]
CLIQUE_ROW = ("Kutten et al. [25] clique-only", "clique_sublinear")


def comparison_sweep(name, graph, trials, include_clique_baseline=False):
    """One sweep comparing every algorithm on one (inline) graph."""
    t_mix = mixing_time(graph)
    algorithms = list(ALGORITHM_ROWS) + ([CLIQUE_ROW] if include_clique_baseline else [])
    return SweepSpec(
        name=name,
        configs=tuple(
            TrialSpec(
                graph=graph,
                algorithm=algorithm,
                # Pin the oracle baseline to the t_mix computed here so the
                # table header and the algorithm input are visibly the same
                # number (and the trial fingerprint captures it).
                algo_kwargs={"mixing_time": t_mix} if algorithm == "known_tmix" else {},
                label=label,
            )
            for label, algorithm in algorithms
        ),
        trials=trials,
        base_seed=BASE_SEED,
    )


def build_campaign(n: int, trials: int) -> CampaignSpec:
    return CampaignSpec(
        name="baseline-comparison",
        sweeps=(
            comparison_sweep(
                "expander-baselines-e3", expander_graph(n, seed=BASE_SEED), trials
            ),
            comparison_sweep(
                "clique-baselines-e3",
                complete_graph(n),
                trials,
                include_clique_baseline=True,
            ),
        ),
    )


def print_sweep(campaign: CampaignSpec, sweep_report: dict) -> None:
    sweep = campaign.sweep(sweep_report["name"])
    graph = sweep.configs[0].graph
    # comparison_sweep already computed the mixing time and pinned it on the
    # known_tmix config; read it back rather than re-running the spectral
    # computation.
    t_mix = next(
        config.algo_kwargs["mixing_time"]
        for config in sweep.configs
        if config.algorithm == "known_tmix"
    )
    print(
        "\n=== %s  (n=%d, m=%d, t_mix=%d) ==="
        % (sweep_report["name"], graph.num_nodes, graph.num_edges, t_mix)
    )
    rows = [
        {key: value for key, value in row.items() if key != "classifications"}
        for row in sweep_report["rows"]
    ]
    print(format_table(rows))


def main(
    n: int = 128,
    trials: int = 3,
    directory: str = os.path.join(".campaign", "baselines"),
    shard: str = "",
    profile: ExecutionProfile = ExecutionProfile(),
) -> None:
    campaign = build_campaign(n, trials)
    cache = profile.open_cache(os.path.join(directory, "cache"))
    runner = CampaignRunner(
        campaign,
        cache,
        shard=Shard.parse(shard) if shard else None,
        directory=directory,
        profile=profile,
    )
    result = runner.run()
    print(result.describe())

    report = campaign_report(campaign, cache, profile)
    markdown_path, json_path = write_report(campaign, cache, directory, report=report)
    for sweep_report in report["sweeps"]:
        print_sweep(campaign, sweep_report)
    print(
        "\nReading: the random-walk elections use far fewer messages than any "
        "flooding baseline on dense/well-connected graphs, and the paper's "
        "algorithm achieves this without knowing t_mix."
    )
    print("report written to %s and %s" % (markdown_path, json_path))


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("n", nargs="?", type=int, default=128, help="graph size (default 128)")
    parser.add_argument(
        "--trials", type=int, default=3, help="independent seeds per algorithm (default 3)"
    )
    parser.add_argument(
        "--dir",
        default=os.path.join(".campaign", "baselines"),
        metavar="DIR",
        help="campaign directory: result cache, manifest.json, report.md/json",
    )
    parser.add_argument(
        "--shard",
        default="",
        metavar="K/M",
        help="run only shard K of M (zero-based), e.g. 0/2 and 1/2 on two machines",
    )
    add_execution_arguments(parser)
    arguments = parser.parse_args()
    main(
        arguments.n,
        trials=arguments.trials,
        directory=arguments.dir,
        shard=arguments.shard,
        profile=ExecutionProfile.from_arguments(arguments),
    )
