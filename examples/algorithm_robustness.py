#!/usr/bin/env python3
"""Cross-algorithm robustness: election vs baselines under faults (E13).

Every algorithm in the ``repro.exec`` registry -- the paper's election, the
prior-work baselines, the broadcast substrates -- runs through one
``TrialSpec -> TrialOutcome`` contract and honours ``fault_plan``, so a single
campaign can sweep *all of them* over the same drop/crash adversaries on the
same graphs and aggregate the results in one table per family.  The families
are the paper's two worked examples (expanders, hypercubes) plus Gilbert
random geometric graphs (the disc model, largest component).

Each sweep's ``overhead`` column is anchored per algorithm on its own
fault-free mean message count, so the table directly reads "how much more
does this algorithm pay under faults than it pays fault-free" (absolute
cross-algorithm comparisons use the ``messages`` column).  Results are
cached on disk (repeat runs are free), ``--shard K/M`` splits the grid
across machines, ``--backend`` picks an execution backend (e.g.
``workerpool`` for a kill-resilient persistent pool), and ``report.md`` /
``report.json`` land in the campaign directory.

Run with::

    python examples/algorithm_robustness.py [--quick] [--workers N]
        [--dir DIR] [--shard K/M] [--backend NAME]
"""

from __future__ import annotations

import argparse
import os

from repro.analysis import algorithm_robustness_configs, format_table
from repro.campaign import CampaignRunner, CampaignSpec, campaign_report, write_report
from repro.exec import (
    ExecutionProfile,
    ProgressSink,
    Shard,
    SweepSpec,
    add_execution_arguments,
)
from repro.graphs import expander_graph, gilbert_connectivity_radius, gilbert_graph, hypercube_graph

BASE_SEED = 1301

ALGORITHMS = ("election", "known_tmix", "flood_max", "controlled_flooding")


def build_campaign(quick: bool) -> CampaignSpec:
    if quick:
        drop_rates = [0.0, 0.1]
        crash_counts = [0, 3]
        trials = 2
        expander_n, hypercube_dim, gilbert_n = 32, 5, 32
    else:
        drop_rates = [0.0, 0.05, 0.1, 0.2]
        crash_counts = [0, 4, 8]
        trials = 4
        expander_n, hypercube_dim, gilbert_n = 64, 6, 64

    families = (
        ("expander", expander_graph(expander_n, degree=4, seed=BASE_SEED)),
        ("hypercube", hypercube_graph(hypercube_dim)),
        (
            "gilbert",
            gilbert_graph(
                gilbert_n,
                gilbert_connectivity_radius(gilbert_n, factor=2.0),
                seed=BASE_SEED,
            ),
        ),
    )
    sweeps = []
    for name, graph in families:
        _triples, configs = algorithm_robustness_configs(
            graph,
            algorithms=ALGORITHMS,
            drop_rates=drop_rates,
            crash_counts=crash_counts,
        )
        sweeps.append(
            SweepSpec(name=name, configs=configs, trials=trials, base_seed=BASE_SEED)
        )
    return CampaignSpec(name="algorithm-robustness", sweeps=tuple(sweeps))


def print_sweep(sweep_report: dict) -> None:
    print("\n=== %s ===" % sweep_report["name"])
    # format_table draws headers from the first row, so give every row the
    # full union of classification columns -- mixed-kind sweeps (elections
    # beside broadcast substrates) tally different label families per row.
    labels = []
    for row in sweep_report["rows"]:
        for label in row.get("classifications", {}):
            if label not in labels:
                labels.append(label)
    rows = []
    for row in sweep_report["rows"]:
        flat = {key: value for key, value in row.items() if key != "classifications"}
        tallies = row.get("classifications", {})
        for label in labels:
            flat[label] = tallies.get(label, 0)
        rows.append(flat)
    print(format_table(rows))


def main(
    quick: bool = False,
    directory: str = os.path.join(".campaign", "algorithms"),
    shard: str = "",
    profile: ExecutionProfile = ExecutionProfile(),
) -> None:
    campaign = build_campaign(quick)
    cache = profile.open_cache(os.path.join(directory, "cache"))
    runner = CampaignRunner(
        campaign,
        cache,
        shard=Shard.parse(shard) if shard else None,
        directory=directory,
        sinks=(ProgressSink(prefix=campaign.name, every=8),),
        profile=profile,
    )
    result = runner.run()
    print(result.describe())

    report = campaign_report(campaign, cache, profile)
    markdown_path, json_path = write_report(campaign, cache, directory, report=report)
    for sweep_report in report["sweeps"]:
        print_sweep(sweep_report)
    print(
        "\nInterpretation: flooding baselines pay Theta(m)-style costs but "
        "shrug off message loss (every id crosses every edge many times); "
        "the walk-based elections undercut them on well-connected families "
        "and degrade once loss starves their stopping thresholds.  On "
        "near-threshold Gilbert graphs mixing is slow and the trade-off "
        "reverses -- exactly the conductance dependence the paper predicts, "
        "now directly readable from one table per family."
    )
    print("report written to %s and %s" % (markdown_path, json_path))


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true", help="tiny grid for a fast sanity check")
    parser.add_argument(
        "--dir",
        default=os.path.join(".campaign", "algorithms"),
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
        quick=arguments.quick,
        directory=arguments.dir,
        shard=arguments.shard,
        profile=ExecutionProfile.from_arguments(arguments),
    )
