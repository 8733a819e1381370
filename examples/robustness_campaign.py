#!/usr/bin/env python3
"""Robustness campaign: the election under message loss and crashes (E11).

The paper's model is synchronous and fault free; this campaign measures what
its election actually does when the network misbehaves.  For expanders and
hypercubes it sweeps the per-message drop rate and the number of
crash-stopped nodes, reporting success probability, degraded-outcome
classification (no leader / multiple leaders / leader crashed) and message
overhead relative to the fault-free baseline.

Fault parameters live in a plain-data ``repro.faults.FaultPlan``, so every
trial is bit-for-bit replayable from the base seed.  The two families run as
one ``repro.campaign`` campaign: interrupted runs resume from the result
cache, ``--shard K/M`` splits the grid across machines, and the aggregate
tables land in ``report.md`` / ``report.json`` in the campaign directory --
regenerable from the cache at any time without re-running a single trial.

Run with::

    python examples/robustness_campaign.py [--quick] [--workers N]
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
from repro.graphs import expander_graph, hypercube_graph

BASE_SEED = 1107
#: Crashes fire at the start of this guess-and-double phase.
CRASH_PHASE = 2


def build_campaign(quick: bool) -> CampaignSpec:
    if quick:
        drop_rates = [0.0, 0.1]
        crash_counts = [0, 4]
        trials = 2
        expander_n, hypercube_dim = 64, 6
    else:
        drop_rates = [0.0, 0.02, 0.05, 0.1, 0.2, 0.4]
        crash_counts = [0, 4, 16]
        trials = 5
        expander_n, hypercube_dim = 128, 7

    families = (
        ("expander-robustness", expander_graph(expander_n, degree=4, seed=BASE_SEED)),
        ("hypercube-robustness", hypercube_graph(hypercube_dim)),
    )
    sweeps = []
    for name, graph in families:
        _triples, configs = algorithm_robustness_configs(
            graph,
            algorithms=("election",),
            drop_rates=drop_rates,
            crash_counts=crash_counts,
            crash_phase=CRASH_PHASE,
        )
        sweeps.append(
            SweepSpec(name=name, configs=configs, trials=trials, base_seed=BASE_SEED)
        )
    return CampaignSpec(name="robustness-campaign", sweeps=tuple(sweeps))


def print_sweep(sweep_report: dict) -> None:
    print("\n=== %s ===" % sweep_report["name"])
    rows = []
    for row in sweep_report["rows"]:
        flat = {key: value for key, value in row.items() if key != "classifications"}
        flat.update(row.get("classifications", {}))
        rows.append(flat)
    print(format_table(rows))
    finished = [row for row in sweep_report["rows"] if "success_rate" in row]
    if finished:
        worst = min(finished, key=lambda row: row["success_rate"])
        print("worst configuration: %s -> success %.2f" % (worst["label"], worst["success_rate"]))


def main(
    quick: bool = False,
    directory: str = os.path.join(".campaign", "robustness"),
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
        "\nInterpretation: the election tolerates mild loss (walk tokens are "
        "redundant), but heavy loss starves the intersection/distinctness "
        "thresholds -- runs then end with no leader or with several, and "
        "crashes of contenders can take the would-be winner down with them."
    )
    print("report written to %s and %s" % (markdown_path, json_path))


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true", help="tiny sweep for a fast sanity check")
    parser.add_argument(
        "--dir",
        default=os.path.join(".campaign", "robustness"),
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
