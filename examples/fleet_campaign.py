#!/usr/bin/env python3
"""Distributed campaign over a host fleet (the ``repro.fleet`` quickstart).

Runs a small election-scaling campaign across several hosts at once: the
ordinary :class:`repro.campaign.CampaignRunner` executes it on a
:class:`repro.fleet.FleetBackend`, whose slots are ``--workers`` serve
processes per host, supervised by heartbeats.  A host that dies stays dead
and the unanswered trials of its in-flight work unit are retried on a
survivor.  Results land in the one
campaign cache, so the final ``report.md`` / ``report.json`` are
byte-identical to a single-machine run of the same campaign.

By default the fleet is ``--hosts N`` local process groups -- each "host" a
``python -m repro.exec.worker --serve`` subprocess (the same serve-mode
worker the ``workerpool`` backend runs), which is also what the chaos tests
and CI's fleet-smoke job drive.  Point ``--inventory`` at a JSON file to run
the same campaign over SSH or k8s command templates instead (see
docs/architecture.md "Fleet dispatch" for the format and recipes).

Run with::

    python examples/fleet_campaign.py [--quick] [--hosts N]
        [--inventory FILE] [--dir DIR]

Watch it live from another terminal (``--trace`` on; worker health on the
``workers:`` line)::

    python -m repro.obs.watch .campaign/fleet
"""

from __future__ import annotations

import argparse
import dataclasses
import os

from repro.campaign import CampaignRunner, CampaignSpec, write_report
from repro.exec import (
    ExecutionProfile,
    GraphSpec,
    SweepSpec,
    TrialSpec,
    add_execution_arguments,
)
from repro.fleet import FleetBackend, load_inventory, local_inventory

BASE_SEED = 23


def build_campaign(quick: bool) -> CampaignSpec:
    sizes = [32, 64] if quick else [32, 64, 128, 256]
    trials = 2 if quick else 3
    return CampaignSpec(
        name="fleet-campaign",
        sweeps=(
            SweepSpec(
                name="expander-fleet",
                configs=tuple(
                    TrialSpec(
                        graph=GraphSpec("expander", (n,), {"degree": 4}),
                        label="n=%d" % n,
                    )
                    for n in sizes
                ),
                trials=trials,
                base_seed=BASE_SEED,
            ),
        ),
    )


def main(
    quick: bool = False,
    hosts: int = 3,
    inventory: str = "",
    directory: str = os.path.join(".campaign", "fleet"),
    profile: ExecutionProfile = ExecutionProfile(),
) -> None:
    campaign = build_campaign(quick)
    fleet = (
        load_inventory(inventory)
        if inventory
        else local_inventory(hosts, workers=profile.effective_workers(default=1))
    )
    cache = profile.open_cache(os.path.join(directory, "cache"))
    with FleetBackend(fleet) as backend:
        fleet_profile = dataclasses.replace(profile, backend=backend)
        result = CampaignRunner(campaign, cache, directory=directory, profile=fleet_profile).run()
    write_report(campaign, cache, directory, profile=fleet_profile)
    print(result.describe())
    print(
        "fleet: %d host(s), %d serve process(es), %d died, %d hung"
        % (len(fleet), backend.workers, backend.deaths, backend.hangs)
    )
    print(
        "\nreport written to %s (byte-identical to a single-machine run; "
        "re-running resumes from the campaign cache for free)"
        % os.path.join(directory, "report.md")
    )


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true", help="tiny sweep for a fast sanity check")
    parser.add_argument(
        "--hosts",
        type=int,
        default=3,
        help="size of the default local process-group fleet (default 3)",
    )
    parser.add_argument(
        "--inventory",
        default="",
        metavar="FILE",
        help="JSON host inventory (SSH/k8s command templates); overrides --hosts",
    )
    parser.add_argument(
        "--dir",
        default=os.path.join(".campaign", "fleet"),
        metavar="DIR",
        help="campaign directory: cache, manifest.json, report.md/json",
    )
    add_execution_arguments(parser, workers_default=1)
    arguments = parser.parse_args()
    if arguments.backend:
        parser.error("the fleet is the execution backend; --backend does not apply")
    main(
        quick=arguments.quick,
        hosts=arguments.hosts,
        inventory=arguments.inventory,
        directory=arguments.dir,
        profile=ExecutionProfile.from_arguments(arguments),
    )
