"""repro.fleet -- campaigns over a host inventory.

The fleet is an execution backend, not a second campaign path:

* :class:`HostSpec` / :func:`local_inventory` / :func:`load_inventory` --
  the declarative inventory (:mod:`repro.fleet.inventory`): each host is an
  argv template (local process groups by default; SSH and k8s are template
  recipes, see docs/architecture.md "Fleet dispatch");
* :class:`FleetBackend` (:mod:`repro.fleet.backend`) -- the worker pool
  with ``workers`` serve processes per host, heartbeat supervision, and a
  respawn budget of 0, so a dead or hung host stays dead and its in-flight
  trial is retried on a survivor by the campaign's retry policy.

Quickstart::

    from repro.campaign import CampaignRunner, write_report
    from repro.exec import ExecutionProfile
    from repro.fleet import FleetBackend, local_inventory

    with FleetBackend(local_inventory(3, workers=2)) as backend:
        profile = ExecutionProfile(backend=backend)
        CampaignRunner(campaign, cache, directory=d, profile=profile).run()
    write_report(campaign, cache, d, profile=profile)

The campaign's own cache is the only writer, so the ``report.md`` /
``report.json`` under ``d`` are byte-identical to the same campaign run on
a single machine -- the property the chaos tests pin, SIGKILLed hosts
included.  For manual multi-machine runs without a shared parent process,
``CampaignRunner(shard=Shard(k, m))`` plus ``ResultCache.merge_from``
remain the recipe.
"""

from .backend import FleetBackend
from .inventory import (
    INVENTORY_VERSION,
    HostSpec,
    inventory_to_document,
    load_inventory,
    local_inventory,
    parse_inventory,
)

__all__ = [
    "FleetBackend",
    "HostSpec",
    "INVENTORY_VERSION",
    "inventory_to_document",
    "load_inventory",
    "local_inventory",
    "parse_inventory",
]
