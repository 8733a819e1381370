"""repro.fleet -- distributed campaign dispatch over a host inventory.

The fleet layer is the last rung of the scaling ladder: a campaign's
deterministic ``Shard(k, m)`` partitions, the serve-mode wire workers and
``ResultCache.merge_from`` already existed -- this package wires them
together into one supervised distributed run:

* :class:`HostSpec` / :func:`local_inventory` / :func:`load_inventory` --
  the declarative inventory (:mod:`repro.fleet.inventory`): each host is an
  argv template (local process groups by default; SSH and k8s are template
  recipes, see docs/architecture.md "Fleet dispatch");
* the host side is the pool's own serve-mode worker
  (``python -m repro.exec.worker --serve``): it executes ``run_shard``
  frames through a local batch runner into the host's own cache, streaming
  worker-vocabulary progress frames;
* :class:`FleetDispatcher` (:mod:`repro.fleet.dispatcher`) -- placement,
  heartbeat supervision, work-stealing reassignment of straggler and
  dead-host shards, cache collection and live ``fleet.json`` health
  snapshots for :mod:`repro.obs.watch`.

Quickstart::

    from repro.exec import ExecutionProfile
    from repro.fleet import FleetDispatcher, local_inventory

    result = FleetDispatcher(
        spec=campaign,                      # a repro.campaign CampaignSpec
        hosts=local_inventory(3, workers=2),
        directory="runs/fleet-demo",
        profile=ExecutionProfile(cache_backend="sqlite"),
    ).run()
    print(result.describe())

The merged ``report.md``/``report.json`` under ``directory`` are
byte-identical to the same campaign run on a single machine -- the property
the chaos tests pin, SIGKILLed hosts included.
"""

from .dispatcher import (
    FLEET_STATUS_NAME,
    FLEET_STATUS_SCHEMA,
    FleetDispatcher,
    FleetResult,
)
from .inventory import (
    INVENTORY_VERSION,
    HostSpec,
    inventory_to_document,
    load_inventory,
    local_inventory,
    parse_inventory,
)

__all__ = [
    "FleetDispatcher",
    "FleetResult",
    "FLEET_STATUS_NAME",
    "FLEET_STATUS_SCHEMA",
    "HostSpec",
    "INVENTORY_VERSION",
    "inventory_to_document",
    "load_inventory",
    "local_inventory",
    "parse_inventory",
]
