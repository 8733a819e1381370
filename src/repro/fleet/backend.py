"""The fleet as an execution backend: worker-pool slots launched per host.

A :class:`FleetBackend` is a
:class:`~repro.exec.backends.workerpool.WorkerPoolBackend` whose slots come
from a host inventory: a host with ``workers=k`` is ``k`` slots, each one
``repro.exec.worker --serve`` process started from the host's command
template and environment, speaking the pool's own ``run`` op (one work
unit per request) with heartbeats.  Everything campaign-level -- resume, retries, the manifest,
the single result cache and the report -- stays with
:class:`~repro.campaign.runner.CampaignRunner`, which drives the fleet like
any other backend::

    with FleetBackend(local_inventory(3)) as backend:
        profile = ExecutionProfile(backend=backend)
        CampaignRunner(spec, cache, directory=d, profile=profile).run()
    write_report(spec, cache, d, profile=profile)

The respawn budget is 0: a host process that dies or misses its hang
deadline stays dead, the members of its in-flight work unit it had not
answered come back as captured failures that the campaign's
:class:`~repro.campaign.spec.RetryPolicy` re-runs on a surviving slot, and
once every slot is gone the remaining trials fail with "no live worker
remains".  A fleet has no in-process fallback, so a spec
that cannot cross the wire is an error rather than a local execution.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

from ..exec.backends.workerpool import WorkerPoolBackend, worker_environment
from ..exec.spec import TrialSpec
from .inventory import HostSpec

__all__ = ["FleetBackend"]


class FleetBackend(WorkerPoolBackend):
    """Run trials on the serve processes of a host inventory.

    ``heartbeat_seconds`` is the workers' progress cadence and
    ``hang_deadline_seconds`` (default four heartbeats) how long a silent
    host process lives; a fresh process gets at least 30 s to answer its
    startup ping.  ``preload`` modules are imported by every host process
    (``--preload`` flags appended to its command) and ``extra_paths`` are
    prepended to its ``PYTHONPATH``.
    """

    name = "fleet"

    def __init__(
        self,
        hosts: Sequence[HostSpec],
        preload: Sequence[str] = (),
        extra_paths: Sequence[str] = (),
        heartbeat_seconds: float = 5.0,
        hang_deadline_seconds: Optional[float] = None,
    ) -> None:
        self.hosts = tuple(hosts)
        if not self.hosts:
            raise ValueError("a fleet needs at least one host")
        names = [host.name for host in self.hosts]
        if len(set(names)) != len(names):
            raise ValueError("host names must be unique; got %s" % names)
        #: The host each slot's process runs on, ``workers`` slots per host.
        self.slot_hosts = tuple(host for host in self.hosts for _ in range(host.workers))
        super().__init__(
            workers=len(self.slot_hosts),
            preload=preload,
            extra_paths=extra_paths,
            max_respawns_per_slot=0,
            heartbeat_seconds=heartbeat_seconds,
            hang_deadline_seconds=hang_deadline_seconds,
        )

    def wire_safe(self, spec: TrialSpec) -> bool:
        """Always ``True``; a spec that cannot cross the wire raises."""
        error = self._prepare(spec)
        if error is not None:
            raise ValueError(
                "trial %r cannot be dispatched to a fleet host: %s" % (spec.describe(), error)
            )
        return True

    def _launch(self, slot: int) -> Tuple[List[str], dict, Optional[str]]:
        host = self.slot_hosts[slot]
        argv = host.command_argv()
        for module in self.preload:
            argv += ["--preload", module]
        return argv, host.environment(worker_environment(self.extra_paths)), host.name
