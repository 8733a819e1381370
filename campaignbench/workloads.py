"""The campaign benchmark's three workloads, and why each exists.

Every workload is a closed loop driven from the single benchmark process: a
:class:`~repro.campaign.CampaignSpec` run cold through ``CampaignRunner``
with no more workers than the machine has CPUs.  Each sweep's
``SweepSpec.base_seed`` is derived from the benchmark's ``--seed``; graph
seeds are derived by ``SweepSpec.expand``, as in real campaigns.  The amount
of work is a fixed function of ``(workload, --seconds)``, never of elapsed
time (only how often ``many-small-trials`` repeats its campaign depends on
the clock), so the paper-cost metrics repeat exactly for one seed and code
version.

``vectorized-campaign``
    The fast path users take with ``--simulator vectorized``: serial backend,
    JSON cache, default ``ElectionParameters``.  ``election`` on expander
    n=256 and n=512 (degree 8), hypercube d=8, Gilbert n=256 at
    ``gilbert_connectivity_radius`` and expander n=256 with 2 crash-stops at
    phase 2 (which the vectorized engine runs without falling back);
    ``known_tmix`` on expander n=128 and Gilbert n=256 with the exact mixing
    time computed per trial.  *Dominant layers:* sim (vectorized engine) and
    graphs (build, mixing time).  Cache and dispatch work is negligible, so
    exec.backends / exec.wire / exec.cache changes should leave it unchanged.

``faulty-fallback-campaign``
    An E11/E13-style robustness grid: ``election`` on expander n=16
    (degree 4) and hypercube d=4 under a fault-free anchor, 5% message drop,
    5% drop plus 2 crash-stops at phase 2, and a per-directed-edge delay of
    up to 1 round.  It requests the vectorized simulator, as robustness users
    do; every drop and delay trial falls back to the reference engine.
    *Dominant layers:* sim (reference ``sim.Network``) and faults (the
    injector).  This is the path the ``PhaseSchedule.window`` memo and the
    fault-vectorization items target; ``vectorized-campaign`` is its control,
    and a reference-engine-only change should leave that one unchanged.

``many-small-trials``
    Thousands of ~1 ms trials, then a warm resume, then a report: the six
    reference-engine baselines on graphs of at most 16 nodes (``flood_max``
    on cycle 16, ``controlled_flooding`` on clique 8, ``push_pull`` and
    ``flooding`` on hypercube d=4, ``spanning_tree`` on grid 4x4,
    ``clique_sublinear`` on clique 16) on the ``workerpool`` backend with 2
    workers into a SQLite cache.  *Dominant layers:* exec.backends (dispatch),
    exec.wire (frames), exec.serialize and exec.cache (put on the cold run,
    get_many on the resume, aggregate reads in the report).  Engine, graph
    and mixing-time changes should barely move it.

Predictions, per layer, of which workloads a change should leave unchanged:

=========================  ============================  ===============================
layer                      shows on                      should leave unchanged
=========================  ============================  ===============================
graphs (build, mixing)     vectorized-campaign           faulty-fallback, many-small
sim (vectorized engine)    vectorized-campaign           faulty-fallback (mostly),
                                                         many-small
sim (reference engine)     faulty-fallback-campaign      vectorized-campaign
faults (injector)          faulty-fallback-campaign      vectorized-campaign, many-small
exec.backends, exec.wire   many-small-trials             vectorized, faulty-fallback
exec.serialize             many-small-trials             vectorized, faulty-fallback
exec.cache                 many-small-trials             vectorized, faulty-fallback
                           (trials_per_s, resume_s)
campaign (expand, report)  many-small-trials             vectorized, faulty-fallback
                           (resume_s, report_s)
=========================  ============================  ===============================
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

from repro.campaign import CampaignSpec, RetryPolicy
from repro.exec import ExecutionProfile, GraphSpec, SweepSpec, TrialSpec
from repro.faults.plan import CrashFaults, DelayFaults, FaultPlan, MessageFaults
from repro.graphs.generators import gilbert_connectivity_radius
from repro.sim.rng import derive_seed

__all__ = ["Workload", "WORKLOADS", "HELD_OUT_SEED"]

#: A seed reserved for verifying a later performance claim (choosing-metrics
#: section 6.3): tune and develop on others, confirm on this one.
HELD_OUT_SEED = 20180723


@dataclass(frozen=True)
class Workload:
    """One named campaign family plus how to execute it.

    ``build(seed, size)`` returns one campaign; ``size(seconds)`` turns a run
    length into a size, a fixed function so the trial set never depends on
    machine speed.  A *replicated* workload's size counts replicas -- one
    trial of every configuration, on its own graph instances -- and an
    untraced run executes them as that many one-replica campaigns, with seeds
    derived from ``--seed``: the median throughput over them shrugs off the
    rare trial that needs an extra guess-and-double phase.  Otherwise the
    run repeats its one campaign while time remains.  In a traced run,
    ``warm_repeats`` warm resumes and reports follow the untraced campaign.
    """

    name: str
    backend: str
    cache_backend: str
    workers: int
    simulator: Optional[str]
    build: Callable[[int, int], CampaignSpec]
    size: Callable[[float], int]
    replicated: bool
    warm_repeats: int

    @property
    def profile(self) -> ExecutionProfile:
        """The explicit execution profile (environment overrides cannot apply)."""
        return ExecutionProfile(
            backend=self.backend,
            cache_backend=self.cache_backend,
            simulator=self.simulator,
            trace=False,
            workers=self.workers,
        )

    def campaigns(self, seed: int, seconds: float) -> List[CampaignSpec]:
        """The cold campaigns of one untraced run."""
        size = self.size(seconds)
        if self.replicated:
            return [self.build(derive_seed(seed, replica), 1) for replica in range(size)]
        return [self.build(seed, size)]

    def traced_campaign(self, seed: int, seconds: float) -> CampaignSpec:
        """The one campaign a traced run replays: a third of the untraced
        work, since it runs twice (untraced, then traced) and in one piece."""
        return self.build(seed, self.size(seconds / 3))


def _sweep(name: str, templates: Tuple[TrialSpec, ...], replicas: int, trials: int, seed: int):
    """A sweep whose configs repeat ``replicas`` times; each repeat draws its
    own graph seeds from ``SweepSpec.expand``."""
    return SweepSpec(
        name=name,
        configs=templates * replicas,
        trials=trials,
        base_seed=derive_seed(seed, sum(map(ord, name))),
    )


def _replicas_per(seconds_per_replica: float) -> Callable[[float], int]:
    return lambda seconds: max(1, int(round(seconds / seconds_per_replica)))


# ------------------------------------------------------------------ workloads
def _vectorized_campaign(seed: int, replicas: int) -> CampaignSpec:
    radius = gilbert_connectivity_radius(256)
    expander_256 = GraphSpec("expander", (256,), {"degree": 8})
    election = (
        TrialSpec(graph=expander_256),
        TrialSpec(graph=GraphSpec("expander", (512,), {"degree": 8})),
        TrialSpec(graph=GraphSpec("hypercube", (8,))),
        TrialSpec(graph=GraphSpec("gilbert", (256, radius))),
        TrialSpec(
            graph=expander_256,
            fault_plan=FaultPlan(crashes=CrashFaults(count=2, at_phase=2)),
        ),
    )
    known_tmix = (
        TrialSpec(graph=GraphSpec("expander", (128,), {"degree": 8}), algorithm="known_tmix"),
        TrialSpec(graph=GraphSpec("gilbert", (256, radius)), algorithm="known_tmix"),
    )
    return CampaignSpec(
        name="vectorized-campaign",
        sweeps=(
            _sweep("election", election, replicas, 1, seed),
            _sweep("known_tmix", known_tmix, replicas, 1, seed),
        ),
        retry=RetryPolicy(max_attempts=1),
    )


def _faulty_fallback_campaign(seed: int, replicas: int) -> CampaignSpec:
    drop = MessageFaults(drop_probability=0.05)
    plans = (
        None,
        FaultPlan(messages=drop),
        FaultPlan(messages=drop, crashes=CrashFaults(count=2, at_phase=2)),
        FaultPlan(delays=DelayFaults(max_delay=1)),
    )
    # n=16 rather than the E11/E13 grids' n=32: a reference-engine trial is
    # then ~4x cheaper, so one run holds ~20 replicas instead of 5, which is
    # what keeps the cross-seed spread of trials_per_s inside its bound.
    graphs = (GraphSpec("expander", (16,), {"degree": 4}), GraphSpec("hypercube", (4,)))
    templates = tuple(TrialSpec(graph=graph, fault_plan=plan) for graph in graphs for plan in plans)
    return CampaignSpec(
        name="faulty-fallback-campaign",
        sweeps=(_sweep("robustness", templates, replicas, 1, seed),),
        retry=RetryPolicy(max_attempts=1),
    )


def _many_small_trials(seed: int, trials: int) -> CampaignSpec:
    templates = (
        TrialSpec(graph=GraphSpec("cycle", (16,)), algorithm="flood_max"),
        TrialSpec(graph=GraphSpec("clique", (8,)), algorithm="controlled_flooding"),
        TrialSpec(graph=GraphSpec("hypercube", (4,)), algorithm="push_pull"),
        TrialSpec(graph=GraphSpec("hypercube", (4,)), algorithm="flooding"),
        TrialSpec(graph=GraphSpec("grid", (4, 4)), algorithm="spanning_tree"),
        TrialSpec(graph=GraphSpec("clique", (16,)), algorithm="clique_sublinear"),
    )
    return CampaignSpec(
        name="many-small-trials",
        sweeps=(_sweep("baselines", templates, 1, trials, seed),),
        retry=RetryPolicy(max_attempts=1),
    )


def _small_trials_per_config(seconds: float) -> int:
    """16 trials per configuration per second of run length, 4 to 500: one
    cold repetition of a full-length run holds 6 x 500 = 3,000 trials."""
    return max(4, min(500, int(round(seconds * 16))))


WORKLOADS: Dict[str, Workload] = {
    workload.name: workload
    for workload in (
        Workload(
            name="vectorized-campaign",
            backend="serial",
            cache_backend="json",
            workers=1,
            simulator="vectorized",
            build=_vectorized_campaign,
            # Ten replicas at --seconds 28; one takes ~3-4 s on a 2-CPU x86
            # container.
            size=_replicas_per(2.8),
            replicated=True,
            warm_repeats=15,
        ),
        Workload(
            name="faulty-fallback-campaign",
            backend="serial",
            cache_backend="json",
            workers=1,
            simulator="vectorized",
            build=_faulty_fallback_campaign,
            size=_replicas_per(1.4),
            replicated=True,
            warm_repeats=15,
        ),
        Workload(
            name="many-small-trials",
            backend="workerpool",
            cache_backend="sqlite",
            workers=2,
            simulator=None,
            build=_many_small_trials,
            size=_small_trials_per_config,
            replicated=False,
            warm_repeats=5,
        ),
    )
}
