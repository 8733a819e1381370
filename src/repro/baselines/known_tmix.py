"""The known-mixing-time election of Kutten et al. [25].

The prior sublinear algorithm assumes every node *knows* ``t_mix`` and runs a
single random-walk phase of exactly that length; contenders then simply keep
the largest id they have heard of through shared proxies.  Removing the
known-``t_mix`` assumption is the main algorithmic contribution of the
reproduced paper, so this baseline is the natural ablation: identical
machinery, but the guess-and-double loop replaced by one oracle-length phase.

We reuse :class:`repro.core.LeaderElectionNode` and override only the decision
rule: the single phase always stops, and the contender with the largest id in
its ``I4`` view elects itself.
"""

from __future__ import annotations

from typing import Optional, Sequence

from ..core.leader_election import LeaderElectionNode
from ..core.params import DEFAULT_PARAMETERS, ElectionParameters
from ..core.result import TrialOutcome, outcome_from_simulation
from ..core.schedule import PhaseSchedule
from ..faults.plan import FaultPlan
from ..graphs.mixing import cached_mixing_time
from ..graphs.topology import Graph
from ..sim.harness import build_network
from ..sim.network import MessageObserver, SimulationResult
from ..sim.node import NodeContext

__all__ = [
    "KNOWN_TMIX_PORT_STREAM",
    "KNOWN_TMIX_NETWORK_STREAM",
    "KnownTmixNode",
    "pin_walk_length",
    "known_tmix_factory",
    "known_tmix_trial",
    "simulate_known_tmix",
]

#: The baseline's historical seed streams: port numbering and per-node
#: randomness.  Every engine and the live deployment draw from these.
KNOWN_TMIX_PORT_STREAM = 0x41
KNOWN_TMIX_NETWORK_STREAM = 0x42


class KnownTmixNode(LeaderElectionNode):
    """Single-phase election with an oracle-provided walk length."""

    def _decide(self, window) -> None:
        """Always stop after the first (only) phase and elect on the largest id."""
        own_tree = self._tree(self.identifier, window.index, create=False)
        if own_tree is not None and own_tree.is_proxy:
            own_tree.local_report_contribution(self.proxy_origins)
            ids, distinct, _ = own_tree.report_payload()
            self.adjacency_ids |= ids
            self.distinct_count_phase += distinct

        self.active = False
        self.stopped = True
        self.satisfied_intersection = True
        self.satisfied_distinctness = True

        competitors = self.i4_ids | self.adjacency_ids
        has_largest_id = all(self.identifier >= other for other in competitors)
        if has_largest_id and not self.heard_winner:
            self.is_leader = True
            self.heard_winner = True
            self._announce_victory(window)


def pin_walk_length(
    params: ElectionParameters, mixing_time: int, safety_factor: float
) -> ElectionParameters:
    """``params`` with the walk length pinned to ``safety_factor * t_mix`` (at least 1)."""
    return params.with_overrides(
        initial_walk_length=max(1, round(safety_factor * mixing_time))
    )


def known_tmix_factory(
    mixing_time: int,
    params: ElectionParameters = DEFAULT_PARAMETERS,
    safety_factor: float = 1.0,
):
    """Protocol factory with the walk length pinned to ``safety_factor * t_mix``."""
    pinned = pin_walk_length(params, mixing_time, safety_factor)

    def factory(ctx: NodeContext) -> KnownTmixNode:
        return KnownTmixNode(ctx, params=pinned)

    return factory


def simulate_known_tmix(
    graph: Graph,
    mixing_time: int,
    params: ElectionParameters,
    safety_factor: float,
    seed: Optional[int],
    fault_plan: Optional[FaultPlan],
    max_rounds: int,
    observers: Sequence[MessageObserver],
) -> SimulationResult:
    """One [25]-baseline run on the shared harness (historical seed streams).

    Phase-anchored crash plans resolve against the schedule of the *pinned*
    parameters -- the walk length every node actually runs with.
    """
    pinned = pin_walk_length(params, mixing_time, safety_factor)
    return build_network(
        graph,
        known_tmix_factory(mixing_time, params=params, safety_factor=safety_factor),
        seed=seed,
        port_stream=KNOWN_TMIX_PORT_STREAM,
        network_stream=KNOWN_TMIX_NETWORK_STREAM,
        fault_plan=fault_plan,
        phase_start_of=PhaseSchedule(pinned).phase_start,
        observers=observers,
    ).run(max_rounds=max_rounds)


def known_tmix_trial(
    graph: Graph,
    mixing_time: Optional[int] = None,
    *,
    params: ElectionParameters = DEFAULT_PARAMETERS,
    safety_factor: float = 1.0,
    seed: Optional[int] = None,
    fault_plan: Optional[FaultPlan] = None,
    max_rounds: int = 1_000_000,
    observers: Sequence[MessageObserver] = (),
    simulator: str = "reference",
) -> TrialOutcome:
    """Run the [25] baseline and return the unified trial outcome.

    ``mixing_time=None`` computes the exact ``t_mix`` of ``graph`` through
    :func:`~repro.graphs.mixing.cached_mixing_time`, so a sweep that reuses
    one graph instance pays its dense ``n x n`` matrix products once, not
    once per trial.  A non-empty ``fault_plan`` runs the single oracle-length
    phase against that adversary.  ``simulator="vectorized"`` runs the
    oracle-length phase on the numpy engine of :mod:`repro.sim.vectorized`
    (falling back to the reference simulator, with the reason recorded in
    ``extras["simulator"]``, when the engine declines the configuration).
    """
    if simulator not in ("reference", "vectorized"):
        raise ValueError(
            "unknown simulator %r; expected 'reference' or 'vectorized'" % simulator
        )
    if mixing_time is None:
        mixing_time = cached_mixing_time(graph)

    def reference():
        result = simulate_known_tmix(
            graph, mixing_time, params, safety_factor, seed, fault_plan, max_rounds, observers
        )
        return outcome_from_simulation(result)

    if simulator == "vectorized":
        from ..sim.vectorized import run_vectorized_known_tmix, vectorized_or_reference

        outcome = vectorized_or_reference(
            lambda: run_vectorized_known_tmix(
                graph,
                mixing_time,
                params=params,
                safety_factor=safety_factor,
                seed=seed,
                fault_plan=fault_plan,
                max_rounds=max_rounds,
            ),
            reference,
            fault_plan=fault_plan,
            observers=tuple(observers),
        )
    else:
        outcome = reference()
    trial = TrialOutcome.from_election("known_tmix", outcome)
    trial.extras["mixing_time"] = mixing_time
    return trial
