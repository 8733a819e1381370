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
from ..core.result import TrialOutcome
from ..core.runner import ElectionRecipe
from ..faults.plan import FaultPlan
from ..graphs.topology import Graph
from ..sim.network import MessageObserver

__all__ = [
    "KnownTmixNode",
    "pin_walk_length",
    "known_tmix_recipe",
    "known_tmix_trial",
]


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


def known_tmix_recipe(
    graph: Graph,
    mixing_time: Optional[int] = None,
    params: ElectionParameters = DEFAULT_PARAMETERS,
    safety_factor: float = 1.0,
    max_rounds: Optional[int] = None,
) -> ElectionRecipe:
    """The [25] baseline's :class:`~repro.core.runner.ElectionRecipe` on ``graph``.

    ``mixing_time=None`` computes the exact ``t_mix`` of ``graph`` through
    :func:`~repro.graphs.mixing.cached_mixing_time`, so a sweep that reuses
    one graph instance pays its dense ``n x n`` matrix products once, not
    once per trial.  Every node runs the walk length pinned to
    ``safety_factor * t_mix``, and phase-anchored crash plans resolve
    against the schedule of those pinned parameters.
    """
    if mixing_time is None:
        from ..graphs.mixing import cached_mixing_time

        mixing_time = cached_mixing_time(graph)
    return ElectionRecipe(
        "known_tmix",
        pin_walk_length(params, mixing_time, safety_factor),
        max_rounds=max_rounds,
        mixing_time=mixing_time,
    )


def known_tmix_trial(
    graph: Graph,
    mixing_time: Optional[int] = None,
    *,
    params: ElectionParameters = DEFAULT_PARAMETERS,
    safety_factor: float = 1.0,
    seed: Optional[int] = None,
    fault_plan: Optional[FaultPlan] = None,
    max_rounds: Optional[int] = None,
    observers: Sequence[MessageObserver] = (),
) -> TrialOutcome:
    """Run the [25] baseline of :func:`known_tmix_recipe` and return the
    unified trial outcome, which records the oracle ``t_mix`` in
    ``extras["mixing_time"]``.  A non-empty ``fault_plan`` runs the single
    oracle-length phase against that adversary.
    """
    recipe = known_tmix_recipe(graph, mixing_time, params, safety_factor, max_rounds)
    return recipe.run(graph, seed, fault_plan, observers=observers)
