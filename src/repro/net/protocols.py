"""Which trial specs deploy live, and as which recipe.

A live run is an :class:`~repro.core.runner.ElectionRecipe`, the same one a
simulated run of the spec runs.  :func:`live_recipe` builds it on the
coordinator, which holds the graph, so the oracle mixing time of the
``known_tmix`` baseline is resolved there; ``dataclasses.asdict`` of the
recipe is the node config the ``init`` frame carries, and a node process
rebuilds it with :meth:`~repro.core.runner.ElectionRecipe.from_config` and
takes its protocol from :meth:`~repro.core.runner.ElectionRecipe.protocol`
without ever seeing the topology.  Seed streams, the crash-phase schedule
and the outcome's extras come from the recipe too, so a live run and a
simulated run of the same :class:`~repro.exec.spec.TrialSpec` are the
*same experiment*, only the message transport differs.  That is the
cross-validation contract the ``tests/net`` property suite enforces.

What this module adds is the check of the spec's ``algo_kwargs``: a live
deployment takes only the recipe's own keys.
"""

from __future__ import annotations

from ..baselines.known_tmix import known_tmix_recipe
from ..core.runner import ElectionRecipe
from ..exec.spec import TrialSpec
from ..graphs.topology import Graph

__all__ = ["LIVE_ALGORITHMS", "live_recipe"]

#: The ``algo_kwargs`` each live-deployable algorithm takes.
_LIVE_KWARGS = {
    "election": frozenset({"known_n", "assumed_n", "max_rounds"}),
    "known_tmix": frozenset({"mixing_time", "safety_factor", "max_rounds"}),
}

#: Algorithms deployable as live node processes, in registry order.
LIVE_ALGORITHMS = tuple(sorted(_LIVE_KWARGS))


def live_recipe(spec: TrialSpec, graph: Graph) -> ElectionRecipe:
    """The recipe a live deployment of ``spec`` on ``graph`` runs."""
    allowed = _LIVE_KWARGS.get(spec.algorithm)
    if allowed is None:
        raise KeyError(
            "algorithm %r has no live-deployment profile; deployable: %s"
            % (spec.algorithm, ", ".join(LIVE_ALGORITHMS))
        )
    kwargs = dict(spec.algo_kwargs)
    unknown = sorted(set(kwargs) - allowed)
    if unknown:
        raise ValueError(
            "algo_kwargs %s are not supported by the live %r deployment "
            "(supported: %s)" % (unknown, spec.algorithm, ", ".join(sorted(allowed)))
        )
    if spec.algorithm == "known_tmix":
        return known_tmix_recipe(graph, params=spec.params, **kwargs)
    recipe = ElectionRecipe(params=spec.params, **kwargs)
    if recipe.known_n is None and recipe.assumed_n is None:
        raise ValueError("the live election needs known_n or assumed_n; both are absent")
    return recipe
