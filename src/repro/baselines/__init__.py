"""Prior-work election baselines used by the comparison experiments (E3, E13).

Each baseline exposes a ``*_trial`` function returning the unified
:class:`~repro.core.result.TrialOutcome` (fault-aware via the shared
``fault_plan`` hook) and is registered with the :mod:`repro.exec` algorithm
registry.  Flood-max and controlled flooding are one protocol,
:class:`ControlledFloodingNode`: flood-max is controlled flooding with every
node a candidate.  The known-``t_mix`` baseline is a
:class:`~repro.core.runner.ElectionRecipe` (:func:`known_tmix_recipe`), so
the reference engine, the vectorized engine and the live runtime run it
exactly as they run the paper's election.
"""

from .clique_sublinear import CliqueSublinearNode, clique_sublinear_trial
from .controlled_flooding import (
    ControlledFloodingNode,
    controlled_flooding_trial,
    flood_max_trial,
)
from .known_tmix import KnownTmixNode, known_tmix_recipe, known_tmix_trial

__all__ = [
    "flood_max_trial",
    "ControlledFloodingNode",
    "controlled_flooding_trial",
    "KnownTmixNode",
    "known_tmix_recipe",
    "known_tmix_trial",
    "CliqueSublinearNode",
    "clique_sublinear_trial",
]
