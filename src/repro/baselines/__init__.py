"""Prior-work election baselines used by the comparison experiments (E3, E13).

Each baseline exposes a ``*_trial`` function returning the unified
:class:`~repro.core.result.TrialOutcome` (fault-aware via the shared
``fault_plan`` hook) and is registered with the :mod:`repro.exec` algorithm
registry.  Flood-max and controlled flooding are one protocol,
:class:`ControlledFloodingNode`: flood-max is controlled flooding with every
node a candidate.
"""

from .clique_sublinear import CliqueSublinearNode, clique_sublinear_trial
from .controlled_flooding import (
    ControlledFloodingNode,
    controlled_flooding_trial,
    flood_max_trial,
)
from .known_tmix import (
    KnownTmixNode,
    known_tmix_factory,
    known_tmix_trial,
    simulate_known_tmix,
)

__all__ = [
    "flood_max_trial",
    "ControlledFloodingNode",
    "controlled_flooding_trial",
    "KnownTmixNode",
    "known_tmix_factory",
    "known_tmix_trial",
    "simulate_known_tmix",
    "CliqueSublinearNode",
    "clique_sublinear_trial",
]
