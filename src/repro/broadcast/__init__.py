"""Broadcast substrates: push-pull gossip, flooding, spanning-tree construction.

Each substrate exposes a ``*_trial`` function returning the unified
:class:`~repro.core.result.TrialOutcome` (fault-aware via the shared
``fault_plan`` hook) and is registered with the :mod:`repro.exec` algorithm
registry.  A broadcast's coverage is its classification and
``extras["informed"]``.  :func:`run_spanning_tree_construction` alone keeps
a substrate-specific outcome, because only it reports the constructed tree
(parent edges and depths).
"""

from .flooding import FloodingNode, flooding_trial
from .push_pull import PushPullNode, push_pull_trial
from .spanning_tree import (
    SpanningTreeNode,
    SpanningTreeOutcome,
    run_spanning_tree_construction,
    spanning_tree_trial,
)

__all__ = [
    "PushPullNode",
    "push_pull_trial",
    "FloodingNode",
    "flooding_trial",
    "SpanningTreeNode",
    "SpanningTreeOutcome",
    "spanning_tree_trial",
    "run_spanning_tree_construction",
]
