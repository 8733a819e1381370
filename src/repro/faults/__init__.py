"""repro.faults -- deterministic fault injection and adversarial scheduling.

The paper's model is perfectly synchronous and fault free; this subsystem
asks what happens when it is not.  It has exactly two halves:

* :class:`FaultPlan` and its component models (:class:`MessageFaults`,
  :class:`CrashFaults`, :class:`DelayFaults`, :class:`EdgeFaults`) -- plain
  data describing a composable adversary, fingerprintable and wire-safe so
  fault parameters participate in executor caching and worker parallelism;
* :class:`FaultInjector` -- the runtime object the simulator consults at
  send and activation time, drawing every decision from SplitMix64 streams
  derived from ``(master seed, plan fingerprint)`` so faulty runs replay
  bit-for-bit.

Quickstart::

    from repro import expander_graph, run_leader_election
    from repro.faults import FaultPlan

    graph = expander_graph(128, seed=7)
    outcome = run_leader_election(graph, seed=42, fault_plan=FaultPlan.dropping(0.05))
    print(outcome.classification, outcome.metrics.fault_events)
"""

from .injector import FAULT_EVENT_KINDS, FaultInjector
from .plan import CrashFaults, DelayFaults, EdgeFaults, FaultPlan, MessageFaults

__all__ = [
    "FaultPlan",
    "MessageFaults",
    "CrashFaults",
    "DelayFaults",
    "EdgeFaults",
    "FaultInjector",
    "FAULT_EVENT_KINDS",
]
