"""Shared protocol-execution harness: build a network, optionally faulty.

Every algorithm in this repository executes the same way: port-number the
graph, derive independent seed streams for ports and node randomness, wire a
protocol factory into a :class:`~repro.sim.network.Network`, and -- when a
:class:`~repro.faults.plan.FaultPlan` is present -- attach a
:class:`~repro.faults.injector.FaultInjector` whose randomness derives from
``derive_seed(seed, FAULT_SEED_STREAM)``.  :func:`build_network` is that
recipe as one function, so the paper's election, the election baselines
(known-``t_mix``, flood-max and controlled flooding, clique-only), the
broadcast substrates (flooding, push-pull, spanning tree), the budgeted
probe election and the live coordinator all thread the pluggable fault hook
identically and therefore replay bit-for-bit from ``(seed, plan)``
under the parallel batch runner.

Per-algorithm ``port_stream`` / ``network_stream`` ids keep the historical
seed-derivation conventions: every algorithm draws its port numbering and node
randomness from the exact streams it always used, so refactoring onto this
harness changed no number anywhere.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Optional, Sequence

from ..graphs.ports import PortNumberedGraph
from ..graphs.topology import Graph
from .network import MessageObserver, Network
from .node import ProtocolFactory
from .rng import derive_seed

if TYPE_CHECKING:  # pragma: no cover - avoids a sim->faults import cycle
    from ..faults.plan import FaultPlan

__all__ = ["build_network", "FAULT_SEED_STREAM"]

#: Stream id separating fault randomness from port/network randomness (the
#: convention :func:`repro.core.runner.build_election_network` established).
FAULT_SEED_STREAM = 0xFA075


def build_network(
    graph: Graph,
    protocol_factory: ProtocolFactory,
    *,
    seed: Optional[int],
    port_stream: int,
    network_stream: int,
    fault_plan: Optional["FaultPlan"] = None,
    phase_start_of: Optional[Callable[[int], int]] = None,
    known_n: Optional[int] = -1,
    observers: Sequence[MessageObserver] = (),
    edge_capacity_words: Optional[int] = None,
    congest_mode: str = "count",
) -> Network:
    """Wire one protocol into a :class:`Network` on ``graph`` without running it.

    ``port_stream``/``network_stream`` are the algorithm's historical seed
    stream ids (port numbering and per-node randomness respectively).  A
    non-empty ``fault_plan`` attaches an injector whose randomness derives
    from ``(seed, FAULT_SEED_STREAM)``; an empty or absent plan keeps the
    exact fault-free code path.  ``phase_start_of`` resolves
    ``CrashFaults.at_phase`` boundaries and is only meaningful for protocols
    with a guess-and-double schedule -- phase-anchored plans against other
    protocols raise at injector attach time rather than silently misfiring.
    The remaining keywords pass through to :class:`Network`.
    """
    port_graph = PortNumberedGraph(
        graph, seed=None if seed is None else derive_seed(seed, port_stream)
    )
    injector = None
    if fault_plan is not None and not fault_plan.is_empty:
        from ..faults.injector import FaultInjector

        injector = FaultInjector(
            fault_plan,
            master_seed=None if seed is None else derive_seed(seed, FAULT_SEED_STREAM),
            phase_start_of=phase_start_of,
        )
    return Network(
        port_graph,
        protocol_factory,
        seed=None if seed is None else derive_seed(seed, network_stream),
        known_n=known_n,
        observers=observers,
        edge_capacity_words=edge_capacity_words,
        congest_mode=congest_mode,
        fault_injector=injector,
    )

