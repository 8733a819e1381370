"""Convenience entry point: run the election on a graph and summarise the outcome.

This is the main user-facing API of the library::

    from repro import expander_graph, run_leader_election

    graph = expander_graph(256, seed=1)
    outcome = run_leader_election(graph, seed=42)
    assert outcome.success
"""

from __future__ import annotations

from typing import Optional, Sequence

from ..faults.plan import FaultPlan
from ..graphs.topology import Graph
from ..sim.harness import FAULT_SEED_STREAM, build_network
from ..sim.network import MessageObserver, Network
from .leader_election import leader_election_factory
from .params import DEFAULT_PARAMETERS, ElectionParameters
from .result import ElectionOutcome, outcome_from_simulation
from .schedule import PhaseSchedule

__all__ = [
    "run_leader_election",
    "build_election_network",
    "FAULT_SEED_STREAM",
    "ELECTION_PORT_STREAM",
    "ELECTION_NETWORK_STREAM",
    "KNOWN_SIMULATORS",
]

#: The election's historical seed streams: port numbering and per-node
#: randomness.  Every engine and the live deployment draw from these.
ELECTION_PORT_STREAM = 0xB0B
ELECTION_NETWORK_STREAM = 0xA11CE

#: Simulator engines ``run_leader_election`` accepts (see docs/architecture.md).
KNOWN_SIMULATORS = ("reference", "vectorized")


def build_election_network(
    graph: Graph,
    params: ElectionParameters = DEFAULT_PARAMETERS,
    seed: Optional[int] = None,
    known_n: Optional[int] = -1,
    assumed_n: Optional[int] = None,
    observers: Sequence[MessageObserver] = (),
    edge_capacity_words: Optional[int] = None,
    congest_mode: str = "count",
    fault_plan: Optional[FaultPlan] = None,
) -> Network:
    """Wire the election protocol into a simulator without running it.

    ``known_n=-1`` gives every node the true ``n``; any other integer injects
    that value instead (the Theorem 28 experiments pass the *base* graph size
    while running on a dumbbell of twice that size); ``None`` withholds ``n``
    entirely, in which case ``assumed_n`` must be provided.

    A non-empty ``fault_plan`` runs the election against that adversary: the
    injector's randomness is derived from ``(seed, plan fingerprint)``, so the
    same pair replays bit-for-bit; an empty or absent plan leaves the run
    exactly as before.  Crash models using ``at_phase`` resolve the phase
    boundary against this run's :class:`~repro.core.schedule.PhaseSchedule`.
    """
    return build_network(
        graph,
        leader_election_factory(params=params, assumed_n=assumed_n),
        seed=seed,
        port_stream=ELECTION_PORT_STREAM,
        network_stream=ELECTION_NETWORK_STREAM,
        fault_plan=fault_plan,
        phase_start_of=PhaseSchedule(params).phase_start,
        known_n=known_n,
        observers=observers,
        edge_capacity_words=edge_capacity_words,
        congest_mode=congest_mode,
    )


def run_leader_election(
    graph: Graph,
    params: ElectionParameters = DEFAULT_PARAMETERS,
    seed: Optional[int] = None,
    known_n: Optional[int] = -1,
    assumed_n: Optional[int] = None,
    max_rounds: int = 10_000_000,
    observers: Sequence[MessageObserver] = (),
    edge_capacity_words: Optional[int] = None,
    congest_mode: str = "count",
    keep_simulation: bool = False,
    fault_plan: Optional[FaultPlan] = None,
    simulator: str = "reference",
) -> ElectionOutcome:
    """Run implicit leader election (Theorem 13) on ``graph`` and return the outcome.

    Parameters mirror :func:`build_election_network`; ``max_rounds`` caps the
    simulation defensively (the algorithm terminates on its own), and
    ``keep_simulation`` retains the raw :class:`SimulationResult` for
    fine-grained inspection.  With a non-empty ``fault_plan`` the outcome
    additionally carries ``crashed_nodes``, a degraded-outcome
    ``classification`` and per-fault counters in ``metrics.fault_events``.

    ``simulator`` selects the engine: ``"reference"`` (the per-message object
    simulator, the bit-exactness oracle) or ``"vectorized"`` (the numpy
    walk-phase engine of :mod:`repro.sim.vectorized`, with its own
    walk-randomness seed stream).  A vectorized request the engine cannot
    honour falls back to the reference simulator; the outcome's ``simulator``
    field then reads ``"reference-fallback:<reason>"``.
    """
    if simulator not in KNOWN_SIMULATORS:
        raise ValueError(
            "unknown simulator %r; expected one of %s"
            % (simulator, ", ".join(KNOWN_SIMULATORS))
        )

    def reference() -> ElectionOutcome:
        network = build_election_network(
            graph,
            params=params,
            seed=seed,
            known_n=known_n,
            assumed_n=assumed_n,
            observers=observers,
            edge_capacity_words=edge_capacity_words,
            congest_mode=congest_mode,
            fault_plan=fault_plan,
        )
        result = network.run(max_rounds=max_rounds)
        return outcome_from_simulation(result, keep_simulation=keep_simulation)

    if simulator == "reference":
        return reference()
    from ..sim.vectorized import run_vectorized_election, vectorized_or_reference

    return vectorized_or_reference(
        lambda: run_vectorized_election(
            graph,
            params=params,
            seed=seed,
            known_n=known_n,
            assumed_n=assumed_n,
            max_rounds=max_rounds,
            edge_capacity_words=edge_capacity_words,
            fault_plan=fault_plan,
        ),
        reference,
        fault_plan=fault_plan,
        observers=tuple(observers),
        keep_simulation=keep_simulation,
        congest_mode=congest_mode,
    )
