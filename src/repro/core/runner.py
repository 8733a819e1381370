"""Convenience entry point: run the election on a graph and summarise the outcome.

This is the main user-facing API of the library::

    from repro import expander_graph, run_leader_election

    graph = expander_graph(256, seed=1)
    outcome = run_leader_election(graph, seed=42)
    assert outcome.success

One :class:`ElectionRecipe` describes a run of the paper's election or of
the known-``t_mix`` baseline of Kutten et al. [25]; the reference engine,
the vectorized engine and the live runtime all run it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Optional, Sequence, Tuple

from ..faults.plan import FaultPlan
from ..graphs.topology import Graph
from ..sim.harness import FAULT_SEED_STREAM, build_network
from ..sim.network import MessageObserver, Network
from ..sim.node import NodeContext, ProtocolFactory
from .leader_election import LeaderElectionNode
from .params import DEFAULT_PARAMETERS, ElectionParameters
from .result import TrialOutcome, outcome_from_simulation
from .schedule import PhaseSchedule

__all__ = [
    "ElectionRecipe",
    "run_leader_election",
    "build_election_network",
    "FAULT_SEED_STREAM",
    "ELECTION_PORT_STREAM",
    "ELECTION_NETWORK_STREAM",
    "KNOWN_TMIX_PORT_STREAM",
    "KNOWN_TMIX_NETWORK_STREAM",
    "KNOWN_SIMULATORS",
]

#: The historical seed streams -- port numbering and per-node randomness --
#: of the election and of the [25] baseline.  Every engine and the live
#: deployment draw from these, through :attr:`ElectionRecipe.streams`.
ELECTION_PORT_STREAM = 0xB0B
ELECTION_NETWORK_STREAM = 0xA11CE
KNOWN_TMIX_PORT_STREAM = 0x41
KNOWN_TMIX_NETWORK_STREAM = 0x42

#: Per recipe algorithm: its seed streams and its default round cap.
_ALGORITHMS = {
    "election": ((ELECTION_PORT_STREAM, ELECTION_NETWORK_STREAM), 10_000_000),
    "known_tmix": ((KNOWN_TMIX_PORT_STREAM, KNOWN_TMIX_NETWORK_STREAM), 1_000_000),
}

#: Simulator engines a trial may name (see docs/architecture.md).
KNOWN_SIMULATORS = ("reference", "vectorized")


@dataclass(frozen=True)
class ElectionRecipe:
    """One run of the paper's election or of the [25] baseline, on any engine.

    ``algorithm`` is ``"election"`` (the guess-and-double Theorem 13
    election) or ``"known_tmix"`` (one phase of an oracle walk length; build
    it with :func:`~repro.baselines.known_tmix.known_tmix_recipe`, which
    pins ``params``' walk length and records ``mixing_time``).
    ``known_n=-1`` tells every node the true ``n``; any other integer is
    told instead, and ``None`` withholds ``n``, in which case ``assumed_n``
    stands in.  ``max_rounds=None`` is the algorithm's default cap.

    The recipe alone fixes the run's seed streams, the schedule that
    phase-anchored crash plans resolve against, each node's protocol, the
    :class:`~repro.sim.network.Network` wiring and the outcome's extras.
    ``dataclasses.asdict`` of a recipe is a live node's JSON config, and
    :meth:`from_config` reads it back:

    >>> import dataclasses
    >>> from repro.baselines.known_tmix import known_tmix_recipe
    >>> from repro.graphs import hypercube_graph
    >>> for recipe in (ElectionRecipe(), known_tmix_recipe(hypercube_graph(3), mixing_time=5)):
    ...     assert ElectionRecipe.from_config(dataclasses.asdict(recipe)) == recipe
    ...     print(recipe.algorithm, recipe.params.initial_walk_length, recipe.max_rounds)
    election 1 10000000
    known_tmix 5 1000000
    """

    algorithm: str = "election"
    params: ElectionParameters = DEFAULT_PARAMETERS
    known_n: Optional[int] = -1
    assumed_n: Optional[int] = None
    max_rounds: Optional[int] = None
    mixing_time: Optional[int] = None

    def __post_init__(self) -> None:
        if self.algorithm not in _ALGORITHMS:
            raise ValueError(
                "a recipe runs election or known_tmix, not the unknown algorithm %r"
                % self.algorithm
            )
        if self.max_rounds is None:
            object.__setattr__(self, "max_rounds", _ALGORITHMS[self.algorithm][1])

    @classmethod
    def from_config(cls, config: Mapping[str, object]) -> "ElectionRecipe":
        """The recipe whose ``dataclasses.asdict`` is ``config``."""
        return cls(**{**config, "params": ElectionParameters(**config["params"])})

    @property
    def streams(self) -> Tuple[int, int]:
        """The seed stream ids of port numbering and of per-node randomness."""
        return _ALGORITHMS[self.algorithm][0]

    def schedule(self) -> PhaseSchedule:
        """The phase windows every node runs, which crash plans anchor to."""
        return PhaseSchedule(self.params)

    def protocol(self, ctx: NodeContext) -> LeaderElectionNode:
        """The node this recipe runs at ``ctx``; the election draws its
        identifier from ``ctx.rng`` here, so construction is a draw."""
        if self.algorithm == "known_tmix":
            from ..baselines.known_tmix import KnownTmixNode

            return KnownTmixNode(ctx, params=self.params, assumed_n=self.assumed_n)
        return LeaderElectionNode(ctx, params=self.params, assumed_n=self.assumed_n)

    def network(
        self,
        graph: Graph,
        seed: Optional[int],
        fault_plan: Optional[FaultPlan] = None,
        factory: Optional[ProtocolFactory] = None,
        **options,
    ) -> Network:
        """The run wired into a :class:`Network` on ``graph``, not yet run.

        A non-empty ``fault_plan`` runs against that adversary, its
        randomness derived from ``(seed, plan fingerprint)``.  ``factory``
        replaces :meth:`protocol` (the live coordinator's stand-ins);
        ``options`` (``observers``, ``edge_capacity_words``,
        ``congest_mode``) pass through to :class:`Network`.
        """
        port_stream, network_stream = self.streams
        return build_network(
            graph,
            factory or self.protocol,
            seed=seed,
            port_stream=port_stream,
            network_stream=network_stream,
            fault_plan=fault_plan,
            phase_start_of=self.schedule().phase_start,
            known_n=self.known_n,
            **options,
        )

    def finish(self, outcome: TrialOutcome) -> TrialOutcome:
        """``outcome`` with this recipe's extras: a [25] run's oracle ``t_mix``."""
        if self.mixing_time is not None:
            outcome.extras["mixing_time"] = self.mixing_time
        return outcome

    def run(
        self,
        graph: Graph,
        seed: Optional[int] = None,
        fault_plan: Optional[FaultPlan] = None,
        keep_simulation: bool = False,
        **options,
    ) -> TrialOutcome:
        """Run the recipe on the reference simulator; ``options`` are
        :meth:`network`'s."""
        result = self.network(graph, seed, fault_plan, **options).run(self.max_rounds)
        return self.finish(
            outcome_from_simulation(self.algorithm, result, keep_simulation=keep_simulation)
        )


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
    recipe = ElectionRecipe(params=params, known_n=known_n, assumed_n=assumed_n)
    return recipe.network(
        graph,
        seed,
        fault_plan,
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
    max_rounds: Optional[int] = None,
    observers: Sequence[MessageObserver] = (),
    edge_capacity_words: Optional[int] = None,
    congest_mode: str = "count",
    keep_simulation: bool = False,
    fault_plan: Optional[FaultPlan] = None,
) -> TrialOutcome:
    """Run implicit leader election (Theorem 13) on ``graph`` and return the outcome.

    Parameters mirror :func:`build_election_network`; ``max_rounds`` caps the
    simulation defensively (the algorithm terminates on its own; ``None`` is
    the election's default cap), and ``keep_simulation`` retains the raw
    :class:`SimulationResult` for fine-grained inspection.  With a non-empty
    ``fault_plan`` the outcome additionally carries ``crashed_nodes``, a
    degraded-outcome ``classification`` and per-fault counters in
    ``metrics.fault_events``.

    The election runs on the reference simulator, the bit-exactness oracle;
    a :class:`~repro.exec.spec.TrialSpec` with ``simulator="vectorized"``
    runs it on the numpy walk-phase engine instead (``repro.exec.algorithms``).
    """
    recipe = ElectionRecipe(
        params=params, known_n=known_n, assumed_n=assumed_n, max_rounds=max_rounds
    )
    return recipe.run(
        graph,
        seed,
        fault_plan,
        keep_simulation,
        observers=observers,
        edge_capacity_words=edge_capacity_words,
        congest_mode=congest_mode,
    )
