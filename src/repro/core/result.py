"""Outcomes of simulation trials: one envelope for every algorithm.

Runs executed under a :mod:`repro.faults` plan additionally carry the set of
crash-stopped nodes and a degraded-outcome ``classification``: ``"elected"``
(exactly one live leader), ``"leader_crashed"`` (the unique leader was
crash-stopped), ``"multiple_leaders"`` or ``"no_leader"``.  Fault-free runs
classify as ``"elected"`` or the same failure labels, so the field is safe to
aggregate across mixed campaigns.

Every election, baseline and broadcast returns one outcome shape,
:class:`TrialOutcome`: winners, a per-kind ``classification``, the full
:class:`~repro.sim.metrics.RunMetrics`, ``crashed_nodes`` and a JSON-pure
``extras`` dict for algorithm-specific fields (the paper's election records
its contender count, forced stop, phase count and final walk length there).
:func:`repro.core.runner.run_leader_election`, the batch runner, result
cache, campaign reports and ``analysis.sweep_summary`` all speak this one
shape, whatever algorithm produced it, so ``success`` means the same thing
everywhere: a crashed unique leader is a ``"leader_crashed"`` failure.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional

from ..sim.metrics import RunMetrics
from ..sim.network import SimulationResult

__all__ = [
    "TrialOutcome",
    "outcome_from_simulation",
    "election_trial_outcome",
    "broadcast_trial_outcome",
    "classify_election",
    "classify_broadcast",
    "classify_spanning_tree",
    "CLASSIFICATIONS",
    "BROADCAST_CLASSIFICATIONS",
    "SPANNING_TREE_CLASSIFICATIONS",
    "KIND_CLASSIFICATIONS",
    "SUCCESS_CLASSIFICATIONS",
    "TRIAL_KINDS",
]

#: Every value an election-kind ``TrialOutcome.classification`` can take.
CLASSIFICATIONS = ("elected", "leader_crashed", "multiple_leaders", "no_leader")

#: Labels of broadcast-kind trials: every node informed, every *live* node
#: informed (the uninformed remainder was crash-stopped), or neither.
BROADCAST_CLASSIFICATIONS = ("informed_all", "informed_live", "partial")

#: Labels of spanning-tree-kind trials, by the same live-node convention.
SPANNING_TREE_CLASSIFICATIONS = ("spanning", "spanning_live", "partial")

#: Outcome kinds an :class:`repro.exec.algorithms.Algorithm` may declare,
#: mapped to the full label set its classifications draw from.
KIND_CLASSIFICATIONS: Dict[str, tuple] = {
    "election": CLASSIFICATIONS,
    "broadcast": BROADCAST_CLASSIFICATIONS,
    "spanning_tree": SPANNING_TREE_CLASSIFICATIONS,
}

TRIAL_KINDS = tuple(KIND_CLASSIFICATIONS)

#: Classifications that count as a successful trial when aggregating mixed
#: sweeps ("informed_live"/"spanning_live" succeed: crash-stopped nodes are
#: unreachable by definition, so covering every live node is the best any
#: algorithm can do).
SUCCESS_CLASSIFICATIONS = frozenset(
    {"elected", "informed_all", "informed_live", "spanning", "spanning_live"}
)


def classify_election(leaders: List[int], crashed_nodes: Iterable[int]) -> str:
    """Degraded-outcome label of an election (one of :data:`CLASSIFICATIONS`).

    >>> classify_election([3], [])
    'elected'
    >>> classify_election([3], [3])
    'leader_crashed'
    >>> classify_election([], [1])
    'no_leader'
    """
    if len(leaders) == 0:
        return "no_leader"
    if len(leaders) > 1:
        return "multiple_leaders"
    if leaders[0] in set(crashed_nodes):
        return "leader_crashed"
    return "elected"


def classify_broadcast(uninformed: Iterable[int], crashed_nodes: Iterable[int]) -> str:
    """Broadcast label: which nodes never learned the rumor, and were they dead?

    >>> classify_broadcast([], [])
    'informed_all'
    >>> classify_broadcast([4], [4, 7])
    'informed_live'
    >>> classify_broadcast([4, 5], [4])
    'partial'
    """
    uninformed = set(uninformed)
    if not uninformed:
        return "informed_all"
    if uninformed <= set(crashed_nodes):
        return "informed_live"
    return "partial"


def classify_spanning_tree(unjoined: Iterable[int], crashed_nodes: Iterable[int]) -> str:
    """Spanning-tree label by the same live-node convention as broadcast."""
    unjoined = set(unjoined)
    if not unjoined:
        return "spanning"
    if unjoined <= set(crashed_nodes):
        return "spanning_live"
    return "partial"


@dataclass
class TrialOutcome:
    """The unified result envelope of one trial.

    Every election, baseline and broadcast returns this one shape, so
    caches, campaign reports and sweep aggregation never branch on the
    algorithm.  ``kind`` declares which label family
    ``classification`` draws from (see :data:`KIND_CLASSIFICATIONS`);
    ``winners`` holds the election's leaders, the broadcast's sources or the
    tree's root; ``extras`` carries algorithm-specific fields and must stay
    JSON-pure (scalars, strings, lists, string-keyed dicts) so outcomes
    round-trip the result cache exactly.

    ``simulation`` optionally retains the raw per-node transcript
    (``keep_simulation`` runs); it is never serialised and never compared.
    """

    algorithm: str
    kind: str
    num_nodes: int
    winners: List[int]
    classification: str
    metrics: RunMetrics
    crashed_nodes: List[int] = field(default_factory=list)
    extras: Dict[str, object] = field(default_factory=dict)
    simulation: Optional[SimulationResult] = field(
        default=None, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        if self.kind not in KIND_CLASSIFICATIONS:
            raise ValueError(
                "unknown trial kind %r; expected one of %s"
                % (self.kind, ", ".join(TRIAL_KINDS))
            )

    # ---------------------------------------------------------------- winners
    @property
    def num_winners(self) -> int:
        """How many nodes ended the trial in the winning role."""
        return len(self.winners)

    @property
    def leaders(self) -> List[int]:
        """Alias for ``winners`` under election vocabulary."""
        return self.winners

    @property
    def num_leaders(self) -> int:
        """Alias for :attr:`num_winners` under election vocabulary."""
        return self.num_winners

    @property
    def leader(self) -> Optional[int]:
        """The unique winner's node index, or ``None`` without one."""
        if len(self.winners) == 1:
            return self.winners[0]
        return None

    @property
    def success(self) -> bool:
        """Whether the classification counts as a success for its kind."""
        return self.classification in SUCCESS_CLASSIFICATIONS

    # ------------------------------------------------------------------ costs
    @property
    def rounds(self) -> int:
        """Rounds until the network went quiet."""
        return self.metrics.rounds

    @property
    def messages(self) -> int:
        """Number of physical messages sent."""
        return self.metrics.messages

    @property
    def message_units(self) -> int:
        """Number of ``O(log n)``-bit message units (the paper's measure)."""
        return self.metrics.message_units

    @property
    def num_crashed(self) -> int:
        """How many nodes were crash-stopped by the fault plan."""
        return len(self.crashed_nodes)

    @property
    def num_contenders(self) -> int:
        """Contender count for election-kind trials (0 when not recorded)."""
        return int(self.extras.get("num_contenders", 0))

    # -------------------------------------------------------------- reporting
    def as_record(self) -> Dict[str, object]:
        """Flat dictionary useful for sweep tables and CSV-ish output."""
        return {
            "algorithm": self.algorithm,
            "kind": self.kind,
            "num_nodes": self.num_nodes,
            "num_winners": self.num_winners,
            "success": self.success,
            "classification": self.classification,
            "rounds": self.rounds,
            "messages": self.messages,
            "message_units": self.message_units,
            "num_crashed": self.num_crashed,
            "extras": dict(self.extras),
        }

    def __str__(self) -> str:
        role = "leaders" if self.kind == "election" else "winners"
        return "TrialOutcome(%s on n=%d: %s, %s=%d, rounds=%d, messages=%d, success=%s)" % (
            self.algorithm,
            self.num_nodes,
            self.classification,
            role,
            self.num_winners,
            self.rounds,
            self.messages,
            self.success,
        )


def election_trial_outcome(
    algorithm: str,
    result: SimulationResult,
    num_contenders: Optional[int] = None,
) -> TrialOutcome:
    """Unified outcome of a flood-style election protocol's simulation.

    Winners are the nodes whose result dict set ``leader``; the contender
    count defaults to the nodes that set ``contender`` (the flooding
    baselines mark every node a contender implicitly).
    """
    leaders = result.nodes_with("leader", True)
    if num_contenders is None:
        num_contenders = len(result.nodes_with("contender", True))
    return TrialOutcome(
        algorithm=algorithm,
        kind="election",
        num_nodes=len(result.node_results),
        winners=leaders,
        classification=classify_election(leaders, result.crashed_nodes),
        metrics=result.metrics,
        crashed_nodes=list(result.crashed_nodes),
        extras={"num_contenders": num_contenders},
    )


def broadcast_trial_outcome(
    algorithm: str, result: SimulationResult, sources: Iterable[int], rumor: int
) -> TrialOutcome:
    """Unified outcome of a rumor-spreading protocol's simulation.

    Winners are the sources; ``extras`` counts the nodes whose result dict
    set ``informed`` and records the rumor.
    """
    informed = result.nodes_with("informed", True)
    num_nodes = len(result.node_results)
    uninformed = sorted(set(range(num_nodes)) - set(informed))
    return TrialOutcome(
        algorithm=algorithm,
        kind="broadcast",
        num_nodes=num_nodes,
        winners=sorted(sources),
        classification=classify_broadcast(uninformed, result.crashed_nodes),
        metrics=result.metrics,
        crashed_nodes=list(result.crashed_nodes),
        extras={"informed": len(informed), "rumor": rumor},
    )


def outcome_from_simulation(
    algorithm: str, result: SimulationResult, keep_simulation: bool = False
) -> TrialOutcome:
    """Unified outcome of a random-walk election's simulation (the paper's
    election or the [25] baseline).

    On top of :func:`election_trial_outcome`, ``extras`` records whether a
    contender was forced to stop at the walk-length cap (``forced_stop``),
    the phases run (``max_phases``) and the last walk-length guess
    (``final_walk_length``); ``keep_simulation`` retains the transcript.
    """
    outcome = election_trial_outcome(algorithm, result)
    nodes = result.node_results
    outcome.extras.update(
        forced_stop=any(res.get("forced_stop") for res in nodes),
        max_phases=max((res.get("phases", 0) for res in nodes), default=0),
        final_walk_length=max((res.get("final_walk_length", 0) for res in nodes), default=0),
    )
    if keep_simulation:
        outcome.simulation = result
    return outcome
