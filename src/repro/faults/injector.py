"""The runtime half of the fault subsystem: executing a :class:`FaultPlan`.

A :class:`FaultInjector` is created per run from ``(plan, master seed)`` and
attached to one :class:`~repro.sim.network.Network`, which consults it at two
points only:

* at **send** time, :meth:`deliveries` maps one physical send to the list of
  delivery rounds the adversary permits (empty = lost, two entries =
  duplicated, shifted = delayed; messages to nodes that are crashed by their
  delivery round are lost);
* at **activation** time, :meth:`is_crashed` suppresses crashed nodes.

Every random decision is drawn from four independent SplitMix64-derived
streams (message, crash, delay, edge) seeded by ``derive_seed(master_seed,
plan.seed_stream())``.  Because the network flushes sends in deterministic
order and all per-edge/per-node draws happen up front in sorted order at
:meth:`attach` time, a faulty run is bit-for-bit replayable from ``(master
seed, plan)`` alone -- in-process, across processes and under the parallel
:class:`~repro.exec.runner.BatchRunner`.  The per-graph draws are public --
:func:`crash_schedule`, :func:`removed_edges` and :func:`delay_table` -- so the
vectorized engine crashes the same nodes, removes the same edges and delays
the same edges as the reference simulator.

The injector also keeps per-fault event counters (``dropped``,
``duplicated``, ``delayed`` ...) which the network folds into
:class:`~repro.sim.metrics.RunMetrics` as ``fault_events``.
"""

from __future__ import annotations

import random
from typing import Callable, Dict, FrozenSet, List, Optional, Tuple

from ..sim.rng import derive_seed, fresh_master_seed
from .plan import FaultPlan

__all__ = [
    "FaultInjector",
    "FAULT_EVENT_KINDS",
    "crash_schedule",
    "removed_edges",
    "delay_table",
]

#: Counter keys every injector reports (all start at zero).
FAULT_EVENT_KINDS = (
    "dropped",
    "duplicated",
    "delayed",
    "delay_rounds",
    "edge_dropped",
    "lost_to_crash",
)

# Sub-stream indices under the plan-derived base seed.
_MESSAGE_STREAM = 1
_CRASH_STREAM = 2
_DELAY_STREAM = 3
_EDGE_STREAM = 4


def _stream(plan: FaultPlan, master_seed: int, stream: int) -> random.Random:
    """The plan's sub-stream ``stream`` under ``master_seed``."""
    return random.Random(derive_seed(derive_seed(master_seed, plan.seed_stream()), stream))


def crash_schedule(
    plan: FaultPlan, master_seed: int, n: int, phase_start_of: Optional[Callable[[int], int]] = None
) -> Dict[int, int]:
    """Node -> round from which ``plan`` crash-stops it, for an ``n``-node run.

    Every simulator resolves crashes here, so all of them crash the same
    nodes at the same rounds: random targets come from the plan's crash
    stream under ``master_seed``, and ``phase_start_of`` (needed only for
    ``CrashFaults.at_phase``) maps a phase index to its first round.
    """
    crashes = plan.crashes
    if crashes.is_empty:
        return {}
    if crashes.targets:
        targets = list(crashes.targets)
        for node in targets:
            if not 0 <= node < n:
                raise ValueError("crash target %d outside the %d-node network" % (node, n))
    else:
        if crashes.count > n:
            raise ValueError("cannot crash %d of %d nodes" % (crashes.count, n))
        crash_rng = _stream(plan, master_seed, _CRASH_STREAM)
        targets = sorted(crash_rng.sample(range(n), crashes.count))
    if crashes.at_round is not None:
        round_number = crashes.at_round
    elif crashes.at_phase is not None:
        if phase_start_of is None:
            raise ValueError(
                "plan crashes at phase %d but the injector has no "
                "phase_start_of resolver" % crashes.at_phase
            )
        round_number = phase_start_of(crashes.at_phase)
    else:
        round_number = 0
    return {node: round_number for node in targets}


def removed_edges(plan: FaultPlan, master_seed: int, graph) -> FrozenSet[Tuple[int, int]]:
    """Undirected edges ``(u, v)``, ``u < v``, that ``plan`` removes from ``graph``.

    One draw per edge from the plan's edge stream under ``master_seed``, in
    ``graph.edges()`` order, so every simulator removes the same edges; they
    carry nothing from round ``plan.edges.at_round`` on.
    """
    edges = plan.edges
    if edges.is_empty:
        return frozenset()
    edge_rng = _stream(plan, master_seed, _EDGE_STREAM)
    return frozenset(
        edge for edge in graph.edges() if edge_rng.random() < edges.removal_probability
    )


def delay_table(plan: FaultPlan, master_seed: int, graph) -> Dict[Tuple[int, int], int]:
    """Directed edge ``(sender, receiver)`` -> extra delivery rounds under ``plan``.

    Every directed edge of ``graph`` is listed (empty when the plan delays
    nothing).  A uniform delay draws nothing; otherwise each edge ``(u, v)``
    of ``graph.edges()`` draws its ``(u, v)`` then its ``(v, u)`` delay from
    the plan's delay stream under ``master_seed``, so every simulator delays
    the same edges alike.
    """
    delays = plan.delays
    if delays.is_empty:
        return {}
    table: Dict[Tuple[int, int], int] = {}
    if delays.is_uniform:
        for u, v in graph.edges():
            table[(u, v)] = table[(v, u)] = delays.max_delay
        return table
    delay_rng = _stream(plan, master_seed, _DELAY_STREAM)
    for u, v in graph.edges():
        table[(u, v)] = delay_rng.randint(delays.min_delay, delays.max_delay)
        table[(v, u)] = delay_rng.randint(delays.min_delay, delays.max_delay)
    return table


class FaultInjector:
    """Executes one :class:`FaultPlan` against one simulation run.

    Parameters
    ----------
    plan:
        The adversary description.  An empty plan is legal (the injector
        becomes a no-op), but callers normally skip the injector entirely.
    master_seed:
        Seed the fault streams are derived from; ``None`` draws a fresh seed
        from system entropy (non-replayable, like an unseeded network).
    phase_start_of:
        Maps a guess-and-double phase index to its first round; required only
        when the plan crashes at a phase boundary (``CrashFaults.at_phase``).
    """

    def __init__(
        self,
        plan: FaultPlan,
        master_seed: Optional[int] = None,
        phase_start_of: Optional[Callable[[int], int]] = None,
    ) -> None:
        self.plan = plan
        if master_seed is None:
            master_seed = fresh_master_seed()
        self.master_seed = master_seed
        self._message_rng = _stream(plan, master_seed, _MESSAGE_STREAM)
        self._phase_start_of = phase_start_of
        self._attached = False
        #: node index -> round from which the node is crash-stopped.
        self.crash_rounds: Dict[int, int] = {}
        self._removed_edges: frozenset = frozenset()
        self._edge_removal_round = 0
        self._delays: Dict[Tuple[int, int], int] = {}
        self.events: Dict[str, int] = {kind: 0 for kind in FAULT_EVENT_KINDS}

    # ------------------------------------------------------------ attachment
    def attach(self, port_graph) -> None:
        """Precompute all structural decisions for ``port_graph``.

        Called once by the network constructor.  Draws, in fixed order and
        from dedicated streams: crash targets and rounds, removed edges, and
        per-directed-edge delays.  A second ``attach`` raises -- an injector
        accumulates per-run state and serves exactly one run.
        """
        if self._attached:
            raise RuntimeError("a FaultInjector serves exactly one run")
        self._attached = True
        self.crash_rounds = crash_schedule(
            self.plan, self.master_seed, port_graph.num_nodes, self._phase_start_of
        )
        graph = port_graph.graph
        self._removed_edges = removed_edges(self.plan, self.master_seed, graph)
        self._edge_removal_round = self.plan.edges.at_round
        self._delays = delay_table(self.plan, self.master_seed, graph)

    # --------------------------------------------------------------- queries
    def is_crashed(self, node: int, round_number: int) -> bool:
        """Whether ``node`` is crash-stopped at ``round_number``."""
        crash_round = self.crash_rounds.get(node)
        return crash_round is not None and crash_round <= round_number

    def crashed_as_of(self, round_number: int) -> List[int]:
        """Sorted nodes whose crash fired at or before ``round_number``."""
        return sorted(
            node for node, crashed in self.crash_rounds.items() if crashed <= round_number
        )

    # -------------------------------------------------------------- routing
    def deliveries(
        self, send_round: int, sender: int, receiver: int, delivery_round: int
    ) -> List[int]:
        """Delivery rounds the adversary grants one physical send.

        The untouched channel returns ``[delivery_round]``.  Order of
        decisions: edge removal, drop, duplication, delay, then crash of the
        receiver (checked against each copy's actual delivery round).
        """
        if (
            self._removed_edges
            and send_round >= self._edge_removal_round
            and (min(sender, receiver), max(sender, receiver)) in self._removed_edges
        ):
            self.events["edge_dropped"] += 1
            return []
        messages = self.plan.messages
        if messages.drop_probability > 0.0:
            if self._message_rng.random() < messages.drop_probability:
                self.events["dropped"] += 1
                return []
        copies = 1
        if messages.duplicate_probability > 0.0:
            if self._message_rng.random() < messages.duplicate_probability:
                copies = 2
                self.events["duplicated"] += 1
        delay = self._delays.get((sender, receiver), 0)
        if delay:
            self.events["delayed"] += 1
            self.events["delay_rounds"] += delay
            delivery_round += delay
        granted = []
        for _ in range(copies):
            if self.is_crashed(receiver, delivery_round):
                self.events["lost_to_crash"] += 1
            else:
                granted.append(delivery_round)
        return granted
