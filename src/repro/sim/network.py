"""The synchronous message-passing network simulator.

This is the executable form of the paper's computing model (Section 1):

* time proceeds in synchronous rounds; all nodes wake up simultaneously;
* nodes communicate by sending messages over *ports*; the sender never learns
  which node sits behind a port and the receiver only learns the arrival port;
* a message sent in round ``r`` is delivered at the beginning of round
  ``r + 1``;
* message sizes are accounted in bits and normalised to ``O(log n)``-bit
  units for the CONGEST message-complexity statements.

The simulator is event driven: a node is activated only when it has incoming
messages or an explicitly scheduled wake-up, and rounds in which nothing can
happen are skipped entirely.  Skipping does not change the reported round
count -- it only avoids busy-waiting through the long, mostly idle phases of
the guess-and-double schedule.

The network optionally consults a :class:`~repro.faults.injector.FaultInjector`
(the pluggable fault hook): at send time the injector decides which delivery
rounds a message actually reaches (drop / duplicate / delay / edge removal),
and at activation time it suppresses crash-stopped nodes.  With no injector
the code path is byte-for-byte the historical fault-free one.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import (
    TYPE_CHECKING,
    Any,
    Callable,
    Dict,
    Iterator,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from ..graphs.ports import PortNumberedGraph
from ..obs.tracer import current_tracer
from .errors import CongestViolationError, RoundLimitExceeded
from .message import Message, word_bits_for
from .metrics import MetricsCollector, RunMetrics
from .node import Inbox, NodeContext, Protocol, ProtocolFactory
from .rng import node_rng

if TYPE_CHECKING:  # pragma: no cover - import-time only, avoids a sim->faults cycle
    from ..faults.injector import FaultInjector

__all__ = ["Network", "SimulationResult", "MessageObserver"]

#: Observer signature: ``(round, sender, receiver, message)``, called at send time.
MessageObserver = Callable[[int, int, int, Message], None]


@dataclass
class SimulationResult:
    """Outcome of one simulated execution."""

    metrics: RunMetrics
    node_results: List[Dict[str, Any]]
    messages_by_node: List[int]
    protocols: List[Protocol] = field(repr=False, default_factory=list)
    #: Nodes crash-stopped by the fault injector during this run (sorted).
    crashed_nodes: List[int] = field(default_factory=list)
    #: The port-numbered topology the run executed on; lets consumers map a
    #: node's arrival port back to the neighbour behind it (e.g. to recover
    #: the parent edges of a spanning-tree construction).
    port_graph: Optional[PortNumberedGraph] = field(repr=False, default=None)

    @property
    def rounds(self) -> int:
        """Number of rounds until the network went quiet."""
        return self.metrics.rounds

    @property
    def messages(self) -> int:
        """Total number of physical messages."""
        return self.metrics.messages

    @property
    def message_units(self) -> int:
        """Total number of ``O(log n)``-bit message units."""
        return self.metrics.message_units

    def nodes_with(self, key: str, value: Any = True) -> List[int]:
        """Indices of nodes whose result dictionary maps ``key`` to ``value``."""
        return [i for i, res in enumerate(self.node_results) if res.get(key) == value]


class Network:
    """Synchronous, port-numbered, event-driven network simulator."""

    def __init__(
        self,
        port_graph: PortNumberedGraph,
        protocol_factory: ProtocolFactory,
        seed: Optional[int] = None,
        known_n: Optional[int] = -1,
        word_bits: Optional[int] = None,
        edge_capacity_words: Optional[int] = None,
        congest_mode: str = "count",
        observers: Sequence[MessageObserver] = (),
        fault_injector: Optional["FaultInjector"] = None,
    ) -> None:
        """Create a network.

        Parameters
        ----------
        port_graph:
            The port-numbered topology to run on.
        protocol_factory:
            Called once per node with the node's :class:`NodeContext`.
        seed:
            Master seed from which per-node private randomness is derived.
        known_n:
            ``-1`` (default) means every node knows the true ``n``; an integer
            ``>= 1`` injects that (possibly wrong) value -- used by the
            Theorem 28 experiments; ``None`` means ``n`` is unknown.
        word_bits:
            Size of one CONGEST word; defaults to ``ceil(4 log2 n)`` (one id).
        edge_capacity_words:
            Per-edge per-round budget in words for congestion accounting;
            ``None`` disables the per-edge bookkeeping entirely.
        congest_mode:
            ``"count"`` records violations in the metrics, ``"strict"`` raises
            :class:`CongestViolationError` on the first violation.
        observers:
            Callables invoked for every sent message; used e.g. by the
            clique-communication-graph tracker of the lower-bound harness.
            Observers see every physical *send*, including sends the fault
            injector subsequently loses -- the sender paid for them.
        fault_injector:
            Optional :class:`~repro.faults.injector.FaultInjector` consulted
            at send and activation time; ``None`` keeps the exact fault-free
            behaviour.
        """
        if congest_mode not in ("count", "strict"):
            raise ValueError("congest_mode must be 'count' or 'strict'")
        self._port_graph = port_graph
        n = port_graph.num_nodes
        self._n = n
        self._word_bits = word_bits if word_bits is not None else word_bits_for(n)
        self._edge_capacity_words = edge_capacity_words
        self._congest_mode = congest_mode
        self._observers = list(observers)
        self._metrics = MetricsCollector(self._word_bits)
        self._messages_by_node = [0] * n
        self._fault_injector = fault_injector
        if fault_injector is not None:
            fault_injector.attach(port_graph)

        if known_n == -1:
            resolved_n: Optional[int] = n
        else:
            resolved_n = known_n

        self._contexts: List[NodeContext] = []
        self._protocols: List[Protocol] = []
        self._current_round = 0
        # Messages queued during the current round, delivered next round.
        self._outbox: List[Tuple[int, int, Message]] = []
        # Inboxes keyed by delivery round -> node -> port -> [messages].
        self._future_inboxes: Dict[int, Dict[int, Inbox]] = {}
        # Wake-up bookkeeping.
        self._wakeups: Dict[int, Set[int]] = {}
        self._wakeup_heap: List[int] = []
        self._last_activity_round = 0
        self._completed = True

        for index in range(n):
            ctx = NodeContext(
                node_index=index,
                degree=port_graph.degree(index),
                rng=node_rng(seed, index),
                known_n=resolved_n,
                send_callback=self._queue_send,
                wake_callback=self._schedule_wakeup,
            )
            self._contexts.append(ctx)
        for index in range(n):
            self._protocols.append(protocol_factory(self._contexts[index]))

    # ----------------------------------------------------------------- hooks
    def _queue_send(self, sender: int, port: int, message: Message) -> None:
        self._outbox.append((sender, port, message))

    def _schedule_wakeup(self, node: int, round_number: int) -> None:
        bucket = self._wakeups.get(round_number)
        if bucket is None:
            bucket = set()
            self._wakeups[round_number] = bucket
            heapq.heappush(self._wakeup_heap, round_number)
        bucket.add(node)

    # ------------------------------------------------------------- main loop
    def run(
        self, max_rounds: int = 10_000_000, strict_round_limit: bool = False
    ) -> SimulationResult:
        """Execute the protocol until the network goes quiet.

        The run ends when no message is in flight and no wake-up is pending.
        If ``max_rounds`` is reached first, the run stops and the resulting
        metrics carry ``completed=False`` (or :class:`RoundLimitExceeded` is
        raised when ``strict_round_limit`` is set).
        """
        protocols = self._protocols
        for _, nodes, inboxes in self.rounds(max_rounds, strict_round_limit):
            if inboxes is None:
                for node in nodes:
                    protocols[node].on_start()
            else:
                for node in nodes:
                    protocols[node].on_round(inboxes.get(node, {}))
        return self.result()

    def rounds(
        self, max_rounds: int = 10_000_000, strict_round_limit: bool = False
    ) -> Iterator[Tuple[int, List[int], Optional[Dict[int, Inbox]]]]:
        """The event loop, one ``(round, nodes, inboxes)`` per event round.

        The caller activates every listed node before resuming the loop:
        ``on_start`` when ``inboxes is None`` (round 0), otherwise
        ``on_round(inboxes.get(node, {}))``.  ``nodes`` is ascending and
        already excludes crash-stopped and halted nodes, and each listed
        node's context carries the yielded round.  Whatever the activations
        sent through their contexts is flushed through the fault injector
        when the loop resumes, so activating in the yielded order reproduces
        the simulator's outbox order exactly.  :meth:`run` is this loop with
        the protocols called in process; the live coordinator drives the same
        loop with frame exchanges instead.  Call :meth:`result` once the loop
        is exhausted; ``max_rounds`` and ``strict_round_limit`` are as in
        :meth:`run`.
        """
        injector = self._fault_injector
        # Tracing is a write-only side channel: the tracer is resolved once
        # per run, costs one branch per event round when disabled, and
        # nothing it sees ever feeds back into protocol state or randomness.
        tracer = current_tracer()
        traced = tracer.enabled
        if traced:
            tracer.event(
                "sim.run_started", n=self._n, word_bits=self._word_bits,
                faulty=injector is not None,
            )
        self._current_round = 0
        for ctx in self._contexts:
            ctx._set_round(0)
        yield 0, [
            node for node in range(self._n)
            if injector is None or not injector.is_crashed(node, 0)
        ], None
        self._flush_outbox(delivery_round=1)

        while True:
            next_round = self._next_event_round()
            if next_round is None:
                break
            if next_round > max_rounds:
                self._completed = False
                if strict_round_limit:
                    raise RoundLimitExceeded(
                        "simulation exceeded max_rounds=%d" % max_rounds
                    )
                break
            self._current_round = next_round
            inboxes = self._future_inboxes.pop(next_round, {})
            woken = self._wakeups.pop(next_round, set())
            active = set(inboxes) | woken
            if injector is not None:
                alive = {
                    node for node in active if not injector.is_crashed(node, next_round)
                }
                if traced and len(alive) != len(active):
                    tracer.event(
                        "sim.crash_suppressed",
                        round=next_round,
                        suppressed=len(active) - len(alive),
                    )
                active = alive
            nodes = []
            for node in sorted(active):
                ctx = self._contexts[node]
                if not ctx.halted:
                    ctx._set_round(next_round)
                    nodes.append(node)
            yield next_round, nodes, inboxes
            if active:
                self._last_activity_round = next_round
            if traced:
                tracer.event(
                    "sim.round",
                    round=next_round,
                    active=len(active),
                    messages=self._metrics.messages,
                    message_units=self._metrics.message_units,
                )
            self._flush_outbox(delivery_round=next_round + 1)

    def result(self, net_events: Optional[Dict[str, int]] = None) -> SimulationResult:
        """Freeze the finished run of :meth:`rounds` into a :class:`SimulationResult`.

        ``net_events`` carries a live deployment's transport counters into
        the metrics; a simulated run leaves it empty.
        """
        injector = self._fault_injector
        crashed_nodes: List[int] = []
        fault_events: Optional[Dict[str, int]] = None
        if injector is not None:
            crashed_nodes = injector.crashed_as_of(self._current_round)
            fault_events = dict(injector.events)
            fault_events["crashed_nodes"] = len(crashed_nodes)
        metrics = self._metrics.finalize(
            rounds=self._last_activity_round,
            completed=self._completed,
            fault_events=fault_events,
            net_events=net_events,
        )
        node_results = [protocol.result() for protocol in self._protocols]
        return SimulationResult(
            metrics=metrics,
            node_results=node_results,
            messages_by_node=list(self._messages_by_node),
            protocols=self._protocols,
            crashed_nodes=crashed_nodes,
            port_graph=self._port_graph,
        )

    # -------------------------------------------------------------- plumbing
    def _next_event_round(self) -> Optional[int]:
        candidates = []
        if self._future_inboxes:
            candidates.append(min(self._future_inboxes))
        while self._wakeup_heap and self._wakeup_heap[0] not in self._wakeups:
            heapq.heappop(self._wakeup_heap)
        if self._wakeup_heap:
            candidates.append(self._wakeup_heap[0])
        if not candidates:
            return None
        return min(candidates)

    def _flush_outbox(self, delivery_round: int) -> None:
        if not self._outbox:
            return
        injector = self._fault_injector
        edge_bits: Dict[Tuple[int, int], int] = {}
        for sender, port, message in self._outbox:
            receiver = self._port_graph.port_to_neighbor(sender, port)
            arrival_port = self._port_graph.neighbor_to_port(receiver, sender)
            # Accounting and observation happen per physical send, whether or
            # not the adversary lets the message through: the sender paid.
            self._metrics.record_send(message.kind, message.size_bits)
            self._messages_by_node[sender] += 1
            if self._edge_capacity_words is not None:
                key = (sender, port)
                edge_bits[key] = edge_bits.get(key, 0) + message.size_bits
            for observer in self._observers:
                observer(self._current_round, sender, receiver, message)
            if injector is None:
                arrivals = (delivery_round,)
            else:
                arrivals = injector.deliveries(
                    self._current_round, sender, receiver, delivery_round
                )
            for arrival_round in arrivals:
                self._future_inboxes.setdefault(arrival_round, {}).setdefault(
                    receiver, {}
                ).setdefault(arrival_port, []).append(message)
        self._outbox = []
        if self._edge_capacity_words is not None:
            capacity_bits = self._edge_capacity_words * self._word_bits
            for load in edge_bits.values():
                self._metrics.record_edge_load(load, capacity_bits)
                if load > capacity_bits and self._congest_mode == "strict":
                    raise CongestViolationError(
                        "edge carried %d bits in one round (capacity %d)" % (load, capacity_bits)
                    )

    # ------------------------------------------------------------ inspection
    @property
    def num_nodes(self) -> int:
        """Number of nodes in the simulated network."""
        return self._n

    @property
    def protocols(self) -> List[Protocol]:
        """The per-node protocol instances, in node order."""
        return self._protocols

    @property
    def messages(self) -> int:
        """Physical messages sent so far (final once the run has ended)."""
        return self._metrics.messages

    @property
    def word_bits(self) -> int:
        """Word size used for message-unit accounting."""
        return self._word_bits

    @property
    def fault_injector(self) -> Optional["FaultInjector"]:
        """The attached fault injector, or ``None`` for a fault-free network."""
        return self._fault_injector
