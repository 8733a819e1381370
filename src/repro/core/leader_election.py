"""The leader-election protocol of Gilbert, Robinson and Sourav (Algorithms 1-2).

Every node runs :class:`LeaderElectionNode`.  The protocol follows the paper:

1. *Initialisation* (Algorithm 1): each node draws a random id from
   ``[1, n^4]`` and nominates itself as a contender with probability
   ``c1 log n / n``; non-contenders immediately become non-leaders (but keep
   relaying messages).
2. *Random-walk phases* (Algorithm 2): each active contender runs
   ``c2 sqrt(n) log n`` lazy random walks of the current guessed length
   ``tu``; nodes where walks end are its *proxies*.  Three synchronised
   exchange rounds follow, routed along the walk trees built by the tokens:
   proxies converge-cast their ``I1`` sets and distinct-proxy counts to the
   contender (REPORT), the contender floods its ``I2`` union back down
   (DISTRIBUTE), and proxies converge-cast the ``I3`` unions (COLLECT).
3. *Decision*: a contender stops once the intersection property (adjacency to
   at least ``3/4 c1 log n`` other contenders) and the distinctness property
   (at least ``c2/2 sqrt(n) log n`` distinct proxies) hold.  A stopping
   contender that holds the largest id it has heard of (set ``I4``) and has
   not heard of a winner elects itself and floods a winner notification
   through its walk tree; proxies relay it to every contender they serve.
   Contenders that do not stop double ``tu`` and start the next phase.

The implementation keeps the Lemma 12 optimisation: walks are shipped as
``(origin, steps, count)`` tokens rather than individual messages, and the
converge-casts route along the parent tree defined by first token arrivals,
so every proxy's contribution is counted exactly once.
"""

from __future__ import annotations

from typing import Dict, Optional, Set, Tuple

from ..obs.tracer import current_tracer
from ..sim.errors import ProtocolError
from ..sim.message import Message
from ..sim.node import Inbox, NodeContext, Protocol
from . import messages as wire
from .identity import initialise_node
from .params import DEFAULT_PARAMETERS, ElectionParameters
from .schedule import PhaseSchedule
from .walks import WalkTreeState

__all__ = ["LeaderElectionNode"]


class LeaderElectionNode(Protocol):
    """Node behaviour of the implicit leader-election algorithm."""

    def __init__(
        self,
        ctx: NodeContext,
        params: ElectionParameters = DEFAULT_PARAMETERS,
        assumed_n: Optional[int] = None,
    ) -> None:
        super().__init__(ctx)
        self.params = params
        self.schedule = PhaseSchedule(params)
        n = ctx.known_n if ctx.known_n is not None else assumed_n
        if n is None:
            raise ProtocolError(
                "the algorithm requires knowledge of n (pass assumed_n to override)"
            )
        self.n_assumed = n
        identity = initialise_node(ctx.rng, n, params)
        self.identifier = identity.identifier
        self.is_contender = identity.is_contender

        # Walk-tree state per (origin id, phase index).
        self.trees: Dict[Tuple[int, int], WalkTreeState] = {}
        # Live-tree indexes over ``trees``, so a round touches only trees with
        # work due: trees joined through a parent port that still owe a
        # REPORT or COLLECT converge-cast, and trees holding unfinished walks
        # whose WALK segment may still be open.
        self._pending_casts: Dict[Tuple[int, int], WalkTreeState] = {}
        self._walking: Dict[Tuple[int, int], WalkTreeState] = {}
        # Cumulative set of origins this node has been a proxy for.
        self.proxy_origins: Set[int] = set()
        # Latest phase in which this node participated in each origin's tree.
        self.latest_tree_phase: Dict[int, int] = {}
        # Union of I2 sets received as a proxy, per phase.
        self.i2_union_by_phase: Dict[int, Set[int]] = {}

        # Winner bookkeeping.
        self.heard_winner = False
        self.winner_rules_fired = False

        # Contender bookkeeping.
        self.active = self.is_contender
        self.stopped = False
        self.stopped_on_winner = False
        self.is_leader = False
        self.forced_stop = False
        self.current_phase = -1
        self.phases_executed = 0
        self.final_walk_length = 0
        self.adjacency_ids: Set[int] = set()
        self.i4_ids: Set[int] = set()
        self.distinct_count_phase = 0
        self.satisfied_intersection = False
        self.satisfied_distinctness = False

    # ------------------------------------------------------------------ hooks
    def on_start(self) -> None:
        if self.is_contender:
            tracer = current_tracer()
            if tracer.enabled:
                tracer.event("election.nominated", node=self.identifier)
            # Phase 0 starts at round 0; but round 0 is the on_start hook and
            # messages sent here arrive in round 1, so the contender begins
            # its first phase at the first WALK round, which is round 0 for
            # token creation followed by stepping from round 1 onwards.  We
            # simply schedule a wake-up at the phase-0 start round.
            window = self.schedule.window(0)
            self.ctx.wake_at(max(1, window.start))

    def on_round(self, inbox: Inbox) -> None:
        self._process_inbox(inbox)
        self._run_schedule_duties()
        self._advance_walks()
        if self._holds_unfinished_tokens():
            self.ctx.wake_next_round()

    # --------------------------------------------------------------- results
    def result(self) -> Dict[str, object]:
        return {
            "leader": self.is_leader,
            "contender": self.is_contender,
            "id": self.identifier,
            "stopped": self.stopped,
            "stopped_on_winner": self.stopped_on_winner,
            "forced_stop": self.forced_stop,
            "phases": self.phases_executed,
            "final_walk_length": self.final_walk_length,
            "heard_winner": self.heard_winner,
            "adjacency": len(self.adjacency_ids),
            "distinct_proxies": self.distinct_count_phase,
            "satisfied_intersection": self.satisfied_intersection,
            "satisfied_distinctness": self.satisfied_distinctness,
        }

    # ----------------------------------------------------------- inbox logic
    def _process_inbox(self, inbox: Inbox) -> None:
        for port, batch in inbox.items():
            for message in batch:
                self._handle_message(port, message)

    def _handle_message(self, in_port: int, message: Message) -> None:
        payload = message.payload
        if payload.get("winner"):
            self._note_winner()
        kind = message.kind
        if kind == wire.WALK_TOKEN:
            self._handle_walk_token(in_port, payload)
        elif kind == wire.REPORT:
            self._handle_report(payload)
        elif kind == wire.DISTRIBUTE:
            self._handle_distribute(payload)
        elif kind == wire.COLLECT:
            self._handle_collect(payload)
        elif kind == wire.WINNER_DOWN:
            self._handle_winner_down(payload)
        elif kind == wire.WINNER_UP:
            self._handle_winner_up(payload)

    def _handle_walk_token(self, in_port: int, payload: Dict[str, object]) -> None:
        origin = payload["origin"]
        phase = payload["phase"]
        steps = payload["steps"]
        count = payload["count"]
        tree = self._tree(origin, phase, create=True)
        window = self.schedule.window(phase)
        offset = max(1, self.ctx.round - window.start)
        newly_joined = tree.first_arrival_offset is None
        tree.record_arrival(offset, in_port)
        self._add_walks(tree, steps, count)
        if newly_joined and tree.parent_port is not None:
            self._pending_casts[(origin, phase)] = tree
            # Schedule the converge-cast send slots for this tree.
            self.ctx.wake_at(window.report_send_round(offset))
            self.ctx.wake_at(window.collect_send_round(offset))

    def _handle_report(self, payload: Dict[str, object]) -> None:
        origin = payload["origin"]
        phase = payload["phase"]
        ids = set(payload["ids"])
        distinct = payload["distinct"]
        if origin == self.identifier and self.is_contender:
            self.adjacency_ids |= ids
            if phase == self.current_phase:
                self.distinct_count_phase += distinct
            return
        tree = self._tree(origin, phase, create=False)
        if tree is None:
            return
        tree.merge_report(ids, distinct, payload.get("proxies", 0))

    def _handle_distribute(self, payload: Dict[str, object]) -> None:
        origin = payload["origin"]
        phase = payload["phase"]
        ids = set(payload["ids"])
        tree = self._tree(origin, phase, create=False)
        if tree is None:
            return
        if tree.is_proxy:
            self.i2_union_by_phase.setdefault(phase, set()).update(ids)
            tree.i2_received = True
        if not tree.distribute_forwarded:
            tree.distribute_forwarded = True
            message = wire.make_distribute(
                origin, phase, frozenset(ids), self.n_assumed, self.heard_winner
            )
            for port in sorted(tree.forward_ports):
                self.ctx.send(port, message)

    def _handle_collect(self, payload: Dict[str, object]) -> None:
        origin = payload["origin"]
        phase = payload["phase"]
        ids = set(payload["ids"])
        if origin == self.identifier and self.is_contender:
            self.i4_ids |= ids
            return
        tree = self._tree(origin, phase, create=False)
        if tree is None:
            return
        tree.merge_collect(ids)

    def _handle_winner_down(self, payload: Dict[str, object]) -> None:
        origin = payload["origin"]
        phase = payload["phase"]
        self._note_winner()
        tree = self._tree(origin, phase, create=False)
        if tree is not None and not tree.winner_down_forwarded:
            tree.winner_down_forwarded = True
            message = wire.make_winner_down(
                origin, phase, payload.get("leader", 0), self.n_assumed
            )
            for port in sorted(tree.forward_ports):
                self.ctx.send(port, message)
        self._fire_winner_rules(payload.get("leader", 0))

    def _handle_winner_up(self, payload: Dict[str, object]) -> None:
        origin = payload["origin"]
        phase = payload["phase"]
        self._note_winner()
        if origin == self.identifier and self.is_contender:
            self._fire_winner_rules(payload.get("leader", 0))
            return
        tree = self._tree(origin, phase, create=False)
        if tree is not None and not tree.winner_up_sent and tree.parent_port is not None:
            tree.winner_up_sent = True
            message = wire.make_winner_up(
                origin, phase, payload.get("leader", 0), self.n_assumed
            )
            self.ctx.send(tree.parent_port, message)
        self._fire_winner_rules(payload.get("leader", 0))

    # -------------------------------------------------------- schedule logic
    def _run_schedule_duties(self) -> None:
        round_number = self.ctx.round
        window, _segment = self.schedule.locate(round_number)

        if self.is_contender and self.active and not self.stopped:
            if round_number == max(1, window.start) and window.start >= 0:
                self._begin_phase(window)
            if round_number == window.distribute_start and window.index == self.current_phase:
                self._initiate_distribute(window)
            if round_number == window.decide_round and window.index == self.current_phase:
                self._decide(window)

        self._send_due_convergecasts(round_number)

    def _begin_phase(self, window) -> None:
        """Start a new random-walk phase (Algorithm 2, line 1)."""
        tracer = current_tracer()
        if tracer.enabled:
            tracer.event(
                "election.phase_started",
                node=self.identifier,
                phase=window.index,
                walk_length=window.walk_length,
            )
        self.current_phase = window.index
        self.phases_executed += 1
        self.final_walk_length = window.walk_length
        self.distinct_count_phase = 0
        walks = self.params.num_walks(self.n_assumed)
        tree = self._tree(self.identifier, window.index, create=True)
        tree.record_arrival(0, None)
        self._add_walks(tree, 0, walks)
        # Wake-ups for the fixed points of this phase.
        self.ctx.wake_at(window.distribute_start)
        self.ctx.wake_at(window.decide_round)

    def _initiate_distribute(self, window) -> None:
        """Flood I2 (the union of received I1 sets) down the contender's walk tree."""
        tree = self._tree(self.identifier, window.index, create=False)
        if tree is None:
            return
        i2 = set(self.adjacency_ids)
        if not i2:
            return
        if tree.is_proxy:
            self.i2_union_by_phase.setdefault(window.index, set()).update(i2)
            tree.i2_received = True
        tree.distribute_forwarded = True
        message = wire.make_distribute(
            self.identifier, window.index, frozenset(i2), self.n_assumed, self.heard_winner
        )
        for port in sorted(tree.forward_ports):
            self.ctx.send(port, message)

    def _decide(self, window) -> None:
        """Evaluate the stopping and winning conditions (Algorithm 2, lines 4-5)."""
        own_tree = self._tree(self.identifier, window.index, create=False)
        if own_tree is not None and own_tree.is_proxy:
            # The contender node itself may be a proxy (walks that returned home).
            own_tree.local_report_contribution(self.proxy_origins)
            ids, distinct, _ = own_tree.report_payload()
            self.adjacency_ids |= ids
            self.distinct_count_phase += distinct

        adjacency = len(self.adjacency_ids - {self.identifier})
        intersection_ok = adjacency >= self.params.intersection_threshold(self.n_assumed)
        distinctness_ok = (
            self.distinct_count_phase >= self.params.distinctness_threshold(self.n_assumed)
        )
        self.satisfied_intersection = intersection_ok
        self.satisfied_distinctness = distinctness_ok
        hit_cap = window.walk_length >= self.params.walk_length_cap(self.n_assumed)

        if self.heard_winner and not (intersection_ok and distinctness_ok):
            # A leader already exists and this contender can never become one
            # (the winning condition requires not having heard a winner), so
            # continuing to double its walks would only burn messages.  This
            # early exit preserves both safety and liveness: safety because the
            # node does not elect, liveness because a leader already exists.
            self.active = False
            self.stopped = True
            self.stopped_on_winner = True
            return

        if not (intersection_ok and distinctness_ok) and not hit_cap:
            # Keep doubling: schedule the start of the next phase.
            self.ctx.wake_at(window.end)
            return

        self.active = False
        self.stopped = True
        self.forced_stop = hit_cap and not (intersection_ok and distinctness_ok)

        may_elect = (intersection_ok and distinctness_ok) or (
            self.forced_stop and self.params.elect_on_forced_stop
        )
        competitors = self.i4_ids | self.adjacency_ids
        has_largest_id = all(self.identifier >= other for other in competitors)
        if may_elect and has_largest_id and not self.heard_winner:
            self.is_leader = True
            self.heard_winner = True
            self._announce_victory(window)

    def _announce_victory(self, window) -> None:
        """Send the winner message to all proxies (Algorithm 2, line 5)."""
        tree = self._tree(self.identifier, window.index, create=False)
        if tree is None:
            return
        tree.winner_down_forwarded = True
        message = wire.make_winner_down(
            self.identifier, window.index, self.identifier, self.n_assumed
        )
        for port in sorted(tree.forward_ports):
            self.ctx.send(port, message)

    def _send_due_convergecasts(self, round_number: int) -> None:
        for key in sorted(self._pending_casts):
            tree = self._pending_casts[key]
            window = self.schedule.window(tree.phase)
            offset = tree.first_arrival_offset
            if not tree.report_sent and round_number >= window.report_send_round(offset):
                if round_number < window.distribute_start:
                    self._send_report(tree)
                tree.report_sent = True
            if not tree.collect_sent and round_number >= window.collect_send_round(offset):
                if round_number < window.decide_round:
                    self._send_collect(tree)
                tree.collect_sent = True
                # The COLLECT slot follows the REPORT slot: nothing is owed.
                del self._pending_casts[key]

    def _send_report(self, tree: WalkTreeState) -> None:
        tree.local_report_contribution(self.proxy_origins)
        ids, distinct, proxies = tree.report_payload()
        if not ids and distinct == 0 and not self.heard_winner:
            return
        message = wire.make_report(
            tree.origin,
            tree.phase,
            frozenset(ids),
            distinct,
            proxies,
            self.n_assumed,
            self.heard_winner,
        )
        self.ctx.send(tree.parent_port, message)

    def _send_collect(self, tree: WalkTreeState) -> None:
        payload = tree.collect_payload()
        if tree.is_proxy:
            payload |= self.i2_union_by_phase.get(tree.phase, set())
        if not payload and not self.heard_winner:
            return
        message = wire.make_collect(
            tree.origin, tree.phase, frozenset(payload), self.n_assumed, self.heard_winner
        )
        self.ctx.send(tree.parent_port, message)

    # ------------------------------------------------------------ walk logic
    def _advance_walks(self) -> None:
        round_number = self.ctx.round
        for key in sorted(self._walking):
            tree = self._walking[key]
            if round_number >= self.schedule.window(tree.phase).report_start:
                # The WALK segment closed: these tokens never advance again.
                del self._walking[key]
                continue
            outgoing = tree.advance_one_round(self.ctx.rng, self.ctx.degree)
            if not tree.has_unfinished_tokens():
                del self._walking[key]
            if tree.is_proxy:
                self.proxy_origins.add(tree.origin)
            if not outgoing:
                continue
            for (port, steps), count in sorted(outgoing.items()):
                message = wire.make_walk_token(
                    tree.origin,
                    tree.phase,
                    steps,
                    count,
                    self.n_assumed,
                    self.heard_winner,
                )
                self.ctx.send(port, message)

    def _holds_unfinished_tokens(self) -> bool:
        # Only trees whose WALK segment is still open next round matter: a
        # token that (e.g. because an adversary delayed it) arrives after its
        # segment closed can never advance again, and waking for it forever
        # would busy-loop the node until the round cap.
        next_round = self.ctx.round + 1
        return any(
            next_round < self.schedule.window(tree.phase).report_start
            for tree in self._walking.values()
        )

    # ----------------------------------------------------------- winner logic
    def _note_winner(self) -> None:
        self.heard_winner = True

    def _fire_winner_rules(self, leader_id: int) -> None:
        """Apply Algorithm 2 lines 6-7 exactly once per node."""
        if self.winner_rules_fired:
            return
        self.winner_rules_fired = True
        # Rule 6: a proxy forwards the winner to every contender it serves.
        for origin in sorted(self.proxy_origins):
            if origin == self.identifier:
                continue
            phase = self.latest_tree_phase.get(origin)
            if phase is None:
                continue
            tree = self._tree(origin, phase, create=False)
            if tree is None or tree.parent_port is None or tree.winner_up_sent:
                continue
            tree.winner_up_sent = True
            self.ctx.send(
                tree.parent_port,
                wire.make_winner_up(origin, phase, leader_id, self.n_assumed),
            )
        # Rule 7: a contender forwards the winner to all of its proxies.
        if self.is_contender and self.current_phase >= 0:
            tree = self._tree(self.identifier, self.current_phase, create=False)
            if tree is not None and not tree.winner_down_forwarded:
                tree.winner_down_forwarded = True
                message = wire.make_winner_down(
                    self.identifier, self.current_phase, leader_id, self.n_assumed
                )
                for port in sorted(tree.forward_ports):
                    self.ctx.send(port, message)

    # -------------------------------------------------------------- plumbing
    def _add_walks(self, tree: WalkTreeState, steps: int, count: int) -> None:
        """Place ``count`` walks of ``tree`` here; index the tree if they go on."""
        tree.add_resident(steps, count)
        if tree.has_unfinished_tokens():
            self._walking[(tree.origin, tree.phase)] = tree
        if tree.is_proxy:
            self.proxy_origins.add(tree.origin)

    def _tree(
        self, origin: int, phase: int, create: bool
    ) -> Optional[WalkTreeState]:
        key = (origin, phase)
        tree = self.trees.get(key)
        if tree is None and create:
            tree = WalkTreeState(
                origin=origin,
                phase=phase,
                walk_length=self.schedule.walk_length(phase),
            )
            self.trees[key] = tree
            previous = self.latest_tree_phase.get(origin)
            if previous is None or phase > previous:
                self.latest_tree_phase[origin] = phase
        return tree

