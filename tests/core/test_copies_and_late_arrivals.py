"""What a reference node does with a second copy and with a late copy of each message.

The fault injector duplicates messages (both copies arrive in the same round)
and delays them past the round the schedule expects.  These pins drive one
:class:`~repro.core.leader_election.LeaderElectionNode` through its inbox, round
by round, and record the rule it applies to each message kind -- the rules the
vectorized engine's fault path has to reproduce:

* ``walk_token``: a second copy is a second batch of walks; a token that
  arrives after its WALK segment closed never moves again, but one that took
  its final step still makes the node a proxy, and a node that joins a tree
  after its REPORT slot reports in its join round;
* ``report``: a second copy adds its counters twice; a copy that arrives after
  the node sent its own REPORT is merged but never forwarded;
* ``distribute``: forwarded once, on first receipt, even when that receipt
  comes after the node's COLLECT slot (which then goes out without it);
* ``collect``: a second copy changes nothing; a late copy is never forwarded;
* ``winner_down`` / ``winner_up``: forwarded once, on first receipt, however
  late; the winner rules fire once.
"""

import random

from repro.core import DEFAULT_PARAMETERS, LeaderElectionNode
from repro.core import messages as wire
from repro.core.schedule import PhaseSchedule
from repro.sim import NodeContext

N = 16
ORIGIN = 99  # the id of the contender whose tree the node belongs to
PHASE = 2
WINDOW = PhaseSchedule(DEFAULT_PARAMETERS).window(PHASE)
L = WINDOW.walk_length  # 4: the phase's walks take four steps


class Harness:
    """One non-contender node with a 3-port context; its sends are recorded."""

    def __init__(self):
        self.sent = []
        ctx = NodeContext(
            node_index=0,
            degree=3,
            rng=random.Random(1),
            known_n=N,
            send_callback=lambda node, port, message: self.sent.append((port, message)),
            wake_callback=lambda node, round_number: None,
        )
        self.node = LeaderElectionNode(ctx)
        self.node.identifier = 5
        self.node.is_contender = self.node.active = False

    def deliver(self, round_number, *messages, port=0):
        """Activate the node in ``round_number`` with ``messages`` on ``port``;
        return what it sent that round."""
        self.sent = []
        self.node.ctx._set_round(round_number)
        self.node.on_round({port: list(messages)} if messages else {})
        return self.sent

    def join(self, offset=1, walks=1, forward=(1, 2)):
        """Join ``ORIGIN``'s tree through port 0 at ``offset`` as the proxy of
        ``walks`` finished walks, with ``forward`` as its forward ports."""
        token = wire.make_walk_token(ORIGIN, PHASE, L, walks, N, False)
        self.deliver(WINDOW.start + offset, token)
        self.tree.forward_ports.update(forward)

    @property
    def tree(self):
        return self.node.trees[(ORIGIN, PHASE)]


def _kinds(sent):
    return sorted(message.kind for _port, message in sent)


def _report(ids=frozenset(), distinct=0, proxies=0):
    return wire.make_report(ORIGIN, PHASE, frozenset(ids), distinct, proxies, N, False)


def _collect(ids):
    return wire.make_collect(ORIGIN, PHASE, frozenset(ids), N, False)


def _distribute(ids):
    return wire.make_distribute(ORIGIN, PHASE, frozenset(ids), N, False)


class TestWalkToken:
    def test_second_copy_of_a_final_step_is_a_second_batch_of_proxies(self):
        h = Harness()
        token = wire.make_walk_token(ORIGIN, PHASE, L, 3, N, False)
        h.deliver(WINDOW.start + 2, token, token)
        assert h.tree.proxy_count == 6
        assert h.tree.parent_port == 0

    def test_second_copy_of_an_unfinished_token_moves_twice_the_walks(self):
        h = Harness()
        token = wire.make_walk_token(ORIGIN, PHASE, 1, 2, N, False)
        sent = h.deliver(WINDOW.start + 1, token, token)
        moved = sum(m.payload["count"] for _p, m in sent if m.kind == wire.WALK_TOKEN)
        assert moved + sum(h.tree.resident.values()) + h.tree.proxy_count == 4
        assert all(m.payload["steps"] == 2 for _p, m in sent)

    def test_late_unfinished_token_never_moves(self):
        h = Harness()
        token = wire.make_walk_token(ORIGIN, PHASE, 1, 2, N, False)
        sent = h.deliver(WINDOW.report_start, token)
        assert wire.WALK_TOKEN not in _kinds(sent)
        assert h.tree.resident == {1: 2} and h.tree.proxy_count == 0
        assert wire.WALK_TOKEN not in _kinds(h.deliver(WINDOW.report_start + 1))
        assert h.tree.resident == {1: 2}

    def test_late_final_step_is_a_proxy_that_reports_in_its_join_round(self):
        h = Harness()
        token = wire.make_walk_token(ORIGIN, PHASE, L, 1, N, False)
        sent = h.deliver(WINDOW.report_start + 1, token, port=2)
        assert h.tree.proxy_count == 1 and ORIGIN in h.node.proxy_origins
        assert h.tree.first_arrival_offset == WINDOW.report_start + 1 - WINDOW.start
        [(port, report)] = sent
        assert (port, report.kind) == (2, wire.REPORT)
        assert (report.payload["distinct"], report.payload["proxies"]) == (1, 1)


class TestReport:
    SEND = WINDOW.report_send_round(1)  # the slot of a node that joined at offset 1

    def test_second_copy_adds_its_counters_twice(self):
        h = Harness()
        h.join()
        child = _report({7}, distinct=1, proxies=2)
        assert h.deliver(self.SEND - 1, child, child, port=1) == []
        [(port, report)] = h.deliver(self.SEND)
        assert port == 0 and report.payload["ids"] == {7}
        # Its own finished walk (distinct, 1 proxy) plus the child's twice.
        assert (report.payload["distinct"], report.payload["proxies"]) == (3, 5)

    def test_copy_arriving_in_the_send_round_is_included(self):
        h = Harness()
        h.join()
        [(_port, report)] = h.deliver(self.SEND, _report({7}, 1, 1), port=1)
        assert report.payload["ids"] == {7} and report.payload["distinct"] == 2

    def test_copy_arriving_after_the_send_round_is_never_forwarded(self):
        h = Harness()
        h.join()
        assert len(h.deliver(self.SEND)) == 1
        assert h.deliver(self.SEND + 1, _report({7}, 1, 1), port=1) == []
        assert h.tree.report_ids == {7}  # merged into a buffer nobody reads

    def test_second_copy_at_the_origin_counts_twice(self):
        h = Harness()
        h.node.identifier = ORIGIN
        h.node.is_contender = True
        h.node.current_phase = PHASE
        message = _report({7, 8}, distinct=2, proxies=2)
        h.deliver(WINDOW.report_start + 3, message, message)
        assert h.node.adjacency_ids == {7, 8}
        assert h.node.distinct_count_phase == 4


class TestDistribute:
    def test_second_copy_is_not_forwarded_again(self):
        h = Harness()
        h.join()
        message = _distribute({7, 8})
        sent = h.deliver(WINDOW.distribute_start + 1, message, message)
        assert sorted(port for port, _m in sent) == [1, 2]
        assert _kinds(sent) == [wire.DISTRIBUTE] * 2
        assert h.node.i2_union_by_phase[PHASE] == {7, 8}
        assert h.deliver(WINDOW.distribute_start + 2, message) == []

    def test_first_copy_after_the_collect_slot_is_forwarded_but_not_collected(self):
        h = Harness()
        h.join()
        collect_slot = WINDOW.collect_send_round(1)
        assert h.deliver(collect_slot) == []  # nothing to collect yet
        sent = h.deliver(collect_slot + 1, _distribute({7}))
        assert _kinds(sent) == [wire.DISTRIBUTE] * 2
        assert h.deliver(collect_slot + 2) == []


class TestCollect:
    SEND = WINDOW.collect_send_round(1)

    def test_second_copy_changes_nothing(self):
        h = Harness()
        h.join()
        message = _collect({7})
        assert h.deliver(self.SEND - 1, message, message, port=1) == []
        [(port, collect)] = h.deliver(self.SEND)
        assert port == 0 and collect.payload["ids"] == {7}

    def test_copy_arriving_after_the_send_round_is_never_forwarded(self):
        h = Harness()
        h.join()
        h.deliver(self.SEND, _collect({7}), port=1)
        assert h.deliver(self.SEND + 1, _collect({8}), port=1) == []


class TestWinner:
    def test_winner_down_is_forwarded_once(self):
        h = Harness()
        h.join()
        message = wire.make_winner_down(ORIGIN, PHASE, ORIGIN, N)
        sent = h.deliver(WINDOW.decide_round + 1, message, message)
        # Forwarded down both forward ports; as the tree's proxy the node
        # also relays the winner up to its parent (rule 6), once.
        assert _kinds(sent) == [wire.WINNER_DOWN] * 2 + [wire.WINNER_UP]
        assert h.node.heard_winner and h.node.winner_rules_fired
        assert h.deliver(WINDOW.decide_round + 2, message) == []

    def test_late_first_winner_down_is_still_forwarded(self):
        h = Harness()
        h.join()
        message = wire.make_winner_down(ORIGIN, PHASE, ORIGIN, N)
        sent = h.deliver(WINDOW.end + 10, message)
        assert _kinds(sent) == [wire.WINNER_DOWN] * 2 + [wire.WINNER_UP]

    def test_winner_up_is_relayed_once(self):
        h = Harness()
        h.join(walks=0)  # a member that is no proxy: only the relay sends
        message = wire.make_winner_up(ORIGIN, PHASE, ORIGIN, N)
        sent = h.deliver(WINDOW.decide_round + 1, message, message, port=1)
        assert [(port, m.kind) for port, m in sent] == [(0, wire.WINNER_UP)]
        assert h.deliver(WINDOW.decide_round + 2, message, port=1) == []

    def test_late_first_winner_up_is_still_relayed(self):
        h = Harness()
        h.join(walks=0)
        message = wire.make_winner_up(ORIGIN, PHASE, ORIGIN, N)
        sent = h.deliver(WINDOW.end + 10, message, port=1)
        assert [(port, m.kind) for port, m in sent] == [(0, wire.WINNER_UP)]
