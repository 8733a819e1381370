"""Array-based walk-phase engine for the election protocols.

The reference simulator (:mod:`repro.sim.network` driving
:class:`repro.core.leader_election.LeaderElectionNode`) treats every walk
token, message and round as a Python object.  That is the bit-exactness
oracle; this module is the throughput engine.  It executes the *same*
protocol -- Algorithm 1 identities, the guess-and-double schedule, the
report/distribute/collect converge-casts and the winner rules -- but drives
the lazy-random-walk segment as numpy array operations: token positions are
an int vector, one CSR neighbour-table gather moves every walk of every
contender per round, and coin flips come in bulk from a dedicated seed
stream.

Cost model: a short phase loop (:func:`_simulate`) calls one function per
protocol segment -- :func:`_walk`, :func:`_report`, :func:`_distribute`,
:func:`_collect`, :func:`_decide` and :func:`_cascade` -- on one explicit
run state, :class:`_Run`, and a :class:`_Phase` per phase.  Every segment
is a round-synchronous array program that advances all of a phase's trees
at once over flattened ``tree * n + node`` indices, and every message of
every segment goes through one bulk hop rule, :meth:`_Run.hop`: it tallies
a round's sends per ``(kind, size_bits)``, applies the round cap and the
fault plan's message adversary (:class:`_Channel`: edge removal, drop,
duplicate, delay), drops and counts crash losses, lowers heard-winner
rounds and returns each message's arrival round and copy count.  REPORT
and COLLECT are one converge-cast routine (:func:`_converge_cast`) that
loops over the distinct send rounds; DISTRIBUTE and the winner cascade are
floods, bucketed by arrival round, over a CSR of the trees' forward edges
(deduplicated from the walk's ``(tree * n + src) * n + dst`` move keys).
Id sets are packed bitmasks over the contenders, indexed by id rank.  The
tallies are folded into a :class:`~repro.sim.metrics.MetricsCollector`
once per phase.

Faults follow the reference node's rules for a second and a late copy of
each message (pinned in ``tests/core/test_copies_and_late_arrivals.py``):
a duplicated walk token carries its walks twice, walks move only while the
WALK segment is open but one that lands on its last step is a proxy however
late, a converge-cast parent keeps what lands by its own send round (every
copy: a second REPORT adds its counters twice), and the floods forward once,
in the round a node's first copy lands.  A fault-free or crash-only run
has no channel: it draws no coins, and every message it delivers arrives in
the round after it was sent.

Seed-stream contract
--------------------
Identities and contender nominations are drawn through the exact per-node
``random.Random`` streams the reference uses (``derive_seed(network_seed,
node_index)``), so both simulators see byte-identical ids and contender
sets.  Crash schedules, removed edges and per-edge delays come from the
injector's own :func:`~repro.faults.injector.crash_schedule`,
:func:`~repro.faults.injector.removed_edges` and
:func:`~repro.faults.injector.delay_table`, so both simulators crash the
same nodes at the same rounds and cut and slow the same edges.  Walk
randomness, however, comes from one ``numpy`` PCG64 generator seeded with
``derive_seed(network_seed, VECTORIZED_WALK_STREAM)``, and the per-message
drop and duplicate coins from one seeded with ``derive_seed(base,
VECTORIZED_MESSAGE_STREAM)``, where ``base`` is the plan's base seed
``derive_seed(derive_seed(seed, FAULT_SEED_STREAM), plan.seed_stream())`` --
streams the reference never touches.  The two simulators therefore agree
on *who runs*, *who crashes* and *which links fail* but sample independent
walk trajectories and message losses: equivalence is at the outcome level
(winners, classification, metric and fault-event distributions), never at
the per-message level, and trial fingerprints must keep the two apart (see
``repro.exec.fingerprint``).

Fallback rules
--------------
The engine refuses -- via :class:`VectorizedUnsupported` or the static
:func:`vectorized_unsupported_reason` check -- anything it cannot replicate
faithfully: message observers, retained simulations and strict congest
mode.  Every fault plan runs vectorized.  Callers (``repro.core.runner`` /
``repro.baselines.known_tmix``) fall back to the reference simulator and
record the reason in the outcome's ``simulator`` tag.

Three deliberate approximations, all invisible at the outcome level the
equivalence suite pins: winner notifications are propagated against the
completed walk trees of the phase in which they fire (the reference
interleaves them with in-flight construction); the heard-winner flag
piggybacked on ordinary messages spreads segment-by-segment rather than
round-interleaved across trees: within a segment, tree ``s`` sees the flag
raised by trees before it in starter order, never by trees after it; and
under delays a segment runs to completion before the next one starts, so
tree membership and proxy status are those at the end of the walk, and
REPORT and COLLECT ids that reach an origin late still count.
"""

from __future__ import annotations

import random
import time
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..faults.injector import FAULT_EVENT_KINDS, crash_schedule, delay_table, removed_edges
from ..faults.plan import FaultPlan
from ..graphs.topology import Graph
from ..obs.tracer import current_tracer
from .errors import ProtocolError
from .harness import FAULT_SEED_STREAM
from .message import counter_bits, id_bits, word_bits_for
from .metrics import MetricsCollector
from .rng import derive_seed, fresh_master_seed

__all__ = [
    "VECTORIZED_WALK_STREAM",
    "VECTORIZED_MESSAGE_STREAM",
    "VectorizedUnsupported",
    "vectorized_unsupported_reason",
    "vectorized_or_reference",
    "graph_csr",
    "run_vectorized_election",
    "run_vectorized_known_tmix",
]

#: Stream id of the bulk walk generator (never drawn by the reference).
VECTORIZED_WALK_STREAM = 0xA77A9
#: Stream id, under a fault plan's base seed, of the drop and duplicate coins
#: (never drawn by the reference).
VECTORIZED_MESSAGE_STREAM = 0xD50C5

_NEVER = 1 << 62
_NONE = np.zeros(0, dtype=np.int64)


class VectorizedUnsupported(Exception):
    """The vectorized engine cannot faithfully execute this configuration."""


def vectorized_unsupported_reason(
    observers: Tuple = (),
    keep_simulation: bool = False,
    congest_mode: str = "count",
) -> Optional[str]:
    """Why a trial must run on the reference simulator, or ``None`` if it may not.

    The static half of the fallback contract: anything detectable from the
    call signature alone is rejected here; data-dependent refusals (e.g.
    duplicate contender ids) surface as :class:`VectorizedUnsupported` at
    run time.  Every :class:`~repro.faults.plan.FaultPlan` runs vectorized.
    """
    if observers:
        return "message observers require the reference simulator"
    if keep_simulation:
        return "keep_simulation retains per-node transcripts"
    if congest_mode != "count":
        return "strict congest mode requires the reference simulator"
    return None


def vectorized_or_reference(vectorized: Callable, reference: Callable, **signature):
    """``vectorized()`` unless the engine declines, else ``reference()``.

    The fallback contract of every vectorized entry point: a static refusal
    (:func:`vectorized_unsupported_reason` over the call ``signature``) or a
    run-time :class:`VectorizedUnsupported` runs ``reference()`` instead and
    tags its outcome's ``simulator`` as ``"reference-fallback:<reason>"``.
    """
    reason = vectorized_unsupported_reason(**signature)
    if reason is None:
        try:
            return vectorized()
        except VectorizedUnsupported as exc:
            reason = str(exc)
    outcome = reference()
    outcome.simulator = "reference-fallback:%s" % reason
    return outcome


def graph_csr(graph: Graph) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """CSR neighbour table ``(indptr, indices, degrees)`` of ``graph``.

    Memoised on the graph instance and keyed by its mutation counter, the
    same invalidation convention as the edge-digest and mixing-time caches.
    Neighbour lists are sorted, matching ``Graph.neighbors``.

    >>> from repro.graphs import hypercube_graph
    >>> indptr, indices, degrees = graph_csr(hypercube_graph(4))
    >>> degrees.tolist() == [4] * 16, indices[indptr[0] : indptr[1]].tolist()
    (True, [1, 2, 4, 8])
    """
    version = getattr(graph, "_mutations", None)
    cached = getattr(graph, "_csr_cache", None)
    if cached is not None and cached[0] == version:
        return cached[1], cached[2], cached[3]
    n = graph.num_nodes
    degrees = np.zeros(n, dtype=np.int64)
    chunks = []
    for v in range(n):
        nbrs = graph.neighbors(v)
        degrees[v] = len(nbrs)
        chunks.append(nbrs)
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(degrees, out=indptr[1:])
    if chunks and indptr[-1]:
        indices = np.concatenate([np.asarray(c, dtype=np.int64) for c in chunks if c])
    else:
        indices = np.zeros(0, dtype=np.int64)
    try:
        graph._csr_cache = (version, indptr, indices, degrees)
    except AttributeError:  # pragma: no cover - exotic graph wrappers
        pass
    return indptr, indices, degrees


class _Metrics(MetricsCollector):
    """A :class:`MetricsCollector` fed per ``(kind, size_bits)`` tally.

    :meth:`_Run.hop` tallies each round's sends of one kind
    (:meth:`record_bulk`), and :meth:`flush` folds the tallies into the
    totals once per phase.  The tally keeps first-seen order, so
    ``messages_by_kind`` gains its keys in the order per-message accounting
    would give them.  Given an edge capacity, ``edge_bits`` sums the bits per
    ``(round, src, dst)``.
    """

    def __init__(self, word_bits: int, n: int, capacity_words: Optional[int]) -> None:
        super().__init__(word_bits)
        self.n = n
        self.capacity_words = capacity_words
        self.tally: Dict[Tuple[str, int], int] = {}
        self.edge_bits: Optional[Dict[Tuple[int, int, int], int]] = (
            None if capacity_words is None else {}
        )

    def flush(self) -> None:
        """Fold the pending tallies into the totals."""
        for (kind, size), count in self.tally.items():
            self.record_sends(kind, size, count)
        self.tally.clear()

    def record_bulk(
        self, kind: str, sizes: np.ndarray, rnd: int, src: np.ndarray, dst: np.ndarray
    ) -> None:
        """Tally one round's messages: ``sizes[i]`` bits from ``src[i]``
        to ``dst[i]``, with the loads summed per edge before they are kept."""
        tally = self.tally
        bins = np.bincount(sizes)
        present = bins.nonzero()[0]
        for size, count in zip(present.tolist(), bins[present].tolist()):
            key = (kind, size)
            tally[key] = tally.get(key, 0) + count
        edge_bits = self.edge_bits
        if edge_bits is not None:
            edges = src * self.n + dst
            order = np.argsort(edges, kind="stable")
            edges = edges[order]
            starts = _runs(edges)
            loads = np.add.reduceat(sizes[order], starts)
            for edge, load in zip(edges[starts].tolist(), loads.tolist()):
                key = (rnd, *divmod(edge, self.n))
                edge_bits[key] = edge_bits.get(key, 0) + load


#: Set bits of every byte value: the popcount of a packed id set is the sum
#: of its bytes' entries.
_POPCOUNT = np.array([bin(b).count("1") for b in range(256)], dtype=np.int64)


def _popcount(masks: np.ndarray) -> np.ndarray:
    """Ids in each row of packed id sets."""
    return _POPCOUNT[masks].sum(axis=-1)


def _bit_lengths(values: np.ndarray) -> np.ndarray:
    """Vectorized ``int.bit_length`` for positive integers."""
    return np.frexp(values.astype(np.float64))[1].astype(np.int64)


def _runs(sorted_keys: np.ndarray) -> np.ndarray:
    """Start index of every run of equal values in ``sorted_keys``."""
    starts = np.empty(sorted_keys.size, dtype=bool)
    starts[:1] = True
    np.not_equal(sorted_keys[1:], sorted_keys[:-1], out=starts[1:])
    return starts.nonzero()[0]


def _bounds(sorted_keys: np.ndarray) -> Tuple[List[int], List[int]]:
    """``(starts, ends)`` of every run of equal values in ``sorted_keys``."""
    starts = _runs(sorted_keys).tolist()
    return starts, starts[1:] + [sorted_keys.size]


def _unique(values: np.ndarray) -> np.ndarray:
    """``np.unique`` by sorting (numpy 2's hashing ``unique`` is slower here)."""
    values = np.sort(values)
    return values[_runs(values)]


def _expand(indptr: np.ndarray, targets: np.ndarray, rows: np.ndarray):
    """Every CSR edge out of ``rows``: ``(row, target)`` arrays, row-major."""
    lo = indptr[rows]
    counts = indptr[rows + 1] - lo
    ends = np.cumsum(counts)
    at = np.arange(ends[-1] if ends.size else 0) + np.repeat(lo - (ends - counts), counts)
    return np.repeat(rows, counts), targets[at]


def _scatter(rows: np.ndarray, ids: np.ndarray, counters, into_ids, into_counters) -> None:
    """``into_ids[rows] |= ids`` and ``into_counters[k][rows] += counters[k]``,
    for ``rows`` whose repeats are adjacent (e.g. sorted)."""
    if not rows.size:
        return
    starts = _runs(rows)
    targets = rows[starts]
    into_ids[targets] |= np.bitwise_or.reduceat(ids, starts, axis=0)
    for total, counter in zip(into_counters, counters):
        total[targets] += np.add.reduceat(counter, starts)


def _at(arrive, mask):
    """``arrive[mask]``: per-message arrival rounds, or the one shared round."""
    return arrive if type(arrive) is int else arrive[mask]


def _last(arrive, mask) -> int:
    """The latest of the rounds ``arrive[mask]`` (``mask`` selects some)."""
    return arrive if type(arrive) is int else int(arrive[mask].max())


def _by_round(arrive, *columns: np.ndarray):
    """``(round, *columns)`` for every distinct arrival round, in round order;
    one unfiltered bucket when everything arrives together."""
    if not columns[0].size:
        return
    if type(arrive) is int:
        yield (arrive, *columns)
        return
    first, last = int(arrive.min()), int(arrive.max())
    if first == last:
        yield (first, *columns)
        return
    for a in range(first, last + 1):  # delays span a few rounds
        at = arrive == a
        if at.any():
            yield (a, *(column[at] for column in columns))


class _Channel:
    """The message adversary of a fault plan: edge removal, drop, duplicate, delay.

    Removed edges and per-edge delays are the injector's own draws
    (:func:`~repro.faults.injector.removed_edges`,
    :func:`~repro.faults.injector.delay_table`), laid out over the CSR
    entries, whose ``src * n + dst`` keys are sorted.  Drop and duplicate
    coins come from the :data:`VECTORIZED_MESSAGE_STREAM` generator under the
    plan's base seed, one coin per message and decision.
    """

    __slots__ = ("n", "keys", "removed", "removal_round", "delay", "drop", "duplicate", "coins")

    def __init__(self, plan: FaultPlan, fault_seed: int, graph: Graph, csr) -> None:
        _indptr, indices, degrees = csr
        n = self.n = graph.num_nodes
        self.keys = np.repeat(np.arange(n, dtype=np.int64), degrees) * n + indices
        cut = removed_edges(plan, fault_seed, graph)
        self.removed = None
        if cut:
            u, v = np.array(sorted(cut), dtype=np.int64).T
            self.removed = np.isin(self.keys, np.concatenate([u * n + v, v * n + u]))
        self.removal_round = plan.edges.at_round
        table = delay_table(plan, fault_seed, graph)
        self.delay = None
        if table:
            src, dst = np.divmod(self.keys, n)
            self.delay = np.array([table[e] for e in zip(src.tolist(), dst.tolist())])
        self.drop = plan.messages.drop_probability
        self.duplicate = plan.messages.duplicate_probability
        self.coins = None
        if not plan.messages.is_empty:
            base = derive_seed(fault_seed, plan.seed_stream())
            self.coins = np.random.default_rng(derive_seed(base, VECTORIZED_MESSAGE_STREAM)).random

    def deliver(self, events: Dict[str, int], r: int, src: np.ndarray, dst: np.ndarray):
        """``(delay, copies)`` of the messages ``src[i] -> dst[i]`` sent in
        round ``r``: the injector's decisions in its order -- edge removal,
        drop, duplicate, delay -- each counted in ``events``."""
        copies = np.ones(dst.size, dtype=np.int64)
        if self.removed is not None or self.delay is not None:
            edge = np.searchsorted(self.keys, src * self.n + dst)
        if self.removed is not None and r >= self.removal_round:
            cut = self.removed[edge]
            events["edge_dropped"] += int(np.count_nonzero(cut))
            copies[cut] = 0
        if self.drop:
            sent = copies.nonzero()[0]
            lost = sent[self.coins(sent.size) < self.drop]
            events["dropped"] += lost.size
            copies[lost] = 0
        if self.duplicate:
            sent = copies.nonzero()[0]
            twice = sent[self.coins(sent.size) < self.duplicate]
            events["duplicated"] += twice.size
            copies[twice] = 2
        if self.delay is None:
            return 0, copies
        delay = np.where(copies > 0, self.delay[edge], 0)
        events["delayed"] += int(np.count_nonzero(delay))
        events["delay_rounds"] += int(delay.sum())
        return delay, copies


class _Run:
    """The state one engine run shares across its phases and segments.

    Setup draws the byte-identical identities and nominations (Algorithm 1),
    the injector's crash schedule and, under message, delay or edge faults,
    the plan's :class:`_Channel`.  :meth:`hop` is the one hop rule of every
    message.  Contender ``c`` is the one with the ``c``-th smallest id:
    id sets are packed bitmasks over that index (``np.packbits`` rows), so
    "some id above mine" is "some bit above mine".
    """

    # Slots: the segments read these, and CPython's instance-dict reads slow
    # down once an object has more than 30 attributes (this one has 34).
    __slots__ = (
        "n",
        "params",
        "schedule",
        "max_rounds",
        "ids",
        "contenders",
        "rank",
        "own_bit",
        "adjacency",
        "i4",
        "distinct",
        "forced_stop",
        "crash",
        "has_faults",
        "channel",
        "wrng",
        "csr",
        "id_bits",
        "walks_per",
        "walk_cap",
        "thresholds",
        "metrics",
        "learn",
        "proxy_for",
        "latest_tree",
        "fired",
        "retained",
        "forest",
        "leaders",
        "phases",
        "last_activity",
        "clock",
        "completed",
        "events",
    )

    def __init__(
        self,
        graph: Graph,
        params,
        seed: Optional[int],
        fault_plan: Optional[FaultPlan],
        max_rounds: int,
        network_stream: int,
        decide_rule: str,
        known_n: Optional[int] = -1,
        assumed_n: Optional[int] = None,
        edge_capacity_words: Optional[int] = None,
    ) -> None:
        from ..core.schedule import PhaseSchedule

        n = self.n = graph.num_nodes
        if seed is None:
            seed = fresh_master_seed()
        network_seed = derive_seed(seed, network_stream)
        resolved = n if known_n == -1 else known_n
        n_eff = resolved if resolved is not None else assumed_n
        if n_eff is None:
            raise ProtocolError(
                "the algorithm requires knowledge of n (pass assumed_n to override)"
            )
        self.params = params
        self.schedule = schedule = PhaseSchedule(params)
        self.max_rounds = max_rounds

        # Algorithm 1: byte-identical identities and nominations.  Identifiers
        # live in a plain list -- id_space is n^4 and overflows int64 past
        # n ~ 55k -- and the arrays index contenders by id rank instead.
        ids = self.ids = [0] * n
        contenders = self.contenders = []
        for i in range(n):
            rng = random.Random(derive_seed(network_seed, i))
            ids[i] = rng.randint(1, params.id_space(n_eff))
            if rng.random() < params.contender_probability(n_eff):
                contenders.append(i)
        if len({ids[v] for v in contenders}) < len(contenders):
            raise VectorizedUnsupported("duplicate contender identifiers alias their walk trees")
        C = len(contenders)
        self.rank = np.full(n, -1, dtype=np.int64)
        self.rank[sorted(contenders, key=ids.__getitem__)] = np.arange(C)
        self.own_bit = np.packbits(np.eye(C, dtype=bool), axis=1)  # (C, bytes)
        # Per contender: the ids heard through REPORT and through COLLECT.
        self.adjacency = np.zeros_like(self.own_bit)
        self.i4 = np.zeros_like(self.own_bit)
        self.distinct = np.zeros(C, dtype=np.int64)
        self.forced_stop = np.zeros(C, dtype=bool)

        plan = fault_plan or FaultPlan()
        fault_seed = derive_seed(seed, FAULT_SEED_STREAM)
        crash_map = crash_schedule(plan, fault_seed, n, schedule.phase_start)
        self.crash = np.array([crash_map.get(v, _NEVER) for v in range(n)], dtype=np.int64)
        self.has_faults = not plan.is_empty
        self.events = dict.fromkeys(FAULT_EVENT_KINDS, 0)

        self.wrng = np.random.default_rng(derive_seed(network_seed, VECTORIZED_WALK_STREAM))
        self.csr = graph_csr(graph)
        self.channel = (
            None
            if plan.messages.is_empty and plan.delays.is_empty and plan.edges.is_empty
            else _Channel(plan, fault_seed, graph, self.csr)
        )
        self.id_bits = id_bits(n_eff)
        self.walks_per = params.num_walks(n_eff)
        self.walk_cap = params.walk_length_cap(n_eff)
        # [25]'s rule has no thresholds: every contender that decides stops.
        self.thresholds = (
            (0, 0)
            if decide_rule == "known_tmix"
            else (params.intersection_threshold(n_eff), params.distinctness_threshold(n_eff))
        )
        self.metrics = _Metrics(word_bits_for(n), n, edge_capacity_words)

        self.learn = np.full(n, _NEVER, dtype=np.int64)  # round each node heard a winner
        self.proxy_for = np.zeros((n, C), dtype=bool)  # node served contender as a proxy
        # Forest index of each contender's latest tree each node belongs to.
        self.latest_tree = np.full((n, C), -1, dtype=np.int64)
        self.fired = np.zeros(n, dtype=bool)  # node fired its winner rules
        # Retained phases; their trees form the forest, numbered in phase then
        # starter order.  ``forest`` is the cascade's flattened view of them.
        self.retained: List[_Phase] = []
        self.forest: Optional[_Forest] = None
        self.leaders: List[int] = []
        self.phases = 0  # phases opened; every starter of one started all before it
        self.last_activity = 0
        self.clock = 0
        self.completed = True

    def act(self, r: int) -> None:
        """Some node was active in round ``r``."""
        if r > self.last_activity:
            self.last_activity = r
        if r > self.clock:
            self.clock = r

    def tick(self, r: int) -> None:
        """The run reached round ``r`` (capped), active or not."""
        if r > self.clock:
            self.clock = min(r, self.max_rounds)

    def hop(
        self,
        kind: str,
        sizes: np.ndarray,
        r: int,
        src: np.ndarray,
        dst: np.ndarray,
        knows,
    ) -> Optional[Tuple[np.ndarray, np.ndarray]]:
        """One round's hops: ``src[i]`` sends ``sizes[i]`` bits to ``dst[i]`` in round ``r``.

        Tallies the sends and returns ``(arrive, copies)``: the round each
        message arrives in (``r + 1`` plus its edge's delay; one int when
        nothing is delayed) and how many copies of it do (0, 1, or 2 when
        duplicated; a bool mask without a channel).  ``None`` past the
        round cap, which marks the run incomplete, as does a copy arriving
        past it.  The channel's edge removal, drop, duplicate and delay come
        first; then a copy to a receiver crashed by its arrival round is lost
        and counted.  A delivered send whose sender ``knows`` (a mask, or
        ``True`` for all) of a winner passes that on to its receiver.  No
        sends, no checks.
        """
        if not dst.size:
            return _NONE, _NONE
        self.metrics.record_bulk(kind, sizes, r, src, dst)
        a = r + 1
        if a > self.max_rounds:
            self.completed = False
            return None
        if self.channel is None:
            delivered = self.crash[dst] > a
            self.events["lost_to_crash"] += dst.size - int(np.count_nonzero(delivered))
            told = dst[delivered & knows]
            self.learn[told] = np.minimum(self.learn[told], a)
            return a, delivered
        delay, copies = self.channel.deliver(self.events, r, src, dst)
        arrive = a + delay
        crashed = self.crash[dst] <= arrive
        self.events["lost_to_crash"] += int(copies[crashed].sum())
        copies[crashed] = 0
        if type(arrive) is not int:
            capped = arrive > self.max_rounds
            if capped.any():
                self.completed = False
                copies[capped] = 0
        told = (copies > 0) & knows
        np.minimum.at(self.learn, dst[told], _at(arrive, told))
        return arrive, copies


class _Phase:
    """One guess-and-double phase: its window, its starters and their walk trees.

    Row ``s`` of every table belongs to the tree of ``starters[s]``; the
    flat tables index ``s * n + node``.
    """

    def __init__(self, n: int, index: int, window, starters: List[int]) -> None:
        self.index = index
        self.window = window
        self.starters = starters
        self.phase_bits = counter_bits(max(1, index))
        S = len(starters)
        self.off = np.full((S, n), -1, dtype=np.int64)  # join offset, 0 at the origin
        self.par = np.full((S, n), -1, dtype=np.int64)  # tree parent
        self.proxies = np.zeros((S, n), dtype=np.int64)  # tokens ending at each node
        self.off[np.arange(S), starters] = 0
        self.move_keys: List[np.ndarray] = []  # each round's unique move keys
        self.base = 0  # forest index of row 0
        # Set by _retain_trees: the forward edges as a CSR over flat rows,
        # each member's converge-cast send delay after a segment starts, and
        # the non-origin members by delay, then parent row.
        self.fwd_ptr = self.fwd_dst = self.delay = self.members = np.zeros(0, dtype=np.int64)
        self.winners: List[int] = []  # forest rows of the leaders it elected


class _Forest:
    """Every retained tree of the run, flattened as ``tree * n + node``: the
    tables of the winner cascade."""

    __slots__ = ("phases", "par", "fwd_ptr", "fwd_dst", "bits", "flooded", "sent_up")

    def __init__(self, phases: List[_Phase], run: _Run) -> None:
        self.phases = len(phases)
        self.par = np.concatenate([ph.par.reshape(-1) for ph in phases])
        self.fwd_ptr = np.zeros(self.par.size + 1, dtype=np.int64)
        np.cumsum(np.concatenate([np.diff(ph.fwd_ptr) for ph in phases]), out=self.fwd_ptr[1:])
        self.fwd_dst = np.concatenate([ph.fwd_dst for ph in phases])
        # A winner message carries two ids, the tree's phase and a flag.
        self.bits = np.concatenate(
            [np.full(len(ph.starters), 2 * run.id_bits + ph.phase_bits + 1) for ph in phases]
        )
        # Nodes that forwarded winner-down / relayed winner-up, per tree:
        # kept from the previous forest, which covers a prefix of this one.
        self.flooded = np.zeros(self.par.size, dtype=bool)
        self.sent_up = np.zeros(self.par.size, dtype=bool)
        if run.forest is not None:
            kept = run.forest.par.size
            self.flooded[:kept] = run.forest.flooded
            self.sent_up[:kept] = run.forest.sent_up


def _open_phase(run: _Run, index: int, active: List[int]) -> Optional[_Phase]:
    """Start phase ``index`` for the live ``active`` contenders, or ``None``
    when the round cap or the crashes leave nobody to start it."""
    window = run.schedule.window(index)
    begin = max(1, window.start)
    run.tick(begin)
    if begin > run.max_rounds:
        run.completed = False
        return None
    starters = [v for v in active if run.crash[v] > begin]
    if not starters:
        return None
    run.phases = index + 1
    run.distinct[run.rank[starters]] = 0
    return _Phase(run.n, index, window, starters)


def _walk(run: _Run, ph: _Phase) -> bool:
    """WALK: every starter's lazy walks as token vectors, one CSR gather per round.

    Grows the trees (join offsets, parents, forward-edge move keys) and the
    proxy counts.  A round's moves go through the hop rule as one message per
    ``(tree, src, dst, steps)``, and every copy lands, with the walks it
    carries, in an in-flight buffer under its arrival round.  Walks move while
    the WALK segment is open; an unfinished walk that lands after it closed
    never moves again.  Without delays every walk takes its ``t``-th step in
    round ``begin + t - 1``, so steps are not tracked per walk.  Returns
    ``False`` when the round cap cut the walk short.
    """
    n = run.n
    crash = run.crash
    learn = run.learn
    indptr, indices, degrees = run.csr
    coins = run.wrng.random
    max_rounds = run.max_rounds
    begin = max(1, ph.window.start)
    close = ph.window.report_start
    L = ph.window.walk_length
    channel = run.channel
    delayed = channel is not None and channel.delay is not None
    move_keys = ph.move_keys
    base_bits = run.id_bits + ph.phase_bits + 1
    owners = np.repeat(np.arange(len(ph.starters), dtype=np.int64), run.walks_per)
    pos = np.repeat(np.asarray(ph.starters, dtype=np.int64), run.walks_per)
    steps = np.zeros(pos.size, dtype=np.int64) if delayed else None
    crashing = run.has_faults  # else every walk lives and every move lands
    flight: Dict[int, list] = {}  # arrival round -> landing batches
    r = begin
    while True:
        batches = flight.pop(r, None)
        if batches is not None:
            owners, pos, steps = _land(run, ph, r, batches, owners, pos, steps)
        if pos.size and r < close:
            if r > max_rounds:
                run.completed = False
                return False
            if crashing:
                alive = crash[pos] > r
                if not alive.all():
                    run.tick(r)
                    pos, owners = pos[alive], owners[alive]
                    steps = None if steps is None else steps[alive]
        if not pos.size or r >= close:  # nothing moves this round
            if not flight:
                return True
            pos, owners = pos[:0], owners[:0]
            steps = None if steps is None else steps[:0]
            r = min(flight)
            continue
        run.act(r)
        move = coins(pos.size) >= 0.5
        move &= degrees[pos] > 0  # tokens on isolated nodes never move
        moving = move.nonzero()[0]
        staying = (~move).nonzero()[0]
        stay_pos, stay_own = pos[staying], owners[staying]
        if moving.size:
            msrc = pos[moving]
            mown = owners[moving]
            degm = degrees[msrc]
            ports = (coins(msrc.size) * degm).astype(np.int64)
            np.minimum(ports, degm - 1, out=ports)
            mdst = indices[indptr[msrc] + ports]
            # One message per (tree, src, dst[, steps]) move, in lexicographic
            # order; the moves' (tree, src, dst) keys are the tree's forward edges.
            key = (mown * n + msrc) * n + mdst
            if delayed:
                msteps = steps[moving] + 1
                key = key * (L + 1) + msteps
            sorted_key = np.sort(key)
            first = _runs(sorted_key)
            g_key = sorted_key[first]
            counts = np.append(first[1:], sorted_key.size) - first
            if delayed:
                g_move, g_steps = np.divmod(g_key, L + 1)
                step_bits = _bit_lengths(g_steps)
            else:
                g_move, step_bits = g_key, counter_bits(r - begin + 1)
            move_keys.append(g_move)
            g_head, g_dst = np.divmod(g_move, n)
            g_own, g_src = np.divmod(g_head, n)
            sizes = base_bits + step_bits + _bit_lengths(counts)
            got = run.hop("walk_token", sizes, r, g_src, g_dst, learn[g_src] <= r)
            if got is None:
                return False
            arrive, copies = got
            if crashing:  # keep what lands: each walk once per copy of its message
                if channel is None:
                    delivered = crash[mdst] > r + 1
                    mown, mdst = mown[delivered], mdst[delivered]
                else:
                    group = np.searchsorted(g_key, key)
                    per_walk = copies[group]
                    mown, mdst = np.repeat(mown, per_walk), np.repeat(mdst, per_walk)
                    if delayed:
                        msteps = np.repeat(msteps, per_walk)
                        landing = np.repeat(arrive[group], per_walk)
                sent = copies.astype(bool, copy=False)
                g_own, g_src, g_dst = g_own[sent], g_src[sent], g_dst[sent]
                arrive = _at(arrive, sent)
            joins = g_own * n + g_dst
            if not delayed:
                if joins.size:
                    flight[r + 1] = [(joins, g_src, mown, mdst, None)]
            else:
                for a, a_joins, a_src in _by_round(arrive, joins, g_src):
                    at = landing == a
                    batch = (a_joins, a_src, mown[at], mdst[at], msteps[at])
                    flight.setdefault(a, []).append(batch)
        # Walks that stayed took their step in place; finished ones are proxies.
        if delayed:
            steps = steps[staying] + 1
            done = steps == L
            np.add.at(ph.proxies, (stay_own[done], stay_pos[done]), 1)
            going = ~done
            owners, pos, steps = stay_own[going], stay_pos[going], steps[going]
        elif r - begin + 1 == L:
            np.add.at(ph.proxies, (stay_own, stay_pos), 1)
            owners, pos = stay_own[:0], stay_pos[:0]
        else:
            owners, pos = stay_own, stay_pos
        if not pos.size and not flight:
            return True
        r += 1


def _land(run: _Run, ph: _Phase, r: int, batches, owners, pos, steps):
    """Walks landing in round ``r``: the trees they join, the proxies they
    finish at, and the residents with the unfinished ones appended (only
    while the WALK segment is open).

    A node joins a tree in the round its first walks of that tree land,
    through the earliest-sent, then smallest-id, of their senders (the
    batches are in send order).
    """
    run.act(r)
    n = run.n
    off = ph.off.reshape(-1)
    par = ph.par.reshape(-1)
    for joins, senders, *_walks in batches:
        fresh = off[joins] == -1
        if fresh.any():
            joins, senders = np.divmod(np.sort(joins[fresh] * n + senders[fresh]), n)
            first = _runs(joins)
            off[joins[first]] = max(1, r - ph.window.start)
            par[joins[first]] = senders[first]
    if len(batches) == 1:
        l_own, l_pos, l_steps = batches[0][2:]
    else:
        l_own, l_pos, l_steps = (np.concatenate(parts) for parts in list(zip(*batches))[2:])
    L = ph.window.walk_length
    if l_steps is None:  # walks in step: all landed walks took r - begin steps
        if r - max(1, ph.window.start) == L:
            np.add.at(ph.proxies, (l_own, l_pos), 1)
            return owners, pos, steps
        return np.concatenate([owners, l_own]), np.concatenate([pos, l_pos]), steps
    done = l_steps == L
    np.add.at(ph.proxies, (l_own[done], l_pos[done]), 1)
    going = ~done & (r < ph.window.report_start)
    return (
        np.concatenate([owners, l_own[going]]),
        np.concatenate([pos, l_pos[going]]),
        np.concatenate([steps, l_steps[going]]),
    )


def _retain_trees(run: _Run, ph: _Phase) -> None:
    """Keep the phase's walk trees for the exchange segments and the cascade,
    and index every member and proxy under its origin for the winner rules."""
    n = run.n
    S = len(ph.starters)
    ranks = run.rank[ph.starters]
    ph.base = sum(len(kept.starters) for kept in run.retained)
    run.retained.append(ph)
    rows = np.arange(ph.base, ph.base + S)
    run.latest_tree[:, ranks] = np.where(ph.off.T >= 0, rows, run.latest_tree[:, ranks])
    run.proxy_for[:, ranks] |= ph.proxies.T > 0
    keys = _unique(np.concatenate(ph.move_keys)) if ph.move_keys else np.zeros(0, np.int64)
    ph.move_keys.clear()  # the CSR below replaces them
    heads = keys // n
    ph.fwd_dst = keys - heads * n
    ph.fwd_ptr = np.zeros(S * n + 1, dtype=np.int64)
    np.cumsum(np.bincount(heads, minlength=S * n), out=ph.fwd_ptr[1:])
    # A converge-cast member sends max(0, L - offset) rounds into the segment;
    # each round's senders are kept in parent order, ready to be merged.
    off = ph.off.reshape(-1)
    members = np.flatnonzero(off > 0)
    delay = np.maximum(0, ph.window.walk_length - off[members])
    parent_rows = members - members % n + ph.par.reshape(-1)[members]
    ph.members = members[np.lexsort((parent_rows, delay))]
    ph.delay = np.full(S * n, -_NEVER, dtype=np.int64)
    ph.delay[members] = delay


def _slots(ph: _Phase, begin: int) -> Tuple[np.ndarray, np.ndarray]:
    """The send slots of a converge-cast starting in round ``begin``: the
    members in send order (send round, then parent row) and every row's send
    round.  A member sends ``max(0, L - offset)`` rounds into the segment, or
    in the round it joined when that is later (walks that landed late)."""
    deadline = begin + ph.delay
    members = ph.members
    joined = ph.window.start + ph.off.reshape(-1)[members]
    late = joined > deadline[members]
    if late.any():
        deadline[members[late]] = joined[late]
        n = ph.off.shape[1]
        parent_rows = members - members % n + ph.par.reshape(-1)[members]
        members = members[np.lexsort((parent_rows, deadline[members]))]
    return members, deadline


def _converge_cast(
    run: _Run,
    ph: _Phase,
    begin: int,
    end: int,
    kind: str,
    held: np.ndarray,
    counters: Sequence[np.ndarray],
) -> Tuple[np.ndarray, Optional[np.ndarray]]:
    """REPORT or COLLECT over every tree of the phase, in rounds ``[begin, end)``.

    Members send once, in their slot (:func:`_slots`), to their parent: the
    ids and the counters (``distinct, proxies`` for REPORT, none for COLLECT)
    heard from their children, merged with their own, which ``held`` and
    ``counters`` (flat rows, updated in place) hold on entry.  A live member sends when it
    holds ids, a nonzero ``distinct`` or the heard-winner flag; the message
    is ``IDB + IDB * |ids| + phase bits + 1`` bits plus ``bit_length(max(1,
    c))`` per counter ``c``.  A parent keeps what arrives by its own send
    round, every copy of it; the origin keeps everything.  Returns, per tree,
    the ids and the ``distinct`` total that reached the origin.
    """
    n = run.n
    S = len(ph.starters)
    members, deadline = _slots(ph, begin)
    if members.size:
        run.tick(int(deadline[members[-1]]))
    crash = run.crash
    learn = run.learn.copy()  # as the segment found it
    # Lowest tree whose flagged message reached each node so far: tree s
    # sees the flag raised by trees before it, and by its own children.
    told_by = np.full(n, S, dtype=np.int64)
    # The origins' rows gather what reaches them, from every round.
    origins = np.arange(S) * n + ph.starters
    deadline[origins] = _NEVER
    held[origins] = 0
    for c in counters:
        c[origins] = 0
    holds = held.any(axis=1)
    if counters:
        holds |= counters[0] > 0
    header = run.id_bits + ph.phase_bits + 1
    # A second copy counts twice; without copies counters stay within a
    # phase's walks.
    doubles = run.channel is not None and run.channel.duplicate > 0
    widths = _bit_lengths(np.maximum(np.arange(run.walks_per + 1), 1))
    trees = members // n
    nodes = members - trees * n
    parents = ph.par.reshape(-1)[members]
    send_rounds = deadline[members]
    reached = 0
    for lo, hi in zip(*_bounds(send_rounds)):
        r = int(send_rounds[lo])
        if r > run.max_rounds:
            run.completed = False
            break
        if r >= end:  # a slot after the segment sends nothing
            break
        v = nodes[lo:hi]
        live = crash[v] > r
        if not live.any():
            continue
        reached = max(reached, r)
        f = members[lo:hi]
        s = trees[lo:hi]
        knows = (learn[v] <= r) | (told_by[v] <= s)
        send = (live & (knows | holds[f])).nonzero()[0]
        if not send.size:
            continue
        f, s, v, knows = f[send], s[send], v[send], knows[send]
        parent = parents[lo:hi][send]
        ids = held[f]
        counts = [c[f] for c in counters]
        sizes = header + run.id_bits * _popcount(ids)
        for c in counts:
            sizes += _bit_lengths(np.maximum(c, 1)) if doubles else widths[c]
        got = run.hop(kind, sizes, r, v, parent, knows)
        if got is None:
            continue
        arrive, copies = got
        delivered = copies.astype(bool, copy=False)
        if not delivered.any():
            continue
        reached = max(reached, _last(arrive, delivered))
        rows = s * n + parent
        keep = delivered & (arrive <= deadline[rows])
        told = delivered & knows
        if told.any():
            np.minimum.at(told_by, parent[told], s[told])
        every = np.repeat(np.flatnonzero(keep), copies[keep]) if doubles else keep
        _scatter(rows[every], ids[every], [c[every] for c in counts], held, counters)
        holds[rows[keep & holds[f]]] = True
    run.act(reached)
    return held[origins], (counters[0][origins] if counters else None)


def _report(run: _Run, ph: _Phase) -> None:
    """REPORT: every proxy sends up the other origins it serves, whether it
    holds exactly one token (distinct) and how many (proxies)."""
    S, n = ph.proxies.shape
    ranks = run.rank[ph.starters]
    proxies = ph.proxies.reshape(-1)
    serves = np.packbits(run.proxy_for, axis=1)  # (n, bytes)
    held = (serves[None, :, :] & ~run.own_bit[ranks][:, None, :]).reshape(S * n, -1)
    held[proxies == 0] = 0
    counters = [(proxies == 1).astype(np.int64), proxies.copy()]
    window = ph.window
    got_ids, got_distinct = _converge_cast(
        run, ph, window.report_start, window.distribute_start, "report", held, counters
    )
    run.adjacency[ranks] |= got_ids
    run.distinct[ranks] += got_distinct


def _distribute(run: _Run, ph: _Phase) -> Tuple[np.ndarray, np.ndarray]:
    """DISTRIBUTE: every live origin floods its adjacency set down its tree,
    all trees at once, round by round; a member forwards it once, in the
    round its first copy lands.

    Returns the proxy rows it reached and the round it reached each in.
    """
    n = run.n
    S = len(ph.starters)
    begin = ph.window.distribute_start
    run.tick(begin)
    if begin > run.max_rounds:
        run.completed = False
        return _NONE, _NONE
    origins = np.asarray(ph.starters, dtype=np.int64)
    live = run.crash[origins] > begin
    if live.any():
        run.act(begin)
    i2_size = _popcount(run.adjacency[run.rank[ph.starters]])
    sizes = run.id_bits * (1 + i2_size) + ph.phase_bits + 1
    trees = np.flatnonzero(live & (i2_size > 0))
    rows = trees * n + origins[trees]
    member = ph.off.reshape(-1) >= 0
    proxy = ph.proxies.reshape(-1) > 0
    first = np.full(S * n, _NEVER, dtype=np.int64)  # round each row's first copy landed
    first[rows] = begin
    hits = [rows[proxy[rows]]]
    hit_rounds = [begin]  # per hop, the one round its hits landed in, or theirs
    learn = run.learn.copy()  # as the segment found it
    told_by = np.full(n, S, dtype=np.int64)  # as in _converge_cast
    due = {begin: [rows]}  # round -> rows that may forward then
    reached = 0
    while due:
        t = min(due)
        landed = due.pop(t)
        frontier = _unique(landed[0] if len(landed) == 1 else np.concatenate(landed))
        frontier = frontier[first[frontier] == t]
        rows, dst = _expand(ph.fwd_ptr, ph.fwd_dst, frontier)
        s = rows // n
        u = rows - s * n
        knows = (learn[u] <= t) | (told_by[u] <= s)
        got = run.hop("distribute", sizes[s], t, u, dst, knows)
        if got is None:
            break
        arrive, copies = got
        sent = copies.astype(bool, copy=False)
        s, dst, knows, arrive = s[sent], dst[sent], knows[sent], _at(arrive, sent)
        if not dst.size:
            continue
        reached = max(reached, _last(arrive, slice(None)))
        np.minimum.at(told_by, dst[knows], s[knows])
        rows = s * n + dst
        joined = member[rows]
        rows, arrive = rows[joined], _at(arrive, joined)
        reaches = proxy[rows]
        hits.append(rows[reaches])
        hit_rounds.append(_at(arrive, reaches))
        for a, landed in _by_round(arrive, rows):
            first[landed] = np.minimum(first[landed], a)
            due.setdefault(a, []).append(landed)
    run.act(reached)
    rounds = [np.full(h.size, a) if type(a) is int else a for h, a in zip(hits, hit_rounds)]
    return np.concatenate(hits), np.concatenate(rounds)


def _collect(run: _Run, ph: _Phase, hits: np.ndarray, rounds: np.ndarray) -> None:
    """COLLECT: every proxy sends up the sets DISTRIBUTE brought it (to any
    of its trees of the phase) by its own send slot."""
    S, n = ph.proxies.shape
    window = ph.window
    i2 = run.adjacency[run.rank[ph.starters]]
    s = hits // n
    v = hits - s * n

    def union(at) -> np.ndarray:
        """Per node, the union of the sets of the hits ``at``."""
        received = np.zeros((n, i2.shape[1]), dtype=np.uint8)
        order = np.argsort(v[at], kind="stable")
        _scatter(v[at][order], i2[s[at][order]], (), received, ())
        return received

    late = np.flatnonzero(rounds > window.collect_start)  # after some slots
    on_time = np.flatnonzero(rounds <= window.collect_start) if late.size else slice(None)
    proxy = ph.proxies > 0
    held = (union(on_time)[None, :, :] * proxy[:, :, None]).reshape(S * n, -1)
    if late.size:
        _members, deadline = _slots(ph, window.collect_start)
        proxy_rows = np.flatnonzero(proxy.reshape(-1))
        for a, at in _by_round(rounds[late], late):
            rows = proxy_rows[deadline[proxy_rows] >= a]
            held[rows] |= union(at)[rows % n]
    got_ids, _ = _converge_cast(
        run, ph, window.collect_start, window.decide_round, "collect", held, ()
    )
    run.i4[run.rank[ph.starters]] |= got_ids


def _decide(run: _Run, ph: _Phase) -> Optional[List[int]]:
    """DECIDE: each live starter stops, elects itself or walks on.

    Returns the contenders that run the next phase, or ``None`` when the
    round cap falls before the decide round; the leaders it elects go to
    ``ph.winners`` for the cascade.
    """
    decide_round = ph.window.decide_round
    run.tick(decide_round)
    if decide_round > run.max_rounds:
        run.completed = False
        return None
    crash = run.crash
    learn = run.learn
    intersection, distinctness = run.thresholds
    may_grow = ph.window.walk_length < run.walk_cap
    C = run.distinct.size
    survivors: List[int] = []
    for s, origin in enumerate(ph.starters):
        if crash[origin] <= decide_round:
            continue
        run.act(decide_round)
        c = int(run.rank[origin])
        count = ph.proxies[s, origin]
        if count > 0:
            run.adjacency[c] |= np.packbits(run.proxy_for[origin]) & ~run.own_bit[c]
            if count == 1:
                run.distinct[c] += 1
        heard = learn[origin] <= decide_round
        if not (
            _popcount(run.adjacency[c]) >= intersection and run.distinct[c] >= distinctness
        ):
            if heard:
                continue  # stopped on the winner's notification
            if may_grow:
                survivors.append(origin)
                continue
            run.forced_stop[c] = True
            if not run.params.elect_on_forced_stop:
                continue
        heard_of = np.unpackbits(run.i4[c] | run.adjacency[c], count=C)
        if heard or heard_of[c + 1 :].any():  # a larger id than its own
            continue
        run.leaders.append(origin)
        learn[origin] = decide_round  # it had not heard of a winner before
        ph.winners.append((ph.base + s) * run.n + origin)
    return survivors


def _cascade(run: _Run, ph: _Phase) -> None:
    """WINNER: the phase's leaders flood winner-down over their trees, and
    every notification travels on over the retained trees, round by round.

    Each (tree, node) forwards winner-down at most once and relays winner-up
    at most once, in the round its first copy lands.  A node fires its
    winner rules (Algorithm 2 lines 6-7, the reference's _fire_winner_rules)
    at its first receipt: as a proxy it relays winner-up over the latest
    tree of every other contender it serves (every proxy of a tree is a
    member of it), and as a contender it floods winner-down over its own
    latest tree.  The cascade never reads heard-winner rounds, and lowers
    them only after the decide round.
    """
    if not ph.winners:
        return
    n = run.n
    if run.forest is None or run.forest.phases < len(run.retained):
        run.forest = _Forest(run.retained, run)
    forest = run.forest
    par = forest.par
    # Round -> the winner-down rows, winner-up rows and receivers due then.
    due = {ph.window.decide_round: ([np.asarray(ph.winners, dtype=np.int64)], [], [])}
    while due:
        r = min(due)
        downs, ups, receivers = due.pop(r)
        if receivers:
            receivers = _unique(np.concatenate(receivers))
            run.act(r)
            fresh = receivers[~run.fired[receivers]]
            run.fired[fresh] = True
            ranks = run.rank[fresh]
            contender = ranks >= 0
            serves = run.proxy_for[fresh]
            serves[np.flatnonzero(contender), ranks[contender]] = False
            at, served = np.nonzero(serves)
            ups.append(run.latest_tree[fresh[at], served] * n + fresh[at])
            mine = fresh[contender]
            downs.append(run.latest_tree[mine, ranks[contender]] * n + mine)
        down = _unique(np.concatenate(downs))
        down = down[~forest.flooded[down]]
        forest.flooded[down] = True
        up = _unique(np.concatenate(ups)) if ups else _NONE
        up = up[(par[up] >= 0) & ~forest.sent_up[up]]
        forest.sent_up[up] = True
        rows, targets = _expand(forest.fwd_ptr, forest.fwd_dst, down)
        tree = rows // n
        got_down = run.hop("winner_down", forest.bits[tree], r, rows - tree * n, targets, True)
        up_tree = up // n
        parents = par[up]
        got_up = run.hop("winner_up", forest.bits[up_tree], r, up - up_tree * n, parents, True)
        if got_down is None or got_up is None:
            break
        for slot, (arrive, copies), trees, dst in (
            (0, got_down, tree, targets),
            (1, got_up, up_tree, parents),
        ):
            sent = copies.astype(bool, copy=False)
            for a, a_tree, a_dst in _by_round(_at(arrive, sent), trees[sent], dst[sent]):
                bucket = due.setdefault(a, ([], [], []))
                bucket[slot].append(a_tree * n + a_dst)
                bucket[2].append(a_dst)


def _outcome(run: _Run):
    """The run's :class:`~repro.core.result.ElectionOutcome`."""
    from ..core.result import ElectionOutcome

    metrics = run.metrics
    metrics.flush()
    if metrics.capacity_words is not None:
        capacity_bits = metrics.capacity_words * metrics.word_bits
        for load in metrics.edge_bits.values():
            metrics.record_edge_load(load, capacity_bits)
    crashed = np.flatnonzero(run.crash <= run.clock).tolist()
    fault_events = None
    if run.has_faults:
        fault_events = dict(run.events, crashed_nodes=len(crashed))
    return ElectionOutcome(
        num_nodes=run.n,
        leaders=sorted(run.leaders),
        contenders=list(run.contenders),
        metrics=metrics.finalize(run.last_activity, run.completed, fault_events),
        forced_stop=bool(run.forced_stop.any()),
        max_phases=run.phases,
        final_walk_length=run.schedule.window(run.phases - 1).walk_length if run.phases else 0,
        simulation=None,
        crashed_nodes=crashed,
        simulator="vectorized",
    )


def _no_clock() -> float:
    return 0.0


def _simulate(run: _Run):
    """The guess-and-double phase loop over the segment functions."""
    # Resolved once per run: tracing is write-only (bulk per-phase counters
    # and segment wall times), so the engine's seed streams and outputs are
    # identical traced or not.
    tracer = current_tracer()
    stamp = time.perf_counter if tracer.enabled else _no_clock
    active = [v for v in run.contenders if run.crash[v] > 0]
    if tracer.enabled:
        tracer.event("vec.run_started", n=run.n, contenders=len(active), faulty=run.has_faults)
    index = 0
    while active:
        started = stamp()
        ph = _open_phase(run, index, active)
        if ph is None or not _walk(run, ph):
            break
        _retain_trees(run, ph)
        walked = stamp()
        _report(run, ph)
        _collect(run, ph, *_distribute(run, ph))
        exchanged = stamp()
        survivors = _decide(run, ph)
        if survivors is None:
            break
        _cascade(run, ph)
        run.metrics.flush()
        if tracer.enabled:
            tracer.event(
                "vec.phase",
                phase=index,
                starters=len(ph.starters),
                walk_length=int(ph.window.walk_length),
                survivors=len(survivors),
                leaders=len(run.leaders),
                messages=run.metrics.messages,
                message_units=run.metrics.message_units,
                walk_s=walked - started,
                exchange_s=exchanged - walked,
                cascade_s=stamp() - exchanged,
            )
        active = survivors
        index += 1
    return _outcome(run)


def run_vectorized_election(
    graph: Graph,
    params=None,
    seed: Optional[int] = None,
    known_n: Optional[int] = -1,
    assumed_n: Optional[int] = None,
    max_rounds: int = 10_000_000,
    edge_capacity_words: Optional[int] = None,
    fault_plan: Optional[FaultPlan] = None,
):
    """Vectorized counterpart of :func:`repro.core.runner.run_leader_election`.

    Raises :class:`VectorizedUnsupported` for configurations outside the
    engine's contract (see module docstring); callers are expected to fall
    back to the reference simulator.

    >>> from repro.graphs import hypercube_graph
    >>> outcome = run_vectorized_election(hypercube_graph(4), seed=7)
    >>> outcome.simulator, outcome.num_nodes, outcome.metrics.completed
    ('vectorized', 16, True)
    """
    from ..core.params import DEFAULT_PARAMETERS
    from ..core.runner import ELECTION_NETWORK_STREAM

    if params is None:
        params = DEFAULT_PARAMETERS
    return _simulate(
        _Run(
            graph,
            params,
            seed,
            fault_plan,
            max_rounds,
            network_stream=ELECTION_NETWORK_STREAM,
            decide_rule="election",
            known_n=known_n,
            assumed_n=assumed_n,
            edge_capacity_words=edge_capacity_words,
        )
    )


def run_vectorized_known_tmix(
    graph: Graph,
    mixing_time: int,
    params=None,
    safety_factor: float = 1.0,
    seed: Optional[int] = None,
    fault_plan: Optional[FaultPlan] = None,
    max_rounds: int = 1_000_000,
):
    """Vectorized counterpart of :func:`repro.baselines.known_tmix.simulate_known_tmix`.

    Pins the walk length as :func:`~repro.baselines.known_tmix.pin_walk_length`
    does and runs one oracle-length phase under the [25] decision rule, on the
    baseline's historical network stream.
    """
    from ..baselines.known_tmix import KNOWN_TMIX_NETWORK_STREAM, pin_walk_length
    from ..core.params import DEFAULT_PARAMETERS

    if params is None:
        params = DEFAULT_PARAMETERS
    pinned = pin_walk_length(params, mixing_time, safety_factor)
    run = _Run(graph, pinned, seed, fault_plan, max_rounds, KNOWN_TMIX_NETWORK_STREAM, "known_tmix")
    return _simulate(run)
