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
run state, :class:`_Run`, and a :class:`_Phase` per phase.  The walk's
per-round work is array operations, and the trees' forward edges are
deduplicated as 1-D ``int64`` keys ``(tree * n + src) * n + dst``.  Every
other message goes through one hop rule, :meth:`_Run.send`; REPORT and
COLLECT are one converge-cast routine (:func:`_converge_cast`).  All sends
are tallied per ``(kind, size_bits)`` and folded into a
:class:`~repro.sim.metrics.MetricsCollector` once per phase.  The winner
cascade is a round-ordered FIFO, and the segments read per-tree rows, crash
rounds and heard-winner rounds as Python lists, built once per tree or run.

Seed-stream contract
--------------------
Identities and contender nominations are drawn through the exact per-node
``random.Random`` streams the reference uses (``derive_seed(network_seed,
node_index)``), so both simulators see byte-identical ids and contender
sets.  Crash schedules come from the injector's own
:func:`~repro.faults.injector.crash_schedule`, so both simulators crash the
same nodes at the same rounds.  Walk randomness,
however, comes from one ``numpy`` PCG64 generator seeded with
``derive_seed(network_seed, VECTORIZED_WALK_STREAM)`` -- a stream the
reference never touches.  The two simulators therefore agree on *who runs*
and *who crashes* but sample independent walk trajectories: equivalence is
at the outcome level (winners, classification, metric totals), never at the
per-message level, and trial fingerprints must keep the two apart (see
``repro.exec.fingerprint``).

Fallback rules
--------------
The engine refuses -- via :class:`VectorizedUnsupported` or the static
:func:`vectorized_unsupported_reason` check -- anything it cannot replicate
faithfully: message observers, retained simulations, strict congest mode,
and non-crash fault models.  Callers (``repro.core.runner`` /
``repro.baselines.known_tmix``) fall back to the reference simulator and
record the reason in the outcome's ``simulator`` tag.

Two deliberate approximations, both invisible at the outcome level the
equivalence suite pins: winner notifications are propagated against the
completed walk trees of the phase in which they fire (the reference
interleaves them with in-flight construction), and the heard-winner flag
piggybacked on ordinary messages spreads segment-by-segment rather than
round-interleaved across trees.
"""

from __future__ import annotations

import random
from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Deque, Dict, FrozenSet, List, Optional, Sequence, Set, Tuple

import numpy as np

from ..faults.injector import FAULT_EVENT_KINDS, crash_schedule
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
    "VectorizedUnsupported",
    "vectorized_unsupported_reason",
    "vectorized_or_reference",
    "graph_csr",
    "run_vectorized_election",
    "run_vectorized_known_tmix",
]

#: Stream id of the bulk walk generator (never drawn by the reference).
VECTORIZED_WALK_STREAM = 0xA77A9

_NEVER = 1 << 62


class VectorizedUnsupported(Exception):
    """The vectorized engine cannot faithfully execute this configuration."""


def vectorized_unsupported_reason(
    fault_plan: Optional[FaultPlan] = None,
    observers: Tuple = (),
    keep_simulation: bool = False,
    congest_mode: str = "count",
) -> Optional[str]:
    """Why a trial must run on the reference simulator, or ``None`` if it may not.

    The static half of the fallback contract: anything detectable from the
    call signature alone is rejected here; data-dependent refusals (e.g.
    duplicate contender ids) surface as :class:`VectorizedUnsupported` at
    run time.
    """
    if observers:
        return "message observers require the reference simulator"
    if keep_simulation:
        return "keep_simulation retains per-node transcripts"
    if congest_mode != "count":
        return "strict congest mode requires the reference simulator"
    if fault_plan is not None and not fault_plan.is_empty:
        if not fault_plan.messages.is_empty:
            return "message fault models require the reference simulator"
        if not fault_plan.delays.is_empty:
            return "delay fault models require the reference simulator"
        if not fault_plan.edges.is_empty:
            return "edge fault models require the reference simulator"
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

    Walk tokens are tallied a round at a time (:meth:`record_bulk`), every
    other message by :meth:`_Run.send`, and :meth:`flush` folds the tallies
    into the totals once per phase.  The tally keeps first-seen order, so
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
        counts = bins.tolist()
        for size in np.flatnonzero(bins).tolist():
            key = (kind, size)
            tally[key] = tally.get(key, 0) + counts[size]
        edge_bits = self.edge_bits
        if edge_bits is not None:
            edges, inverse = np.unique(src * self.n + dst, return_inverse=True)
            loads = np.zeros(edges.size, dtype=np.int64)
            np.add.at(loads, inverse, sizes)
            for edge, load in zip(edges.tolist(), loads.tolist()):
                key = (rnd, *divmod(edge, self.n))
                edge_bits[key] = edge_bits.get(key, 0) + load


def _bit_lengths(values: np.ndarray) -> np.ndarray:
    """Vectorized ``int.bit_length`` for positive integers."""
    return np.frexp(values.astype(np.float64))[1].astype(np.int64)


def _runs(sorted_keys: np.ndarray) -> np.ndarray:
    """Start index of every run of equal values in ``sorted_keys``."""
    starts = np.ones(sorted_keys.size, dtype=bool)
    starts[1:] = sorted_keys[1:] != sorted_keys[:-1]
    return np.flatnonzero(starts)


def _forward_maps(move_keys: List[np.ndarray], n: int, trees: int) -> List[Dict[int, List[int]]]:
    """Per-tree forward edges ``{src: [dst, ...]}``, sources and targets
    ascending, from the walk's ``(tree * n + src) * n + dst`` move keys."""
    maps: List[Dict[int, List[int]]] = [{} for _ in range(trees)]
    if not move_keys:
        return maps
    keys = np.concatenate(move_keys)
    keys.sort()
    keys = keys[_runs(keys)]
    heads = keys // n
    dst = (keys % n).tolist()
    starts = _runs(heads)
    ends = starts[1:].tolist() + [keys.size]
    for head, begin, end in zip(heads[starts].tolist(), starts.tolist(), ends):
        tree, src = divmod(head, n)
        maps[tree][src] = dst[begin:end]
    return maps


@dataclass(slots=True)
class _Tree:
    """One retained walk tree, as the winner cascade reads it."""

    parent: List[int]
    fwd: Dict[int, List[int]]
    winner_size: int
    flooded: Set[int] = field(default_factory=set)  # nodes that forwarded winner-down
    sent_up: Set[int] = field(default_factory=set)  # nodes that relayed winner-up


def _convergecast_order(offsets: np.ndarray, L: int) -> Tuple[List[int], List[int]]:
    """One walk tree's converge-cast schedule.

    Returns the tree's non-origin members deepest join offset first, ties by
    node id -- the order their reports go out, in nondecreasing send round --
    and every node's send delay after the segment start, ``max(0, L -
    offset)`` (``-_NEVER`` off the tree and at the origin, whose offset is 0).
    """
    members = np.flatnonzero(offsets > 0)
    offs = offsets[members]
    order = np.lexsort((members, -offs))
    delay = np.full(offsets.size, -_NEVER, dtype=np.int64)
    delay[members] = np.maximum(0, L - offs)
    return members[order].tolist(), delay.tolist()


#: Counter-field widths of a message that carries no counters (COLLECT).
_NO_COUNTERS = (0,)

#: What a converge-cast member holds before any child reported to it.
_NOTHING: Tuple[FrozenSet[int], int, int] = (frozenset(), 0, 0)


@dataclass(slots=True)
class _Contender:
    """Protocol state of one contender (the LeaderElectionNode fields the
    decide rule and the outcome read)."""

    adjacency: Set[int] = field(default_factory=set)  # ids heard through REPORT
    i4: Set[int] = field(default_factory=set)  # ids heard through COLLECT
    distinct: int = 0
    forced_stop: bool = False


class _Run:
    """The state one engine run shares across its phases and segments.

    Setup draws the byte-identical identities and nominations (Algorithm 1)
    and the injector's crash schedule.  :meth:`send` is the one hop rule of
    every message outside the walk.
    """

    # Slots: the per-message paths read these, and CPython's instance-dict reads
    # slow down once an object has more than 30 attributes (this one has 29).
    __slots__ = (
        "n",
        "params",
        "schedule",
        "max_rounds",
        "ids",
        "id_to_contender",
        "state",
        "crash",
        "crash_np",
        "has_faults",
        "wrng",
        "csr",
        "id_bits",
        "walks_per",
        "walk_cap",
        "thresholds",
        "metrics",
        "learn",
        "proxy_for",
        "latest_phase",
        "rules_fired",
        "trees",
        "queue",
        "leaders",
        "phases",
        "last_activity",
        "clock",
        "completed",
        "lost_to_crash",
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

        reason = vectorized_unsupported_reason(fault_plan=fault_plan)
        if reason is not None:
            raise VectorizedUnsupported(reason)
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
        # n ~ 55k, and the engine only ever reads them as Python scalars.
        ids = self.ids = [0] * n
        contender_nodes = []
        for i in range(n):
            rng = random.Random(derive_seed(network_seed, i))
            ids[i] = rng.randint(1, params.id_space(n_eff))
            if rng.random() < params.contender_probability(n_eff):
                contender_nodes.append(i)
        if len({ids[v] for v in contender_nodes}) < len(contender_nodes):
            raise VectorizedUnsupported("duplicate contender identifiers alias their walk trees")
        self.id_to_contender = {ids[v]: v for v in contender_nodes}
        self.state = {v: _Contender() for v in contender_nodes}

        crash_map = crash_schedule(
            fault_plan or FaultPlan(),
            derive_seed(seed, FAULT_SEED_STREAM),
            n,
            schedule.phase_start,
        )
        # Crash rounds twice over: a list for the scalar reads of most
        # segments, an array for the walk's bulk masks.
        self.crash = [crash_map.get(v, _NEVER) for v in range(n)]
        self.crash_np = np.array(self.crash, dtype=np.int64)
        self.has_faults = fault_plan is not None and not fault_plan.is_empty

        self.wrng = np.random.default_rng(derive_seed(network_seed, VECTORIZED_WALK_STREAM))
        self.csr = graph_csr(graph)
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

        # Round each node heard a winner: a list for the scalar reads of the
        # converge-casts and the cascade, copied to an array for each walk.
        self.learn = [_NEVER] * n
        self.proxy_for: List[Set[int]] = [set() for _ in range(n)]
        self.latest_phase: List[Dict[int, int]] = [{} for _ in range(n)]
        self.rules_fired = [False] * n
        # Retained per-(contender node, phase) trees for the winner cascade.
        self.trees: Dict[Tuple[int, int], _Tree] = {}
        self.queue: Deque[Tuple[int, bool, int, _Tree]] = deque()
        self.leaders: List[int] = []
        self.phases = 0  # phases opened; every starter of one started all before it
        self.last_activity = 0
        self.clock = 0
        self.completed = True
        self.lost_to_crash = 0

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

    def send(
        self, kind: str, size: int, r: int, u: int, targets: Sequence[int], knows: bool
    ) -> Sequence[int]:
        """One hop: ``u`` sends a ``size``-bit message to each of ``targets`` in round ``r``.

        Tallies the sends and returns the targets that receive them in round
        ``r + 1``: none past the round cap, which marks the run incomplete,
        and none that have crashed by then, each counted as lost.  A sender
        that ``knows`` of a winner passes that round on to every receiver.
        """
        metrics = self.metrics
        key = (kind, size)
        tally = metrics.tally
        tally[key] = tally.get(key, 0) + len(targets)
        edge_bits = metrics.edge_bits
        if edge_bits is not None:
            for v in targets:
                edge = (r, u, v)
                edge_bits[edge] = edge_bits.get(edge, 0) + size
        a = r + 1
        if a > self.max_rounds:
            self.completed = False
            return ()
        crash = self.crash
        for v in targets:
            if crash[v] <= a:  # rare: copy out the live targets only then
                live = [v for v in targets if crash[v] > a]
                self.lost_to_crash += len(targets) - len(live)
                targets = live
                break
        if knows:
            learn = self.learn
            for v in targets:
                if learn[v] > a:
                    learn[v] = a
        return targets


class _Phase:
    """One guess-and-double phase: its window, its starters and their walk trees.

    Row ``s`` of every table belongs to the tree of ``starters[s]``.
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
        self.fwd: List[Dict[int, List[int]]] = []
        self.parents: List[List[int]] = []
        self.proxy_rows: List[List[int]] = []
        self.proxy_nodes: List[List[int]] = []
        self.schedules: List[Tuple[List[int], List[int]]] = []


def _open_phase(run: _Run, index: int, active: List[int]) -> Optional[_Phase]:
    """Start phase ``index`` for the live ``active`` contenders, or ``None``
    when the round cap or the crashes leave nobody to start it."""
    window = run.schedule.window(index)
    begin = max(1, window.start)
    run.tick(begin)
    if begin > run.max_rounds:
        run.completed = False
        return None
    crash = run.crash
    starters = [v for v in active if crash[v] > begin]
    if not starters:
        return None
    run.phases = index + 1
    for v in starters:
        run.state[v].distinct = 0
    return _Phase(run.n, index, window, starters)


def _walk(run: _Run, ph: _Phase) -> bool:
    """WALK: every starter's lazy walks as token vectors, one CSR gather per round.

    Grows the trees (join offsets, parents, forward-edge move keys) and the
    proxy counts.  Returns ``False`` when the round cap cut the walk short.
    """
    n = run.n
    crash_np = run.crash_np
    indptr, indices, degrees = run.csr
    coins = run.wrng.random
    metrics = run.metrics
    max_rounds = run.max_rounds
    start = ph.window.start
    begin = max(1, start)
    L = ph.window.walk_length
    off_flat = ph.off.reshape(-1)  # views indexed by tree * n + node
    par_flat = ph.par.reshape(-1)
    move_keys = ph.move_keys
    base_bits = run.id_bits + ph.phase_bits + 1
    learn_np = np.array(run.learn, dtype=np.int64)
    owners = np.repeat(np.arange(len(ph.starters), dtype=np.int64), run.walks_per)
    pos = np.repeat(np.asarray(ph.starters, dtype=np.int64), run.walks_per)
    for t in range(1, L + 1):
        r = begin + t - 1
        if r > max_rounds:
            run.completed = False
            return False
        alive_tok = crash_np[pos] > r
        if not alive_tok.all():
            run.tick(r)
            pos = pos[alive_tok]
            owners = owners[alive_tok]
        if pos.size == 0:
            break
        run.act(r)
        move = coins(pos.size) >= 0.5
        move &= degrees[pos] > 0  # tokens on isolated nodes never move
        moving = np.flatnonzero(move)
        staying = np.flatnonzero(~move)
        stay_pos = pos[staying]
        stay_own = owners[staying]
        if moving.size:
            msrc = pos[moving]
            mown = owners[moving]
            degm = degrees[msrc]
            ports = (coins(msrc.size) * degm).astype(np.int64)
            np.minimum(ports, degm - 1, out=ports)
            mdst = indices[indptr[msrc] + ports]
            # One key per (tree, src, dst) move, in lexicographic order;
            # the round's unique keys are also the tree's forward edges.
            key = (mown * n + msrc) * n + mdst
            order = np.argsort(key, kind="stable")
            sorted_key = key[order]
            first = _runs(sorted_key)
            move_keys.append(sorted_key[first])
            counts = np.diff(first, append=sorted_key.size)
            head = order[first]
            g_own = mown[head]
            g_src = msrc[head]
            g_dst = mdst[head]
            sizes = base_bits + counter_bits(t) + _bit_lengths(counts)
            metrics.record_bulk("walk_token", sizes, r, g_src, g_dst)
            if r + 1 > max_rounds:
                run.completed = False
                return False
            g_alive = crash_np[g_dst] > r + 1
            run.lost_to_crash += int((~g_alive).sum())
            g_own = g_own[g_alive]
            g_src = g_src[g_alive]
            g_dst = g_dst[g_alive]
            delivered_tok = crash_np[mdst] > r + 1
            mdst = mdst[delivered_tok]
            mown = mown[delivered_tok]
            if g_dst.size:
                run.act(r + 1)
                flagged = learn_np[g_src] <= r
                if flagged.any():
                    np.minimum.at(learn_np, g_dst[flagged], r + 1)
                # A node joins a tree through its smallest-id sender of the
                # first round a token of that tree reaches it.
                joins = g_own * n + g_dst
                fresh = off_flat[joins] == -1
                if fresh.any():
                    joins = joins[fresh]
                    senders = g_src[fresh]
                    order = np.argsort(joins * n + senders)
                    joins = joins[order]
                    senders = senders[order]
                    first = _runs(joins)
                    off_flat[joins[first]] = max(1, (r + 1) - start)
                    par_flat[joins[first]] = senders[first]
            pos = np.concatenate([stay_pos, mdst])
            owners = np.concatenate([stay_own, mown])
        else:
            pos = stay_pos
            owners = stay_own
        if t == L and pos.size:
            np.add.at(ph.proxies, (owners, pos), 1)
    run.learn[:] = learn_np.tolist()
    return True


def _retain_trees(run: _Run, ph: _Phase) -> None:
    """Keep the phase's walk trees for the exchange segments and the cascade,
    and index every member and proxy under its origin's id for the winner rules."""
    ids = run.ids
    latest_phase = run.latest_phase
    proxy_for = run.proxy_for
    index = ph.index
    ph.fwd = _forward_maps(ph.move_keys, run.n, len(ph.starters))
    ph.parents = ph.par.tolist()
    ph.proxy_rows = ph.proxies.tolist()
    winner_size = 2 * run.id_bits + ph.phase_bits + 1
    for s, v in enumerate(ph.starters):
        idk = ids[v]
        for m in np.flatnonzero(ph.off[s] >= 0).tolist():
            latest_phase[m][idk] = index
        proxy_nodes = np.flatnonzero(ph.proxies[s] > 0).tolist()
        for m in proxy_nodes:
            proxy_for[m].add(idk)
        ph.proxy_nodes.append(proxy_nodes)
        run.trees[(v, index)] = _Tree(ph.parents[s], ph.fwd[s], winner_size)
        ph.schedules.append(_convergecast_order(ph.off[s], ph.window.walk_length))


def _converge_cast(
    run: _Run,
    ph: _Phase,
    s: int,
    begin: int,
    kind: str,
    own: Dict[int, Tuple[Set[int], int, int]],
    widths: Sequence[int],
) -> Tuple[Set[int], int]:
    """One tree's REPORT or COLLECT, starting in round ``begin``.

    Members send deepest first, each once, to their parent: the ids and the
    two counters ``(distinct, proxies)`` heard from their children, merged
    with their ``own`` contribution.  A message is ``IDB + IDB * |ids| +
    phase bits + 1`` bits plus ``widths[c]`` per counter ``c``.  Returns the
    ids and the ``distinct`` count that reached the origin.
    """
    origin = ph.starters[s]
    ranked, delay = ph.schedules[s]
    parents = ph.parents[s]
    crash = run.crash
    learn = run.learn
    send = run.send
    max_rounds = run.max_rounds
    IDB = run.id_bits
    header = IDB + ph.phase_bits + 1
    if ranked:
        run.tick(begin + delay[ranked[-1]])
    held: Dict[int, Tuple[Set[int], int, int]] = {}
    got_ids: Set[int] = set()
    got_distinct = 0
    reached = 0  # latest active round (ranked is in nondecreasing send round)
    for v in ranked:
        r_v = begin + delay[v]
        if r_v > max_rounds:
            run.completed = False
            continue
        if crash[v] <= r_v:
            continue
        if r_v > reached:
            reached = r_v
        ids, distinct, proxies = held.get(v, _NOTHING)
        mine = own.get(v)
        if mine is not None:
            ids = ids | mine[0]
            distinct += mine[1]
            proxies += mine[2]
        knows = learn[v] <= r_v
        if not (ids or distinct or knows):
            continue
        size = header + IDB * len(ids) + widths[distinct] + widths[proxies]
        parent = parents[v]
        if not send(kind, size, r_v, v, (parent,), knows):
            continue
        a = reached = r_v + 1
        if parent == origin:
            got_ids |= ids
            got_distinct += distinct
        elif a <= begin + delay[parent]:
            theirs = held.get(parent)
            held[parent] = (
                (ids, distinct, proxies)
                if theirs is None
                else (theirs[0] | ids, theirs[1] + distinct, theirs[2] + proxies)
            )
    run.act(reached)
    return got_ids, got_distinct


def _report(run: _Run, ph: _Phase) -> None:
    """REPORT: every proxy sends up the other origins it serves, whether it
    holds exactly one token (distinct) and how many (proxies)."""
    ids = run.ids
    proxy_for = run.proxy_for
    begin = ph.window.report_start
    # Both counters (distinct proxies, tokens) are at most the tree's walk
    # count; a counter c is counter_bits(max(1, c)) wide.
    widths = [1] + [c.bit_length() for c in range(1, run.walks_per + 1)]
    for s, origin in enumerate(ph.starters):
        idk = ids[origin]
        counts = ph.proxy_rows[s]
        own = {
            v: ({o for o in proxy_for[v] if o != idk}, int(counts[v] == 1), counts[v])
            for v in ph.proxy_nodes[s]
        }
        got_ids, got_distinct = _converge_cast(run, ph, s, begin, "report", own, widths)
        contender = run.state[origin]
        contender.adjacency |= got_ids
        contender.distinct += got_distinct


def _distribute(run: _Run, ph: _Phase) -> Dict[int, Set[int]]:
    """DISTRIBUTE: every origin floods its adjacency set down its tree.

    Returns, per proxy, the union of the sets it received.
    """
    begin = ph.window.distribute_start
    run.tick(begin)
    received: Dict[int, Set[int]] = {}
    if begin > run.max_rounds:
        run.completed = False
        return received
    crash = run.crash
    learn = run.learn
    send = run.send
    header = run.id_bits + ph.phase_bits + 1
    for s, origin in enumerate(ph.starters):
        if crash[origin] <= begin:
            continue
        run.act(begin)
        i2 = run.state[origin].adjacency
        if not i2:
            continue
        offsets = ph.off[s].tolist()
        counts = ph.proxy_rows[s]
        fwd = ph.fwd[s]
        size = header + run.id_bits * len(i2)
        proxies_reached = {origin} if counts[origin] > 0 else set()
        forwarded = {origin}
        frontier = deque([(begin, origin)])
        reached = 0  # the frontier is in nondecreasing round order
        while frontier:
            t_r, u = frontier.popleft()
            targets = fwd.get(u)
            if not targets:
                continue
            a = t_r + 1
            for target in send("distribute", size, t_r, u, targets, learn[u] <= t_r):
                reached = a
                if offsets[target] >= 0:
                    if counts[target] > 0:
                        proxies_reached.add(target)
                    if target not in forwarded:
                        forwarded.add(target)
                        frontier.append((a, target))
        run.act(reached)
        for target in proxies_reached:
            received.setdefault(target, set()).update(i2)
    return received


def _collect(run: _Run, ph: _Phase, received: Dict[int, Set[int]]) -> None:
    """COLLECT: every proxy sends up the sets DISTRIBUTE brought it."""
    begin = ph.window.collect_start
    for s, origin in enumerate(ph.starters):
        own = {v: (received[v], 0, 0) for v in ph.proxy_nodes[s] if v in received}
        got_ids, _ = _converge_cast(run, ph, s, begin, "collect", own, _NO_COUNTERS)
        run.state[origin].i4 |= got_ids


def _decide(run: _Run, ph: _Phase) -> Optional[List[int]]:
    """DECIDE: each live starter stops, elects itself or walks on.

    Returns the contenders that run the next phase, or ``None`` when the
    round cap falls before the decide round.
    """
    decide_round = ph.window.decide_round
    run.tick(decide_round)
    if decide_round > run.max_rounds:
        run.completed = False
        return None
    crash = run.crash
    learn = run.learn
    ids = run.ids
    proxy_for = run.proxy_for
    intersection, distinctness = run.thresholds
    may_grow = ph.window.walk_length < run.walk_cap
    survivors: List[int] = []
    for s, origin in enumerate(ph.starters):
        if crash[origin] <= decide_round:
            continue
        run.act(decide_round)
        contender = run.state[origin]
        idk = ids[origin]
        count = ph.proxy_rows[s][origin]
        if count > 0:
            contender.adjacency |= {o for o in proxy_for[origin] if o != idk}
            if count == 1:
                contender.distinct += 1
        heard = learn[origin] <= decide_round
        if not (len(contender.adjacency) >= intersection and contender.distinct >= distinctness):
            if heard:
                continue  # stopped on the winner's notification
            if may_grow:
                survivors.append(origin)
                continue
            contender.forced_stop = True
            if not run.params.elect_on_forced_stop:
                continue
        if heard or any(idk < other for other in contender.i4 | contender.adjacency):
            continue
        run.leaders.append(origin)
        learn[origin] = decide_round  # it had not heard of a winner before
        _flood_down(run, run.trees[(origin, ph.index)], origin, decide_round)
    return survivors


# ---------------------------------------------------------------- winner cascade
# A winner message sent in round r is accounted (metrics, activity and the
# receiver's heard-winner round) when sent, and queued for delivery in round
# r + 1.  Events pop in round order and every send lands one round after its
# pop, so the FIFO stays sorted by round and pops in (round, send order) --
# the order of a (round, sequence) heap.  The cascade never reads ``learn``,
# and the decide segment that starts it reads it only at the decide round,
# before any delivery lands.


def _enqueue(run: _Run, a: int, down: bool, targets: Sequence[int], tree: _Tree) -> None:
    queue = run.queue
    assert not queue or queue[-1][0] <= a, "winner cascade out of round order"
    run.act(a)
    for target in targets:
        queue.append((a, down, target, tree))


def _flood_down(run: _Run, tree: _Tree, node: int, r: int) -> None:
    """Forward winner-down over ``node``'s forward edges of ``tree``."""
    if node in tree.flooded:
        return
    tree.flooded.add(node)
    targets = tree.fwd.get(node)
    if targets:
        delivered = run.send("winner_down", tree.winner_size, r, node, targets, True)
        if delivered:
            _enqueue(run, r + 1, True, delivered, tree)


def _send_up(run: _Run, tree: _Tree, node: int, r: int) -> None:
    """Relay winner-up one hop towards the origin of ``tree``."""
    parent = tree.parent[node]
    if parent < 0 or node in tree.sent_up:
        return
    tree.sent_up.add(node)
    delivered = run.send("winner_up", tree.winner_size, r, node, (parent,), True)
    if delivered:
        _enqueue(run, r + 1, False, delivered, tree)


def _fire_rules(run: _Run, v: int, r: int) -> None:
    """Algorithm 2 lines 6-7 at ``v`` (reference _fire_winner_rules)."""
    latest_phase = run.latest_phase[v]
    own_id = run.ids[v]
    # Rule 6: a proxy notifies every contender it serves, over that
    # contender's latest tree (every proxy of a tree is a member of it).
    for origin_id in sorted(run.proxy_for[v]):
        if origin_id != own_id:
            origin = run.id_to_contender[origin_id]
            _send_up(run, run.trees[(origin, latest_phase[origin_id])], v, r)
    # Rule 7: a contender notifies all of its proxies over its latest tree.
    if v in run.state:
        _flood_down(run, run.trees[(v, latest_phase[own_id])], v, r)


def _cascade(run: _Run) -> None:
    """WINNER: deliver the queued notifications; each receiver fires its
    winner rules the first time one reaches it."""
    queue = run.queue
    fired = run.rules_fired
    while queue:
        r, down, node, tree = queue.popleft()
        if down:
            _flood_down(run, tree, node, r)
        else:  # winner-up travels on until the origin, which has no parent
            _send_up(run, tree, node, r)
        if not fired[node]:
            fired[node] = True
            _fire_rules(run, node, r)


def _outcome(run: _Run):
    """The run's :class:`~repro.core.result.ElectionOutcome`."""
    from ..core.result import ElectionOutcome

    metrics = run.metrics
    metrics.flush()
    if metrics.capacity_words is not None:
        capacity_bits = metrics.capacity_words * metrics.word_bits
        for load in metrics.edge_bits.values():
            metrics.record_edge_load(load, capacity_bits)
    crashed = [v for v, rnd in enumerate(run.crash) if rnd <= run.clock]
    fault_events = None
    if run.has_faults:
        fault_events = dict.fromkeys(FAULT_EVENT_KINDS, 0)
        fault_events["lost_to_crash"] = run.lost_to_crash
        fault_events["crashed_nodes"] = len(crashed)
    return ElectionOutcome(
        num_nodes=run.n,
        leaders=sorted(run.leaders),
        contenders=list(run.state),
        metrics=metrics.finalize(run.last_activity, run.completed, fault_events),
        forced_stop=any(c.forced_stop for c in run.state.values()),
        max_phases=run.phases,
        final_walk_length=run.schedule.window(run.phases - 1).walk_length if run.phases else 0,
        simulation=None,
        crashed_nodes=crashed,
        simulator="vectorized",
    )


def _simulate(run: _Run):
    """The guess-and-double phase loop over the segment functions."""
    # Resolved once per run: tracing is write-only (bulk per-phase counters),
    # so the engine's seed streams and outputs are identical traced or not.
    tracer = current_tracer()
    active = [v for v in run.state if run.crash[v] > 0]
    if tracer.enabled:
        tracer.event("vec.run_started", n=run.n, contenders=len(active), faulty=run.has_faults)
    index = 0
    while active:
        ph = _open_phase(run, index, active)
        if ph is None or not _walk(run, ph):
            break
        _retain_trees(run, ph)
        _report(run, ph)
        _collect(run, ph, _distribute(run, ph))
        survivors = _decide(run, ph)
        if survivors is None:
            break
        _cascade(run)
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
