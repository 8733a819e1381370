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

Cost model: the walk's per-round work is array operations, and the trees'
forward edges are deduplicated as 1-D ``int64`` keys
``(tree * n + src) * n + dst``.  Converge-cast and cascade messages are
tallied per ``(kind, size_bits)`` and folded into the metric totals once
per phase.  The winner cascade is a round-ordered FIFO, and the
converge-casts read per-tree rows, crash rounds and heard-winner rounds as
Python lists, built once per tree or run.

Seed-stream contract
--------------------
Identities and contender nominations are drawn through the exact per-node
``random.Random`` streams the reference uses (``derive_seed(network_seed,
node_index)``), so both simulators see byte-identical ids and contender
sets.  Crash faults replicate the injector's stream chain, so both
simulators crash the same nodes at the same rounds.  Walk randomness,
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
from typing import Deque, Dict, List, Optional, Sequence, Set, Tuple

import numpy as np

from ..faults.plan import FaultPlan
from ..graphs.topology import Graph
from ..obs.tracer import current_tracer
from .errors import ProtocolError
from .harness import FAULT_SEED_STREAM
from .message import counter_bits, id_bits, word_bits_for
from .metrics import RunMetrics
from .rng import derive_seed, fresh_master_seed

__all__ = [
    "VECTORIZED_WALK_STREAM",
    "VectorizedUnsupported",
    "vectorized_unsupported_reason",
    "graph_csr",
    "run_vectorized_election",
    "run_vectorized_known_tmix",
]

#: Stream id of the bulk walk generator (never drawn by the reference).
VECTORIZED_WALK_STREAM = 0xA77A9

_NEVER = 1 << 62

_FAULT_EVENT_KINDS = (
    "dropped",
    "duplicated",
    "delayed",
    "delay_rounds",
    "edge_dropped",
    "lost_to_crash",
)


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


def graph_csr(graph: Graph) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """CSR neighbour table ``(indptr, indices, degrees)`` of ``graph``.

    Memoised on the graph instance and keyed by its mutation counter, the
    same invalidation convention as the edge-digest and mixing-time caches.
    Neighbour lists are sorted, matching ``Graph.neighbors``.
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


def _crash_rounds(
    plan: Optional[FaultPlan],
    seed: int,
    n: int,
    phase_start_of,
) -> Dict[int, int]:
    """Replicate the injector's crash resolution byte-for-byte."""
    if plan is None or plan.is_empty or plan.crashes.is_empty:
        return {}
    crashes = plan.crashes
    base = derive_seed(derive_seed(seed, FAULT_SEED_STREAM), plan.seed_stream())
    crash_rng = random.Random(derive_seed(base, 2))
    if crashes.targets:
        targets = list(crashes.targets)
        for node in targets:
            if not 0 <= node < n:
                raise ValueError(
                    "crash target %d outside the %d-node network" % (node, n)
                )
    else:
        if crashes.count > n:
            raise ValueError("cannot crash %d of %d nodes" % (crashes.count, n))
        targets = sorted(crash_rng.sample(range(n), crashes.count))
    if crashes.at_round is not None:
        round_number = crashes.at_round
    elif crashes.at_phase is not None:
        round_number = phase_start_of(crashes.at_phase)
    else:
        round_number = 0
    return {node: round_number for node in targets}


class _Metrics:
    """Bulk-friendly stand-in for the reference MetricsCollector.

    Walk tokens arrive a round at a time as arrays (:meth:`record_bulk`).
    Every other send is tallied per ``(kind, size_bits)`` by :meth:`record`
    and folded into the totals by :meth:`flush`, once per phase; the tally
    keeps first-seen order, so ``by_kind`` gains its keys in the order the
    per-message accounting would give them.
    """

    def __init__(self, word_bits: int, n: int, track_edges: bool) -> None:
        self.word_bits = word_bits
        self.n = n
        self.messages = 0
        self.message_units = 0
        self.bits = 0
        self.by_kind: Dict[str, int] = {}
        self.units_by_kind: Dict[str, int] = {}
        self.tally: Dict[Tuple[str, int], int] = {}
        self.edge_bits: Optional[Dict[Tuple[int, int, int], int]] = {} if track_edges else None

    def _add(self, kind: str, count: int, units: int, bits: int) -> None:
        self.messages += count
        self.message_units += units
        self.bits += bits
        self.by_kind[kind] = self.by_kind.get(kind, 0) + count
        self.units_by_kind[kind] = self.units_by_kind.get(kind, 0) + units

    def record(self, kind: str, size_bits: int, rnd: int, u: int, targets: Sequence[int]) -> None:
        """Tally one ``size_bits`` message from ``u`` to each of ``targets``."""
        key = (kind, size_bits)
        self.tally[key] = self.tally.get(key, 0) + len(targets)
        edge_bits = self.edge_bits
        if edge_bits is not None:
            for v in targets:
                edge = (rnd, u, v)
                edge_bits[edge] = edge_bits.get(edge, 0) + size_bits

    def flush(self) -> None:
        """Fold the pending tallies into the totals."""
        for (kind, size), count in self.tally.items():
            self._add(kind, count, max(1, -(-size // self.word_bits)) * count, size * count)
        self.tally.clear()

    def record_bulk(
        self,
        kind: str,
        sizes: np.ndarray,
        rnd: int,
        src: np.ndarray,
        dst: np.ndarray,
    ) -> None:
        """Account one round's messages: ``sizes[i]`` bits from ``src[i]``
        to ``dst[i]``, with the loads summed per edge before they are kept."""
        units = np.maximum(1, (sizes + self.word_bits - 1) // self.word_bits)
        self._add(kind, int(sizes.size), int(units.sum()), int(sizes.sum()))
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


class _Tree:
    """One retained walk tree, as the winner cascade reads it."""

    __slots__ = ("origin", "parent", "fwd", "winner_size", "flooded", "sent_up")

    def __init__(
        self, origin: int, parent: List[int], fwd: Dict[int, List[int]], winner_size: int
    ) -> None:
        self.origin = origin
        self.parent = parent
        self.fwd = fwd
        self.winner_size = winner_size
        self.flooded: Set[int] = set()  # nodes that forwarded winner-down
        self.sent_up: Set[int] = set()  # nodes that relayed winner-up


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


def _run_engine(
    graph: Graph,
    params,
    seed: Optional[int],
    known_n: Optional[int],
    assumed_n: Optional[int],
    max_rounds: int,
    edge_capacity_words: Optional[int],
    fault_plan: Optional[FaultPlan],
    network_stream: int,
    decide_rule: str,
):
    from ..core.result import ElectionOutcome
    from ..core.schedule import PhaseSchedule

    n = graph.num_nodes
    if seed is None:
        seed = fresh_master_seed()
    network_seed = derive_seed(seed, network_stream)
    resolved = n if known_n == -1 else known_n
    n_eff = resolved if resolved is not None else assumed_n
    if n_eff is None:
        raise ProtocolError(
            "the algorithm requires knowledge of n (pass assumed_n to override)"
        )

    schedule = PhaseSchedule(params)
    crash_map = _crash_rounds(
        fault_plan, seed, n, lambda index: schedule.window(index).start
    )
    # Crash rounds twice over: an array for the walk's bulk masks, a list for
    # the scalar reads of the converge-casts and the cascade.
    crash_np = np.full(n, _NEVER, dtype=np.int64)
    for node, rnd in crash_map.items():
        crash_np[node] = rnd
    crash = crash_np.tolist()
    has_faults = fault_plan is not None and not fault_plan.is_empty

    # Algorithm 1: byte-identical identities and nominations.  Identifiers
    # live in a plain list -- id_space is n^4 and overflows int64 past
    # n ~ 55k, and the engine only ever reads them as Python scalars.
    ids: List[int] = [0] * n
    contender = [False] * n
    for i in range(n):
        rng = random.Random(derive_seed(network_seed, i))
        ids[i] = rng.randint(1, params.id_space(n_eff))
        contender[i] = rng.random() < params.contender_probability(n_eff)
    contender_nodes = [v for v in range(n) if contender[v]]
    if len({ids[v] for v in contender_nodes}) < len(contender_nodes):
        raise VectorizedUnsupported(
            "duplicate contender identifiers alias their walk trees"
        )
    id_to_contender = {ids[v]: v for v in contender_nodes}

    wrng = np.random.Generator(
        np.random.PCG64(derive_seed(network_seed, VECTORIZED_WALK_STREAM))
    )
    indptr, indices, degrees = graph_csr(graph)
    WB = word_bits_for(n)
    IDB = id_bits(n_eff)
    metrics = _Metrics(WB, n, edge_capacity_words is not None)
    record = metrics.record
    walks_per = params.num_walks(n_eff)

    # Round each node heard a winner: a list for the scalar reads of the
    # converge-casts and the cascade, copied to an array for each walk.
    learn = [_NEVER] * n
    proxy_for: List[Set[int]] = [set() for _ in range(n)]
    latest_phase: List[Dict[int, int]] = [{} for _ in range(n)]
    rules_fired = [False] * n

    # Per-contender protocol state (mirrors LeaderElectionNode fields).
    state = {
        v: {
            "stopped": False,
            "stopped_on_winner": False,
            "forced_stop": False,
            "leader": False,
            "phases": 0,
            "final_walk_length": 0,
            "current_phase": -1,
            "adjacency": set(),
            "i4": set(),
            "distinct": 0,
            "sat_int": False,
            "sat_dis": False,
        }
        for v in contender_nodes
    }

    # Retained per-(contender node, phase) trees for the winner cascade.
    trees: Dict[Tuple[int, int], _Tree] = {}

    last_activity = 0
    clock = 0
    completed = True
    lost_to_crash = 0
    leaders: List[int] = []

    def act(r: int) -> None:
        nonlocal last_activity, clock
        if r > last_activity:
            last_activity = r
        if r > clock:
            clock = r

    def tick(r: int) -> None:
        nonlocal clock
        if r > clock:
            clock = min(r, max_rounds)

    # ------------------------------------------------------------ winner cascade
    # A winner message sent in round r is accounted (metrics, activity and
    # the receiver's heard-winner round) when sent, and queued for delivery
    # in round r + 1.  Events pop in round order and every send lands one
    # round after its pop, so the FIFO stays sorted by round and pops in
    # (round, send order) -- the order of a (round, sequence) heap.  The
    # cascade never reads ``learn``, and the decide loop that starts it
    # reads it only at the decide round, before any delivery lands.
    queue: Deque[Tuple[int, bool, int, _Tree]] = deque()

    def flood_down(tree: _Tree, node: int, r: int) -> None:
        """Forward winner-down over ``node``'s forward edges of ``tree``."""
        nonlocal completed, lost_to_crash
        if node in tree.flooded:
            return
        tree.flooded.add(node)
        targets = tree.fwd.get(node)
        if not targets:
            return
        record("winner_down", tree.winner_size, r, node, targets)
        a = r + 1
        if a > max_rounds:
            completed = False
            return
        assert not queue or queue[-1][0] <= a, "winner cascade out of round order"
        delivered = False
        for target in targets:
            if crash[target] <= a:
                if has_faults:
                    lost_to_crash += 1
                continue
            delivered = True
            if learn[target] > a:
                learn[target] = a
            queue.append((a, True, target, tree))
        if delivered:
            act(a)

    def send_up(tree: _Tree, node: int, r: int) -> None:
        """Relay winner-up one hop towards the origin of ``tree``."""
        nonlocal completed, lost_to_crash
        parent = tree.parent[node]
        if parent < 0 or node in tree.sent_up:
            return
        tree.sent_up.add(node)
        record("winner_up", tree.winner_size, r, node, (parent,))
        a = r + 1
        if a > max_rounds:
            completed = False
            return
        if crash[parent] <= a:
            if has_faults:
                lost_to_crash += 1
            return
        act(a)
        if learn[parent] > a:
            learn[parent] = a
        assert not queue or queue[-1][0] <= a, "winner cascade out of round order"
        queue.append((a, False, parent, tree))

    def fire_rules(v: int, r: int) -> None:
        """Algorithm 2 lines 6-7, once per node (reference _fire_winner_rules)."""
        if rules_fired[v]:
            return
        rules_fired[v] = True
        # Rule 6: a proxy notifies every contender it serves.
        for origin_id in sorted(proxy_for[v]):
            if origin_id == ids[v]:
                continue
            phase = latest_phase[v].get(origin_id)
            if phase is None:
                continue
            origin = id_to_contender.get(origin_id)
            if origin is None:
                continue
            tree = trees.get((origin, phase))
            if tree is not None:
                send_up(tree, v, r)
        # Rule 7: a contender notifies all of its proxies.
        if contender[v]:
            tree = trees.get((v, state[v]["current_phase"]))
            if tree is not None:
                flood_down(tree, v, r)

    def drain_events() -> None:
        while queue:
            r, down, node, tree = queue.popleft()
            if down:
                flood_down(tree, node, r)
            elif node != tree.origin:  # winner-up still travelling
                send_up(tree, node, r)
            fire_rules(node, r)

    # ----------------------------------------------------------------- phases
    active = [v for v in contender_nodes if crash[v] > 0]
    phase = 0
    max_walk_cap = params.walk_length_cap(n_eff)
    # Resolved once per run: tracing is write-only (bulk per-phase counters),
    # so the engine's seed streams and outputs are identical traced or not.
    tracer = current_tracer()
    traced = tracer.enabled
    if traced:
        tracer.event(
            "vec.run_started", n=n, contenders=len(active), faulty=has_faults
        )
    while active:
        window = schedule.window(phase)
        begin = max(1, window.start)
        tick(begin)
        if begin > max_rounds:
            completed = False
            break
        starters = [v for v in active if crash[v] > begin]
        active = starters
        if not starters:
            break
        L = window.walk_length
        start = window.start
        report_start = window.report_start
        distribute_start = window.distribute_start
        collect_start = window.collect_start
        decide_round = window.decide_round

        S = len(starters)
        starters_arr = np.asarray(starters, dtype=np.int64)
        off = np.full((S, n), -1, dtype=np.int64)
        par = np.full((S, n), -1, dtype=np.int64)
        proxies = np.zeros((S, n), dtype=np.int64)
        off[np.arange(S), starters_arr] = 0
        off_flat = off.reshape(-1)  # views indexed by tree * n + node
        par_flat = par.reshape(-1)
        move_keys: List[np.ndarray] = []  # each round's unique move keys

        for s, v in enumerate(starters):
            st = state[v]
            st["phases"] += 1
            st["final_walk_length"] = L
            st["current_phase"] = phase
            st["distinct"] = 0
            latest_phase[v][ids[v]] = phase

        # ---------------------------------------------------- WALK (vectorized)
        learn_np = np.array(learn, dtype=np.int64)
        phase_bits = counter_bits(max(1, phase))
        owners = np.repeat(np.arange(S, dtype=np.int64), walks_per)
        pos = np.repeat(starters_arr, walks_per)
        cap_hit_mid_walk = False
        for t in range(1, L + 1):
            r = begin + t - 1
            if r > max_rounds:
                completed = False
                cap_hit_mid_walk = True
                pos = pos[:0]
                owners = owners[:0]
                break
            alive_tok = crash_np[pos] > r
            if not alive_tok.all():
                tick(r)
                pos = pos[alive_tok]
                owners = owners[alive_tok]
            if pos.size == 0:
                break
            act(r)
            move = wrng.random(pos.size) >= 0.5
            move &= degrees[pos] > 0  # tokens on isolated nodes never move
            moving = np.flatnonzero(move)
            staying = np.flatnonzero(~move)
            stay_pos = pos[staying]
            stay_own = owners[staying]
            if moving.size:
                msrc = pos[moving]
                mown = owners[moving]
                degm = degrees[msrc]
                ports = (wrng.random(msrc.size) * degm).astype(np.int64)
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
                sizes = IDB + counter_bits(t) + phase_bits + 1 + _bit_lengths(counts)
                metrics.record_bulk("walk_token", sizes, r, g_src, g_dst)
                if r + 1 > max_rounds:
                    completed = False
                    cap_hit_mid_walk = True
                    mdst = mdst[:0]
                    mown = mown[:0]
                else:
                    g_alive = crash_np[g_dst] > r + 1
                    lost_to_crash += int((~g_alive).sum())
                    g_own = g_own[g_alive]
                    g_src = g_src[g_alive]
                    g_dst = g_dst[g_alive]
                    delivered_tok = crash_np[mdst] > r + 1
                    mdst = mdst[delivered_tok]
                    mown = mown[delivered_tok]
                    if g_dst.size:
                        act(r + 1)
                        flagged = learn_np[g_src] <= r
                        if flagged.any():
                            np.minimum.at(learn_np, g_dst[flagged], r + 1)
                        # A node joins a tree through its smallest-id sender
                        # of the first round a token of that tree reaches it.
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
            if t == L:
                if pos.size:
                    np.add.at(proxies, (owners, pos), 1)
                pos = pos[:0]
                owners = owners[:0]
                break
            if cap_hit_mid_walk:
                break
        learn[:] = learn_np.tolist()

        # Tree bookkeeping shared by the exchange segments and the cascade.
        fwd_maps = _forward_maps(move_keys, n, S)
        winner_size = 2 * IDB + phase_bits + 1
        parent_rows = par.tolist()
        proxy_rows = proxies.tolist()
        schedules: List[Tuple[List[int], List[int]]] = []
        for s, v in enumerate(starters):
            idk = ids[v]
            for m in np.flatnonzero(off[s] >= 0).tolist():
                latest_phase[m][idk] = phase
            for m in np.flatnonzero(proxies[s] > 0).tolist():
                proxy_for[m].add(idk)
            trees[(v, phase)] = _Tree(v, parent_rows[s], fwd_maps[s], winner_size)
            schedules.append(_convergecast_order(off[s], L))

        if cap_hit_mid_walk:
            break

        # ------------------------------------------------------------- REPORT
        for s, origin in enumerate(starters):
            idk = ids[origin]
            ranked, delay = schedules[s]
            if ranked:
                tick(report_start + delay[ranked[-1]])
            counts_of = proxy_rows[s]
            parents = parent_rows[s]
            buf_ids: Dict[int, Set[int]] = {}
            buf_distinct: Dict[int, int] = {}
            buf_proxies: Dict[int, int] = {}
            st = state[origin]
            reached = 0  # latest active round (ranked is in nondecreasing send round)
            for v in ranked:
                r_v = report_start + delay[v]
                if r_v > max_rounds:
                    completed = False
                    continue
                if crash[v] <= r_v:
                    continue
                if r_v > reached:
                    reached = r_v
                v_ids = buf_ids.get(v, set())
                v_distinct = buf_distinct.get(v, 0)
                v_proxies = buf_proxies.get(v, 0)
                count = counts_of[v]
                if count > 0:
                    v_ids |= {o for o in proxy_for[v] if o != idk}
                    if count == 1:
                        v_distinct += 1
                    v_proxies += count
                v_knows = learn[v] <= r_v
                if not v_ids and v_distinct == 0 and not v_knows:
                    continue
                # counter_bits(max(1, c)) for the counters c >= 0
                size = (
                    IDB
                    + len(v_ids) * IDB
                    + (v_distinct or 1).bit_length()
                    + (v_proxies or 1).bit_length()
                    + phase_bits
                    + 1
                )
                parent = parents[v]
                record("report", size, r_v, v, (parent,))
                a = r_v + 1
                if a > max_rounds:
                    completed = False
                    continue
                if crash[parent] <= a:
                    if has_faults:
                        lost_to_crash += 1
                    continue
                reached = a
                if v_knows and learn[parent] > a:
                    learn[parent] = a
                if parent == origin:
                    st["adjacency"] |= v_ids
                    st["distinct"] += v_distinct
                elif a <= report_start + delay[parent]:
                    buf_ids.setdefault(parent, set()).update(v_ids)
                    buf_distinct[parent] = buf_distinct.get(parent, 0) + v_distinct
                    buf_proxies[parent] = buf_proxies.get(parent, 0) + v_proxies
            act(reached)

        # --------------------------------------------------------- DISTRIBUTE
        i2_acc: Dict[int, Set[int]] = {}
        tick(distribute_start)
        if distribute_start > max_rounds:
            completed = False
        for s, origin in enumerate(starters if distribute_start <= max_rounds else ()):
            if crash[origin] <= distribute_start:
                continue
            act(distribute_start)
            i2 = set(state[origin]["adjacency"])
            if not i2:
                continue
            offsets = off[s].tolist()
            counts_of = proxy_rows[s]
            size = IDB + len(i2) * IDB + phase_bits + 1
            fwd = fwd_maps[s]
            proxies_reached = {origin} if counts_of[origin] > 0 else set()
            forwarded = {origin}
            frontier = deque([(distribute_start, origin)])
            reached = 0
            while frontier:
                t_r, u = frontier.popleft()
                targets = fwd.get(u)
                if not targets:
                    continue
                u_knows = learn[u] <= t_r
                record("distribute", size, t_r, u, targets)
                a = t_r + 1
                if a > max_rounds:
                    completed = False
                    continue
                for target in targets:
                    if crash[target] <= a:
                        if has_faults:
                            lost_to_crash += 1
                        continue
                    reached = a  # the frontier is in nondecreasing round order
                    if u_knows and learn[target] > a:
                        learn[target] = a
                    if offsets[target] >= 0:
                        if counts_of[target] > 0:
                            proxies_reached.add(target)
                        if target not in forwarded:
                            forwarded.add(target)
                            frontier.append((a, target))
            act(reached)
            for target in proxies_reached:
                i2_acc.setdefault(target, set()).update(i2)

        # ------------------------------------------------------------ COLLECT
        for s, origin in enumerate(starters):
            ranked, delay = schedules[s]
            if ranked:
                tick(collect_start + delay[ranked[-1]])
            counts_of = proxy_rows[s]
            parents = parent_rows[s]
            cbuf: Dict[int, Set[int]] = {}
            st = state[origin]
            reached = 0  # latest active round, as in REPORT
            for v in ranked:
                c_v = collect_start + delay[v]
                if c_v > max_rounds:
                    completed = False
                    continue
                if crash[v] <= c_v:
                    continue
                if c_v > reached:
                    reached = c_v
                payload = cbuf.get(v, set())
                if counts_of[v] > 0:
                    payload = payload | i2_acc.get(v, set())
                v_knows = learn[v] <= c_v
                if not payload and not v_knows:
                    continue
                size = IDB + len(payload) * IDB + phase_bits + 1
                parent = parents[v]
                record("collect", size, c_v, v, (parent,))
                a = c_v + 1
                if a > max_rounds:
                    completed = False
                    continue
                if crash[parent] <= a:
                    if has_faults:
                        lost_to_crash += 1
                    continue
                reached = a
                if v_knows and learn[parent] > a:
                    learn[parent] = a
                if parent == origin:
                    st["i4"] |= payload
                elif a <= collect_start + delay[parent]:
                    cbuf.setdefault(parent, set()).update(payload)
            act(reached)

        # ------------------------------------------------------------- DECIDE
        tick(decide_round)
        if decide_round > max_rounds:
            completed = False
            break
        survivors: List[int] = []
        for s, origin in enumerate(starters):
            if crash[origin] <= decide_round:
                continue
            act(decide_round)
            st = state[origin]
            idk = ids[origin]
            count = proxy_rows[s][origin]
            if count > 0:
                own_ids = {o for o in proxy_for[origin] if o != idk}
                st["adjacency"] |= own_ids
                if count == 1:
                    st["distinct"] += 1
            heard = learn[origin] <= decide_round
            if decide_rule == "known_tmix":
                st["stopped"] = True
                st["sat_int"] = True
                st["sat_dis"] = True
                competitors = st["i4"] | st["adjacency"]
                if all(idk >= other for other in competitors) and not heard:
                    st["leader"] = True
                    leaders.append(origin)
                    if learn[origin] > decide_round:
                        learn[origin] = decide_round
                    flood_down(trees[(origin, phase)], origin, decide_round)
                continue
            adjacency = len(st["adjacency"] - {idk})
            intersection_ok = adjacency >= params.intersection_threshold(n_eff)
            distinctness_ok = st["distinct"] >= params.distinctness_threshold(n_eff)
            st["sat_int"] = intersection_ok
            st["sat_dis"] = distinctness_ok
            hit_cap = L >= max_walk_cap
            if heard and not (intersection_ok and distinctness_ok):
                st["stopped"] = True
                st["stopped_on_winner"] = True
                continue
            if not (intersection_ok and distinctness_ok) and not hit_cap:
                survivors.append(origin)
                continue
            st["stopped"] = True
            st["forced_stop"] = hit_cap and not (intersection_ok and distinctness_ok)
            may_elect = (intersection_ok and distinctness_ok) or (
                st["forced_stop"] and params.elect_on_forced_stop
            )
            competitors = st["i4"] | st["adjacency"]
            if may_elect and all(idk >= other for other in competitors) and not heard:
                st["leader"] = True
                leaders.append(origin)
                if learn[origin] > decide_round:
                    learn[origin] = decide_round
                flood_down(trees[(origin, phase)], origin, decide_round)

        drain_events()
        metrics.flush()
        if traced:
            tracer.event(
                "vec.phase",
                phase=phase,
                starters=S,
                walk_length=int(L),
                survivors=len(survivors),
                leaders=len(leaders),
                messages=metrics.messages,
                message_units=metrics.message_units,
            )
        if decide_rule == "known_tmix":
            active = []
            break
        active = survivors
        phase += 1
    metrics.flush()

    # -------------------------------------------------------------- outcome
    max_edge_bits = 0
    congestion_events = 0
    if metrics.edge_bits is not None and edge_capacity_words is not None:
        capacity_bits = edge_capacity_words * WB
        for load in metrics.edge_bits.values():
            if load > max_edge_bits:
                max_edge_bits = load
            if load > capacity_bits:
                congestion_events += 1
    fault_events: Dict[str, int] = {}
    crashed_list: List[int] = []
    if has_faults:
        crashed_list = sorted(
            node for node, rnd in crash_map.items() if rnd <= clock
        )
        fault_events = {kind: 0 for kind in _FAULT_EVENT_KINDS}
        fault_events["lost_to_crash"] = lost_to_crash
        fault_events["crashed_nodes"] = len(crashed_list)
    run_metrics = RunMetrics(
        rounds=last_activity,
        messages=metrics.messages,
        message_units=metrics.message_units,
        bits=metrics.bits,
        messages_by_kind=dict(metrics.by_kind),
        units_by_kind=dict(metrics.units_by_kind),
        max_edge_bits_in_round=max_edge_bits,
        congestion_events=congestion_events,
        completed=completed,
        fault_events=fault_events,
    )
    forced = any(state[v]["forced_stop"] for v in contender_nodes)
    max_phases = max((state[v]["phases"] for v in contender_nodes), default=0)
    final_walk = max(
        (state[v]["final_walk_length"] for v in contender_nodes), default=0
    )
    return ElectionOutcome(
        num_nodes=n,
        leaders=sorted(leaders),
        contenders=contender_nodes,
        metrics=run_metrics,
        forced_stop=bool(forced),
        max_phases=int(max_phases),
        final_walk_length=int(final_walk),
        simulation=None,
        crashed_nodes=crashed_list,
        simulator="vectorized",
    )


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
    """
    from ..core.params import DEFAULT_PARAMETERS

    if params is None:
        params = DEFAULT_PARAMETERS
    reason = vectorized_unsupported_reason(fault_plan=fault_plan)
    if reason is not None:
        raise VectorizedUnsupported(reason)
    return _run_engine(
        graph,
        params,
        seed,
        known_n,
        assumed_n,
        max_rounds,
        edge_capacity_words,
        fault_plan,
        network_stream=0xA11CE,
        decide_rule="election",
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

    Pins the walk length to ``max(1, round(safety_factor * mixing_time))``
    and runs one oracle-length phase under the [25] decision rule, on the
    baseline's historical network stream (``0x42``).
    """
    from ..core.params import DEFAULT_PARAMETERS

    if params is None:
        params = DEFAULT_PARAMETERS
    reason = vectorized_unsupported_reason(fault_plan=fault_plan)
    if reason is not None:
        raise VectorizedUnsupported(reason)
    walk_length = max(1, round(safety_factor * mixing_time))
    pinned = params.with_overrides(initial_walk_length=walk_length)
    return _run_engine(
        graph,
        pinned,
        seed,
        -1,
        None,
        max_rounds,
        None,
        fault_plan,
        network_stream=0x42,
        decide_rule="known_tmix",
    )
