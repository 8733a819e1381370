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

Cost model: one engine run is a *batch* of trials that share a shape
(:class:`VectorizedTrial`: node count, assumed ``n``, parameters, decide
rule, round cap, edge capacity), run as one phase loop over the disjoint
union of their graphs -- :func:`run_vectorized_batch`; a single trial is a
batch of one, and each trial's slot of the batch is its final
:class:`~repro.core.result.TrialOutcome`, the reference election's shape
tagged ``extras["simulator"] = "vectorized"``.  Small trials cost mostly
per-call Python overhead, which a batch pays once for all its trials.  The
phase loop (:func:`_simulate`) calls one function per protocol segment --
:func:`_walk`, :func:`_report`, :func:`_distribute`, :func:`_collect`,
:func:`_decide` and :func:`_cascade` -- on one explicit run state,
:class:`_Run`, and a :class:`_Phase` per phase.  Trial ``t``'s node ``v`` is
batch node ``t * n + v``; the CSRs of the trials follow one another.  Every
segment is a round-synchronous array program that advances all of a phase's
trees, of every trial, at once over flattened ``tree * n + node`` rows, with
each trial's trees consecutive (``(trial * S + tree) * n + node`` when every
trial starts ``S``).  Every message of every segment goes through one bulk
hop rule, :meth:`_Run.hop`: it keeps a round's sends for the per-trial
tallies, applies the round cap and the fault plans' message adversary
(:class:`_Channel`: edge removal, drop, duplicate, delay), drops and counts
crash losses, lowers heard-winner rounds and returns each message's arrival
round and copy count.  REPORT and COLLECT are one converge-cast routine
(:func:`_converge_cast`) that loops over the distinct send rounds;
DISTRIBUTE and the winner cascade are floods, bucketed by arrival round,
over a CSR of the trees' forward edges (deduplicated from the walk's
``(tree * n + src) * n + dst`` move keys).  Id sets are packed bitmasks over
each trial's contenders, indexed by id rank.  What stays per trial: its
clock, last active round, completion flag, phase count, fault events and
message tallies (summed per trial once per phase); a trial that stops -- no
survivors, or the round cap -- leaves the batch where it would stop alone.

A WALK, REPORT or COLLECT segment runs *still* (:func:`_still`) when nothing
can act between its rounds: the batch has no channel and the segment's last
message arrives by its end and by the round cap.  Every message then
arrives, once, in the round after it is sent, so nothing a round does
changes what a later round sends, and the per-round work of the hop rule
can go.  A converge-cast also needs nobody in the phase's trials to have
heard of a winner, since knowing makes a member send; a walk's moves never
read that flag, so a walk runs still whoever has heard.  The still walk
(:func:`_walk_still`) keeps only the coins, the moves (:func:`_move`, shared
with the general walk) and the crash filters round by round, and settles
the moves' messages, tallies, tree joins and heard-winner flags in chunks
of rounds (:func:`_settle_moves`); a still converge-cast
(:func:`_cast_still`) only merges each send round's live, holding, kept
members into their parents -- a member's set is final when it sends -- and
sizes and tallies the sends afterwards, one record per send round.  Tallies
are sums, a join keeps its row's earliest, smallest-id landing and the flag
passes on in round order, so a still segment's outcome is byte-identical to
the general path's; what it skips is the flight buffer, the landings and,
per message, the cap and channel checks.  The general walk thus runs only
for a batch with a channel or a walk the round cap cuts short; every walk
there carries its step count, since delays put walks out of step.

Faults follow the reference node's rules for a second and a late copy of
each message (pinned in ``tests/core/test_copies_and_late_arrivals.py``):
a duplicated walk token carries its walks twice, walks move only while the
WALK segment is open but one that lands on its last step is a proxy however
late, a converge-cast parent keeps what lands by its own send round (every
copy: a second REPORT adds its counters twice), and the floods forward once,
in the round a node's first copy lands.  A fault-free or crash-only trial
draws no coins, and every message it delivers arrives in the round after it
was sent; a batch of such trials has no channel at all.

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
streams the reference never touches.  Both streams stay per trial in a
batch: each trial draws from its own generators, in the order of its own
walks and messages (a batch keeps every trial's walks together, in the
order they have alone), so a trial's outcome is byte-identical whatever
batch it runs in.  The two simulators therefore agree
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
mode.  Every fault plan runs vectorized.  A trial whose setup raises --
:class:`VectorizedUnsupported` or anything else -- gets its exception back
in its slot of the batch and leaves the others running.  The one caller,
the algorithm registry (``repro.exec.algorithms``), runs a refused trial on
the reference simulator and records the reason in its ``simulator`` tag.

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
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..core.params import DEFAULT_PARAMETERS, ElectionParameters
from ..core.runner import ElectionRecipe
from ..faults.injector import FAULT_EVENT_KINDS, crash_schedule, delay_table, removed_edges
from ..faults.plan import FaultPlan
from ..graphs.topology import Graph
from ..obs.tracer import current_tracer
from .errors import ProtocolError
from .harness import FAULT_SEED_STREAM
from .message import counter_bits, id_bits, word_bits_for
from .metrics import MetricsCollector
from .rng import derive_seed, derive_seeds, fresh_master_seed

__all__ = [
    "VECTORIZED_WALK_STREAM",
    "VECTORIZED_MESSAGE_STREAM",
    "VectorizedUnsupported",
    "vectorized_unsupported_reason",
    "graph_csr",
    "VectorizedTrial",
    "run_vectorized_batch",
    "vectorized_election_trial",
]

#: Stream id of the bulk walk generator (never drawn by the reference).
VECTORIZED_WALK_STREAM = 0xA77A9
#: Stream id, under a fault plan's base seed, of the drop and duplicate coins
#: (never drawn by the reference).
VECTORIZED_MESSAGE_STREAM = 0xD50C5

_NEVER = 1 << 62
_NONE = np.zeros(0, dtype=np.int64)
#: Every trial of a batch, and none of them, as an index.
_ALL, _NOTHING = slice(None), slice(0, 0)
#: Messages the tallies keep before summing them (a phase sums at its end).
_FLUSH_AT = 1 << 13
#: Walk moves a still WALK keeps before settling their messages (in chunks
#: that stay in cache).
_SETTLE_AT = 1 << 13


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


class VectorizedTrial:
    """The inputs of one engine run, before any of its seed streams is drawn:
    a graph, the :class:`~repro.core.runner.ElectionRecipe` it runs, a seed,
    a fault plan and an edge capacity.

    Runs with equal :attr:`shape` -- node count, the ``n`` the protocol
    assumes, decide rule (the recipe's algorithm), parameters (a pinned walk
    length included), round cap and edge capacity -- share every phase
    window and message width, so :func:`run_vectorized_batch` can run them
    as one batch.  Everything else (graph, seed, fault plan, how ``n`` was
    told, a [25] trial's oracle mixing time) stays per trial.
    """

    __slots__ = ("graph", "recipe", "seed", "fault_plan", "edge_capacity_words")

    def __init__(
        self,
        graph: Graph,
        recipe: ElectionRecipe,
        seed: Optional[int] = None,
        fault_plan: Optional[FaultPlan] = None,
        edge_capacity_words: Optional[int] = None,
    ) -> None:
        self.graph = graph
        self.recipe = recipe
        self.seed = seed
        self.fault_plan = fault_plan
        self.edge_capacity_words = edge_capacity_words

    @property
    def n_eff(self) -> Optional[int]:
        """The ``n`` every node uses: the one it is told, else the assumed one."""
        known_n = self.recipe.known_n
        told = self.graph.num_nodes if known_n == -1 else known_n
        return told if told is not None else self.recipe.assumed_n

    @property
    def shape(self) -> tuple:
        """What every member of one batch shares."""
        recipe = self.recipe
        return (
            self.graph.num_nodes,
            self.n_eff,
            recipe.algorithm,
            recipe.params,
            recipe.max_rounds,
            self.edge_capacity_words,
        )


class _Member:
    """One trial's setup draws: Algorithm 1's identities and nominations, the
    injector's crash schedule, cut edges and delays, and its generators."""

    __slots__ = ("contenders", "rank", "crash", "has_faults", "wrng", "csr", "channel")

    def __init__(self, trial: VectorizedTrial, schedule) -> None:
        graph, params = trial.graph, trial.recipe.params
        n = graph.num_nodes
        seed = trial.seed if trial.seed is not None else fresh_master_seed()
        network_seed = derive_seed(seed, trial.recipe.streams[1])
        n_eff = trial.n_eff
        if n_eff is None:
            raise ProtocolError(
                "the algorithm requires knowledge of n (pass assumed_n to override)"
            )
        # Algorithm 1: byte-identical identities and nominations.  Identifiers
        # live in a plain list -- id_space is n^4 and overflows int64 past
        # n ~ 55k -- and the arrays index contenders by id rank instead.
        ids = [0] * n
        contenders = self.contenders = []
        id_space = params.id_space(n_eff)
        nominate = params.contender_probability(n_eff)
        for i, node_seed in enumerate(derive_seeds(network_seed, n)):
            rng = random.Random(node_seed)
            ids[i] = rng.randint(1, id_space)
            if rng.random() < nominate:
                contenders.append(i)
        if len({ids[v] for v in contenders}) < len(contenders):
            raise VectorizedUnsupported("duplicate contender identifiers alias their walk trees")
        self.rank = np.full(n, -1, dtype=np.int64)
        self.rank[sorted(contenders, key=ids.__getitem__)] = np.arange(len(contenders))

        plan = trial.fault_plan or FaultPlan()
        fault_seed = derive_seed(seed, FAULT_SEED_STREAM)
        crash_map = crash_schedule(plan, fault_seed, n, schedule.phase_start)
        self.crash = np.array([crash_map.get(v, _NEVER) for v in range(n)], dtype=np.int64)
        self.has_faults = not plan.is_empty
        self.wrng = np.random.default_rng(derive_seed(network_seed, VECTORIZED_WALK_STREAM)).random
        self.csr = graph_csr(graph)
        self.channel = None
        if not (plan.messages.is_empty and plan.delays.is_empty and plan.edges.is_empty):
            coins = None
            if not plan.messages.is_empty:
                base = derive_seed(fault_seed, plan.seed_stream())
                coins = np.random.default_rng(derive_seed(base, VECTORIZED_MESSAGE_STREAM)).random
            self.channel = (
                removed_edges(plan, fault_seed, graph),
                plan.edges.at_round,
                delay_table(plan, fault_seed, graph),
                plan.messages.drop_probability,
                plan.messages.duplicate_probability,
                coins,
            )


class _Metrics:
    """Per-trial message tallies: count, units and bits per kind.

    :meth:`_Run.hop` hands every round's sends of one kind to
    :meth:`record_bulk`, which keeps them until :meth:`flush` sums them per
    trial: once per phase, or sooner when :data:`_FLUSH_AT` messages wait.
    Each trial keeps its kinds in first-seen order, so its
    ``messages_by_kind`` gains its keys in the order per-message accounting
    would give them.  Given an edge capacity, ``edge_bits`` sums
    the bits per ``(round, src, dst)`` over the batch's node numbering.
    """

    def __init__(
        self, word_bits: int, trials: int, trial_of: np.ndarray, capacity_words: Optional[int]
    ) -> None:
        self.word_bits = word_bits
        self.trials = trials
        self.trial_of = trial_of
        self.N = trial_of.size
        self.capacity_words = capacity_words
        #: kind -> (3, trials) int64: messages, units and bits of each trial.
        self.kinds: Dict[str, np.ndarray] = {}
        #: kind -> its sends since the last flush: sizes, receivers and the
        #: number of each call.
        self.pending: Dict[str, Tuple[list, list, list]] = {}
        self.calls = 0
        self.kept = 0  # messages pending
        self.order: List[List[str]] = [[] for _ in range(trials)]
        self.edge_bits: Optional[Dict[Tuple[int, int, int], int]] = (
            None if capacity_words is None else {}
        )

    def record_bulk(
        self,
        kind: str,
        sizes: np.ndarray,
        rnd: int,
        src: np.ndarray,
        dst: np.ndarray,
    ) -> None:
        """Keep one round's messages: ``sizes[i]`` (at least 1) bits from
        ``src[i]`` to ``dst[i]`` (some), with the loads summed per edge
        before they are kept."""
        pending = self.pending.get(kind)
        if pending is None:
            pending = self.pending[kind] = ([], [], [])
        pending[0].append(sizes)
        pending[1].append(dst)
        pending[2].append(self.calls)
        self.calls += 1
        self.kept += sizes.size
        edge_bits = self.edge_bits
        if edge_bits is not None:
            N = self.N
            edges = src * N + dst
            order = np.argsort(edges, kind="stable")
            edges = edges[order]
            starts = _runs(edges)
            loads = np.add.reduceat(sizes[order], starts)
            for edge, load in zip(edges[starts].tolist(), loads.tolist()):
                key = (rnd, *divmod(edge, N))
                edge_bits[key] = edge_bits.get(key, 0) + load
        if self.kept > _FLUSH_AT:
            self.flush()

    def flush(self) -> None:
        """Sum the kept messages into every trial's tallies, and append the
        kinds a trial sent for the first time to its order, by first call."""
        B = self.trials
        firsts = []  # (trial, call, kind) of every kind new to a trial
        for kind, (sizes, receivers, calls) in self.pending.items():
            sizes = sizes[0] if len(sizes) == 1 else np.concatenate(sizes)
            units = (sizes + (self.word_bits - 1)) // self.word_bits
            tally = self.kinds.get(kind)
            if tally is None:
                tally = self.kinds[kind] = np.zeros((3, B), dtype=np.int64)
            if B == 1:
                if not tally[0, 0]:
                    firsts.append((0, calls[0], kind))
                tally[:, 0] += (sizes.size, int(units.sum()), int(sizes.sum()))
                continue
            trials = self.trial_of[np.concatenate(receivers)]
            messages = np.bincount(trials, minlength=B)
            fresh = np.flatnonzero((tally[0] == 0) & (messages > 0))
            if fresh.size:
                first = np.full(B, self.calls, dtype=np.int64)
                np.minimum.at(first, trials, np.repeat(calls, [r.size for r in receivers]))
                firsts += [(t, int(first[t]), kind) for t in fresh.tolist()]
            tally[0] += messages
            tally[1] += np.bincount(trials, units, minlength=B).astype(np.int64)
            tally[2] += np.bincount(trials, sizes, minlength=B).astype(np.int64)
        for t, _call, kind in sorted(firsts):
            self.order[t].append(kind)
        self.pending.clear()
        self.kept = 0

    def totals(self) -> Tuple[int, int]:
        """Messages and message units over the whole batch so far."""
        messages = units = 0
        for tally in self.kinds.values():
            messages += int(tally[0].sum())
            units += int(tally[1].sum())
        return messages, units

    def collector(self, t: int, n: int) -> MetricsCollector:
        """Trial ``t``'s tallies as a :class:`MetricsCollector` (``n`` nodes
        per trial)."""
        self.flush()
        metrics = MetricsCollector(self.word_bits)
        for kind in self.order[t]:
            count, units, bits = self.kinds[kind][:, t].tolist()
            metrics.messages += count
            metrics.message_units += units
            metrics.bits += bits
            metrics.messages_by_kind[kind] = count
            metrics.units_by_kind[kind] = units
        if self.capacity_words is not None:
            capacity_bits = self.capacity_words * self.word_bits
            lo, hi = t * n, (t + 1) * n
            for (_rnd, src, _dst), load in self.edge_bits.items():
                if lo <= src < hi:
                    metrics.record_edge_load(load, capacity_bits)
        return metrics


def _draw(generators, trials: np.ndarray, B: int) -> np.ndarray:
    """One uniform coin per entry of ``trials`` (each entry's trial index):
    every trial's coins come from its own generator, in entry order, so a
    trial draws exactly what it would draw alone."""
    if B == 1:
        return generators[0](trials.size)
    counts = np.bincount(trials, minlength=B).tolist()
    coins = np.concatenate([generators[t](c) for t, c in enumerate(counts) if c])
    if (trials[1:] >= trials[:-1]).all():  # already trial by trial
        return coins
    scattered = np.empty(trials.size)
    scattered[np.argsort(trials, kind="stable")] = coins
    return scattered


class _Channel:
    """The message adversary of every faulty trial: edge removal, drop,
    duplicate, delay.

    Removed edges and per-edge delays are the injector's own draws
    (:func:`~repro.faults.injector.removed_edges`,
    :func:`~repro.faults.injector.delay_table`), laid out over the batch's
    CSR entries, whose ``src * N + dst`` keys are sorted.  Drop and duplicate
    coins come from each trial's :data:`VECTORIZED_MESSAGE_STREAM` generator
    under its plan's base seed, one coin per message and decision.  A trial
    without a plan, or without one of the faults, cuts, drops, duplicates
    and delays nothing, and draws no coins.
    """

    __slots__ = ("N", "keys", "removed", "removal_round", "delay", "drop", "duplicate", "coins")

    def __init__(self, members: List[_Member], csr, n: int) -> None:
        _indptr, indices, degrees = csr
        B = len(members)
        N = self.N = B * n
        self.keys = np.repeat(np.arange(N, dtype=np.int64), degrees) * N + indices
        cut_keys, delays = [], []
        self.removal_round = np.zeros(B, dtype=np.int64)
        self.drop = np.zeros(B)
        self.duplicate = np.zeros(B)
        self.coins = [None] * B
        for t, member in enumerate(members):
            if member.channel is None:
                continue
            cut, at_round, table, drop, duplicate, coins = member.channel
            if cut:
                u, v = np.array(sorted(cut), dtype=np.int64).T + t * n
                cut_keys += [u * N + v, v * N + u]
            self.removal_round[t] = at_round
            if table:
                delays.append((t, table))
            self.drop[t], self.duplicate[t], self.coins[t] = drop, duplicate, coins
        self.removed = np.isin(self.keys, np.concatenate(cut_keys)) if cut_keys else None
        self.delay = None
        if delays:
            self.delay = np.zeros(self.keys.size, dtype=np.int64)
            src, dst = np.divmod(self.keys, N)
            for t, table in delays:
                lo, hi = np.searchsorted(src, [t * n, (t + 1) * n])
                pairs = zip((src[lo:hi] - t * n).tolist(), (dst[lo:hi] - t * n).tolist())
                self.delay[lo:hi] = [table[e] for e in pairs]

    def _flip(self, run: "_Run", probability: np.ndarray, copies: np.ndarray, trials):
        """The sent messages whose trial's coin comes up under ``probability``."""
        sent = copies.nonzero()[0]
        sent = sent[probability[trials[sent]] > 0]
        if not sent.size:
            return sent
        owners = trials[sent]
        return sent[_draw(self.coins, owners, run.B) < probability[owners]]

    def deliver(self, run: "_Run", r: int, src: np.ndarray, dst: np.ndarray):
        """``(delay, copies)`` of the messages ``src[i] -> dst[i]`` sent in
        round ``r``: the injector's decisions in its order -- edge removal,
        drop, duplicate, delay -- each counted in the trial's events."""
        trials = run.trial_of[dst]
        copies = np.ones(dst.size, dtype=np.int64)
        if self.removed is not None or self.delay is not None:
            edge = np.searchsorted(self.keys, src * self.N + dst)
        if self.removed is not None:
            cut = self.removed[edge] & (r >= self.removal_round[trials])
            run.count("edge_dropped", dst[cut])
            copies[cut] = 0
        if self.drop.any():
            lost = self._flip(run, self.drop, copies, trials)
            run.count("dropped", dst[lost])
            copies[lost] = 0
        if self.duplicate.any():
            twice = self._flip(run, self.duplicate, copies, trials)
            run.count("duplicated", dst[twice])
            copies[twice] = 2
        if self.delay is None:
            return 0, copies
        delay = np.where(copies > 0, self.delay[edge], 0)
        slowed = delay.nonzero()[0]
        run.count("delayed", dst[slowed])
        run.count("delay_rounds", dst[slowed], delay[slowed])
        return delay, copies


class _Run:
    """The state one batched engine run shares across its phases and segments.

    The batch is the disjoint union of its trials' graphs: trial ``t``'s node
    ``v`` is node ``t * n + v``, and its CSR rows follow one another.  Setup
    draws every trial's byte-identical identities and nominations
    (Algorithm 1), the injector's crash schedule and, under message, delay
    or edge faults, the batch's :class:`_Channel`.  :meth:`hop` is the one
    hop rule of every message.  A trial's contender ``c`` is the one with its
    ``c``-th smallest id: id sets are packed bitmasks over that index
    (``np.packbits`` rows), so "some id above mine" is "some bit above mine";
    per-contender rows are numbered trial by trial (``cidx``).  Rounds,
    activity, completion and fault events are kept per trial.
    """

    # Slots: the segments read these, and CPython's instance-dict reads slow
    # down once an object has more than 30 attributes.
    __slots__ = (
        "B",
        "n",
        "params",
        "schedule",
        "max_rounds",
        "trial_of",
        "local",
        "contenders",
        "rank",
        "cidx",
        "own_bit",
        "above_bit",
        "adjacency",
        "i4",
        "distinct",
        "forced_stop",
        "crash",
        "has_faults",
        "crashing",
        "channel",
        "wrng",
        "csr",
        "isolated",
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
        "trial_starts",
    )

    def __init__(self, trial: VectorizedTrial, members: List[_Member], schedule) -> None:
        params = trial.recipe.params
        B = self.B = len(members)
        n = self.n = trial.graph.num_nodes
        N = B * n
        n_eff = trial.n_eff
        self.params = params
        self.schedule = schedule
        self.max_rounds = trial.recipe.max_rounds
        self.trial_of = np.repeat(np.arange(B, dtype=np.int64), n)
        self.local = np.tile(np.arange(n, dtype=np.int64), B)
        self.trial_starts = np.arange(B + 1, dtype=np.int64) * n

        counts = [len(m.contenders) for m in members]
        self.contenders = np.concatenate(
            [np.asarray(m.contenders, dtype=np.int64) + t * n for t, m in enumerate(members)]
        )
        self.rank = np.concatenate([m.rank for m in members])
        first = np.zeros(B, dtype=np.int64)
        np.cumsum(counts[:-1], out=first[1:])
        self.cidx = np.where(self.rank >= 0, first[self.trial_of] + self.rank, -1)
        C, width = sum(counts), max(counts)
        self.own_bit = np.packbits(np.eye(width, dtype=bool), axis=1)  # (width, bytes)
        bits = np.arange(width)
        self.above_bit = np.packbits(bits[None, :] > bits[:, None], axis=1)
        # Per contender: the ids heard through REPORT and through COLLECT.
        self.adjacency = np.zeros((C, self.own_bit.shape[1]), dtype=np.uint8)
        self.i4 = np.zeros_like(self.adjacency)
        self.distinct = np.zeros(C, dtype=np.int64)
        self.forced_stop = np.zeros(C, dtype=bool)

        self.crash = np.concatenate([m.crash for m in members])
        self.has_faults = np.array([m.has_faults for m in members])
        self.crashing = bool(self.has_faults.any())  # else every walk lives and every move lands
        self.events = np.zeros((B, len(FAULT_EVENT_KINDS)), dtype=np.int64)

        self.wrng = [m.wrng for m in members]
        degrees = np.concatenate([m.csr[2] for m in members])
        indptr = np.zeros(N + 1, dtype=np.int64)
        np.cumsum(degrees, out=indptr[1:])
        indices = np.concatenate([m.csr[1] + t * n for t, m in enumerate(members)])
        self.csr = (indptr, indices, degrees)
        self.isolated = bool((degrees == 0).any())  # some walk may never move
        self.channel = (
            None
            if all(m.channel is None for m in members)
            else _Channel(members, self.csr, n)
        )
        self.id_bits = id_bits(n_eff)
        self.walks_per = params.num_walks(n_eff)
        self.walk_cap = params.walk_length_cap(n_eff)
        # [25]'s rule has no thresholds: every contender that decides stops.
        self.thresholds = (
            (0, 0)
            if trial.recipe.algorithm == "known_tmix"
            else (params.intersection_threshold(n_eff), params.distinctness_threshold(n_eff))
        )
        self.metrics = _Metrics(word_bits_for(n), B, self.trial_of, trial.edge_capacity_words)

        self.learn = np.full(N, _NEVER, dtype=np.int64)  # round each node heard a winner
        # Node served contender (by rank in its trial) as a proxy.
        self.proxy_for = np.zeros((N, width), dtype=bool)
        # Forest index of each contender's latest tree each node belongs to.
        self.latest_tree = np.full((N, width), -1, dtype=np.int64)
        self.fired = np.zeros(N, dtype=bool)  # node fired its winner rules
        # Retained phases; their trees form the forest, numbered in phase then
        # starter order.  ``forest`` is the cascade's flattened view of them.
        self.retained: List[_Phase] = []
        self.forest: Optional[_Forest] = None
        self.leaders: List[int] = []
        # Per trial: phases opened (every starter of one started all before
        # it), the last active round, the round reached, and completion.
        self.phases = np.zeros(B, dtype=np.int64)
        self.last_activity = np.zeros(B, dtype=np.int64)
        self.clock = np.zeros(B, dtype=np.int64)
        self.completed = np.ones(B, dtype=bool)

    # Per-trial bookkeeping takes batch nodes and charges their trials; a
    # batch of one skips the node -> trial lookups.
    def _trials(self, nodes: np.ndarray):
        """The trials (a mask) some of ``nodes`` belong to."""
        if self.B == 1:
            return _ALL if nodes.size else _NOTHING
        trials = np.zeros(self.B, dtype=bool)
        trials[self.trial_of[nodes]] = True
        return trials

    def count(self, kind: str, nodes: np.ndarray, weights: Optional[np.ndarray] = None) -> None:
        """Add fault events of ``kind`` to the trial of each of ``nodes``:
        one each, or ``weights[i]``."""
        if not nodes.size:
            return
        column = _EVENT_COLUMN[kind]
        if self.B == 1:
            self.events[0, column] += nodes.size if weights is None else int(weights.sum())
        else:
            tally = np.bincount(self.trial_of[nodes], weights, minlength=self.B)
            self.events[:, column] += tally.astype(np.int64)

    def act(self, r: int, nodes: np.ndarray) -> None:
        """Some of ``nodes`` was active in round ``r``: so was its trial."""
        trials = self._trials(nodes)
        self.last_activity[trials] = np.maximum(self.last_activity[trials], r)
        self.clock[trials] = np.maximum(self.clock[trials], r)

    def reach(self, rounds: np.ndarray) -> None:
        """Each trial was active in round ``rounds[t]`` (0: not at all)."""
        np.maximum(self.last_activity, rounds, out=self.last_activity)
        np.maximum(self.clock, rounds, out=self.clock)

    def tick(self, r, nodes: Optional[np.ndarray] = None) -> None:
        """The trials of ``nodes`` reached round ``r`` (capped), active or
        not; without ``nodes``, trial ``t`` reached ``r[t]``."""
        trials = _ALL if nodes is None else self._trials(nodes)
        self.clock[trials] = np.maximum(self.clock[trials], np.minimum(r, self.max_rounds))

    def stop(self, nodes: np.ndarray) -> None:
        """The trials of ``nodes`` ran into the round cap: incomplete."""
        self.completed[self.trial_of[nodes]] = False

    def step(self, r: int, nodes: np.ndarray) -> np.ndarray:
        """The walks at ``nodes`` (trial by trial) step in round ``r``: their
        trials are active.  Returns one walk coin per walk."""
        if self.B == 1:
            self.act(r, nodes)
            return self.wrng[0](nodes.size)
        bounds = self.bounds(nodes)
        trials = np.diff(bounds) > 0
        self.last_activity[trials] = np.maximum(self.last_activity[trials], r)
        self.clock[trials] = np.maximum(self.clock[trials], r)
        return self.coins(nodes, bounds)

    def coins(self, nodes: np.ndarray, bounds: Optional[List[int]] = None) -> np.ndarray:
        """Walk coins, one per walk at ``nodes`` (trial by trial; ``bounds``
        as :meth:`bounds` gives them)."""
        if self.B == 1:
            return self.wrng[0](nodes.size)
        if bounds is None:
            bounds = self.bounds(nodes)
        return np.concatenate(
            [
                self.wrng[t](count)
                for t, count in enumerate(np.diff(bounds).tolist())
                if count
            ]
        )

    def bounds(self, nodes: np.ndarray) -> np.ndarray:
        """Where each trial's run starts in ``nodes`` (trial by trial), and
        the end."""
        return np.searchsorted(nodes, self.trial_starts)

    def local_of(self, nodes: np.ndarray) -> np.ndarray:
        """Each batch node's number within its trial."""
        return nodes if self.B == 1 else self.local[nodes]

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
        round cap, which marks every sending trial incomplete, as does a copy
        arriving past it.  The channel's edge removal, drop, duplicate and
        delay come first; then a copy to a receiver crashed by its arrival
        round is lost and counted.  A delivered send whose sender ``knows``
        (a mask, or ``True`` for all) of a winner passes that on to its
        receiver.  No sends, no checks.
        """
        if not dst.size:
            return _NONE, _NONE
        self.metrics.record_bulk(kind, sizes, r, src, dst)
        a = r + 1
        if a > self.max_rounds:
            self.stop(dst)
            return None
        if self.channel is None:
            delivered = self.crash[dst] > a
            if self.crashing:
                self.count("lost_to_crash", dst[~delivered])
            told = dst[delivered & knows]
            self.learn[told] = np.minimum(self.learn[told], a)
            return a, delivered
        delay, copies = self.channel.deliver(self, r, src, dst)
        arrive = a + delay
        crashed = (self.crash[dst] <= arrive).nonzero()[0]
        self.count("lost_to_crash", dst[crashed], copies[crashed])
        copies[crashed] = 0
        if type(arrive) is not int:
            capped = arrive > self.max_rounds
            if capped.any():
                self.stop(dst[capped])
                copies[capped] = 0
        told = (copies > 0) & knows
        np.minimum.at(self.learn, dst[told], _at(arrive, told))
        return arrive, copies


_EVENT_COLUMN = {kind: column for column, kind in enumerate(FAULT_EVENT_KINDS)}


class _Phase:
    """One guess-and-double phase: its window, its starters and their walk trees.

    Starters are batch nodes in trial order; row ``s`` of every table
    belongs to the tree of ``starters[s]``, and the flat tables index
    ``s * n + node`` by the node's number within its trial, so a trial's
    rows follow one another: ``(trial * S + tree) * n + node`` when every
    trial starts ``S`` trees.  ``node_base[s]`` turns a tree's node numbers
    into batch nodes.
    """

    def __init__(self, run: _Run, index: int, window, starters: np.ndarray) -> None:
        n = run.n
        self.index = index
        self.window = window
        self.starters = starters
        self.single = run.B == 1
        self.trial = run.trial_of[starters]
        self.node_base = self.trial * n
        self.phase_bits = counter_bits(max(1, index))
        S = starters.size
        self.off = np.full((S, n), -1, dtype=np.int64)  # join offset, 0 at the origin
        self.par = np.full((S, n), -1, dtype=np.int64)  # tree parent
        self.proxies = np.zeros((S, n), dtype=np.int64)  # tokens ending at each node
        self.off[np.arange(S), starters - self.node_base] = 0
        self.move_keys: List[np.ndarray] = []  # each round's unique move keys
        self.base = 0  # forest index of row 0
        # Set by _retain_trees: the forward edges as a CSR over flat rows,
        # each member's converge-cast send delay after a segment starts, and
        # the non-origin members by delay, then parent row.
        self.fwd_ptr = self.fwd_dst = self.delay = self.members = np.zeros(0, dtype=np.int64)
        self.winners: List[int] = []  # forest rows of the leaders it elected
        self.still = 0  # segments that ran still (see _still)

    def release(self) -> None:
        """Drop what only the phase's own segments read; the forest keeps
        the parents and forward edges."""
        self.off = self.proxies = self.delay = self.members = None

    def nodes(self, trees: np.ndarray, local: np.ndarray) -> np.ndarray:
        """The batch nodes of node numbers ``local`` in trees ``trees``."""
        return local if self.single else self.node_base[trees] + local

    def keep(self, run: _Run, trees: np.ndarray) -> "_Phase":
        """This phase with only the walk trees ``trees`` (a mask), before
        they are retained."""
        kept = np.flatnonzero(trees)
        renumber = np.cumsum(trees) - 1
        n = run.n
        self.starters = self.starters[kept]
        self.trial = self.trial[kept]
        self.node_base = self.node_base[kept]
        self.off, self.par, self.proxies = self.off[kept], self.par[kept], self.proxies[kept]
        moves = []
        for keys in self.move_keys:
            tree, edge = np.divmod(keys, n * n)
            mine = trees[tree]
            moves.append(renumber[tree[mine]] * n * n + edge[mine])
        self.move_keys = moves
        return self


class _Forest:
    """Every retained tree of the run, flattened as ``tree * n + node``: the
    tables of the winner cascade."""

    __slots__ = ("phases", "par", "node_base", "fwd_ptr", "fwd_dst", "bits", "flooded", "sent_up")

    def __init__(self, phases: List[_Phase], run: _Run) -> None:
        self.phases = len(phases)
        self.par = np.concatenate([ph.par.reshape(-1) for ph in phases])
        self.node_base = np.concatenate([ph.node_base for ph in phases])
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


def _open_phase(run: _Run, index: int, active: np.ndarray) -> Optional[_Phase]:
    """Start phase ``index`` for the live ``active`` contenders, or ``None``
    when the round cap or the crashes leave nobody to start it."""
    window = run.schedule.window(index)
    begin = max(1, window.start)
    run.tick(begin, active)
    if begin > run.max_rounds:
        run.stop(active)
        return None
    starters = active[run.crash[active] > begin]
    if not starters.size:
        return None
    run.phases[run.trial_of[starters]] = index + 1
    run.distinct[run.cidx[starters]] = 0
    return _Phase(run, index, window, starters)


def _still(run: _Run, trials: np.ndarray, last_round: int, end: int) -> bool:
    """Whether a segment ending before round ``end``, whose last message
    arrives in round ``last_round``, runs still: nothing can act between its
    rounds.  ``trials`` (with repeats) are those whose sends depend on the
    heard-winner flag: the phase's trials for REPORT and COLLECT, where
    knowing makes a member send, and none for WALK, whose moves never read
    the flag (:func:`_settle_moves` passes it on).

    That holds when the batch has no channel (every message arrives, once,
    in the round after it is sent), the last message arrives by ``end`` and
    by the round cap (so nothing is cut short), and no node of ``trials``
    has heard of a winner.  Trials that left the batch do not count.
    """
    if run.channel is not None or last_round > min(end, run.max_rounds):
        return False
    heard = (run.learn.reshape(run.B, run.n) != _NEVER).any(axis=1)
    return not heard[trials].any()


def _move(run: _Run, pos: np.ndarray, coins: np.ndarray):
    """The moves of one WALK round, both walks': a walk at ``pos`` stays when
    its coin (``coins``, one per walk) is below one half or its node has no
    neighbour, and a second coin per moving walk picks its port.  Returns
    the staying and the moving walks, and the moving walks' sources and
    destinations."""
    indptr, indices, degrees = run.csr
    move = coins >= 0.5
    if run.isolated:
        move &= degrees[pos] > 0  # tokens on isolated nodes never move
    moving = move.nonzero()[0]
    staying = (~move).nonzero()[0]
    msrc = pos[moving]
    if not moving.size:
        return staying, moving, msrc, msrc
    degm = degrees[msrc]
    ports = (run.coins(msrc) * degm).astype(np.int64)
    np.minimum(ports, degm - 1, out=ports)
    return staying, moving, msrc, indices[indptr[msrc] + ports]


def _group(keys: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """The distinct ``keys``, sorted, and how often each occurs: the moves'
    messages, one per distinct move key."""
    keys = np.sort(keys)
    first = _runs(keys)
    return keys[first], np.append(first[1:], keys.size) - first


def _walk(run: _Run, ph: _Phase) -> Optional[np.ndarray]:
    """WALK: every starter's lazy walks as token vectors, one CSR gather per round.

    Runs still (:func:`_walk_still`) unless the batch has a channel or the
    round cap falls inside the walk.  Grows the trees (join offsets, parents,
    forward-edge move keys) and the proxy counts.  Every walk carries its
    step count.  A round's moves go through the hop rule as one message per
    ``(tree, src, dst, steps)``, and every copy lands, with the walks it
    carries, in an in-flight buffer under its arrival round.  Walks move
    while the WALK segment is open; an unfinished walk that lands after it
    closed never moves again.  Returns the trials (a mask) whose walk the
    round cap cut short, or ``None``: a cut trial's walk ends where it would
    end alone, and the others walk on.
    """
    begin = max(1, ph.window.start)
    close = ph.window.report_start
    L = ph.window.walk_length
    if _still(run, _NONE, begin + L, close):
        ph.still += 1
        _walk_still(run, ph)
        return None
    n = run.n
    crash = run.crash
    learn = run.learn
    trial_of = run.trial_of
    max_rounds = run.max_rounds
    move_keys = ph.move_keys
    base_bits = run.id_bits + ph.phase_bits + 1
    owners = np.repeat(np.arange(len(ph.starters), dtype=np.int64), run.walks_per)
    pos = np.repeat(ph.starters, run.walks_per)
    steps = np.zeros(pos.size, dtype=np.int64)
    crashing = run.crashing
    flight: Dict[int, list] = {}  # arrival round -> landing batches
    cut = None  # trials the round cap stopped
    r = begin
    while True:
        batches = flight.pop(r, None)
        if batches is not None:
            owners, pos, steps = _land(run, ph, r, batches, owners, pos, steps)
        if pos.size and r < close:
            if r > max_rounds:
                # Every walk still in flight landed by the cap: this ends the
                # walk of every trial that still has one.
                if cut is None:
                    cut = np.zeros(run.B, dtype=bool)
                cut[trial_of[pos]] = True
                run.stop(pos)
                return cut
            if crashing:
                alive = crash[pos] > r
                if not alive.all():
                    run.tick(r, pos[~alive])
                    pos, owners, steps = pos[alive], owners[alive], steps[alive]
        if not pos.size or r >= close:  # nothing moves this round
            if not flight:
                return cut
            pos, owners, steps = pos[:0], owners[:0], steps[:0]
            r = min(flight)
            continue
        staying, moving, msrc, mdst = _move(run, pos, run.step(r, pos))
        stay_pos, stay_own, stay_steps = pos[staying], owners[staying], steps[staying]
        if moving.size:
            mown = owners[moving]
            msteps = steps[moving] + 1
            # One message per (tree, src, dst, steps) move, in lexicographic
            # order; the moves' (tree, src, dst) keys are the tree's forward edges.
            key = (mown * n + run.local_of(msrc)) * n + run.local_of(mdst)
            key = key * (L + 1) + msteps
            g_key, counts = _group(key)
            g_move, g_steps = np.divmod(g_key, L + 1)
            move_keys.append(g_move)
            g_head, g_dst = np.divmod(g_move, n)
            g_own, g_src = np.divmod(g_head, n)
            sizes = base_bits + _bit_lengths(g_steps) + _bit_lengths(counts)
            senders = ph.nodes(g_own, g_src)
            receivers = ph.nodes(g_own, g_dst)
            got = run.hop("walk_token", sizes, r, senders, receivers, learn[senders] <= r)
            if got is None:
                # Past the cap: the sending trials stop here, the rest walk on.
                if cut is None:
                    cut = np.zeros(run.B, dtype=bool)
                cut[trial_of[senders]] = True
                going = ~cut[trial_of[stay_pos]]
                stay_pos, stay_own, stay_steps = stay_pos[going], stay_own[going], stay_steps[going]
            else:
                arrive, copies = got
                landing = arrive  # each walk's arrival round
                if crashing:  # keep what lands: each walk once per copy of its message
                    group = np.searchsorted(g_key, key)
                    per_walk = copies[group]
                    mown, mdst, msteps = (np.repeat(c, per_walk) for c in (mown, mdst, msteps))
                    if type(arrive) is not int:
                        landing = np.repeat(arrive[group], per_walk)
                    sent = copies.astype(bool, copy=False)
                    g_own, g_src, g_dst = g_own[sent], g_src[sent], g_dst[sent]
                    arrive = _at(arrive, sent)
                # Every delivered message carries walks: both land in the same rounds.
                for (a, *messages), (_, *walks) in zip(
                    _by_round(arrive, g_own * n + g_dst, g_src),
                    _by_round(landing, mown, mdst, msteps),
                ):
                    flight.setdefault(a, []).append((*messages, *walks))
        # Walks that stayed took their step in place; finished ones are proxies.
        steps = stay_steps + 1
        done = steps == L
        np.add.at(ph.proxies, (stay_own[done], run.local_of(stay_pos[done])), 1)
        going = ~done
        owners, pos, steps = stay_own[going], stay_pos[going], steps[going]
        if not pos.size and not flight:
            return cut
        r += 1


def _walk_still(run: _Run, ph: _Phase) -> None:
    """WALK when nothing can act between its rounds (:func:`_still`).

    Every walk then takes its ``t``-th step in round ``begin + t - 1``, and a
    move lands, if at all, in the next round: its walk steps on from there
    at once, whatever its message does or carries.  So only the coins, the
    moves and the crash filters run round by round; the moves' messages,
    tallies, tree joins and heard-winner flags are settled in chunks of
    rounds (:func:`_settle_moves`), and the trials' activity once, at the
    end.
    """
    crash = run.crash
    crashing = run.crashing
    begin = max(1, ph.window.start)
    L = ph.window.walk_length
    owners = np.repeat(np.arange(len(ph.starters), dtype=np.int64), run.walks_per)
    pos = np.repeat(ph.starters, run.walks_per)
    stepped = np.zeros(run.B, dtype=np.int64)  # last round each trial's walks stepped
    moves: List[tuple] = []  # unsettled rounds: each round and its moves' trees and ends
    kept = 0
    for r in range(begin, begin + L):
        if crashing:
            alive = crash[pos] > r
            if not alive.all():
                run.tick(r, pos[~alive])
                pos, owners = pos[alive], owners[alive]
        if not pos.size:
            break
        if run.B == 1:
            stepped[0] = r
            coins = run.coins(pos)
        else:
            bounds = run.bounds(pos)
            stepped[np.diff(bounds) > 0] = r
            coins = run.coins(pos, bounds)
        staying, moving, msrc, mdst = _move(run, pos, coins)
        if not moving.size:
            continue
        mown = owners[moving]
        moves.append((r, mown, msrc, mdst))
        kept += moving.size
        if crashing:  # a walk moving to a node crashed by then is lost
            landed = crash[mdst] > r + 1
            mown, mdst = mown[landed], mdst[landed]
        if r == begin + L - 1 and mdst.size:
            run.act(r + 1, mdst)
        pos, owners = _append(run, (pos[staying], owners[staying]), (mdst, mown))
        if kept > _SETTLE_AT:
            _settle_moves(run, ph, moves)
            moves, kept = [], 0
    _settle_moves(run, ph, moves)
    # After their last step, every walk left is a proxy where it stands.
    np.add.at(ph.proxies, (owners, run.local_of(pos)), 1)
    run.reach(stepped)


def _settle_moves(run: _Run, ph: _Phase, moves: List[tuple]) -> None:
    """The messages of still WALK rounds, from each round's ``(round, trees,
    sources, destinations)`` of its moves: what the general walk does round
    by round, for many rounds at once.  A round's messages -- one per
    distinct move, in key order, sized by the step and the walks it carries
    -- go to the tallies as one record, and those that land join their
    receivers to the trees (:func:`_join`).  Round by round, they pass the
    heard-winner flag on as the hop rule does: a sender that heard by the
    send round tells a receiver that lives at the arrival round.
    """
    if not moves:
        return
    n = run.n
    begin = max(1, ph.window.start)
    span = len(ph.starters) * n * n  # distinct move keys
    first = moves[0][0]
    rounds, trees, sources, destinations = zip(*moves)
    sizes = [column.size for column in trees]
    keys = np.concatenate(trees) * n + run.local_of(np.concatenate(sources))
    keys = keys * n + run.local_of(np.concatenate(destinations))
    keys += np.repeat(np.asarray(rounds) - first, sizes) * span
    g_key, counts = _group(keys)
    # Floor division by a scalar is several times faster than np.divmod.
    g_round = g_key // span
    g_move = g_key - g_round * span
    g_round += first
    ph.move_keys.append(g_move)
    g_head = g_move // n
    g_dst = g_move - g_head * n
    g_own = g_head // n
    g_src = g_head - g_own * n
    # Bit lengths of the step (at most L) and of the walks carried (at most
    # walks_per: a message carries walks of one tree), by table.
    step_bits = _bit_lengths(np.arange(1, ph.window.walk_length + 1))
    count_bits = _bit_lengths(np.maximum(np.arange(run.walks_per + 1), 1))
    sizes = (run.id_bits + ph.phase_bits + 1) + step_bits[g_round - begin] + count_bits[counts]
    senders, receivers = ph.nodes(g_own, g_src), ph.nodes(g_own, g_dst)
    for lo, hi in zip(*_bounds(g_round)):
        r = int(g_round[lo])
        run.metrics.record_bulk("walk_token", sizes[lo:hi], r, senders[lo:hi], receivers[lo:hi])
    rows = g_own * n + g_dst
    if run.crashing:
        landed = run.crash[receivers] > g_round + 1
        run.count("lost_to_crash", receivers[~landed])
        landed = np.flatnonzero(landed)
        rows, g_round, g_src = rows[landed], g_round[landed], g_src[landed]
        senders, receivers = senders[landed], receivers[landed]
    learn = run.learn
    if (learn != _NEVER).any():  # else no message carries the flag
        for lo, hi in zip(*_bounds(g_round)):
            r = int(g_round[lo])
            told = receivers[lo:hi][learn[senders[lo:hi]] <= r]
            learn[told] = np.minimum(learn[told], r + 1)
    _join(ph, rows, g_src, g_round + 1)


def _join(ph: _Phase, rows: np.ndarray, senders: np.ndarray, landed) -> None:
    """Join each of ``rows`` (flat tree rows, one per landed message) that is
    in no tree yet through its first message, from ``senders[i]``, in the
    round it landed (``landed``: one round, or one per message).  The
    messages are in send order, then key order: a fresh row's first one is
    its earliest, from its smallest-id sender."""
    off = ph.off.reshape(-1)
    fresh = np.flatnonzero(off[rows] == -1)
    if not fresh.size:
        return
    order = np.sort(rows[fresh] * rows.size + fresh)  # by row, then message
    joins = order // rows.size
    at = order[_runs(joins)] % rows.size
    joins = rows[at]
    off[joins] = np.maximum(1, _at(landed, at) - ph.window.start)
    ph.par.reshape(-1)[joins] = senders[at]


def _land(run: _Run, ph: _Phase, r: int, batches, owners, pos, steps):
    """Walks landing in round ``r``, from the ``(rows, senders, owners,
    positions, steps)`` batches of their messages, in send order: the trees
    they join (:func:`_join`), the proxies they finish at, and the residents
    with the unfinished ones appended (only while the WALK segment is open).
    """
    rows, senders, l_own, l_pos, l_steps = (np.concatenate(parts) for parts in zip(*batches))
    if len(batches) > 1 and run.B > 1:  # each batch runs trial by trial; so must their union
        order = np.argsort(run.trial_of[l_pos], kind="stable")
        l_own, l_pos, l_steps = l_own[order], l_pos[order], l_steps[order]
    _join(ph, rows, senders, r)
    run.act(r, l_pos)
    done = l_steps == ph.window.walk_length
    np.add.at(ph.proxies, (l_own[done], run.local_of(l_pos[done])), 1)
    going = ~done & (r < ph.window.report_start)
    pos, owners, steps = _append(
        run, (pos, owners, steps), (l_pos[going], l_own[going], l_steps[going])
    )
    return owners, pos, steps


def _append(run: _Run, residents: tuple, landed: tuple) -> tuple:
    """The walk columns ``residents`` with ``landed`` appended trial by
    trial (positions first in each): the walks of every trial stay
    together, its landed ones after its residents, so the order within a
    trial -- the order of its coins -- is the one it has alone."""
    if (
        run.B == 1
        or not residents[0].size
        or not landed[0].size
        or run.trial_of[residents[0][-1]] <= run.trial_of[landed[0][0]]
    ):
        return tuple(np.concatenate(pair) for pair in zip(residents, landed))
    r_bounds = run.bounds(residents[0])
    l_bounds = run.bounds(landed[0])
    # Trial t's residents shift past the landed walks of the trials before
    # it; its landed walks past every resident up to its own.
    r_at = np.arange(residents[0].size) + np.repeat(l_bounds[:-1], np.diff(r_bounds))
    l_at = np.arange(landed[0].size) + np.repeat(r_bounds[1:], np.diff(l_bounds))
    merged = []
    for resident, land in zip(residents, landed):
        column = np.empty(resident.size + land.size, dtype=resident.dtype)
        column[r_at] = resident
        column[l_at] = land
        merged.append(column)
    return tuple(merged)


def _retain_trees(run: _Run, ph: _Phase) -> None:
    """Keep the phase's walk trees for the exchange segments and the cascade,
    and index every member and proxy under its origin for the winner rules."""
    n = run.n
    S = len(ph.starters)
    ph.base = sum(len(kept.starters) for kept in run.retained)
    run.retained.append(ph)
    ranks = run.rank[ph.starters]
    trees, members = np.nonzero(ph.off >= 0)
    run.latest_tree[ph.node_base[trees] + members, ranks[trees]] = ph.base + trees
    trees, proxies = np.nonzero(ph.proxies)
    run.proxy_for[ph.node_base[trees] + proxies, ranks[trees]] = True
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


def _reach(run: _Run, reached: np.ndarray, nodes: np.ndarray, rounds) -> None:
    """Raise ``reached[t]``, per trial ``t``, to the round the messages of
    ``nodes`` (some) reached: one round, or one per node."""
    if run.B == 1:
        last = rounds if type(rounds) is int else int(rounds.max())
        if last > reached[0]:
            reached[0] = last
    elif type(rounds) is int:
        trials = run.trial_of[nodes]
        reached[trials] = np.maximum(reached[trials], rounds)
    else:
        np.maximum.at(reached, run.trial_of[nodes], rounds)


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
    trees = members // n
    if members.size:
        last = np.zeros(run.B, dtype=np.int64)
        np.maximum.at(last, ph.trial[trees], deadline[members])
        run.tick(last)
    crash = run.crash
    # The origins' rows gather what reaches them, from every round.
    origins = np.arange(S) * n + (ph.starters - ph.node_base)
    deadline[origins] = _NEVER
    held[origins] = 0
    for c in counters:
        c[origins] = 0
    holds = held.any(axis=1)
    if counters:
        holds |= counters[0] > 0
    nodes = ph.nodes(trees, members - trees * n)
    parents = ph.par.reshape(-1)[members]
    send_rounds = deadline[members]
    if _still(run, ph.trial, int(send_rounds[-1]) + 1 if members.size else begin, end):
        ph.still += 1
        _cast_still(run, ph, kind, members, nodes, parents, deadline, held, counters, holds)
        return held[origins], (counters[0][origins] if counters else None)
    learn = run.learn.copy()  # as the segment found it
    # Lowest tree whose flagged message reached each node so far: tree s
    # sees the flag raised by trees before it, and by its own children.
    told_by = np.full(run.learn.size, S, dtype=np.int64)
    header = run.id_bits + ph.phase_bits + 1
    # A second copy counts twice; without copies counters stay within a
    # phase's walks.
    doubles = run.channel is not None and bool(run.channel.duplicate.any())
    widths = _bit_lengths(np.maximum(np.arange(run.walks_per + 1), 1))
    reached = np.zeros(run.B, dtype=np.int64)
    for lo, hi in zip(*_bounds(send_rounds)):
        r = int(send_rounds[lo])
        if r > run.max_rounds or r >= end:
            # A slot after the segment sends nothing; a trial whose next slot
            # falls past the cap stops incomplete.
            trials, first = np.unique(ph.trial[trees[lo:]], return_index=True)
            run.completed[trials[send_rounds[lo:][first] > run.max_rounds]] = False
            break
        v = nodes[lo:hi]
        live = crash[v] > r
        if not live.any():
            continue
        _reach(run, reached, v[live], r)
        f = members[lo:hi]
        s = trees[lo:hi]
        knows = (learn[v] <= r) | (told_by[v] <= s)
        send = (live & (knows | holds[f])).nonzero()[0]
        if not send.size:
            continue
        f, s, v, knows = f[send], s[send], v[send], knows[send]
        parent = parents[lo:hi][send]
        receivers = ph.nodes(s, parent)
        ids = held[f]
        counts = [c[f] for c in counters]
        sizes = header + run.id_bits * _popcount(ids)
        for c in counts:
            sizes += _bit_lengths(np.maximum(c, 1)) if doubles else widths[c]
        got = run.hop(kind, sizes, r, v, receivers, knows)
        if got is None:
            continue
        arrive, copies = got
        delivered = copies.astype(bool, copy=False)
        if not delivered.any():
            continue
        _reach(run, reached, v[delivered], _at(arrive, delivered))
        rows = s * n + parent
        keep = delivered & (arrive <= deadline[rows])
        told = delivered & knows
        if told.any():
            np.minimum.at(told_by, receivers[told], s[told])
        every = np.repeat(np.flatnonzero(keep), copies[keep]) if doubles else keep
        _scatter(rows[every], ids[every], [c[every] for c in counts], held, counters)
        holds[rows[keep & holds[f]]] = True
    run.reach(reached)
    return held[origins], (counters[0][origins] if counters else None)


def _cast_still(run: _Run, ph: _Phase, kind, members, nodes, parents, deadline, held, counters, holds):
    """A converge-cast when nothing can act between its rounds (:func:`_still`),
    for :func:`_converge_cast`, whose send slots, batch nodes, parents and
    holdings it takes.

    Nobody knows of a winner, so only live holders send, and every message
    lands in the round after it is sent: a member's set is final when it
    sends.  So the levels (send rounds) only merge the sets of their live,
    holding and kept members into their parents, in order; the sends are
    sized and tallied, one record per send round, afterwards.
    """
    n = run.n
    crash = run.crash
    trees = members // n
    rows = trees * n + parents
    receivers = ph.nodes(trees, parents)
    send_rounds = deadline[members]
    # A parent keeps what lands by its own send round; under crash-stops, a
    # member sends only while it lives, and its message lands only at a
    # parent that still lives.
    merges = deadline[rows] > send_rounds
    live = slice(None)
    if run.crashing:
        live = crash[nodes] > send_rounds
        merges &= live & (crash[receivers] > send_rounds + 1)
    for lo, hi in zip(*_bounds(send_rounds)):
        at = (holds[members[lo:hi]] & merges[lo:hi]).nonzero()[0]
        if not at.size:
            continue
        at += lo
        f = members[at]
        _scatter(rows[at], held[f], [c[f] for c in counters], held, counters)
        holds[rows[at]] = True
    reached = np.zeros(run.B, dtype=np.int64)
    if send_rounds[live].size:
        _reach(run, reached, nodes[live], send_rounds[live])
    sent = holds[members]
    if run.crashing:
        sent &= live
    if sent.any():
        f, src, dst, rounds = members[sent], nodes[sent], receivers[sent], send_rounds[sent]
        sizes = run.id_bits + ph.phase_bits + 1 + run.id_bits * _popcount(held[f])
        widths = _bit_lengths(np.maximum(np.arange(run.walks_per + 1), 1))
        for c in counters:
            sizes += widths[c[f]]
        for lo, hi in zip(*_bounds(rounds)):
            run.metrics.record_bulk(kind, sizes[lo:hi], int(rounds[lo]), src[lo:hi], dst[lo:hi])
        if run.crashing:
            lost = crash[dst] <= rounds + 1
            run.count("lost_to_crash", dst[lost])
            src, rounds = src[~lost], rounds[~lost]
        if rounds.size:
            _reach(run, reached, src, rounds + 1)
    run.reach(reached)


def _report(run: _Run, ph: _Phase) -> None:
    """REPORT: every proxy sends up the other origins it serves, whether it
    holds exactly one token (distinct) and how many (proxies)."""
    S, n = ph.proxies.shape
    ranks = run.rank[ph.starters]
    contenders = run.cidx[ph.starters]
    proxies = ph.proxies.reshape(-1)
    serves = np.packbits(run.proxy_for, axis=1)  # (N, bytes)
    serves = serves.reshape(run.B, n, -1)[ph.trial]  # (S, n, bytes)
    held = (serves & ~run.own_bit[ranks][:, None, :]).reshape(S * n, -1)
    held[proxies == 0] = 0
    counters = [(proxies == 1).astype(np.int64), proxies.copy()]
    window = ph.window
    got_ids, got_distinct = _converge_cast(
        run, ph, window.report_start, window.distribute_start, "report", held, counters
    )
    run.adjacency[contenders] |= got_ids
    run.distinct[contenders] += got_distinct


def _distribute(run: _Run, ph: _Phase) -> Tuple[np.ndarray, np.ndarray]:
    """DISTRIBUTE: every live origin floods its adjacency set down its tree,
    all trees at once, round by round; a member forwards it once, in the
    round its first copy lands.

    Returns the proxy rows it reached and the round it reached each in.
    """
    n = run.n
    S = len(ph.starters)
    begin = ph.window.distribute_start
    origins = ph.starters
    run.tick(begin, origins)
    if begin > run.max_rounds:
        run.stop(origins)
        return _NONE, _NONE
    live = run.crash[origins] > begin
    run.act(begin, origins[live])
    i2_size = _popcount(run.adjacency[run.cidx[origins]])
    sizes = run.id_bits * (1 + i2_size) + ph.phase_bits + 1
    trees = np.flatnonzero(live & (i2_size > 0))
    rows = trees * n + (origins - ph.node_base)[trees]
    member = ph.off.reshape(-1) >= 0
    proxy = ph.proxies.reshape(-1) > 0
    first = np.full(S * n, _NEVER, dtype=np.int64)  # round each row's first copy landed
    first[rows] = begin
    hits = [rows[proxy[rows]]]
    hit_rounds = [begin]  # per hop, the one round its hits landed in, or theirs
    learn = run.learn.copy()  # as the segment found it
    told_by = np.full(learn.size, S, dtype=np.int64)  # as in _converge_cast
    due = {begin: [rows]}  # round -> rows that may forward then
    reached = np.zeros(run.B, dtype=np.int64)
    while due:
        t = min(due)
        landed = due.pop(t)
        frontier = _unique(landed[0] if len(landed) == 1 else np.concatenate(landed))
        frontier = frontier[first[frontier] == t]
        rows, dst = _expand(ph.fwd_ptr, ph.fwd_dst, frontier)
        s = rows // n
        u = ph.nodes(s, rows - s * n)
        receivers = ph.nodes(s, dst)
        knows = (learn[u] <= t) | (told_by[u] <= s)
        got = run.hop("distribute", sizes[s], t, u, receivers, knows)
        if got is None:
            break
        arrive, copies = got
        sent = copies.astype(bool, copy=False)
        s, dst, receivers = s[sent], dst[sent], receivers[sent]
        knows, arrive = knows[sent], _at(arrive, sent)
        if not dst.size:
            continue
        _reach(run, reached, receivers, arrive)
        np.minimum.at(told_by, receivers[knows], s[knows])
        rows = s * n + dst
        joined = member[rows]
        rows, arrive = rows[joined], _at(arrive, joined)
        reaches = proxy[rows]
        hits.append(rows[reaches])
        hit_rounds.append(_at(arrive, reaches))
        for a, landed in _by_round(arrive, rows):
            first[landed] = np.minimum(first[landed], a)
            due.setdefault(a, []).append(landed)
    run.reach(reached)
    rounds = [np.full(h.size, a) if type(a) is int else a for h, a in zip(hits, hit_rounds)]
    return np.concatenate(hits), np.concatenate(rounds)


def _collect(run: _Run, ph: _Phase, hits: np.ndarray, rounds: np.ndarray) -> None:
    """COLLECT: every proxy sends up the sets DISTRIBUTE brought it (to any
    of its trees of the phase) by its own send slot."""
    S, n = ph.proxies.shape
    window = ph.window
    i2 = run.adjacency[run.cidx[ph.starters]]
    s = hits // n
    v = ph.node_base[s] + hits - s * n  # batch nodes

    def union(at) -> np.ndarray:
        """Per batch node, the union of the sets of the hits ``at``."""
        received = np.zeros((run.learn.size, i2.shape[1]), dtype=np.uint8)
        order = np.argsort(v[at], kind="stable")
        _scatter(v[at][order], i2[s[at][order]], (), received, ())
        return received

    late = np.flatnonzero(rounds > window.collect_start)  # after some slots
    on_time = np.flatnonzero(rounds <= window.collect_start) if late.size else slice(None)
    proxy = ph.proxies > 0
    received = union(on_time).reshape(run.B, n, -1)[ph.trial]  # (S, n, bytes)
    held = (received * proxy[:, :, None]).reshape(S * n, -1)
    if late.size:
        _members, deadline = _slots(ph, window.collect_start)
        proxy_rows = np.flatnonzero(proxy.reshape(-1))
        for a, at in _by_round(rounds[late], late):
            rows = proxy_rows[deadline[proxy_rows] >= a]
            trees = rows // n
            held[rows] |= union(at)[ph.node_base[trees] + rows - trees * n]
    got_ids, _ = _converge_cast(
        run, ph, window.collect_start, window.decide_round, "collect", held, ()
    )
    run.i4[run.cidx[ph.starters]] |= got_ids


def _decide(run: _Run, ph: _Phase) -> Optional[np.ndarray]:
    """DECIDE: each live starter stops, elects itself or walks on.

    Returns the contenders that run the next phase, or ``None`` when the
    round cap falls before the decide round; the leaders it elects go to
    ``ph.winners`` for the cascade.
    """
    decide_round = ph.window.decide_round
    origins = ph.starters
    run.tick(decide_round, origins)
    if decide_round > run.max_rounds:
        run.stop(origins)
        return None
    local = origins - ph.node_base
    alive = run.crash[origins] > decide_round
    run.act(decide_round, origins[alive])
    ranks = run.rank[origins]
    contenders = run.cidx[origins]
    count = ph.proxies[np.arange(origins.size), local]
    serving = alive & (count > 0)
    run.adjacency[contenders[serving]] |= np.packbits(
        run.proxy_for[origins[serving]], axis=1
    ) & ~run.own_bit[ranks[serving]]
    run.distinct[contenders[alive & (count == 1)]] += 1
    intersection, distinctness = run.thresholds
    satisfied = (_popcount(run.adjacency[contenders]) >= intersection) & (
        run.distinct[contenders] >= distinctness
    )
    heard = run.learn[origins] <= decide_round
    unsatisfied = alive & ~satisfied & ~heard  # not stopped by a winner's notification
    if ph.window.walk_length < run.walk_cap:
        survivors = origins[unsatisfied]
        candidates = alive & satisfied
    else:
        run.forced_stop[contenders[unsatisfied]] = True
        survivors = origins[:0]
        candidates = alive & (satisfied | (unsatisfied & run.params.elect_on_forced_stop))
    # A candidate wins unless it heard of a winner or of a larger id than its own.
    heard_of = run.i4[contenders] | run.adjacency[contenders]
    larger = (heard_of & run.above_bit[ranks]).any(axis=1)
    won = np.flatnonzero(candidates & ~heard & ~larger)
    if won.size:
        run.leaders.extend(origins[won].tolist())
        run.learn[origins[won]] = decide_round  # it had not heard of a winner before
        ph.winners = ((ph.base + won) * run.n + local[won]).tolist()
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
    local = run.local_of
    # Round -> the winner-down rows, winner-up rows and receivers due then.
    due = {ph.window.decide_round: ([np.asarray(ph.winners, dtype=np.int64)], [], [])}
    while due:
        r = min(due)
        downs, ups, receivers = due.pop(r)
        if receivers:
            receivers = _unique(np.concatenate(receivers))
            run.act(r, receivers)
            fresh = receivers[~run.fired[receivers]]
            run.fired[fresh] = True
            ranks = run.rank[fresh]
            contender = ranks >= 0
            serves = run.proxy_for[fresh]
            serves[np.flatnonzero(contender), ranks[contender]] = False
            at, served = np.nonzero(serves)
            ups.append(run.latest_tree[fresh[at], served] * n + local(fresh[at]))
            mine = fresh[contender]
            downs.append(run.latest_tree[mine, ranks[contender]] * n + local(mine))
        down = _unique(np.concatenate(downs))
        down = down[~forest.flooded[down]]
        forest.flooded[down] = True
        up = _unique(np.concatenate(ups)) if ups else _NONE
        up = up[(par[up] >= 0) & ~forest.sent_up[up]]
        forest.sent_up[up] = True
        rows, targets = _expand(forest.fwd_ptr, forest.fwd_dst, down)
        tree = rows // n
        base = forest.node_base[tree]
        got_down = run.hop(
            "winner_down", forest.bits[tree], r, base + rows - tree * n, base + targets, True
        )
        up_tree = up // n
        parents = par[up]
        base = forest.node_base[up_tree]
        got_up = run.hop(
            "winner_up", forest.bits[up_tree], r, base + up - up_tree * n, base + parents, True
        )
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
                bucket[2].append(forest.node_base[a_tree] + a_dst)


def _outcome(run: _Run, t: int, trial: VectorizedTrial):
    """Trial ``t``'s :class:`~repro.core.result.TrialOutcome`; ``trial`` is
    its engine inputs."""
    from ..core.result import TrialOutcome, classify_election

    n = run.n
    lo = t * n
    clock = int(run.clock[t])
    crashed = np.flatnonzero(run.crash[lo : lo + n] <= clock).tolist()
    fault_events = None
    if run.has_faults[t]:
        fault_events = dict(zip(FAULT_EVENT_KINDS, run.events[t].tolist()))
        fault_events["crashed_nodes"] = len(crashed)
    mine = run.contenders[run.trial_of[run.contenders] == t]
    phases = int(run.phases[t])
    leaders = sorted(v - lo for v in run.leaders if lo <= v < lo + n)
    extras = {
        "num_contenders": len(mine),
        "forced_stop": bool(run.forced_stop[run.cidx[mine]].any()),
        "max_phases": phases,
        "final_walk_length": run.schedule.window(phases - 1).walk_length if phases else 0,
        "simulator": "vectorized",
    }
    outcome = TrialOutcome(
        algorithm=trial.recipe.algorithm,
        kind="election",
        num_nodes=n,
        winners=leaders,
        classification=classify_election(leaders, crashed),
        metrics=run.metrics.collector(t, n).finalize(
            int(run.last_activity[t]), bool(run.completed[t]), fault_events
        ),
        crashed_nodes=crashed,
        extras=extras,
    )
    return trial.recipe.finish(outcome)


def _no_clock() -> float:
    return 0.0


def _simulate(run: _Run) -> None:
    """The guess-and-double phase loop over the segment functions: every
    trial of the batch runs each phase it reaches, and leaves the batch
    when it stops."""
    # Resolved once per run: tracing is write-only (bulk per-phase counters
    # and segment wall times), so the engine's seed streams and outputs are
    # identical traced or not.
    tracer = current_tracer()
    stamp = time.perf_counter if tracer.enabled else _no_clock
    active = run.contenders[run.crash[run.contenders] > 0]
    if tracer.enabled:
        tracer.event(
            "vec.run_started",
            n=run.n,
            trials=run.B,
            contenders=int(active.size),
            faulty=run.crashing,
        )
    index = 0
    while active.size:
        started = stamp()
        ph = _open_phase(run, index, active)
        if ph is None:
            break
        cut = _walk(run, ph)
        if cut is not None:
            trees = ~cut[ph.trial]
            if not trees.any():
                break
            ph = ph.keep(run, trees)
        _retain_trees(run, ph)
        walked = stamp()
        _report(run, ph)
        _collect(run, ph, *_distribute(run, ph))
        exchanged = stamp()
        survivors = _decide(run, ph)
        if survivors is None:
            break
        _cascade(run, ph)
        ph.release()
        run.metrics.flush()
        if tracer.enabled:
            messages, units = run.metrics.totals()
            tracer.event(
                "vec.phase",
                phase=index,
                starters=len(ph.starters),
                walk_length=int(ph.window.walk_length),
                survivors=int(survivors.size),
                leaders=len(run.leaders),
                messages=messages,
                message_units=units,
                still=ph.still,
                walk_s=walked - started,
                exchange_s=exchanged - walked,
                cascade_s=stamp() - exchanged,
            )
        active = survivors
        index += 1


def run_vectorized_batch(trials: Sequence[VectorizedTrial]) -> list:
    """Run same-shape trials as one batch: one phase loop over the disjoint
    union of their graphs.

    Returns, per trial and in order, its
    :class:`~repro.core.result.TrialOutcome` (``algorithm`` is that of the
    trial's recipe, ``extras["simulator"]`` is ``"vectorized"``) --
    byte-identical to the trial run alone -- or the exception its setup
    raised (e.g. :class:`VectorizedUnsupported` for duplicate contender
    ids), which fails that trial only.  Raises :class:`ValueError` for trials of
    different :attr:`VectorizedTrial.shape`.
    """
    if not trials:
        return []
    lead = trials[0]
    if any(trial.shape != lead.shape for trial in trials):
        raise ValueError("a vectorized batch runs trials of one shape only")
    schedule = lead.recipe.schedule()
    results: list = [None] * len(trials)
    members: List[_Member] = []
    slots: List[int] = []
    for slot, trial in enumerate(trials):
        try:
            members.append(_Member(trial, schedule))
        except Exception as exc:  # noqa: BLE001 -- fails this trial alone
            results[slot] = exc
        else:
            slots.append(slot)
    if members:
        run = _Run(lead, members, schedule)
        _simulate(run)
        for t, slot in enumerate(slots):
            results[slot] = _outcome(run, t, trials[slot])
    return results


def vectorized_election_trial(
    graph: Graph,
    params: ElectionParameters = DEFAULT_PARAMETERS,
    seed: Optional[int] = None,
    known_n: Optional[int] = -1,
    assumed_n: Optional[int] = None,
    max_rounds: Optional[int] = None,
    edge_capacity_words: Optional[int] = None,
    fault_plan: Optional[FaultPlan] = None,
) -> VectorizedTrial:
    """An election on ``graph`` for :func:`run_vectorized_batch`; the
    arguments are :func:`~repro.core.runner.run_leader_election`'s.

    >>> from repro.graphs import hypercube_graph
    >>> (outcome,) = run_vectorized_batch([vectorized_election_trial(hypercube_graph(4), seed=7)])
    >>> outcome.algorithm, outcome.extras["simulator"], outcome.classification
    ('election', 'vectorized', 'elected')
    """
    recipe = ElectionRecipe(
        params=params, known_n=known_n, assumed_n=assumed_n, max_rounds=max_rounds
    )
    return VectorizedTrial(graph, recipe, seed, fault_plan, edge_capacity_words)
