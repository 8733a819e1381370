"""Pluggable on-disk result cache keyed by trial fingerprint.

:class:`ResultCache` is the persistent fingerprint -> outcome store every
batch runner and campaign consults; since PR 8 the physical layout behind it
is a pluggable :class:`~repro.exec.cache.base.CacheBackend`:

========  =========================================  ============================
name      layout                                     best at
========  =========================================  ============================
json      one JSON file per trial under              human-greppable dirs, tiny
          ``root/<aa>/<fingerprint>.json``           campaigns, cross-tool access
sqlite    one WAL-mode ``cache.sqlite`` database     10^5..10^7-trial campaigns:
          (payload + derived summary per row)        O(1) files, batched lookups,
                                                     single-statement merges,
                                                     streaming reports
========  =========================================  ============================

Both backends store the identical sorted-keys entry document per trial, so
campaigns, merges and reports are byte-identical whichever backend ran them
(``tests/exec/test_cache_backends.py`` pins this property for every
registered algorithm).

Backend selection, strongest first: an explicit ``backend=`` argument
("json"/"sqlite" or a :class:`CacheBackend` instance), an existing
``cache.sqlite`` inside the root (an already-migrated directory stays
SQLite, whatever the environment says), the :data:`CACHE_BACKEND_ENV_VAR`
environment override (how CI runs whole test tiers per backend), and finally
the historical ``json`` default.  Opening a JSON-tree directory with the
SQLite backend imports every readable entry once (one-way migration; the
files stay behind, readable by the ``json`` backend).

Long robustness campaigns accumulate entries across many fault plans;
:meth:`ResultCache.stats` reports the backend, entry count, stored bytes and
the hit-rate since the cache was opened, :meth:`ResultCache.prune` trims the
store to a size/age budget (oldest entries first) and
:meth:`ResultCache.compact` reclaims the space afterwards.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Union

from ...core.result import TrialOutcome
from ..fingerprint import release_trial_document
from ..serialize import outcome_from_dict, outcome_to_dict
from ..spec import TrialSpec
from .base import (
    CacheBackend,
    OutcomeSummary,
    SummaryAggregate,
    aggregate_summaries,
    atomic_write_bytes,
    logger,
)
from .json_dir import JsonDirBackend
from .sqlite import DATABASE_NAME, SqliteBackend

__all__ = [
    "ResultCache",
    "CachedTrial",
    "CacheStats",
    "CacheBackend",
    "OutcomeSummary",
    "SummaryAggregate",
    "aggregate_summaries",
    "JsonDirBackend",
    "SqliteBackend",
    "atomic_write_bytes",
    "CACHE_BACKEND_ENV_VAR",
    "cache_backend_names",
    "make_cache_backend",
    "add_cache_backend_argument",
]

#: Environment override consulted when neither an explicit ``backend=`` nor
#: an existing ``cache.sqlite`` decides; one of :func:`cache_backend_names`.
#: This is how the CI cache matrix runs the exec/campaign test tiers under
#: every backend without touching a line of test code.
CACHE_BACKEND_ENV_VAR = "REPRO_CACHE_BACKEND"

_FACTORIES = {
    "json": JsonDirBackend,
    "sqlite": SqliteBackend,
}


def cache_backend_names() -> tuple:
    """The registered cache backend names, sorted.

    >>> cache_backend_names()
    ('json', 'sqlite')
    """
    return tuple(sorted(_FACTORIES))


def make_cache_backend(name: str, root: str) -> CacheBackend:
    """Instantiate a cache backend by registry name over ``root``."""
    try:
        factory = _FACTORIES[name]
    except KeyError:
        raise KeyError(
            "unknown cache backend %r; known backends: %s"
            % (name, ", ".join(cache_backend_names()))
        ) from None
    return factory(root)


def add_cache_backend_argument(parser) -> None:
    """Attach the standard ``--cache-backend`` option to an argparse parser.

    One definition for every campaign CLI, mirroring ``--backend`` for
    execution backends: choices track the registry, and the empty-string
    default means "no explicit choice" (auto-detection and the
    ``REPRO_CACHE_BACKEND`` override still apply) -- pass
    ``arguments.cache_backend or None`` through to ``ResultCache``.
    """
    parser.add_argument(
        "--cache-backend",
        default="",
        choices=("",) + cache_backend_names(),
        help="result cache backend (default: auto-detect -- an existing "
        "cache.sqlite keeps sqlite, REPRO_CACHE_BACKEND overrides, "
        "otherwise the json file tree; sqlite is built for "
        "million-trial campaigns)",
    )


@dataclass(frozen=True)
class CacheStats:
    """Snapshot of a cache store plus this process's hit accounting."""

    entries: int
    total_bytes: int
    hits: int
    misses: int
    #: Registry name of the backend serving this cache ("json"/"sqlite").
    backend: str = "json"

    @property
    def lookups(self) -> int:
        """Total ``get`` calls since the cache was opened."""
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        """Fraction of ``get`` calls served from the store since it opened.

        >>> CacheStats(entries=2, total_bytes=64, hits=3, misses=1).hit_rate
        0.75
        """
        if not self.lookups:
            return 0.0
        return self.hits / self.lookups


class CachedTrial:
    """One deserialised cache entry (outcome plus bookkeeping)."""

    def __init__(self, outcome: TrialOutcome, elapsed_seconds: float, created: float) -> None:
        self.outcome = outcome
        self.elapsed_seconds = elapsed_seconds
        self.created = created


class ResultCache:
    """Persistent fingerprint -> outcome store for the batch executor."""

    def __init__(
        self,
        root: Union[str, os.PathLike],
        backend: Union[None, str, CacheBackend] = None,
    ) -> None:
        self.root = os.fspath(root)
        if isinstance(backend, CacheBackend):
            self._backend = backend
        else:
            name = backend if backend else self._detect_backend_name(self.root)
            self._backend = make_cache_backend(name, self.root)
        self._hits = 0
        self._misses = 0

    @staticmethod
    def _detect_backend_name(root: str) -> str:
        """Backend for a root nobody chose one for (see the module docstring)."""
        if os.path.exists(os.path.join(root, DATABASE_NAME)):
            return "sqlite"
        return os.environ.get(CACHE_BACKEND_ENV_VAR) or "json"

    @property
    def backend(self) -> CacheBackend:
        """The physical store serving this cache."""
        return self._backend

    @property
    def backend_name(self) -> str:
        """Registry name of the active backend ("json"/"sqlite")."""
        return self._backend.name

    # ----------------------------------------------------------------- paths
    def path_for(self, fingerprint: str) -> str:
        """Entry file path, for backends that keep one file per entry.

        The SQLite backend stores rows, not files, and raises a
        ``NotImplementedError`` explaining that instead of returning a path
        that nothing on disk answers to.
        """
        return self._backend.path_for(fingerprint)

    # ---------------------------------------------------------------- lookup
    def get(self, fingerprint: str) -> Optional[CachedTrial]:
        """Return the cached trial for ``fingerprint`` or ``None`` on a miss."""
        cached = self._to_cached(fingerprint, self._backend.load(fingerprint))
        self._account(cached is not None)
        return cached

    def get_many(self, fingerprints: List[str]) -> List[Optional[CachedTrial]]:
        """Batched :meth:`get` (one query on SQLite): same order, same counts."""
        results = []
        for fingerprint, document in zip(
            fingerprints, self._backend.load_many(list(fingerprints))
        ):
            cached = self._to_cached(fingerprint, document)
            self._account(cached is not None)
            results.append(cached)
        return results

    def get_summary_aggregate(self, fingerprints: List[str]) -> SummaryAggregate:
        """One configuration group folded to exact counts and integer sums.

        The streaming report path: on SQLite the fold runs inside the
        database (one ``GROUP BY`` over the summary index per fingerprint
        chunk), on the JSON tree it folds the summary rows in Python --
        both bit-identical to :func:`~repro.exec.cache.base.aggregate_summaries`
        over the entries' summaries.  Defined over the distinct fingerprints;
        every distinct fingerprint counts toward the hit/miss accounting
        exactly like a ``get``.
        """
        aggregate = self._backend.aggregate(list(fingerprints))
        self._hits += aggregate.done
        self._misses += aggregate.requested - aggregate.done
        return aggregate

    def _account(self, hit: bool) -> None:
        if hit:
            self._hits += 1
        else:
            self._misses += 1

    def _to_cached(
        self, fingerprint: str, document: Optional[Dict[str, object]]
    ) -> Optional[CachedTrial]:
        if document is None:
            return None
        try:
            return CachedTrial(
                outcome=outcome_from_dict(document["outcome"]),
                elapsed_seconds=float(document.get("elapsed_seconds", 0.0)),
                created=float(document.get("created", 0.0)),
            )
        except (ValueError, KeyError, TypeError) as exc:
            # The store handed back a parseable document that does not hold a
            # readable outcome (schema drift, hand-edited entry): a miss,
            # like every other corruption -- never an exception.
            logger.warning(
                "treating corrupt cache entry %s as a miss (%s: %s); "
                "it will be recomputed and overwritten",
                fingerprint,
                type(exc).__name__,
                exc,
            )
            return None

    # ----------------------------------------------------------------- store
    def put(
        self,
        fingerprint: str,
        spec: TrialSpec,
        outcome: TrialOutcome,
        elapsed_seconds: float,
    ) -> None:
        """Persist one trial result atomically."""
        payload = {
            "fingerprint": fingerprint,
            "trial": release_trial_document(spec),
            "label": spec.label,
            "outcome": outcome_to_dict(outcome),
            "elapsed_seconds": elapsed_seconds,
            "created": time.time(),
        }
        self._backend.store(fingerprint, payload)

    def merge_from(self, other: "ResultCache") -> int:
        """Copy every entry of ``other`` that this cache lacks; return the count.

        This is the multi-machine union: after ``m`` shard runs of the same
        campaign into ``m`` separate caches, merging them all into one store
        yields the cache a single-machine run would have produced (entries
        are keyed by trial fingerprint, so the same trial always lands under
        the same key with equivalent content).  Entries already present
        locally are kept untouched.  Merging works across backends in either
        direction -- SQLite-to-SQLite is a single attached-database
        ``INSERT OR IGNORE``; JSON-to-JSON copies files byte-for-byte.
        """
        return self._backend.merge_from(other._backend)

    # ------------------------------------------------------------- inventory
    def __len__(self) -> int:
        return self._backend.count()

    def entries(self) -> Iterator[Dict[str, object]]:
        """Iterate the raw JSON documents of every cache entry."""
        return self._backend.documents()

    # ------------------------------------------------------------ maintenance
    def stats(self) -> CacheStats:
        """Backend, entry count, stored bytes and hit-rate since this opened.

        Hit/miss counters are per :class:`ResultCache` instance (they start
        at zero when the store is opened); entry count and bytes reflect the
        store's current contents, whoever wrote them.  ``backend`` names the
        store layout serving the counts, so sharded campaign logs show which
        representation each machine wrote.
        """
        return CacheStats(
            entries=self._backend.count(),
            total_bytes=self._backend.total_bytes(),
            hits=self._hits,
            misses=self._misses,
            backend=self._backend.name,
        )

    def prune(
        self,
        max_entries: Optional[int] = None,
        max_age_seconds: Optional[float] = None,
        now: Optional[float] = None,
    ) -> int:
        """Delete entries beyond the given budgets; return how many were removed.

        ``max_age_seconds`` removes entries whose ``created`` stamp is older
        than that (relative to ``now``, defaulting to the current time);
        ``max_entries`` then keeps only the newest that many entries.  With
        no arguments the cache is cleared entirely.  The budget logic is
        backend-independent (the store only provides timestamps and
        deletion), so both layouts prune identically; pruning a cache that a
        concurrent campaign is writing to is safe -- at worst a freshly
        written entry survives or a removed one is recomputed.
        """
        if max_entries is not None and max_entries < 0:
            raise ValueError("max_entries must be non-negative")
        stamped = self._backend.stamped()
        stamped.sort()  # oldest first

        doomed = []
        if max_age_seconds is not None:
            cutoff = (time.time() if now is None else now) - max_age_seconds
            while stamped and stamped[0][0] < cutoff:
                doomed.append(stamped.pop(0)[1])
        if max_entries is not None:
            keep = max_entries
        elif max_age_seconds is not None:
            keep = len(stamped)  # the age budget alone decides
        else:
            keep = 0  # no budgets at all: clear the cache
        if len(stamped) > keep:
            doomed.extend(
                fingerprint for _created, fingerprint in stamped[: len(stamped) - keep]
            )
        return self._backend.delete(doomed)

    def compact(self) -> None:
        """Reclaim physical space deleted entries held (SQLite ``VACUUM``)."""
        self._backend.compact()

    def close(self) -> None:
        """Release store handles (optional; useful for SQLite on Windows)."""
        self._backend.close()
