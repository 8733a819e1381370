"""One embedded SQLite database as a cache backend for million-trial runs.

The whole cache is a single ``cache.sqlite`` file inside the cache root:
``entries(fingerprint PRIMARY KEY, payload, s_*, created, nbytes)`` plus a
``meta`` key/value table.  ``payload`` holds the exact sorted-keys JSON
document the JSON tree would have written to a file -- zlib-compressed on
disk, byte-identical once decoded -- so everything downstream of a read
(reports, merges back into a tree, the ``entries()`` iterator) is
representation-independent, while bulk I/O (merges, whole-store scans)
moves a few times less data than the file tree does.  ``nbytes`` records
the *decoded* document size, so ``stats()`` agrees with the JSON backend
about the logical store size.  The ``s_*`` columns denormalise the tiny
:class:`~repro.exec.cache.base.OutcomeSummary` projection at write time --
covered by their own index, so streaming reports aggregate a million plain
row tuples straight out of the index B-tree without deserialising a single
outcome (or even touching the payload pages).

Concurrency and crash safety:

* the database runs in WAL mode with ``synchronous=NORMAL`` and a 30 s busy
  timeout, so several shard processes can write the same cache file
  concurrently (writers queue, readers never block) and a SIGKILL mid-write
  rolls back to the last committed entry on the next open -- the database is
  never left unreadable;
* each ``store`` autocommits (one trial result is durable the moment the
  runner recorded it -- resuming after a kill re-executes nothing that
  finished), while bulk operations (merge, migration, benchmarks) batch
  inside :meth:`batch` transactions;
* ``merge_from`` another SQLite cache is a C-level page copy into an empty
  store, else a single attached-database ``INSERT OR IGNORE ... SELECT``,
  i.e. O(source entries), not O(files).

Opening a cache root that holds a historical JSON tree imports every
readable entry once (``INSERT OR IGNORE`` under their stored fingerprints;
corrupt files are skipped with a logged warning) and remembers the import in
``meta``, so millions of files are not rescanned per open.  The JSON files
are left in place: migration is one-way and old directories stay readable
with the ``json`` backend.
"""

from __future__ import annotations

import json
import os
import sqlite3
import zlib
from contextlib import contextmanager
from typing import Dict, Iterable, Iterator, List, Optional, Tuple

from ..fingerprint import CACHE_SCHEMA_VERSION
from .base import (
    CacheBackend,
    OutcomeSummary,
    SummaryAggregate,
    logger,
    summary_from_document,
)
from .json_dir import JsonDirBackend

__all__ = ["SqliteBackend", "DATABASE_NAME"]

#: File name of the database inside a cache root (its presence is also how
#: backend auto-detection recognises an already-migrated directory).
DATABASE_NAME = "cache.sqlite"

#: Milliseconds a writer waits on a locked database before giving up; 30 s
#: comfortably covers another shard's bulk merge commit.
_BUSY_TIMEOUT_MS = 30_000

#: Fingerprints per ``IN (...)`` clause (SQLite's default variable limit is
#: 999; staying well under keeps us compatible with conservative builds).
_SELECT_CHUNK = 900

#: Page-cache budget (KiB) per connection: large enough that the summary
#: index of a million-entry store stays resident while a report streams
#: over it, small enough to be irrelevant next to a campaign's working set.
_CACHE_KIB = 65_536

#: zlib level for payload compression: level 1 already shrinks the highly
#: repetitive outcome JSON severalfold, and bulk merges are I/O-bound, so
#: cheap-and-fast beats maximal compression here.
_COMPRESS_LEVEL = 1

#: Covering index for the report path: an aggregate query is answered
#: entirely from this B-tree, never touching the (much fatter)
#: payload-bearing table pages -- and the whole index of a million-entry
#: store fits in the page cache.  Bulk merges drop and re-create it (one
#: sorted build beats a million random insertions), hence the shared DDL.
_SUMMARY_INDEX_SQL = (
    "CREATE INDEX IF NOT EXISTS entries_summary ON entries ("
    " fingerprint, s_algorithm, s_kind, s_classification,"
    " s_success, s_messages, s_message_units, s_rounds)"
)


class SqliteBackend(CacheBackend):
    """Fingerprint-keyed store over one WAL-mode SQLite database."""

    name = "sqlite"

    def __init__(self, root: str) -> None:
        super().__init__(root)
        os.makedirs(self.root, exist_ok=True)
        self.database_path = os.path.join(self.root, DATABASE_NAME)
        # isolation_level=None puts the connection in autocommit mode: every
        # store() is its own durable transaction, and bulk paths open
        # explicit BEGIN IMMEDIATE transactions (ATTACH also requires being
        # outside a transaction).
        self._connection = sqlite3.connect(
            self.database_path,
            timeout=_BUSY_TIMEOUT_MS / 1000.0,
            isolation_level=None,
            check_same_thread=False,
        )
        self._in_batch = False
        cursor = self._connection.cursor()
        cursor.execute("PRAGMA journal_mode=WAL")
        cursor.execute("PRAGMA synchronous=NORMAL")
        cursor.execute("PRAGMA busy_timeout=%d" % _BUSY_TIMEOUT_MS)
        cursor.execute("PRAGMA cache_size=-%d" % _CACHE_KIB)
        cursor.execute(
            "CREATE TABLE IF NOT EXISTS meta (key TEXT PRIMARY KEY, value TEXT NOT NULL)"
        )
        # The s_* columns denormalise the OutcomeSummary projection so the
        # streaming report path reads plain row tuples -- no per-row JSON
        # parse, which is what buys the order-of-magnitude report speedup
        # over the one-file-per-entry tree.
        cursor.execute(
            "CREATE TABLE IF NOT EXISTS entries ("
            " fingerprint TEXT PRIMARY KEY,"
            " payload BLOB NOT NULL,"
            " s_algorithm TEXT NOT NULL,"
            " s_kind TEXT NOT NULL,"
            " s_classification TEXT NOT NULL,"
            " s_success INTEGER NOT NULL,"
            " s_messages INTEGER NOT NULL,"
            " s_message_units INTEGER NOT NULL,"
            " s_rounds INTEGER NOT NULL,"
            " created REAL NOT NULL,"
            " nbytes INTEGER NOT NULL)"
        )
        cursor.execute(_SUMMARY_INDEX_SQL)
        cursor.execute(
            "INSERT OR IGNORE INTO meta (key, value) VALUES ('schema_version', ?)",
            (str(CACHE_SCHEMA_VERSION),),
        )
        self._import_json_tree_once()

    # ------------------------------------------------------------- migration
    def _import_json_tree_once(self) -> None:
        """One-way import of a pre-existing JSON tree under the same root.

        Runs at most once per database (guarded by a ``meta`` flag, so a
        directory of millions of already-imported files is not rescanned on
        every open).  Entries keep their stored fingerprints; corrupt or
        truncated files are skipped with a logged warning, exactly like the
        JSON backend treats them on read.  The files themselves are left
        untouched.
        """
        cursor = self._connection.cursor()
        row = cursor.execute(
            "SELECT value FROM meta WHERE key = 'json_import_done'"
        ).fetchone()
        if row is not None:
            return
        imported = 0
        skipped = 0
        with self.batch():
            for path in JsonDirBackend(self.root)._entry_paths():
                try:
                    with open(path, "r", encoding="utf-8") as handle:
                        document = json.load(handle)
                    if not isinstance(document, dict):
                        raise ValueError("not a JSON object")
                    summary = summary_from_document(document)
                except (OSError, ValueError, KeyError, TypeError) as exc:
                    logger.warning(
                        "skipping corrupt cache entry %s during sqlite import "
                        "(%s: %s); it was not imported",
                        path,
                        type(exc).__name__,
                        exc,
                    )
                    skipped += 1
                    continue
                fingerprint = str(
                    document.get("fingerprint")
                    or os.path.basename(path)[: -len(".json")]
                )
                before = self._connection.total_changes
                self._insert(
                    "INSERT OR IGNORE", fingerprint, document, summary, cursor
                )
                imported += self._connection.total_changes - before
            cursor.execute(
                "INSERT OR REPLACE INTO meta (key, value) "
                "VALUES ('json_import_done', ?)",
                (str(imported),),
            )
        if imported or skipped:
            logger.info(
                "imported %d JSON cache entr%s into %s (%d corrupt file(s) skipped)",
                imported,
                "y" if imported == 1 else "ies",
                self.database_path,
                skipped,
            )

    # --------------------------------------------------------------- entries
    def _insert(
        self,
        verb: str,
        fingerprint: str,
        document: Dict[str, object],
        summary: OutcomeSummary,
        cursor: Optional[sqlite3.Cursor] = None,
    ) -> None:
        raw = json.dumps(document, sort_keys=True).encode("utf-8")
        (cursor or self._connection).execute(
            "%s INTO entries (fingerprint, payload, s_algorithm, s_kind,"
            " s_classification, s_success, s_messages, s_message_units,"
            " s_rounds, created, nbytes) VALUES (?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?)"
            % verb,
            (
                fingerprint,
                zlib.compress(raw, _COMPRESS_LEVEL),
                summary.algorithm,
                summary.kind,
                summary.classification,
                int(summary.success),
                summary.messages,
                summary.message_units,
                summary.rounds,
                float(document.get("created", 0.0) or 0.0),
                len(raw),
            ),
        )

    def load(self, fingerprint: str) -> Optional[Dict[str, object]]:
        row = self._connection.execute(
            "SELECT payload FROM entries WHERE fingerprint = ?", (fingerprint,)
        ).fetchone()
        if row is None:
            return None
        return self._parse_payload(fingerprint, row[0])

    def load_many(self, fingerprints: List[str]) -> List[Optional[Dict[str, object]]]:
        by_fingerprint: Dict[str, object] = {}
        for start in range(0, len(fingerprints), _SELECT_CHUNK):
            chunk = fingerprints[start : start + _SELECT_CHUNK]
            placeholders = ",".join("?" for _ in chunk)
            rows = self._connection.execute(
                "SELECT fingerprint, payload FROM entries "
                "WHERE fingerprint IN (%s)" % placeholders,
                chunk,
            ).fetchall()
            by_fingerprint.update(rows)
        return [
            self._parse_payload(fingerprint, by_fingerprint[fingerprint])
            if fingerprint in by_fingerprint
            else None
            for fingerprint in fingerprints
        ]

    def _parse_payload(
        self, fingerprint: str, payload: object
    ) -> Optional[Dict[str, object]]:
        try:
            if isinstance(payload, bytes):
                payload = zlib.decompress(payload)
            document = json.loads(payload)
            if not isinstance(document, dict):
                raise ValueError("not a JSON object")
        except (zlib.error, ValueError, TypeError) as exc:
            logger.warning(
                "treating corrupt cache entry %s in %s as a miss (%s: %s); "
                "it will be recomputed and overwritten",
                fingerprint,
                self.database_path,
                type(exc).__name__,
                exc,
            )
            return None
        return document

    def store(self, fingerprint: str, document: Dict[str, object]) -> None:
        self._insert(
            "INSERT OR REPLACE", fingerprint, document, summary_from_document(document)
        )

    def aggregate(self, fingerprints: List[str]) -> SummaryAggregate:
        """The configuration-group fold pushed down into the database.

        One ``GROUP BY (kind, classification)`` query per fingerprint chunk:
        SQLite probes the covering summary index and folds the counts and
        integer sums in C, so Python touches a handful of group rows per
        configuration instead of one tuple per trial.  This is the streaming
        report path over million-trial stores.  SQLite sums of ``INTEGER``
        columns come back as exact Python ints, so the result is
        bit-identical to the reference fold in
        :func:`~repro.exec.cache.base.aggregate_summaries`.
        """
        distinct = list(dict.fromkeys(fingerprints))
        done = successes = sum_messages = sum_message_units = sum_rounds = 0
        counts: Dict[str, int] = {}
        kinds = set()
        for start in range(0, len(distinct), _SELECT_CHUNK):
            chunk = distinct[start : start + _SELECT_CHUNK]
            placeholders = ",".join("?" for _ in chunk)
            rows = self._connection.execute(
                "SELECT s_kind, s_classification, COUNT(*), SUM(s_success),"
                " SUM(s_messages), SUM(s_message_units), SUM(s_rounds)"
                " FROM entries INDEXED BY entries_summary"
                " WHERE fingerprint IN (%s)"
                " GROUP BY s_kind, s_classification" % placeholders,
                chunk,
            ).fetchall()
            for kind, classification, count, group_successes, messages, units, rounds in rows:
                done += count
                successes += group_successes
                sum_messages += messages
                sum_message_units += units
                sum_rounds += rounds
                counts[classification] = counts.get(classification, 0) + count
                kinds.add(kind)
        return SummaryAggregate(
            requested=len(distinct),
            done=done,
            successes=successes,
            sum_messages=sum_messages,
            sum_message_units=sum_message_units,
            sum_rounds=sum_rounds,
            kind=min(kinds) if kinds else None,
            classification_counts=tuple(sorted(counts.items())),
        )

    # ------------------------------------------------------------- inventory
    def fingerprints(self) -> Iterator[str]:
        cursor = self._connection.execute(
            "SELECT fingerprint FROM entries ORDER BY fingerprint"
        )
        for (fingerprint,) in cursor:
            yield fingerprint

    def documents(self) -> Iterator[Dict[str, object]]:
        cursor = self._connection.execute(
            "SELECT fingerprint, payload FROM entries ORDER BY fingerprint"
        )
        for fingerprint, payload in cursor:
            document = self._parse_payload(fingerprint, payload)
            if document is not None:
                yield document

    def count(self) -> int:
        return int(self._connection.execute("SELECT COUNT(*) FROM entries").fetchone()[0])

    def total_bytes(self) -> int:
        row = self._connection.execute(
            "SELECT COALESCE(SUM(nbytes), 0) FROM entries"
        ).fetchone()
        return int(row[0])

    def stamped(self) -> List[Tuple[float, str]]:
        return [
            (float(created), fingerprint)
            for created, fingerprint in self._connection.execute(
                "SELECT created, fingerprint FROM entries"
            )
        ]

    # ----------------------------------------------------------- maintenance
    @contextmanager
    def batch(self) -> Iterator[None]:
        """Group many writes into one transaction (nesting collapses)."""
        if self._in_batch:
            yield
            return
        self._in_batch = True
        self._connection.execute("BEGIN IMMEDIATE")
        try:
            yield
        except BaseException:
            self._connection.execute("ROLLBACK")
            raise
        finally:
            self._in_batch = False
        self._connection.execute("COMMIT")

    def delete(self, fingerprints: Iterable[str]) -> int:
        doomed = list(fingerprints)
        before = self._connection.total_changes
        with self.batch():
            for start in range(0, len(doomed), _SELECT_CHUNK):
                chunk = doomed[start : start + _SELECT_CHUNK]
                placeholders = ",".join("?" for _ in chunk)
                self._connection.execute(
                    "DELETE FROM entries WHERE fingerprint IN (%s)" % placeholders,
                    chunk,
                )
        return self._connection.total_changes - before

    def merge_from(self, other: CacheBackend) -> int:
        """Union in ``other``'s entries; SQLite sources merge at page speed.

        A SQLite source merging into an *empty* store (the shard-union case:
        ``m`` shard caches folded into a fresh one) is a C-level page copy
        via the SQLite backup API -- schema, indexes and all, no B-tree
        rebuild whatsoever.  Into a non-empty store it is attached and
        imported with a single ``INSERT OR IGNORE ... SELECT`` -- entries
        already present locally are kept untouched, and the count of new
        rows comes from the connection's change counter.  Non-SQLite
        sources stream through their entry documents inside one batched
        transaction.
        """
        if isinstance(other, SqliteBackend):
            if not self._in_batch and self.count() == 0:
                other._connection.backup(self._connection)
                return self.count()
            before = self._connection.total_changes
            # When the source outweighs what is already here, one sorted
            # re-build of the summary index after the bulk insert beats
            # maintaining it through that many random-order insertions; for
            # small merges into a big store the re-build (O(existing + new))
            # would dominate, so the index is left in place.  Both paths run
            # inside one transaction -- a crash mid-merge rolls back to the
            # pre-merge store, index included.
            rebuild_index = other.count() > self.count()
            self._connection.execute(
                "ATTACH DATABASE ? AS merge_source", (other.database_path,)
            )
            try:
                with self.batch():
                    if rebuild_index:
                        self._connection.execute("DROP INDEX IF EXISTS entries_summary")
                    self._connection.execute(
                        "INSERT OR IGNORE INTO entries "
                        "SELECT fingerprint, payload, s_algorithm, s_kind,"
                        " s_classification, s_success, s_messages,"
                        " s_message_units, s_rounds, created, nbytes "
                        "FROM merge_source.entries"
                    )
                    if rebuild_index:
                        self._connection.execute(_SUMMARY_INDEX_SQL)
            finally:
                self._connection.execute("DETACH DATABASE merge_source")
            return self._connection.total_changes - before
        merged = 0
        with self.batch():
            for document in other.documents():
                fingerprint = document.get("fingerprint")
                if not isinstance(fingerprint, str) or not fingerprint:
                    continue
                try:
                    summary = summary_from_document(document)
                except (ValueError, KeyError, TypeError) as exc:
                    logger.warning(
                        "skipping unsummarisable entry %s during merge (%s: %s)",
                        fingerprint,
                        type(exc).__name__,
                        exc,
                    )
                    continue
                before = self._connection.total_changes
                self._insert("INSERT OR IGNORE", fingerprint, document, summary)
                merged += self._connection.total_changes - before
        return merged

    def compact(self) -> None:
        """Reclaim the space deleted entries held (SQLite ``VACUUM``)."""
        self._connection.execute("VACUUM")

    def close(self) -> None:
        self._connection.close()
