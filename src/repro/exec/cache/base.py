"""The cache-backend protocol shared by the JSON-tree and SQLite stores.

A backend owns the *physical* representation of fingerprint-keyed trial
entries; everything semantic -- payload construction, hit/miss accounting,
prune budgets, outcome (de)serialisation -- lives in the
:class:`~repro.exec.cache.ResultCache` facade, so the two store layouts can
never drift apart behaviourally.  The unit both sides exchange is the *entry
document*: the exact JSON payload the cache has always written to disk
(``fingerprint`` / ``trial`` / ``label`` / ``outcome`` / ``elapsed_seconds``
/ ``created``), serialised with sorted keys.  Backends store and return that
document verbatim, which is what keeps a merged SQLite cache byte-identical
to the JSON tree at the report level.

Backends additionally serve :class:`SummaryAggregate` folds of whole
configuration groups, which is what the streaming report path consumes:
exact counts and integer sums of each entry's :class:`OutcomeSummary` -- a
tiny derived projection (classification, success, message/round counts) --
never a full outcome.  The SQLite backend materialises summaries as
dedicated columns at write time and folds aggregates inside the database;
the JSON backend derives the summaries on read and folds them with
:func:`aggregate_summaries`, the reference fold every report row comes from.
"""

from __future__ import annotations

import logging
import os
import tempfile
from typing import Dict, Iterable, Iterator, List, NamedTuple, Optional, Tuple

from ...core.result import TrialOutcome
from ..serialize import outcome_from_dict

__all__ = [
    "CacheBackend",
    "OutcomeSummary",
    "SummaryAggregate",
    "aggregate_summaries",
    "atomic_write_bytes",
    "summary_from_outcome",
    "summary_from_document",
]

#: Every backend logs corruption on the historical cache logger name, so
#: ``caplog.at_level(..., logger="repro.exec.cache")`` keeps observing all of
#: them whichever store is active.
logger = logging.getLogger("repro.exec.cache")


def atomic_write_bytes(path: str, data: bytes) -> None:
    """Write ``data`` to ``path`` so readers never see a partial file.

    The single crash-safety protocol every on-disk artefact of a campaign
    uses (cache entries, cache merges, manifests): write to a same-directory
    ``.tmp-`` file, then ``os.replace`` -- atomic on POSIX and Windows -- and
    unlink the temp file if anything goes wrong in between.
    """
    directory = os.path.dirname(path) or "."
    os.makedirs(directory, exist_ok=True)
    fd, temp_path = tempfile.mkstemp(dir=directory, prefix=".tmp-", suffix=".json")
    try:
        with os.fdopen(fd, "wb") as handle:
            handle.write(data)
        os.replace(temp_path, path)
    except BaseException:
        try:
            os.unlink(temp_path)
        except OSError:
            pass
        raise


class OutcomeSummary(NamedTuple):
    """The aggregate-relevant projection of one cached trial outcome.

    Carries exactly the fields :func:`repro.analysis.experiments.sweep_summary`
    reads per outcome, so streaming reports over millions of entries parse a
    ~100-byte row instead of a full payload.  ``success`` is stored
    explicitly (it is kind-aware on :class:`TrialOutcome`), so the summary
    never re-derives semantics.  A ``NamedTuple`` rather than a dataclass on
    purpose: the streaming report path constructs one of these per cached
    row, and tuple construction is several times cheaper than frozen
    dataclass ``__init__``.
    """

    algorithm: str
    kind: str
    classification: str
    success: bool
    messages: int
    message_units: int
    rounds: int

    def to_document(self) -> Dict[str, object]:
        """Plain JSON-serialisable form (the SQLite ``summary`` column)."""
        return {
            "algorithm": self.algorithm,
            "kind": self.kind,
            "classification": self.classification,
            "success": self.success,
            "messages": self.messages,
            "message_units": self.message_units,
            "rounds": self.rounds,
        }

    @classmethod
    def from_document(cls, document: Dict[str, object]) -> "OutcomeSummary":
        return cls(
            algorithm=str(document["algorithm"]),
            kind=str(document["kind"]),
            classification=str(document["classification"]),
            success=bool(document["success"]),
            messages=int(document["messages"]),
            message_units=int(document["message_units"]),
            rounds=int(document["rounds"]),
        )


def summary_from_outcome(outcome: TrialOutcome) -> OutcomeSummary:
    """Project one full outcome down to its aggregate summary."""
    return OutcomeSummary(
        algorithm=outcome.algorithm,
        kind=outcome.kind,
        classification=outcome.classification,
        success=bool(outcome.success),
        messages=outcome.messages,
        message_units=outcome.message_units,
        rounds=outcome.rounds,
    )


def summary_from_document(document: Dict[str, object]) -> OutcomeSummary:
    """Derive the summary of a full entry document (raises on corruption)."""
    return summary_from_outcome(outcome_from_dict(document["outcome"]))


class SummaryAggregate(NamedTuple):
    """One configuration group's summaries, already folded to exact integers.

    This is the unit the streaming report path asks a backend for: instead
    of materialising one :class:`OutcomeSummary` per trial, the backend
    folds a whole configuration's rows down to the handful of counts and
    integer sums the aggregate table is made of (the SQLite backend does the
    fold inside the database with one ``GROUP BY`` query per fingerprint
    chunk).  All fields are exact -- counts and integer sums, never floats --
    so the report row computed from an aggregate is bit-identical to the
    one computed by folding the individual summaries in Python, whichever
    backend produced it.

    ``kind`` selects the classification label family of the row (``None``
    when nothing was found); if a group ever mixes outcome kinds (only
    possible with a hand-edited cache -- a configuration runs one
    algorithm), the lexicographically smallest kind is chosen, a rule every
    backend can implement identically.
    """

    #: Distinct fingerprints asked about (the group's trial count).
    requested: int
    #: How many of them the store answered (the ``done`` column).
    done: int
    #: Summaries whose kind-aware success flag was set.
    successes: int
    sum_messages: int
    sum_message_units: int
    sum_rounds: int
    kind: Optional[str]
    #: ``(classification, count)`` pairs, sorted by label.
    classification_counts: Tuple[Tuple[str, int], ...]


def aggregate_summaries(
    requested: int, summaries: Iterable[Optional[OutcomeSummary]]
) -> SummaryAggregate:
    """Fold summary rows into a :class:`SummaryAggregate` (the reference
    implementation every backend's ``aggregate`` must agree with)."""
    done = successes = sum_messages = sum_message_units = sum_rounds = 0
    counts: Dict[str, int] = {}
    kinds = set()
    for summary in summaries:
        if summary is None:
            continue
        done += 1
        if summary.success:
            successes += 1
        sum_messages += summary.messages
        sum_message_units += summary.message_units
        sum_rounds += summary.rounds
        counts[summary.classification] = counts.get(summary.classification, 0) + 1
        kinds.add(summary.kind)
    return SummaryAggregate(
        requested=requested,
        done=done,
        successes=successes,
        sum_messages=sum_messages,
        sum_message_units=sum_message_units,
        sum_rounds=sum_rounds,
        kind=min(kinds) if kinds else None,
        classification_counts=tuple(sorted(counts.items())),
    )


class CacheBackend:
    """Physical store interface behind :class:`~repro.exec.cache.ResultCache`.

    Subclasses implement fingerprint-keyed storage of entry documents.  Any
    method may assume the facade already validated semantics; backends only
    guarantee atomicity/durability of their own representation and must treat
    their *own* corrupt entries as logged ``None`` results, never raise.
    """

    #: Registry name ("json" / "sqlite"), also reported by ``stats()``.
    name: str = "?"

    def __init__(self, root: str) -> None:
        self.root = root

    # ------------------------------------------------------------------ entries
    def load(self, fingerprint: str) -> Optional[Dict[str, object]]:
        """The stored entry document, or ``None`` when absent or corrupt."""
        raise NotImplementedError

    def load_many(self, fingerprints: List[str]) -> List[Optional[Dict[str, object]]]:
        """Batched :meth:`load`; same order as ``fingerprints``."""
        return [self.load(fingerprint) for fingerprint in fingerprints]

    def store(self, fingerprint: str, document: Dict[str, object]) -> None:
        """Persist one entry document atomically (replacing any previous)."""
        raise NotImplementedError

    def summaries(self, fingerprints: List[str]) -> List[Optional[OutcomeSummary]]:
        """Batched aggregate summaries; ``None`` where absent or corrupt."""
        results: List[Optional[OutcomeSummary]] = []
        for document in self.load_many(fingerprints):
            if document is None:
                results.append(None)
                continue
            try:
                results.append(summary_from_document(document))
            except (ValueError, KeyError, TypeError) as exc:
                logger.warning(
                    "treating unsummarisable cache entry %s as a miss (%s: %s)",
                    document.get("fingerprint", "?"),
                    type(exc).__name__,
                    exc,
                )
                results.append(None)
        return results

    def aggregate(self, fingerprints: List[str]) -> SummaryAggregate:
        """One configuration group's summaries folded to exact counts/sums.

        Defined over the *distinct* fingerprints (stores hold one entry per
        fingerprint, so duplicates cannot contribute twice).  Backends may
        override with a push-down implementation, but must return exactly
        what :func:`aggregate_summaries` over :meth:`summaries` returns --
        the report byte-identity property rests on it.
        """
        distinct = list(dict.fromkeys(fingerprints))
        return aggregate_summaries(len(distinct), self.summaries(distinct))

    # ---------------------------------------------------------------- inventory
    def fingerprints(self) -> Iterator[str]:
        """Every stored fingerprint, sorted."""
        raise NotImplementedError

    def documents(self) -> Iterator[Dict[str, object]]:
        """Every readable entry document (corrupt ones silently skipped)."""
        raise NotImplementedError

    def count(self) -> int:
        """Number of stored entries."""
        raise NotImplementedError

    def total_bytes(self) -> int:
        """Payload bytes the store holds (its accounting unit)."""
        raise NotImplementedError

    def stamped(self) -> List[Tuple[float, str]]:
        """``(created, fingerprint)`` pairs; corrupt entries stamp ``0.0``."""
        raise NotImplementedError

    # -------------------------------------------------------------- maintenance
    def delete(self, fingerprints: Iterable[str]) -> int:
        """Remove the given entries; return how many actually existed."""
        raise NotImplementedError

    def merge_from(self, other: "CacheBackend") -> int:
        """Import every entry of ``other`` this store lacks; return the count."""
        raise NotImplementedError

    def compact(self) -> None:
        """Reclaim physical space after deletions (no-op where meaningless)."""

    def path_for(self, fingerprint: str) -> str:
        """Filesystem path of one entry, for stores that have one per entry."""
        raise NotImplementedError(
            "the %r cache backend does not store one file per entry; "
            "use get()/entries() instead of path_for()" % self.name
        )

    def close(self) -> None:
        """Release store handles (safe to call more than once)."""
