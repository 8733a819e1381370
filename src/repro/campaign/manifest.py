"""Per-trial status ledger of one campaign run, persisted as JSON.

The manifest answers "what happened to every trial of this campaign on this
machine": served from cache, executed (after how many attempts), failed with
which error, or skipped because it belongs to another shard.  It is pure
bookkeeping -- results live in the fingerprint-keyed
:class:`~repro.exec.cache.ResultCache`, and resume correctness never depends
on the manifest -- but it is what an operator reads after an interrupted or
partially failed campaign, and what the dashboard uses to show failures.

Writes are atomic (temp file + ``os.replace``), matching the cache's
crash-safety: killing a campaign mid-write never leaves a half-written
manifest behind.

>>> entry = TrialEntry(
...     sweep="scaling", index=0, fingerprint="ab" * 32,
...     label="n=64", status="cached",
... )
>>> manifest = CampaignManifest(campaign="demo", fingerprint="cd" * 32)
>>> manifest.record(entry)
>>> manifest.counts()["cached"]
1
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Union

from ..exec.cache import atomic_write_bytes

__all__ = ["TrialEntry", "CampaignManifest", "TRIAL_STATUSES"]

#: Every state a trial of a campaign run can end in.
TRIAL_STATUSES = ("cached", "executed", "failed", "other_shard")


@dataclass
class TrialEntry:
    """Status of one expanded trial in one campaign run.

    ``index`` is the trial's position within its sweep's expansion (the
    canonical config-major order), ``attempts`` how many times it actually
    ran this time (0 for cache hits and other-shard trials).
    """

    sweep: str
    index: int
    fingerprint: str
    label: str
    status: str
    attempts: int = 0
    elapsed_seconds: float = 0.0
    error: Optional[str] = None

    def __post_init__(self) -> None:
        if self.status not in TRIAL_STATUSES:
            raise ValueError(
                "unknown trial status %r; expected one of %s"
                % (self.status, ", ".join(TRIAL_STATUSES))
            )


class CampaignManifest:
    """The ledger one :class:`~repro.campaign.runner.CampaignRunner` run writes.

    :meth:`save` writes it as sorted-key JSON with one trial per line;
    :meth:`load` reads any JSON layout of the same document, including the
    ``indent=2`` files earlier versions wrote.
    """

    def __init__(
        self,
        campaign: str,
        fingerprint: str,
        shard: Optional[str] = None,
        created: Optional[float] = None,
    ) -> None:
        self.campaign = campaign
        self.fingerprint = fingerprint
        self.shard = shard
        self.created = time.time() if created is None else created
        self.entries: List[TrialEntry] = []

    # -------------------------------------------------------------- recording
    def record(self, entry: TrialEntry) -> None:
        """Append one trial's status (expansion order is the caller's job)."""
        self.entries.append(entry)

    def counts(self) -> Dict[str, int]:
        """How many trials ended in each status (all statuses always present)."""
        counts = {status: 0 for status in TRIAL_STATUSES}
        for entry in self.entries:
            counts[entry.status] += 1
        return counts

    def failures(self) -> List[TrialEntry]:
        """The entries that exhausted their attempts without an outcome."""
        return [entry for entry in self.entries if entry.status == "failed"]

    # ------------------------------------------------------------ persistence
    def to_document(self) -> Dict[str, object]:
        """The JSON-serialisable form ``save`` writes and ``load`` reads."""
        return {
            "campaign": self.campaign,
            "fingerprint": self.fingerprint,
            "shard": self.shard,
            "created": self.created,
            "counts": self.counts(),
            "trials": [
                {
                    "sweep": entry.sweep,
                    "index": entry.index,
                    "fingerprint": entry.fingerprint,
                    "label": entry.label,
                    "status": entry.status,
                    "attempts": entry.attempts,
                    "elapsed_seconds": entry.elapsed_seconds,
                    "error": entry.error,
                }
                for entry in self.entries
            ],
        }

    @classmethod
    def from_document(cls, document: Dict[str, object]) -> "CampaignManifest":
        """Rebuild a manifest from its ``to_document`` form."""
        manifest = cls(
            campaign=document["campaign"],
            fingerprint=document["fingerprint"],
            shard=document.get("shard"),
            created=float(document.get("created", 0.0)),
        )
        for raw in document.get("trials", []):
            manifest.record(TrialEntry(**raw))
        return manifest

    def save(self, path: Union[str, os.PathLike]) -> None:
        """Write the manifest atomically (same protocol as the result cache).

        Every line goes through json's C encoder: ``indent`` would select
        the pure-Python one, several times slower per trial, on the
        campaign's serial tail.
        """
        encode = json.JSONEncoder(sort_keys=True).encode
        document = self.to_document()
        trials = document.pop("trials")  # the last key in sorted order
        rows = ",\n".join(map(encode, trials))
        text = '%s, "trials": [\n%s\n]}\n' % (encode(document)[:-1], rows)
        atomic_write_bytes(os.fspath(path), text.encode("utf-8"))

    @classmethod
    def load(cls, path: Union[str, os.PathLike]) -> "CampaignManifest":
        """Read a manifest previously written by :meth:`save`."""
        with open(os.fspath(path), "r", encoding="utf-8") as handle:
            return cls.from_document(json.load(handle))
