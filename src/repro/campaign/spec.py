"""Campaign descriptions: named sweeps plus retry/resume policy, as plain data.

A :class:`CampaignSpec` bundles the :class:`~repro.exec.spec.SweepSpec`\\ s of
one evaluation campaign (scaling, baselines, robustness, ...) under unique
names, together with the :class:`RetryPolicy` the runner applies to transient
trial failures.  Like every other description in this codebase it is plain
data -- no callables, no handles -- so a campaign can be fingerprinted,
recorded in a manifest, sharded across machines and re-expanded identically
anywhere.

The unit of execution is the *expanded trial list*:

    >>> from repro.exec import GraphSpec, SweepSpec, TrialSpec
    >>> sweep = SweepSpec(
    ...     name="scaling",
    ...     configs=(TrialSpec(graph=GraphSpec("clique", (8,))),),
    ...     trials=2,
    ... )
    >>> campaign = CampaignSpec(name="demo", sweeps=(sweep,))
    >>> campaign.num_trials
    2
    >>> [name for name, spec in campaign.expand()]
    ['scaling', 'scaling']

Expansion is sweep-major in declaration order and delegates per-trial seed
derivation to ``SweepSpec.expand``, so a campaign run produces exactly the
trials (and numbers) the individual sweeps would.
"""

from __future__ import annotations

import hashlib
import itertools
import json
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterator, List, Optional, Sequence, Tuple

from ..exec.fingerprint import trial_fingerprint
from ..exec.spec import SweepSpec, TrialSpec

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..exec.config import ExecutionProfile

__all__ = ["RetryPolicy", "CampaignSpec", "expand_trials"]


@dataclass(frozen=True)
class RetryPolicy:
    """Bounded retry of trials that fail with an exception.

    ``max_attempts`` is the total number of times one trial may run (first
    attempt included), so the default of 3 means "retry twice".  Trials in
    this codebase are deterministic in their spec, so retries exist for
    *transient* infrastructure failures -- a worker killed by the OS, a full
    disk, a flaky filesystem -- not for algorithmic randomness.

    >>> RetryPolicy().max_attempts
    3
    >>> RetryPolicy(max_attempts=1).retries
    0
    """

    max_attempts: int = 3

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError(
                "max_attempts must be at least 1, got %d" % self.max_attempts
            )

    @property
    def retries(self) -> int:
        """How many re-runs a failing trial gets after its first attempt."""
        return self.max_attempts - 1


@dataclass(frozen=True)
class CampaignSpec:
    """A named bundle of sweeps executed and reported as one campaign."""

    name: str
    sweeps: Tuple[SweepSpec, ...]
    retry: RetryPolicy = field(default_factory=RetryPolicy)

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("a campaign needs a non-empty name")
        if not self.sweeps:
            raise ValueError("a campaign needs at least one sweep")
        names = [sweep.name for sweep in self.sweeps]
        if len(set(names)) != len(names):
            raise ValueError(
                "sweep names must be unique within a campaign, got %r" % names
            )

    # ------------------------------------------------------------- expansion
    @property
    def num_trials(self) -> int:
        """Total trial count over all sweeps."""
        return sum(sweep.num_trials for sweep in self.sweeps)

    def sweep(self, name: str) -> SweepSpec:
        """Look up one of the campaign's sweeps by name."""
        for sweep in self.sweeps:
            if sweep.name == name:
                return sweep
        raise KeyError(
            "campaign %r has no sweep %r; sweeps: %s"
            % (self.name, name, ", ".join(s.name for s in self.sweeps))
        )

    def expand(self) -> List[Tuple[str, TrialSpec]]:
        """The full deterministic trial list as ``(sweep name, spec)`` pairs.

        Sweep-major in declaration order; within a sweep the order is
        ``SweepSpec.expand``'s config-major order.  This is the canonical
        ordering every runner, manifest and report of the campaign uses.
        """
        pairs: List[Tuple[str, TrialSpec]] = []
        for sweep in self.sweeps:
            pairs.extend((sweep.name, spec) for spec in sweep.expand())
        return pairs

    # ----------------------------------------------------------- fingerprint
    def fingerprint(self, trial_fingerprints: Optional[Sequence[str]] = None) -> str:
        """Hex SHA-256 of the campaign's canonical expanded description.

        Stable across processes and machines for the same code version (it
        hashes every expanded trial's fingerprint, which embeds the
        executor's code-version tag), so a manifest can detect that it is
        being resumed against a different campaign than the one that wrote
        it.  ``trial_fingerprints`` may carry the expanded trials'
        precomputed fingerprints in :meth:`expand` order -- the campaign
        runner already holds them, and recomputing is O(edges) per
        inline-graph trial.
        """
        if trial_fingerprints is None:
            trial_fingerprints = [trial_fingerprint(spec) for _, spec in self.expand()]
        elif len(trial_fingerprints) != self.num_trials:
            raise ValueError(
                "expected %d trial fingerprints, got %d"
                % (self.num_trials, len(trial_fingerprints))
            )
        per_sweep = []
        offset = 0
        for sweep in self.sweeps:
            per_sweep.append(
                {
                    "name": sweep.name,
                    "trials": list(trial_fingerprints[offset : offset + sweep.num_trials]),
                }
            )
            offset += sweep.num_trials
        document = {
            "name": self.name,
            "max_attempts": self.retry.max_attempts,
            "sweeps": per_sweep,
        }
        encoded = json.dumps(document, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(encoded.encode("utf-8")).hexdigest()


def expand_trials(
    campaign: CampaignSpec, profile: Optional["ExecutionProfile"] = None
) -> Iterator[Tuple[str, int, TrialSpec, str]]:
    """The campaign's trials as ``(sweep name, index, spec, fingerprint)``.

    The one expansion every runner and report shares, in
    :meth:`CampaignSpec.expand` order.  ``profile``'s run-wide simulator is
    applied *before* fingerprinting, so each fingerprint names what actually
    runs (and what the cache holds); each fingerprint is computed once.
    Lazy down to one configuration at a time (``SweepSpec.expand`` order),
    so a report can stream a huge sweep.
    """
    apply_simulator = profile is not None and profile.effective_simulator() is not None
    for sweep in campaign.sweeps:
        specs = itertools.chain.from_iterable(
            map(sweep.expand_config, range(len(sweep.configs)))
        )
        for index, spec in enumerate(specs):
            if apply_simulator:
                spec = profile.apply_to_spec(spec)
            yield sweep.name, index, spec, trial_fingerprint(spec)
