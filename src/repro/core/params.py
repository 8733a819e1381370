"""Tunable constants of the leader-election algorithm.

The paper states its guarantees for "sufficiently large" constants ``c1``
(contender probability ``c1 log n / n``), ``c2`` (``c2 sqrt(n) log n`` random
walks per contender) and ``c3`` (walk-length safety factor).  Simulations at
laptop scale cannot afford the constants the union bounds would demand, so the
constants are explicit parameters with simulation-friendly defaults; the
benchmark harness verifies the *scaling* claims with these defaults and the
statistical tests quantify the success probability empirically.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, replace
from typing import Dict, Optional

__all__ = ["ElectionParameters", "DEFAULT_PARAMETERS", "paper_parameters"]


@dataclass(frozen=True)
class ElectionParameters:
    """All knobs of the Gilbert–Robinson–Sourav election algorithm.

    Attributes
    ----------
    c1:
        Contender probability constant: a node becomes contender with
        probability ``min(1, c1 * ln(n) / n)`` (Algorithm 1, line 2).
    c2:
        Walk-count constant: a contender starts ``ceil(c2 * sqrt(n) * ln(n))``
        parallel walks per phase (Algorithm 2, line 1).
    intersection_fraction:
        The intersection property requires adjacency to at least
        ``intersection_fraction * c1 * ln(n)`` other contenders (paper: 3/4).
    distinctness_fraction:
        The distinctness property requires at least
        ``distinctness_fraction * c2 * sqrt(n) * ln(n)`` distinct proxies
        (paper: 1/2).
    initial_walk_length:
        First guess of the walk length ``tu`` (paper: ``O(1)``).
    congestion_slack:
        Multiplier applied to every phase segment length.  ``1`` corresponds
        to the paper's large-message variant (time ``O(t_mix)``); larger
        values emulate the CONGEST schedule stretch ``T = O(tu log^2 n)``.
    segment_margin:
        Additive slack (in rounds) per segment so that convergecasts finish
        strictly before segment boundaries.
    max_walk_length:
        Hard cap on the guessed walk length; ``None`` means "choose ``n`` at
        run time", which is far above the mixing time of every well-connected
        graph the paper targets.  The cap guarantees termination even on
        unlucky runs (e.g. when the contender sample came out too small for
        the intersection threshold); a run that hits it is reported as
        ``forced_stop``.
    elect_on_forced_stop:
        Whether a contender that hits the cap may still elect itself if it
        holds the largest id it has seen and heard of no winner.  Keeps the
        failure mode graceful; set to ``False`` for strictly paper-faithful
        behaviour.
    id_space_exponent:
        Ids are drawn uniformly from ``[1, n**id_space_exponent]`` (paper: 4).
    """

    c1: float = 5.0
    c2: float = 1.0
    intersection_fraction: float = 0.65
    distinctness_fraction: float = 0.5
    initial_walk_length: int = 1
    congestion_slack: int = 1
    segment_margin: int = 2
    max_walk_length: Optional[int] = None
    elect_on_forced_stop: bool = True
    id_space_exponent: int = 4

    def __post_init__(self) -> None:
        if self.c1 <= 0 or self.c2 <= 0:
            raise ValueError("c1 and c2 must be positive")
        if not 0 < self.intersection_fraction <= 1.25:
            raise ValueError("intersection_fraction must lie in (0, 1.25]")
        if not 0 < self.distinctness_fraction <= 1:
            raise ValueError("distinctness_fraction must lie in (0, 1]")
        if self.initial_walk_length < 1:
            raise ValueError("initial_walk_length must be at least 1")
        if self.congestion_slack < 1:
            raise ValueError("congestion_slack must be at least 1")
        if self.segment_margin < 1:
            raise ValueError("segment_margin must be at least 1")
        if self.id_space_exponent < 2:
            raise ValueError("id_space_exponent must be at least 2")

    def document(self) -> Dict[str, object]:
        """The parameters as a JSON-pure mapping (``dataclasses.asdict``).

        Built once per instance and shared -- every trial of a sweep config
        holds the same parameter object, and each trial's fingerprint and
        wire document embed this mapping -- so treat it as read-only.
        Memoised per instance, not per value: ``c1=5`` and ``c1=5.0`` are
        equal but encode differently.
        """
        document = self.__dict__.get("_document")
        if document is None:
            document = asdict(self)
            object.__setattr__(self, "_document", document)
        return document

    # ----------------------------------------------------------- derived knobs
    def contender_probability(self, n: int) -> float:
        """Probability with which a node nominates itself (Algorithm 1)."""
        if n < 2:
            return 1.0
        return min(1.0, self.c1 * math.log(n) / n)

    def num_walks(self, n: int) -> int:
        """Number of parallel walks per contender per phase (Algorithm 2)."""
        if n < 2:
            return 1
        return max(1, math.ceil(self.c2 * math.sqrt(n) * math.log(n)))

    def intersection_threshold(self, n: int) -> int:
        """Adjacency count required by the intersection property."""
        if n < 2:
            return 0
        return max(1, math.ceil(self.intersection_fraction * self.c1 * math.log(n)))

    def distinctness_threshold(self, n: int) -> int:
        """Distinct-proxy count required by the distinctness property."""
        if n < 2:
            return 1
        return max(
            1,
            math.ceil(
                self.distinctness_fraction * self.c2 * math.sqrt(n) * math.log(n)
            ),
        )

    def id_space(self, n: int) -> int:
        """Size of the identifier space ``n**id_space_exponent``."""
        return max(4, int(n) ** self.id_space_exponent)

    def walk_length_cap(self, n: int) -> int:
        """Effective walk-length cap for an ``n``-node network."""
        if self.max_walk_length is not None:
            return self.max_walk_length
        return max(8, n)

    def with_overrides(self, **kwargs) -> "ElectionParameters":
        """Return a copy with the given fields replaced."""
        return replace(self, **kwargs)


#: Simulation-friendly defaults.  The paper's intersection fraction is 3/4; we
#: default to 0.65, which still exceeds half of the Lemma 1 upper bound
#: ``5/4 c1 log n`` (so the majority argument of Claims 9-10 goes through) but
#: is reachable with the moderate ``c1`` values a laptop-scale run can afford.
DEFAULT_PARAMETERS = ElectionParameters()


def paper_parameters(c1: float = 8.0, c2: float = 2.0) -> ElectionParameters:
    """The constants as stated in the paper (``3/4`` intersection fraction).

    The paper requires "sufficiently large" ``c1`` and ``c2 > 2``; pass larger
    values for tighter w.h.p. guarantees at a proportional message cost.
    """
    return ElectionParameters(
        c1=c1,
        c2=c2,
        intersection_fraction=0.75,
        distinctness_fraction=0.5,
    )
