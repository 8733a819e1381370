"""Lazy random walks and mixing times, following Section 2 of the paper.

The paper defines the walk as the *lazy* walk: stay put with probability 1/2,
otherwise move to a uniformly random neighbour.  The mixing time ``t_mix`` is
the smallest ``t`` such that, from every starting distribution, the walk's
distribution after ``t`` steps is within ``1 / (2n)`` of the stationary
distribution in the infinity norm.  Because the infinity-norm distance is a
convex function of the starting distribution, it suffices to check point-mass
starts, which is what :func:`mixing_time` does.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .spectra import lazy_walk_second_eigenvalue
from .topology import Graph

__all__ = [
    "lazy_transition_matrix",
    "stationary_distribution",
    "walk_distribution",
    "linf_distance_to_stationary",
    "mixing_time",
    "cached_mixing_time",
    "spectral_mixing_time_estimate",
    "MixingProfile",
    "mixing_profile",
]


def lazy_transition_matrix(graph: Graph, laziness: float = 0.5) -> np.ndarray:
    """Row-stochastic lazy walk matrix ``P`` with ``P[i, i] = laziness``.

    ``P[i, j] = (1 - laziness) / d_i`` for every neighbour ``j`` of ``i`` --
    the paper's preliminaries fix ``laziness = 1/2``, and every protocol in
    this repository uses that value; other values support sensitivity
    experiments on the laziness constant.
    """
    if not 0.0 <= laziness < 1.0:
        raise ValueError("laziness must lie in [0, 1)")
    n = graph.num_nodes
    matrix = np.zeros((n, n), dtype=float)
    for v in graph.nodes():
        degree = graph.degree(v)
        matrix[v, v] = laziness
        if degree == 0:
            matrix[v, v] = 1.0
            continue
        weight = (1.0 - laziness) / degree
        for u in graph.neighbors(v):
            matrix[v, u] = weight
    return matrix


def stationary_distribution(graph: Graph) -> np.ndarray:
    """Stationary distribution ``pi*`` with ``pi*_i = d_i / (2m)``."""
    degrees = np.array(graph.degrees(), dtype=float)
    total = degrees.sum()
    if total == 0:
        raise ValueError("stationary distribution undefined for an empty graph")
    return degrees / total


def walk_distribution(graph: Graph, source: int, steps: int) -> np.ndarray:
    """Distribution of a lazy walk started at ``source`` after ``steps`` steps."""
    if steps < 0:
        raise ValueError("steps must be non-negative")
    transition = lazy_transition_matrix(graph)
    distribution = np.zeros(graph.num_nodes)
    distribution[source] = 1.0
    for _ in range(steps):
        distribution = distribution @ transition
    return distribution


def linf_distance_to_stationary(graph: Graph, distributions: np.ndarray) -> float:
    """Worst infinity-norm distance between the given rows and ``pi*``."""
    stationary = stationary_distribution(graph)
    return float(np.max(np.abs(distributions - stationary)))


def mixing_time(
    graph: Graph,
    threshold: Optional[float] = None,
    max_steps: Optional[int] = None,
    laziness: float = 0.5,
) -> int:
    """Exact mixing time of the lazy walk under the paper's definition.

    ``threshold`` defaults to ``1 / (2n)``.  ``max_steps`` defaults to
    ``64 * n**3`` which exceeds the worst-case lazy-walk mixing time of any
    connected graph; a mixing time ``t >= max_steps`` raises ``RuntimeError``
    so a silent wrong answer is impossible.  ``laziness`` is the walk's
    stay-put probability (the paper's walks use 1/2).

    The answer is the smallest ``t`` with ``d(t) <= threshold``, where
    ``d(t) = max_{x,y} |P^t(x, y) - pi(y)|``.  ``d`` never increases:
    ``P^(t+1) - Pi = P (P^t - Pi)`` because every row of ``P`` sums to one,
    and each row of that product is a convex combination of the rows of
    ``P^t - Pi``.  So the search is binary lifting rather than one step at a
    time: square ``P`` until ``d(P^(2^k)) <= threshold``, then walk the
    squares from the largest down, keeping the largest ``t`` with
    ``d(t) > threshold``; the mixing time is ``t + 1``.  That is about
    ``2 * log2(t_mix)`` dense ``n x n`` products instead of ``t_mix``.

    >>> from repro.graphs import cycle_graph
    >>> mixing_time(cycle_graph(8))
    9
    """
    if not graph.is_connected():
        raise ValueError("mixing time is undefined for a disconnected graph")
    n = graph.num_nodes
    if n == 1:
        return 0
    if threshold is None:
        threshold = 1.0 / (2.0 * n)
    if max_steps is None:
        max_steps = 64 * n**3
    stationary = stationary_distribution(graph)

    def mixed(powers: np.ndarray) -> bool:
        # Rows of `powers` hold the distribution of a walk started at each vertex.
        return float(np.max(np.abs(powers - stationary))) <= threshold

    def exceeded() -> RuntimeError:
        return RuntimeError("mixing time exceeded max_steps=%d" % max_steps)

    if mixed(np.eye(n)):
        if max_steps <= 0:
            raise exceeded()
        return 0
    # squares[k] = P^(2^k); every square but the last is still unmixed.
    squares = [lazy_transition_matrix(graph, laziness=laziness)]
    while not mixed(squares[-1]):
        # d(2^k) > threshold, so the mixing time is at least 2^k + 1.
        if 2 ** (len(squares) - 1) + 1 >= max_steps:
            raise exceeded()
        squares.append(squares[-1] @ squares[-1])
    # The mixing time lies in (2^(K-1), 2^K] for K = len(squares) - 1.
    steps = 0
    if len(squares) > 1:
        steps = 2 ** (len(squares) - 2)
        powers = squares[-2]
        for k in reversed(range(len(squares) - 2)):
            candidate = powers @ squares[k]
            if not mixed(candidate):
                powers = candidate
                steps += 2**k
    if steps + 1 >= max_steps:
        raise exceeded()
    return steps + 1


def cached_mixing_time(graph: Graph, laziness: float = 0.5) -> int:
    """:func:`mixing_time` memoised on the graph instance.

    The exact computation costs about ``2 * log2(t_mix)`` dense ``n x n``
    products, and sweeps hand one shared ``Graph`` to every trial of a
    configuration while the known-``t_mix`` adapter needs the value per
    trial.  The cache key is the graph's mutation counter (the same
    convention as the executor's inline-edge digest) *plus* the walk's
    ``laziness``: the mixing time of the half-lazy and of
    any other walk differ, so memoising on the topology alone would hand a
    sensitivity sweep the first laziness value's answer for every query.
    Topology edits invalidate all entries, and a serial sweep computes each
    ``(topology, laziness)`` mixing time once instead of once per trial.
    Worker processes build their own copies, so parallel runs still pay once
    per task -- exactly the cost the fault-free code always had, never more.
    """
    version = graph._mutations
    key = (version, laziness)
    cache = getattr(graph, "_mixing_time_cache", None)
    # Entries from older topology versions are dropped wholesale: a mutated
    # graph never reuses any stale value, whatever its laziness.
    if cache is not None and cache.get("version") == version:
        if key in cache:
            return cache[key]
    else:
        cache = {"version": version}
        graph._mixing_time_cache = cache
    value = mixing_time(graph, laziness=laziness)
    cache[key] = value
    return value


def spectral_mixing_time_estimate(graph: Graph, threshold: Optional[float] = None) -> float:
    """Spectral upper-bound style estimate ``ln(1 / (threshold * pi_min)) / gap``.

    Useful for graphs that are too large for the exact computation; the
    estimate is within a constant factor of the true mixing time for the
    well-connected graphs the paper targets.
    """
    n = graph.num_nodes
    if threshold is None:
        threshold = 1.0 / (2.0 * n)
    gap = 1.0 - lazy_walk_second_eigenvalue(graph)
    if gap <= 0:
        return float("inf")
    pi_min = float(np.min(stationary_distribution(graph)))
    return float(np.log(1.0 / (threshold * pi_min)) / gap)


@dataclass
class MixingProfile:
    """Summary of the walk-related quantities of a graph."""

    num_nodes: int
    num_edges: int
    mixing_time: int
    spectral_estimate: float
    spectral_gap: float

    def __str__(self) -> str:
        return (
            "MixingProfile(n=%d, m=%d, t_mix=%d, spectral_estimate=%.1f, gap=%.4f)"
            % (
                self.num_nodes,
                self.num_edges,
                self.mixing_time,
                self.spectral_estimate,
                self.spectral_gap,
            )
        )


def mixing_profile(graph: Graph) -> MixingProfile:
    """Compute the full :class:`MixingProfile` of a graph."""
    gap = 1.0 - lazy_walk_second_eigenvalue(graph)
    return MixingProfile(
        num_nodes=graph.num_nodes,
        num_edges=graph.num_edges,
        mixing_time=mixing_time(graph),
        spectral_estimate=spectral_mixing_time_estimate(graph),
        spectral_gap=gap,
    )
