"""Stable trial fingerprints for the on-disk result cache.

A fingerprint must be identical across processes, machines and Python
versions for equivalent trials, and must change whenever anything that can
change the outcome changes: graph description, algorithm, algorithm
arguments, election parameters, trial seed, or the code version.  We build a
canonical JSON document (sorted keys, no whitespace) and hash it with
SHA-256; ``hash()`` is unsuitable because Python randomises string hashes per
process.

Inline graphs are fingerprinted structurally (node count plus a digest of the
sorted edge list), so two separately-built but identical graphs share cache
entries while any topology difference invalidates them.
"""

from __future__ import annotations

import functools
import hashlib
import json
import os
from typing import Dict, Optional, Union

from ..graphs.topology import Graph
from .spec import GraphSpec, TrialSpec

__all__ = [
    "trial_fingerprint",
    "code_version_tag",
    "canonical_trial_document",
    "release_trial_document",
]

#: Bumped whenever the cached result schema changes incompatibly.
#: 2: outcomes carry ``crashed_nodes`` and ``metrics.fault_events``; the trial
#: document gained a ``fault_plan`` entry.
#: 3: outcomes are the unified ``TrialOutcome`` envelope (algorithm, kind,
#: winners, classification, extras) instead of per-algorithm documents.
#: 4: the trial document gained a ``simulator`` entry, so reference and
#: vectorized runs of the same trial never share a cache key.
#: 5: the result cache grew pluggable backends (json tree / sqlite database)
#: whose entries must agree byte-for-byte; entries written by schema-4 code
#: are retired from lookup but remain importable by the sqlite backend's
#: one-way JSON-tree migration (keys are opaque there).
CACHE_SCHEMA_VERSION = 5


@functools.lru_cache(maxsize=1)
def _source_digest() -> str:
    """Digest of the installed ``repro`` sources (cached per process).

    The package version alone cannot invalidate caches -- algorithm changes
    rarely bump it -- so the tag also hashes every ``.py`` file of the
    package.  Any code change therefore retires all previous cache entries
    automatically.
    """
    import repro

    root = os.path.dirname(os.path.abspath(repro.__file__))
    digest = hashlib.sha256()
    for dirpath, dirnames, filenames in os.walk(root):
        dirnames[:] = sorted(name for name in dirnames if name != "__pycache__")
        for name in sorted(filenames):
            if not name.endswith(".py"):
                continue
            path = os.path.join(dirpath, name)
            digest.update(os.path.relpath(path, root).encode("utf-8"))
            with open(path, "rb") as handle:
                digest.update(handle.read())
    return digest.hexdigest()[:12]


def code_version_tag() -> str:
    """Version tag folded into every fingerprint (version + source digest)."""
    from .. import __version__

    try:
        source = _source_digest()
    except OSError:
        source = "unknown"
    return "repro-%s+src-%s/cache-%d" % (__version__, source, CACHE_SCHEMA_VERSION)


def _canonical_graph(graph: Union[GraphSpec, Graph]) -> Dict[str, object]:
    if isinstance(graph, GraphSpec):
        return {
            "kind": "family",
            "family": graph.family,
            "args": list(graph.args),
            "kwargs": {str(k): v for k, v in graph.kwargs.items()},
            "seed": graph.seed,
        }
    if isinstance(graph, Graph):
        return {
            "kind": "inline",
            "num_nodes": graph.num_nodes,
            "num_edges": graph.num_edges,
            "edges_sha256": _inline_edge_digest(graph),
        }
    raise TypeError("expected GraphSpec or Graph, got %r" % type(graph).__name__)


def _inline_edge_digest(graph: Graph) -> str:
    """Digest of the sorted edge list, memoised on the graph instance.

    Sweeps hand one shared ``Graph`` to every trial spec, and the runner
    fingerprints each spec -- without memoisation a campaign of ``k`` trials
    would sort and hash the same ``O(m)`` edge list ``k`` times.  The cache
    key is the graph's mutation counter, so edits invalidate it.
    """
    version = graph._mutations
    cached = getattr(graph, "_edge_digest_cache", None)
    if cached is not None and cached[0] == version:
        return cached[1]
    edges = sorted((min(u, v), max(u, v)) for u, v in graph.edges())
    digest = hashlib.sha256(
        json.dumps(edges, separators=(",", ":")).encode("ascii")
    ).hexdigest()
    graph._edge_digest_cache = (version, digest)
    return digest


def _memo_version(spec: TrialSpec) -> Optional[int]:
    """What a memoised document must match: an inline graph's mutation counter."""
    return spec.graph._mutations if isinstance(spec.graph, Graph) else None


def canonical_trial_document(spec: TrialSpec) -> Dict[str, object]:
    """The exact JSON-serialisable document that gets hashed (label excluded).

    An empty fault plan canonicalises to ``None`` -- running under "no
    faults" and under ``FaultPlan()`` is the same trial, so both share one
    cache entry.

    The document is memoised on the (frozen) spec until
    :func:`release_trial_document` takes it: a campaign fingerprints every
    trial when it expands, and the result cache stores the same document
    beside each executed trial's outcome, so each executed trial's document
    is built once.  An inline graph's memo is keyed by its mutation counter,
    so an edited graph gets a fresh document.  Treat the returned mapping as
    read-only -- it is shared.
    """
    version = _memo_version(spec)
    memo = spec.__dict__.get("_canonical_document")
    if memo is not None and memo[0] == version:
        return memo[1]
    plan = spec.effective_fault_plan
    document = {
        "code_version": code_version_tag(),
        "graph": _canonical_graph(spec.graph),
        "algorithm": spec.algorithm,
        "algo_kwargs": {str(k): v for k, v in spec.algo_kwargs.items()},
        "params": spec.params.document(),
        "seed": spec.seed,
        "fault_plan": None if plan is None else plan.document(),
        "simulator": spec.simulator,
    }
    object.__setattr__(spec, "_canonical_document", (version, document))
    return document


def release_trial_document(spec: TrialSpec) -> Dict[str, object]:
    """The spec's canonical document, dropping its memo.

    For the document's last use -- the result cache's ``put`` -- and for
    trials served from the cache, which never need it again: a campaign
    holds its specs to the end, and memos kept that long would cost a
    document per trial of memory.
    """
    document = canonical_trial_document(spec)
    del spec.__dict__["_canonical_document"]
    return document


def trial_fingerprint(spec: TrialSpec) -> str:
    """Hex SHA-256 fingerprint of one trial description."""
    document = canonical_trial_document(spec)
    encoded = json.dumps(document, sort_keys=True, separators=(",", ":")).encode("utf-8")
    return hashlib.sha256(encoded).hexdigest()
