"""The algorithm registry: every algorithm a :class:`TrialSpec` can name.

Each entry is an :class:`Algorithm`: a module-level adapter
``(graph, spec) -> TrialOutcome`` plus the **declared capabilities** the
executor validates against:

* ``fault_aware`` -- the adapter honours ``TrialSpec.fault_plan``.  Specs
  that set a non-empty plan on a non-fault-aware algorithm are rejected up
  front: silently running them fault-free would poison the cache with
  mislabelled results.
* ``needs_params`` -- the adapter consumes ``TrialSpec.params``.  Specs that
  set non-default election parameters on an algorithm that ignores them are
  rejected for the dual reason: the parameters participate in the cache
  fingerprint, so a param sweep over such an algorithm would cache identical
  results under distinct keys and read as a real effect.
* ``outcome_kind`` -- which classification family the returned
  :class:`~repro.core.result.TrialOutcome` draws from (one of
  :data:`~repro.core.result.TRIAL_KINDS`).
* ``batch`` -- for walk-phase algorithms, ``(graph, spec)`` ->
  :class:`~repro.sim.vectorized.VectorizedTrial`: the trial as a member of
  a same-shape vectorized batch
  (:func:`repro.sim.vectorized.run_vectorized_batch`), whose slot of the
  batch is its ``TrialOutcome``.  A configuration the engine refuses
  statically raises
  :class:`~repro.sim.vectorized.VectorizedUnsupported`.
* ``simulators`` -- which execution engines the adapter can run on, derived
  from ``batch``: every algorithm runs on the ``"reference"`` object
  simulator, and one with a ``batch`` adapter also on the numpy
  ``"vectorized"`` engine.  Specs naming an undeclared simulator are
  rejected up front -- the simulator participates in the cache fingerprint,
  so silently running them on the reference engine would cache mislabelled
  results.

:meth:`Algorithm.run` is the one way into the vectorized engine: a lone
vectorized trial runs as a batch of one, settled by :meth:`Algorithm.settle`
exactly as a member of a larger batch
(:func:`repro.exec.execute.batched_payloads`) is.  A trial the engine
refuses -- statically or at setup -- runs once on the reference engine,
tagged ``"reference-fallback:<reason>"`` by :meth:`Algorithm.fall_back`.

Adapters are module-level so a worker process can resolve the algorithm from
the spec's string name -- specs stay wire-safe and fingerprintable precisely
because they never carry callables.  All randomness comes from ``spec.seed``;
adapters must not draw from any other source, which is what makes serial and
parallel execution bit-identical.  Names starting with ``_`` are reserved for
private/test registrations and are excluded from the public catalog.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Dict, FrozenSet, List, Optional, Tuple

from ..baselines.clique_sublinear import clique_sublinear_trial
from ..baselines.controlled_flooding import controlled_flooding_trial, flood_max_trial
from ..baselines.known_tmix import known_tmix_recipe, known_tmix_trial
from ..broadcast.flooding import flooding_trial
from ..broadcast.push_pull import push_pull_trial
from ..broadcast.spanning_tree import spanning_tree_trial
from ..core.result import TRIAL_KINDS, TrialOutcome
from ..core.runner import KNOWN_SIMULATORS, run_leader_election
from ..graphs.topology import Graph
from .spec import TrialSpec

if TYPE_CHECKING:
    from ..sim.vectorized import VectorizedTrial

__all__ = [
    "Algorithm",
    "ALGORITHMS",
    "algorithm_names",
    "fault_aware_algorithms",
    "get_algorithm",
    "register_algorithm",
]

AlgorithmRunner = Callable[[Graph, TrialSpec], TrialOutcome]
BatchAdapter = Callable[[Graph, TrialSpec], "VectorizedTrial"]


@dataclass(frozen=True)
class Algorithm:
    """One registry entry: a named runner plus its declared capabilities."""

    name: str
    runner: AlgorithmRunner
    fault_aware: bool = False
    needs_params: bool = False
    outcome_kind: str = "election"
    description: str = ""
    batch: Optional[BatchAdapter] = None

    def __post_init__(self) -> None:
        if self.outcome_kind not in TRIAL_KINDS:
            raise ValueError(
                "algorithm %r declares unknown outcome kind %r; expected one of %s"
                % (self.name, self.outcome_kind, ", ".join(TRIAL_KINDS))
            )

    @property
    def simulators(self) -> Tuple[str, ...]:
        """The engines this algorithm runs on: the vectorized one needs ``batch``."""
        return KNOWN_SIMULATORS if self.batch is not None else ("reference",)

    def run(self, graph: Graph, spec: TrialSpec) -> TrialOutcome:
        """Execute this algorithm on ``graph`` as described by ``spec``."""
        if spec.simulator != "vectorized" or self.batch is None:
            return self.runner(graph, spec)
        from ..sim.vectorized import VectorizedUnsupported, run_vectorized_batch

        try:
            trial = self.batch(graph, spec)
        except VectorizedUnsupported as refusal:
            return self.fall_back(graph, spec, refusal)
        (result,) = run_vectorized_batch([trial])
        return self.settle(graph, spec, result)

    def settle(self, graph: Graph, spec: TrialSpec, result) -> TrialOutcome:
        """A vectorized batch member's outcome from its slot of
        :func:`~repro.sim.vectorized.run_vectorized_batch`: the outcome
        itself, the reference fallback when its setup raised
        :class:`~repro.sim.vectorized.VectorizedUnsupported`, or the
        exception any other setup failure raised."""
        from ..sim.vectorized import VectorizedUnsupported

        if isinstance(result, VectorizedUnsupported):
            return self.fall_back(graph, spec, result)
        if isinstance(result, BaseException):
            raise result
        return result

    def fall_back(self, graph: Graph, spec: TrialSpec, refusal: Exception) -> TrialOutcome:
        """The trial on the reference engine, tagged with why the vectorized
        engine refused it."""
        outcome = self.runner(graph, spec)
        outcome.extras["simulator"] = "reference-fallback:%s" % refusal
        return outcome


ALGORITHMS: Dict[str, Algorithm] = {}


def register_algorithm(
    name: str,
    *,
    fault_aware: bool = False,
    needs_params: bool = False,
    outcome_kind: str = "election",
    description: str = "",
    batch: Optional[BatchAdapter] = None,
) -> Callable[[AlgorithmRunner], AlgorithmRunner]:
    """Register a runner under ``name`` with its capabilities (decorator form)."""

    def decorator(runner: AlgorithmRunner) -> AlgorithmRunner:
        if name in ALGORITHMS:
            raise ValueError("algorithm %r registered twice" % name)
        ALGORITHMS[name] = Algorithm(
            name=name,
            runner=runner,
            fault_aware=fault_aware,
            needs_params=needs_params,
            outcome_kind=outcome_kind,
            description=description,
            batch=batch,
        )
        return runner

    return decorator


def get_algorithm(name: str) -> Algorithm:
    """Look up a registered :class:`Algorithm` by name."""
    try:
        return ALGORITHMS[name]
    except KeyError:
        raise KeyError(
            "unknown algorithm %r; known algorithms: %s"
            % (name, ", ".join(sorted(ALGORITHMS)))
        ) from None


def algorithm_names(include_private: bool = False) -> List[str]:
    """Sorted registry names; ``_``-prefixed (test-only) entries are opt-in.

    >>> "election" in algorithm_names()
    True
    """
    return sorted(
        name for name in ALGORITHMS if include_private or not name.startswith("_")
    )


def fault_aware_algorithms() -> FrozenSet[str]:
    """Names of every registered algorithm that honours ``fault_plan``."""
    return frozenset(
        name for name, algorithm in ALGORITHMS.items() if algorithm.fault_aware
    )


# --------------------------------------------------------------------- paper
def _vectorized_kwargs(spec: TrialSpec, signature: Tuple[str, ...]) -> dict:
    """``spec.algo_kwargs`` without the ``signature`` keys the engine's
    static refusal reads; raises :class:`VectorizedUnsupported` when they
    refuse the engine."""
    from ..sim.vectorized import VectorizedUnsupported, vectorized_unsupported_reason

    kwargs = dict(spec.algo_kwargs)
    reason = vectorized_unsupported_reason(
        **{key: kwargs.pop(key) for key in signature if key in kwargs}
    )
    if reason is not None:
        raise VectorizedUnsupported(reason)
    return kwargs


def _paper_election_batch(graph: Graph, spec: TrialSpec):
    from ..sim.vectorized import vectorized_election_trial

    kwargs = _vectorized_kwargs(spec, ("observers", "keep_simulation", "congest_mode"))
    return vectorized_election_trial(
        graph, params=spec.params, seed=spec.seed, fault_plan=spec.effective_fault_plan, **kwargs
    )


@register_algorithm(
    "election",
    fault_aware=True,
    needs_params=True,
    outcome_kind="election",
    description="the paper's Theorem 13 guess-and-double random-walk election",
    batch=_paper_election_batch,
)
def _run_paper_election(graph: Graph, spec: TrialSpec) -> TrialOutcome:
    """The paper's Theorem 13 election; ``algo_kwargs`` may set ``known_n`` etc."""
    return run_leader_election(
        graph,
        params=spec.params,
        seed=spec.seed,
        fault_plan=spec.effective_fault_plan,
        **spec.algo_kwargs,
    )


# ----------------------------------------------------------------- baselines
def _known_tmix_batch(graph: Graph, spec: TrialSpec):
    from ..sim.vectorized import VectorizedTrial

    kwargs = _vectorized_kwargs(spec, ("observers",))
    recipe = known_tmix_recipe(graph, params=spec.params, **kwargs)
    return VectorizedTrial(graph, recipe, spec.seed, spec.effective_fault_plan)


@register_algorithm(
    "known_tmix",
    fault_aware=True,
    needs_params=True,
    outcome_kind="election",
    description="Kutten et al. [25]: one oracle-length walk phase (t_mix known)",
    batch=_known_tmix_batch,
)
def _run_known_tmix(graph: Graph, spec: TrialSpec) -> TrialOutcome:
    """The Kutten et al. [25] baseline.

    ``algo_kwargs['mixing_time']`` pins the walk length; when omitted the
    exact mixing time is computed in the worker (deterministic per graph and
    memoised on the instance, so serial sweeps pay it once).
    """
    return known_tmix_trial(
        graph,
        params=spec.params,
        seed=spec.seed,
        fault_plan=spec.effective_fault_plan,
        **spec.algo_kwargs,
    )


@register_algorithm(
    "flood_max",
    fault_aware=True,
    description="flood the maximum id: O(D) rounds, Theta(m)+ messages",
)
def _run_flood_max(graph: Graph, spec: TrialSpec) -> TrialOutcome:
    return flood_max_trial(
        graph, seed=spec.seed, fault_plan=spec.effective_fault_plan, **spec.algo_kwargs
    )


@register_algorithm(
    "controlled_flooding",
    fault_aware=True,
    description="Theta(log n) random candidates flood ids: O(m log n) messages",
)
def _run_controlled_flooding(graph: Graph, spec: TrialSpec) -> TrialOutcome:
    return controlled_flooding_trial(
        graph, seed=spec.seed, fault_plan=spec.effective_fault_plan, **spec.algo_kwargs
    )


@register_algorithm(
    "clique_sublinear",
    fault_aware=True,
    description="Kutten et al. [25] clique-only sublinear sampling election",
)
def _run_clique_sublinear(graph: Graph, spec: TrialSpec) -> TrialOutcome:
    return clique_sublinear_trial(
        graph, seed=spec.seed, fault_plan=spec.effective_fault_plan, **spec.algo_kwargs
    )


# ----------------------------------------------------------------- broadcast
@register_algorithm(
    "flooding",
    fault_aware=True,
    outcome_kind="broadcast",
    description="forward-once flooding broadcast: Theta(m) messages",
)
def _run_flooding(graph: Graph, spec: TrialSpec) -> TrialOutcome:
    """``algo_kwargs``: ``sources`` (list, default ``[0]``), ``rumor``, ``max_rounds``."""
    kwargs = dict(spec.algo_kwargs)
    sources = tuple(kwargs.pop("sources", (0,)))
    return flooding_trial(
        graph,
        sources,
        seed=spec.seed,
        fault_plan=spec.effective_fault_plan,
        **kwargs,
    )


@register_algorithm(
    "push_pull",
    fault_aware=True,
    outcome_kind="broadcast",
    description="Karp et al. [22] push-pull gossip: O(n log n / phi) messages",
)
def _run_push_pull(graph: Graph, spec: TrialSpec) -> TrialOutcome:
    """``algo_kwargs``: ``sources`` (list, default ``[0]``), ``rumor``,
    ``push_rounds``, ``max_rounds``."""
    kwargs = dict(spec.algo_kwargs)
    sources = tuple(kwargs.pop("sources", (0,)))
    return push_pull_trial(
        graph,
        sources,
        seed=spec.seed,
        fault_plan=spec.effective_fault_plan,
        **kwargs,
    )


@register_algorithm(
    "spanning_tree",
    fault_aware=True,
    outcome_kind="spanning_tree",
    description="BFS-style spanning-tree construction: Theta(m) messages",
)
def _run_spanning_tree(graph: Graph, spec: TrialSpec) -> TrialOutcome:
    """``algo_kwargs``: ``root`` (default 0), ``max_rounds``."""
    return spanning_tree_trial(
        graph, seed=spec.seed, fault_plan=spec.effective_fault_plan, **spec.algo_kwargs
    )
