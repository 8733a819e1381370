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
* ``simulators`` -- which execution engines the adapter can run on
  (a subset of :data:`~repro.core.runner.KNOWN_SIMULATORS`).  Every
  algorithm supports the ``"reference"`` object simulator; walk-phase
  algorithms additionally support the numpy ``"vectorized"`` engine.
  Specs naming an undeclared simulator are rejected up front -- the
  simulator participates in the cache fingerprint, so silently running
  them on the reference engine would cache mislabelled results.

Adapters are module-level so a worker process can resolve the algorithm from
the spec's string name -- specs stay picklable and fingerprintable precisely
because they never carry callables.  All randomness comes from ``spec.seed``;
adapters must not draw from any other source, which is what makes serial and
parallel execution bit-identical.  Names starting with ``_`` are reserved for
private/test registrations and are excluded from the public catalog.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, FrozenSet, List, Tuple

from ..baselines.clique_sublinear import clique_sublinear_trial
from ..baselines.controlled_flooding import controlled_flooding_trial
from ..baselines.flood_max import flood_max_trial
from ..baselines.known_tmix import known_tmix_trial
from ..broadcast.flooding import flooding_trial
from ..broadcast.push_pull import push_pull_trial
from ..broadcast.spanning_tree import spanning_tree_trial
from ..core.result import TRIAL_KINDS, TrialOutcome
from ..core.runner import KNOWN_SIMULATORS, run_leader_election
from ..graphs.topology import Graph
from .spec import TrialSpec

__all__ = [
    "Algorithm",
    "ALGORITHMS",
    "algorithm_names",
    "fault_aware_algorithms",
    "get_algorithm",
    "register_algorithm",
]

AlgorithmRunner = Callable[[Graph, TrialSpec], TrialOutcome]


@dataclass(frozen=True)
class Algorithm:
    """One registry entry: a named runner plus its declared capabilities."""

    name: str
    runner: AlgorithmRunner
    fault_aware: bool = False
    needs_params: bool = False
    outcome_kind: str = "election"
    description: str = ""
    simulators: Tuple[str, ...] = ("reference",)

    def __post_init__(self) -> None:
        if self.outcome_kind not in TRIAL_KINDS:
            raise ValueError(
                "algorithm %r declares unknown outcome kind %r; expected one of %s"
                % (self.name, self.outcome_kind, ", ".join(TRIAL_KINDS))
            )
        if "reference" not in self.simulators:
            raise ValueError(
                "algorithm %r must support the 'reference' simulator (the "
                "bit-exactness oracle); declared %r" % (self.name, self.simulators)
            )
        for simulator in self.simulators:
            if simulator not in KNOWN_SIMULATORS:
                raise ValueError(
                    "algorithm %r declares unknown simulator %r; expected a "
                    "subset of %s"
                    % (self.name, simulator, ", ".join(KNOWN_SIMULATORS))
                )

    def run(self, graph: Graph, spec: TrialSpec) -> TrialOutcome:
        """Execute this algorithm on ``graph`` as described by ``spec``."""
        return self.runner(graph, spec)

    # ``get_algorithm`` used to return the bare runner callable; keeping the
    # entry itself callable preserves that calling convention for old code.
    __call__ = run


ALGORITHMS: Dict[str, Algorithm] = {}


def register_algorithm(
    name: str,
    *,
    fault_aware: bool = False,
    needs_params: bool = False,
    outcome_kind: str = "election",
    description: str = "",
    simulators: Tuple[str, ...] = ("reference",),
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
            simulators=tuple(simulators),
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
@register_algorithm(
    "election",
    fault_aware=True,
    needs_params=True,
    outcome_kind="election",
    description="the paper's Theorem 13 guess-and-double random-walk election",
    simulators=("reference", "vectorized"),
)
def _run_paper_election(graph: Graph, spec: TrialSpec) -> TrialOutcome:
    """The paper's Theorem 13 election; ``algo_kwargs`` may set ``known_n`` etc."""
    outcome = run_leader_election(
        graph,
        params=spec.params,
        seed=spec.seed,
        fault_plan=spec.effective_fault_plan,
        simulator=spec.simulator,
        **spec.algo_kwargs,
    )
    return TrialOutcome.from_election("election", outcome)


# ----------------------------------------------------------------- baselines
@register_algorithm(
    "known_tmix",
    fault_aware=True,
    needs_params=True,
    outcome_kind="election",
    description="Kutten et al. [25]: one oracle-length walk phase (t_mix known)",
    simulators=("reference", "vectorized"),
)
def _run_known_tmix(graph: Graph, spec: TrialSpec) -> TrialOutcome:
    """The Kutten et al. [25] baseline.

    ``algo_kwargs['mixing_time']`` pins the walk length; when omitted the
    exact mixing time is computed in the worker (deterministic per graph and
    memoised on the instance, so serial sweeps pay it once).
    """
    kwargs = dict(spec.algo_kwargs)
    t_mix = kwargs.pop("mixing_time", None)
    return known_tmix_trial(
        graph,
        t_mix,
        params=spec.params,
        seed=spec.seed,
        fault_plan=spec.effective_fault_plan,
        simulator=spec.simulator,
        **kwargs,
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
