"""Trial and sweep descriptions for the batch executor.

A :class:`TrialSpec` is a complete, self-contained description of one
simulation trial: which graph, which algorithm, which parameters, which seed.
Because the description is plain data (no callables, no open handles) it can
cross the JSON wire to a worker process, hash into a stable cache
fingerprint and replay bit-identically on any machine -- the executor never
consults worker state for randomness.

Graphs are described either by a :class:`GraphSpec` (a named family from
``repro.graphs.FAMILIES`` plus arguments, built inside the worker) or by an
inline :class:`~repro.graphs.topology.Graph` instance (built by the caller,
shipped to the worker as an edge list).  Inline graphs keep lambda-based
sweep builders working; family specs keep large campaigns cheap to enqueue.

A :class:`SweepSpec` is the batch shape every experiment in the paper's
evaluation reduces to: a list of configurations, each run for ``trials``
independent trials.  ``expand`` derives every per-trial seed from the master
seed with :func:`repro.sim.rng.derive_seed` (config ``i``, trial ``t`` gets
``derive_seed(derive_seed(base_seed, i), t)``; a randomised graph family with
no explicit seed gets ``derive_seed(base_seed, 1000 + i)``), matching the
conventions the serial harness has always used -- so serial and parallel
execution, and old and new code paths, agree number for number.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Tuple, Union

from ..core.params import DEFAULT_PARAMETERS, ElectionParameters
from ..faults.plan import FaultPlan
from ..graphs.generators import get_family
from ..graphs.topology import Graph
from ..sim.rng import derive_seed

__all__ = ["GraphSpec", "TrialSpec", "SweepSpec", "build_graph"]

#: Stream offset for per-configuration graph seeds (a historical convention,
#: kept so every sweep reproduces the numbers of earlier versions).
GRAPH_SEED_STREAM_OFFSET = 1000


@dataclass(frozen=True)
class GraphSpec:
    """A graph described by family name + arguments, buildable anywhere.

    ``family`` must name an entry of :data:`repro.graphs.FAMILIES`;
    ``args``/``kwargs`` are forwarded to the family builder and ``seed`` is
    passed only to randomised families (deterministic families ignore it).
    """

    family: str
    args: Tuple = ()
    kwargs: Dict[str, object] = field(default_factory=dict)
    seed: Optional[int] = None

    def build(self) -> Graph:
        """Construct the described graph instance.

        >>> GraphSpec("clique", (8,)).build().num_nodes
        8
        """
        return get_family(self.family).build(*self.args, seed=self.seed, **self.kwargs)

    def describe(self) -> str:
        """Short human-readable form.

        >>> GraphSpec("expander", (64,), {"degree": 4}, seed=7).describe()
        'expander(64, degree=4, seed=7)'
        """
        parts = [str(a) for a in self.args]
        parts += ["%s=%r" % (k, v) for k, v in sorted(self.kwargs.items())]
        if self.seed is not None:
            parts.append("seed=%d" % self.seed)
        return "%s(%s)" % (self.family, ", ".join(parts))


def build_graph(graph: Union[GraphSpec, Graph]) -> Graph:
    """Materialise the graph of a trial (no-op for inline graphs)."""
    if isinstance(graph, GraphSpec):
        return graph.build()
    if isinstance(graph, Graph):
        return graph
    raise TypeError("expected GraphSpec or Graph, got %r" % type(graph).__name__)


@dataclass(frozen=True)
class TrialSpec:
    """One fully-specified trial: graph x algorithm x parameters x seed.

    ``algorithm`` names an entry of the executor's algorithm registry (see
    :mod:`repro.exec.algorithms`); ``algo_kwargs`` are forwarded to that
    algorithm's runner (e.g. ``known_n`` for the paper's election,
    ``safety_factor`` for the known-t_mix baseline).  ``label`` is free-form
    display text and does not participate in the cache fingerprint.

    ``fault_plan`` runs the trial against a :class:`~repro.faults.plan.FaultPlan`
    adversary (algorithms whose registry entry declares ``fault_aware`` --
    every built-in algorithm does).  The plan is plain data like the rest of
    the spec, so it ships to workers and participates in the cache
    fingerprint; ``None`` and an empty plan are equivalent (and fingerprint
    identically) -- both mean the historical fault-free run.  The executor
    validates the spec against the algorithm's declared capabilities before
    running: a plan on a non-fault-aware algorithm, non-default ``params``
    on an algorithm that ignores them, and a ``simulator`` the algorithm
    does not declare are all rejected up front.

    ``simulator`` selects the execution engine for algorithms that support
    more than one (see ``docs/architecture.md`` "Simulators"): the default
    ``"reference"`` object simulator is the bit-exactness oracle, while
    ``"vectorized"`` runs the numpy walk-phase engine with its own
    walk-randomness seed stream.  The field participates in the cache
    fingerprint, so reference and vectorized results never mix.
    """

    graph: Union[GraphSpec, Graph]
    algorithm: str = "election"
    seed: int = 0
    params: ElectionParameters = DEFAULT_PARAMETERS
    algo_kwargs: Dict[str, object] = field(default_factory=dict)
    label: str = ""
    fault_plan: Optional[FaultPlan] = None
    simulator: str = "reference"

    def build_graph(self) -> Graph:
        """Materialise this trial's graph (no-op for inline graphs)."""
        return build_graph(self.graph)

    @property
    def effective_fault_plan(self) -> Optional[FaultPlan]:
        """The plan a worker should apply: ``None`` when absent *or* empty."""
        if self.fault_plan is None or self.fault_plan.is_empty:
            return None
        return self.fault_plan

    def describe(self) -> str:
        """Display text for progress lines and manifests.

        >>> TrialSpec(graph=GraphSpec("clique", (16,)), seed=3).describe()
        'election on clique(16) seed=3'
        """
        graph = (
            self.graph.describe()
            if isinstance(self.graph, GraphSpec)
            else "inline(n=%d, m=%d)" % (self.graph.num_nodes, self.graph.num_edges)
        )
        text = self.label or "%s on %s seed=%d" % (self.algorithm, graph, self.seed)
        if not self.label and self.effective_fault_plan is not None:
            text += " " + self.effective_fault_plan.describe()
        if not self.label and self.simulator != "reference":
            text += " sim=%s" % self.simulator
        return text


@dataclass(frozen=True)
class SweepSpec:
    """A named batch of configurations, each run ``trials`` times.

    ``configs`` are :class:`TrialSpec` templates: :meth:`expand` always
    derives each trial's ``seed`` from ``base_seed`` (config-major), so a
    seed set on the template itself is overwritten.  Only the ``seed`` of a
    :class:`GraphSpec` is preserved when set explicitly; an unseeded
    randomised graph family gets a derived seed as well.
    """

    name: str
    configs: Tuple[TrialSpec, ...]
    trials: int = 1
    base_seed: int = 0

    def __post_init__(self) -> None:
        if self.trials < 1:
            raise ValueError("trials must be at least 1")
        if not self.configs:
            raise ValueError("a sweep needs at least one configuration")

    @property
    def num_trials(self) -> int:
        """Total trial count: one per config per repetition.

        >>> sweep = SweepSpec(
        ...     name="demo",
        ...     configs=(TrialSpec(graph=GraphSpec("clique", (8,))),),
        ...     trials=3,
        ... )
        >>> sweep.num_trials
        3
        """
        return len(self.configs) * self.trials

    def expand(self) -> List[TrialSpec]:
        """Derive the full, deterministic list of trials (config-major order)."""
        specs: List[TrialSpec] = []
        for index in range(len(self.configs)):
            specs.extend(self.expand_config(index))
        return specs

    def expand_config(self, index: int) -> List[TrialSpec]:
        """The ``trials`` derived specs of configuration ``index`` alone.

        Exactly the slice of :meth:`expand` belonging to that configuration
        (same graph-seed and trial-seed derivation), without materialising
        the other configurations -- the streaming report path walks a huge
        sweep one configuration at a time through this.
        """
        config = self.configs[index]
        graph = config.graph
        if isinstance(graph, GraphSpec) and graph.seed is None:
            graph = replace(
                graph, seed=derive_seed(self.base_seed, GRAPH_SEED_STREAM_OFFSET + index)
            )
        trial_base = derive_seed(self.base_seed, index)
        return [
            replace(config, graph=graph, seed=derive_seed(trial_base, trial))
            for trial in range(self.trials)
        ]

    def group(self, results: List) -> List[List]:
        """Chunk a flat ``expand``-ordered result list back per configuration."""
        if len(results) != self.num_trials:
            raise ValueError(
                "expected %d results for sweep %r, got %d"
                % (self.num_trials, self.name, len(results))
            )
        return [
            results[i * self.trials : (i + 1) * self.trials]
            for i in range(len(self.configs))
        ]
