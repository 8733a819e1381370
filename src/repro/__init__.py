"""repro -- reproduction of "Leader Election in Well-Connected Graphs" (PODC 2018).

The package bundles:

* :mod:`repro.graphs` -- graph generators, conductance and mixing-time analysis;
* :mod:`repro.sim` -- a synchronous, anonymous, port-numbered CONGEST simulator;
* :mod:`repro.core` -- the paper's leader-election algorithm (Theorem 13 and
  Corollary 14) with full message accounting;
* :mod:`repro.baselines` -- prior-work election algorithms used for comparison;
* :mod:`repro.broadcast` -- push-pull gossip and flooding substrates;
* :mod:`repro.lowerbound` -- the Section 4/5 lower-bound constructions and the
  executable versions of their adversarial arguments;
* :mod:`repro.analysis` -- closed-form bounds, sweep runners and statistics;
* :mod:`repro.exec` -- parallel experiment orchestration: trial/sweep specs, a
  process-parallel batch runner with deterministic seed streams, and an
  on-disk result cache;
* :mod:`repro.faults` -- deterministic fault injection: plain-data adversary
  plans (message loss/duplication, crash-stop, delay, edge removal) replayed
  bit-for-bit from ``(master seed, plan fingerprint)``.

Quickstart::

    from repro import expander_graph, run_leader_election

    graph = expander_graph(256, seed=7)
    outcome = run_leader_election(graph, seed=42)
    print(outcome.success, outcome.messages, outcome.rounds)
"""

from ._lazy import lazy_exports

__version__ = "1.0.0"

__all__ = [
    "__version__",
    "Graph",
    "PortNumberedGraph",
    "complete_graph",
    "cycle_graph",
    "expander_graph",
    "hypercube_graph",
    "random_regular_graph",
    "torus_graph",
    "mixing_time",
    "Message",
    "Network",
    "Protocol",
    "RunMetrics",
    "SimulationResult",
    "ElectionParameters",
    "DEFAULT_PARAMETERS",
    "paper_parameters",
    "TrialOutcome",
    "ExplicitElectionOutcome",
    "LeaderElectionNode",
    "run_leader_election",
    "run_explicit_leader_election",
    "BatchRunner",
    "GraphSpec",
    "ResultCache",
    "SweepSpec",
    "TrialSpec",
    "FaultPlan",
    "FaultInjector",
]

# Every subpackage loads on first use: ``import repro.exec.worker`` (a fresh
# worker interpreter) pays only for the modules its trials run.
__getattr__, __dir__ = lazy_exports(
    globals(),
    {
        ".core": (
            "DEFAULT_PARAMETERS",
            "ElectionParameters",
            "ExplicitElectionOutcome",
            "LeaderElectionNode",
            "TrialOutcome",
                    "paper_parameters",
            "run_explicit_leader_election",
            "run_leader_election",
        ),
        ".exec": ("BatchRunner", "GraphSpec", "ResultCache", "SweepSpec", "TrialSpec"),
        ".faults": ("FaultInjector", "FaultPlan"),
        ".graphs": (
            "Graph",
            "PortNumberedGraph",
            "complete_graph",
            "cycle_graph",
            "expander_graph",
            "hypercube_graph",
            "mixing_time",
            "random_regular_graph",
            "torus_graph",
        ),
        ".sim": ("Message", "Network", "Protocol", "RunMetrics", "SimulationResult"),
    },
)
