"""Live-deployable algorithm profiles: election-as-a-service adapters.

The coordinator does not run protocol code; node processes do.  A
:class:`NetProfile` therefore splits each registered algorithm into its two
halves:

* the **coordinator half** (:meth:`~NetProfile.resolve`) runs once, with the
  graph in hand, and produces a JSON-pure *node config* -- everything a node
  process needs to build its protocol instance without ever seeing the
  topology (election parameters, the resolved ``known_n``, the oracle
  mixing time of the ``known_tmix`` baseline, the round cap);
* the **node half** (:func:`build_protocol`) turns that config plus the
  node's :class:`~repro.sim.node.NodeContext` into the exact protocol
  instance the simulator would have constructed.

Profiles pin the algorithm's historical seed streams (port numbering and
per-node randomness), the schedule used to resolve phase-anchored crash
plans, and the outcome aggregation -- so a live run and a simulated run of
the same :class:`~repro.exec.spec.TrialSpec` are the *same experiment*, only
the message transport differs.  That is the cross-validation contract the
``tests/net`` property suite enforces.
"""

from __future__ import annotations

import dataclasses
from typing import Callable, Dict, Optional

from ..baselines.known_tmix import (
    KNOWN_TMIX_NETWORK_STREAM,
    KNOWN_TMIX_PORT_STREAM,
    known_tmix_factory,
    pin_walk_length,
)
from ..core.leader_election import LeaderElectionNode
from ..core.params import ElectionParameters
from ..core.result import TrialOutcome, outcome_from_simulation
from ..core.runner import ELECTION_NETWORK_STREAM, ELECTION_PORT_STREAM
from ..core.schedule import PhaseSchedule
from ..exec.spec import TrialSpec
from ..graphs.mixing import cached_mixing_time
from ..graphs.topology import Graph
from ..sim.network import SimulationResult
from ..sim.node import NodeContext, Protocol

__all__ = [
    "NetProfile",
    "LIVE_ALGORITHMS",
    "get_profile",
    "build_protocol",
]


@dataclasses.dataclass(frozen=True)
class NetProfile:
    """One algorithm's live-deployment contract (see module docstring)."""

    name: str
    #: Historical seed stream ids -- the same streams the simulator draws its
    #: port numbering and per-node randomness from, which is what makes a
    #: live run bit-comparable to a simulated one.
    port_stream: int
    network_stream: int
    resolve: Callable[[TrialSpec, Graph], Dict[str, object]]
    phase_start_of: Callable[[Dict[str, object]], Callable[[int], int]]
    finish: Callable[[Dict[str, object], SimulationResult], TrialOutcome]


def _reject_unknown_kwargs(spec: TrialSpec, allowed: frozenset) -> Dict[str, object]:
    kwargs = dict(spec.algo_kwargs)
    unknown = sorted(set(kwargs) - allowed)
    if unknown:
        raise ValueError(
            "algo_kwargs %s are not supported by the live %r deployment "
            "(supported: %s)" % (unknown, spec.algorithm, ", ".join(sorted(allowed)))
        )
    return kwargs


def _params_of(config: Dict[str, object]) -> ElectionParameters:
    return ElectionParameters(**config["params"])


# ------------------------------------------------------------------ election
_ELECTION_KWARGS = frozenset({"known_n", "assumed_n", "max_rounds"})


def _resolve_election(spec: TrialSpec, graph: Graph) -> Dict[str, object]:
    kwargs = _reject_unknown_kwargs(spec, _ELECTION_KWARGS)
    known_n = kwargs.get("known_n", -1)
    resolved: Optional[int] = graph.num_nodes if known_n == -1 else known_n
    assumed_n = kwargs.get("assumed_n")
    if resolved is None and assumed_n is None:
        raise ValueError(
            "the live election needs known_n or assumed_n; both are absent"
        )
    return {
        "algorithm": "election",
        "params": dataclasses.asdict(spec.params),
        "known_n": resolved,
        "assumed_n": assumed_n,
        "max_rounds": kwargs.get("max_rounds", 10_000_000),
    }


def _election_phase_start(config: Dict[str, object]) -> Callable[[int], int]:
    return PhaseSchedule(_params_of(config)).phase_start


def _finish_election(
    config: Dict[str, object], result: SimulationResult
) -> TrialOutcome:
    return outcome_from_simulation("election", result)


# ---------------------------------------------------------------- known_tmix
_KNOWN_TMIX_KWARGS = frozenset({"mixing_time", "safety_factor", "max_rounds"})


def _resolve_known_tmix(spec: TrialSpec, graph: Graph) -> Dict[str, object]:
    kwargs = _reject_unknown_kwargs(spec, _KNOWN_TMIX_KWARGS)
    mixing_time = kwargs.get("mixing_time")
    if mixing_time is None:
        # Resolved coordinator-side: node processes never see the topology,
        # so the oracle value ships in the config like any other parameter.
        mixing_time = cached_mixing_time(graph)
    return {
        "algorithm": "known_tmix",
        "params": dataclasses.asdict(spec.params),
        "known_n": graph.num_nodes,
        "mixing_time": mixing_time,
        "safety_factor": kwargs.get("safety_factor", 1.0),
        "max_rounds": kwargs.get("max_rounds", 1_000_000),
    }


def _known_tmix_phase_start(config: Dict[str, object]) -> Callable[[int], int]:
    # Phase-anchored crash plans resolve against the schedule of the *pinned*
    # parameters -- the walk length every node actually runs with (the same
    # convention as simulate_known_tmix).
    pinned = pin_walk_length(
        _params_of(config), config["mixing_time"], config["safety_factor"]
    )
    return PhaseSchedule(pinned).phase_start


def _finish_known_tmix(
    config: Dict[str, object], result: SimulationResult
) -> TrialOutcome:
    outcome = outcome_from_simulation("known_tmix", result)
    outcome.extras["mixing_time"] = config["mixing_time"]
    return outcome


# ------------------------------------------------------------------ registry
_PROFILES: Dict[str, NetProfile] = {
    "election": NetProfile(
        name="election",
        port_stream=ELECTION_PORT_STREAM,
        network_stream=ELECTION_NETWORK_STREAM,
        resolve=_resolve_election,
        phase_start_of=_election_phase_start,
        finish=_finish_election,
    ),
    "known_tmix": NetProfile(
        name="known_tmix",
        port_stream=KNOWN_TMIX_PORT_STREAM,
        network_stream=KNOWN_TMIX_NETWORK_STREAM,
        resolve=_resolve_known_tmix,
        phase_start_of=_known_tmix_phase_start,
        finish=_finish_known_tmix,
    ),
}

#: Algorithms deployable as live node processes, in registry order.
LIVE_ALGORITHMS = tuple(sorted(_PROFILES))


def get_profile(algorithm: str) -> NetProfile:
    """Look up the live-deployment profile of ``algorithm``."""
    try:
        return _PROFILES[algorithm]
    except KeyError:
        raise KeyError(
            "algorithm %r has no live-deployment profile; deployable: %s"
            % (algorithm, ", ".join(LIVE_ALGORITHMS))
        ) from None


def build_protocol(config: Dict[str, object], ctx: NodeContext) -> Protocol:
    """Node half: instantiate the protocol a node config describes.

    This is the only place a node process interprets its config, and it must
    construct *exactly* the instance the simulator's protocol factory would:
    the constructor may draw from ``ctx.rng`` (the election draws its
    identifier there), so even construction order is part of the replay
    contract.
    """
    algorithm = config["algorithm"]
    params = _params_of(config)
    if algorithm == "election":
        return LeaderElectionNode(ctx, params=params, assumed_n=config["assumed_n"])
    if algorithm == "known_tmix":
        factory = known_tmix_factory(
            config["mixing_time"],
            params=params,
            safety_factor=config["safety_factor"],
        )
        return factory(ctx)
    raise ValueError(
        "node config names unknown algorithm %r; deployable: %s"
        % (algorithm, ", ".join(LIVE_ALGORITHMS))
    )
