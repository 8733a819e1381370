"""The cross-validation contract: live deployments equal the simulator.

Every test here runs a real deployment -- one OS process per node, frames
over a Unix-domain socket -- and asserts the resulting
:class:`~repro.core.result.TrialOutcome` is *identical* to the simulator's
for the same spec: winners, classification, crashed nodes, and every
model-level metric, with only ``metrics.net_events`` allowed to differ.
"""

import pytest

from repro.core import ElectionParameters
from repro.exec import GraphSpec, TrialSpec
from repro.faults import CrashFaults, DelayFaults, FaultPlan, MessageFaults
from repro.net.coordinator import compare_outcomes, cross_validate, run_live_trial

FAST = ElectionParameters(c1=3.0, c2=0.5)

#: Three structurally different families, all on 8 nodes.
GRAPHS = {
    "expander": GraphSpec("expander", (8,), {"degree": 4}, seed=5),
    "hypercube": GraphSpec("hypercube", (3,)),
    "gilbert": GraphSpec("gilbert", (8, 0.9), seed=11),
}

#: A mixed-fault adversary: message loss plus two crash-stops mid-run.
FAULTY = FaultPlan(
    messages=MessageFaults(drop_probability=0.05),
    crashes=CrashFaults(count=2, at_round=20),
)

#: Loss, duplication and delay: the per-send fault paths besides drop.
NOISY = FaultPlan(
    messages=MessageFaults(drop_probability=0.05, duplicate_probability=0.05),
    delays=DelayFaults(max_delay=2),
)

#: Phase-anchored crash-stops.  Phase 1 resolves through the coordinator's
#: ``phase_start_of`` (round 18 under FAST); phase 0 is round 0, where the
#: ready snapshot doubles as the final result.
PHASE_CRASHES = {
    "election": FaultPlan(crashes=CrashFaults(count=2, at_phase=1)),
    "known_tmix": FaultPlan(crashes=CrashFaults(count=2, at_phase=0)),
}

GRID = (
    [
        pytest.param(algorithm, family, plan, id="%s-%s-%s" % (algorithm, family, label))
        for algorithm in ("election", "known_tmix")
        for family in GRAPHS
        for label, plan in (("faultfree", None), ("faulty", FAULTY))
    ]
    + [
        pytest.param(algorithm, "expander", NOISY, id="%s-expander-noisy" % algorithm)
        for algorithm in ("election", "known_tmix")
    ]
    + [
        pytest.param(
            algorithm,
            "expander",
            plan,
            id="%s-expander-phase%d" % (algorithm, plan.crashes.at_phase),
        )
        for algorithm, plan in PHASE_CRASHES.items()
    ]
)


@pytest.mark.parametrize("algorithm,family,plan", GRID)
def test_live_outcome_equals_simulated_outcome(algorithm, family, plan):
    spec = TrialSpec(
        graph=GRAPHS[family],
        algorithm=algorithm,
        seed=42,
        params=FAST,
        fault_plan=plan,
    )
    agreement = cross_validate(spec)
    assert agreement.agrees, "\n".join(agreement.mismatches)
    # The contract's fine print: live metrics match the simulator's exactly
    # (fault counters included), and transport costs are recorded separately.
    assert agreement.live.metrics.fault_events == agreement.sim.metrics.fault_events
    assert agreement.live.metrics.net_events
    assert not agreement.sim.metrics.net_events
    if plan is not None and plan.crashes.count:
        assert agreement.live.crashed_nodes == agreement.sim.crashed_nodes
        assert len(agreement.live.crashed_nodes) == 2


def test_tcp_transport_matches_too():
    spec = TrialSpec(
        graph=GRAPHS["expander"], algorithm="election", seed=7, params=FAST
    )
    agreement = cross_validate(spec, transport="tcp")
    assert agreement.agrees, "\n".join(agreement.mismatches)


def test_live_run_is_replayable():
    spec = TrialSpec(
        graph=GRAPHS["hypercube"], algorithm="election", seed=13, params=FAST
    )
    first = run_live_trial(spec)
    second = run_live_trial(spec)
    # Two independent live deployments of the same seed are the same trial.
    assert not compare_outcomes(first, second)


def test_live_run_requires_a_seed():
    spec = TrialSpec(graph=GRAPHS["expander"], algorithm="election", seed=None)
    with pytest.raises(ValueError, match="seed"):
        run_live_trial(spec)
