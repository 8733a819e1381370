"""Pinned transport counters of a live run.

:func:`~repro.net.coordinator.compare_outcomes` deliberately ignores
``metrics.net_events``, so the cross-validation suite cannot notice a
coordinator that sends an extra frame or runs an extra barrier.  These pins
can: for one fixed spec, the number of barrier rounds, relayed frames and
SIGKILLs is a deterministic function of the model run, and any change in how
the coordinator drives the nodes shows up here.  ``wall_ms`` is the only
counter left out -- it measures the machine, not the protocol.
"""

import pytest

from repro.core import ElectionParameters
from repro.exec import GraphSpec, TrialSpec
from repro.faults import DelayFaults, FaultPlan, MessageFaults
from repro.net.coordinator import run_live_trial

FAST = ElectionParameters(c1=3.0, c2=0.5)
GRAPH = GraphSpec("expander", (8,), {"degree": 4}, seed=5)

#: Message loss, duplication and delay together: every per-send fault path.
NOISY = FaultPlan(
    messages=MessageFaults(drop_probability=0.05, duplicate_probability=0.05),
    delays=DelayFaults(max_delay=2),
)

PINS = [
    pytest.param("election", None, (79, 674, 0), id="election-faultfree"),
    pytest.param("known_tmix", None, (29, 330, 0), id="known_tmix-faultfree"),
    pytest.param("election", NOISY, (100, 852, 0), id="election-noisy"),
    pytest.param("known_tmix", NOISY, (29, 244, 0), id="known_tmix-noisy"),
]


@pytest.mark.parametrize("algorithm,plan,expected", PINS)
def test_net_events_are_pinned(algorithm, plan, expected):
    spec = TrialSpec(
        graph=GRAPH, algorithm=algorithm, seed=42, params=FAST, fault_plan=plan
    )
    events = dict(run_live_trial(spec).metrics.net_events)
    assert events.pop("wall_ms") >= 0
    barriers, frames, killed = expected
    assert events == {"barriers": barriers, "frames": frames, "killed": killed}
