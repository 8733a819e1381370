"""Still segments change nothing: every trial's outcome is the general path's.

A WALK, REPORT or COLLECT segment runs still (``repro.sim.vectorized._still``)
when nothing can act between its rounds: no channel, and the segment ends by
its window and the round cap.  REPORT and COLLECT also need nobody in the
phase's trials to have heard of a winner, since knowing makes a member send;
a walk runs still whoever has heard, and passes the flag on as it settles
its moves.  So without a channel only the round cap sends a walk down the
general path.  Each case here runs its trials twice -- as shipped, and with
``_still`` answering ``False`` so every segment takes the general path --
and requires byte-identical outcomes.  The verdicts of the shipped run are
recorded, so a case that means to exercise one path cannot silently take
the other.
"""

import pytest

from repro.core.params import DEFAULT_PARAMETERS, ElectionParameters
from repro.core.schedule import PhaseSchedule
from repro.faults import CrashFaults, FaultPlan, MessageFaults
from repro.graphs import expander_graph, gilbert_graph, hypercube_graph
from repro.graphs.generators import gilbert_connectivity_radius
from repro.sim import vectorized
from repro.sim.vectorized import run_vectorized_batch, vectorized_election_trial
from test_vectorized import _digest

_PHASE_3 = PhaseSchedule(DEFAULT_PARAMETERS).window(3)
_PHASE_6 = PhaseSchedule(DEFAULT_PARAMETERS).window(6)

_GRAPHS = {
    "expander": lambda n: expander_graph(n, degree=8, seed=5),
    "hypercube": lambda n: hypercube_graph(n.bit_length() - 1),
    "gilbert": lambda n: gilbert_graph(n, gilbert_connectivity_radius(n), seed=6),
}
_PLANS = {
    "fault-free": None,
    "crash-at-phase": FaultPlan(crashes=CrashFaults(count=2, at_phase=2)),
    # Crash-stops inside phase 3's walk: walks die, and moves to crashed
    # nodes are lost.
    "crash-mid-walk": FaultPlan(crashes=CrashFaults(count=6, at_round=_PHASE_3.walk_start + 3)),
    # ... and as its last moves land, which are lost at crashed nodes.
    "crash-at-walk-end": FaultPlan(
        crashes=CrashFaults(count=6, at_round=_PHASE_3.walk_start + _PHASE_3.walk_length)
    ),
}


def _both_ways(monkeypatch, trials):
    """Digests of ``trials`` run as one batch as shipped, then with every
    segment on the general path, and the shipped run's still verdicts."""
    verdicts = []
    still = vectorized._still

    def spy(*args):
        verdicts.append(still(*args))
        return verdicts[-1]

    with monkeypatch.context() as patch:
        patch.setattr(vectorized, "_still", spy)
        shipped = [_digest(outcome) for outcome in run_vectorized_batch(trials)]
    with monkeypatch.context() as patch:
        patch.setattr(vectorized, "_still", lambda *args: False)
        general = [_digest(outcome) for outcome in run_vectorized_batch(trials)]
    return shipped, general, verdicts


@pytest.mark.parametrize("plan", sorted(_PLANS))
@pytest.mark.parametrize("n", [64, 256])
@pytest.mark.parametrize("family", sorted(_GRAPHS))
def test_still_segments_match_the_general_path(monkeypatch, family, n, plan):
    trial = vectorized_election_trial(_GRAPHS[family](n), seed=n + 1, fault_plan=_PLANS[plan])
    shipped, general, verdicts = _both_ways(monkeypatch, [trial])
    assert shipped == general
    assert any(verdicts)  # crash-stops alone keep segments still


def test_edge_capacity_accounting(monkeypatch):
    trials = [
        vectorized_election_trial(_GRAPHS[family](64), seed=4, edge_capacity_words=1)
        for family in ("expander", "gilbert")
    ]
    shipped, general, verdicts = _both_ways(monkeypatch, trials)
    assert shipped == general
    assert any(verdicts)
    for outcome in run_vectorized_batch(trials):
        assert outcome.metrics.congestion_events > 0


def _heard_trial(**options):
    """A Gilbert trial that elects a leader in phase 5 and keeps other
    contenders running: its phase-6 walk starts after a winner is known."""
    graph = gilbert_graph(64, gilbert_connectivity_radius(64), seed=6)
    return vectorized_election_trial(graph, seed=1, **options)


@pytest.mark.parametrize(
    "heard, max_rounds, verdicts",
    [
        (False, _PHASE_3.walk_start + 4, "1" * 9 + "0"),  # inside the walk
        # ... as its last moves are sent
        (False, _PHASE_3.walk_start + _PHASE_3.walk_length - 1, "1" * 9 + "0"),
        (False, _PHASE_3.walk_start + _PHASE_3.walk_length, "1" * 9 + "100"),  # as they land
        (False, _PHASE_3.report_start + 4, "1" * 9 + "100"),  # inside REPORT
        (False, _PHASE_3.collect_start + 4, "1" * 9 + "110"),  # inside COLLECT
        # Inside a walk that starts after a winner is known: without a
        # channel, the cap is the one way onto the general walk.
        (True, _PHASE_6.walk_start + 10, "1" * 18 + "0"),
    ],
    ids=["mid-walk", "walk-sent", "walk-landed", "mid-report", "mid-collect", "heard-mid-walk"],
)
def test_round_cap(monkeypatch, heard, max_rounds, verdicts):
    # Phase 3 of the five-phase expander trial, and phase 6 of the heard
    # trial, run still without a cap; with one, the segments the cap cuts
    # short do not.
    if heard:
        trials = [_heard_trial(max_rounds=max_rounds)]
    else:
        graph = _GRAPHS["expander"](64)
        trials = [vectorized_election_trial(graph, seed=2, max_rounds=max_rounds)]
    shipped, general, seen = _both_ways(monkeypatch, trials)
    assert shipped == general
    assert "".join("01"[still] for still in seen) == verdicts
    (outcome,) = run_vectorized_batch(trials)
    assert not outcome.metrics.completed


def _members(graph, count, plans):
    return [
        vectorized_election_trial(graph, seed=30 + k, fault_plan=plans[k % len(plans)])
        for k in range(count)
    ]


@pytest.mark.parametrize("count", [1, 3, 8])
def test_batches(monkeypatch, count):
    graph = _GRAPHS["hypercube"](64)
    trials = _members(graph, count, [None, _PLANS["crash-at-phase"], _PLANS["crash-mid-walk"]])
    shipped, general, verdicts = _both_ways(monkeypatch, trials)
    assert shipped == general
    assert any(verdicts)
    # Each member ends as it ends alone.
    for trial, digest in zip(trials, shipped):
        assert _both_ways(monkeypatch, [trial])[0] == [digest]


def test_a_drop_member_keeps_its_batch_on_the_general_path(monkeypatch):
    graph = _GRAPHS["expander"](64)
    drop = FaultPlan(messages=MessageFaults(drop_probability=0.05))
    trials = _members(graph, 8, [None, _PLANS["crash-at-phase"], None, drop])
    shipped, general, verdicts = _both_ways(monkeypatch, trials)
    assert shipped == general
    assert verdicts and not any(verdicts)


def test_hearing_of_a_winner_ends_stillness(monkeypatch):
    # This trial elects a leader in phase 5 and keeps other contenders
    # running.  Their phase-6 walk still runs still, passing the heard-winner
    # flag on; the REPORT and COLLECT after it, where knowing makes a member
    # send, take the general path.
    shipped, general, verdicts = _both_ways(monkeypatch, [_heard_trial()])
    assert shipped == general
    assert True in verdicts and False in verdicts
    assert verdicts.index(False) > verdicts.index(True)
    assert "".join("01"[still] for still in verdicts) == "1" * 19 + "00"


def test_a_still_walk_passes_the_flag_on(monkeypatch):
    # With fewer walks per contender, this trial's phase-5 walk starts after
    # a winner is known and carries the flag to nodes that the winner's
    # notifications reach later or not at all: the REPORT after it must see
    # them know, as on the general path.
    graph = gilbert_graph(64, gilbert_connectivity_radius(64), seed=6)
    params = ElectionParameters(c1=1.0, c2=0.5)
    told = []
    settle = vectorized._settle_moves

    def spy(run, ph, moves):
        before = run.learn.copy()
        settle(run, ph, moves)
        told.append(int((run.learn < before).sum()))

    monkeypatch.setattr(vectorized, "_settle_moves", spy)
    trials = [vectorized_election_trial(graph, params=params, seed=4)]
    shipped, general, verdicts = _both_ways(monkeypatch, trials)
    assert shipped == general
    assert "".join("01"[still] for still in verdicts) == "1" * 16 + "00"
    assert sum(told) > 0


def test_a_batch_of_heard_and_unheard_members(monkeypatch):
    # Seeds 1, 7 and 8 elect a leader in phase 5 and walk on in phase 6
    # after hearing of it; seeds 2-6 do not.  Every walk runs still, and a
    # heard member takes its whole batch's phase-6 REPORT and COLLECT onto
    # the general path.
    graph = gilbert_graph(64, gilbert_connectivity_radius(64), seed=6)
    trials = [vectorized_election_trial(graph, seed=seed) for seed in range(1, 9)]
    shipped, general, verdicts = _both_ways(monkeypatch, trials)
    assert shipped == general
    assert "".join("01"[still] for still in verdicts) == "1" * 19 + "00"
    # Each member ends as it ends alone.
    for trial, digest in zip(trials, shipped):
        assert _both_ways(monkeypatch, [trial])[0] == [digest]
