"""Same-shape vectorized trials run as one batch: each keeps its solo outcome.

The serial backend hands every chunk of same-shape vectorized trials to one
engine call (``repro.exec.execute.batched_payloads``).  Every pinned digest
of ``test_vectorized`` must come out of a chunk unchanged, next to
neighbours that crash, drop, duplicate or delay, leave at other phases or
fail, and each neighbour must end as it ends alone.
"""

import itertools
import json
import os
from dataclasses import replace

import pytest

from repro.campaign import CampaignRunner, CampaignSpec, RetryPolicy, write_report
from repro.exec import ExecutionProfile, GraphSpec, ResultCache, SweepSpec, TrialSpec
from repro.exec.backends import SerialBackend
from repro.exec.execute import BATCH_TRIALS, batched_payloads, execute_trial
from repro.faults import CrashFaults, DelayFaults, FaultPlan, MessageFaults
from repro.graphs import hypercube_graph
from repro.obs import Tracer, use_tracer
from repro.obs.tracer import TraceSink
from repro.sim.vectorized import run_vectorized_batch, vectorized_election_trial
from test_vectorized import _GOLDEN, _digest

#: Neighbours' adversaries, in turn: none, crashes, drop, delay, duplicate.
_NEIGHBOUR_PLANS = (
    None,
    FaultPlan(crashes=CrashFaults(count=2, at_phase=1)),
    FaultPlan(messages=MessageFaults(drop_probability=0.05)),
    FaultPlan(delays=DelayFaults(max_delay=2)),
    FaultPlan(messages=MessageFaults(duplicate_probability=0.05)),
)


def _neighbours(spec: TrialSpec, count: int):
    """``count`` trials of ``spec``'s shape: other seeds, other adversaries."""
    return [
        replace(spec, seed=1000 + k, fault_plan=_NEIGHBOUR_PLANS[k % len(_NEIGHBOUR_PLANS)])
        for k in range(count)
    ]


_SOLO = {}


def _solo(spec: TrialSpec) -> str:
    """The digest of ``spec`` run alone (memoised: neighbours repeat)."""
    key = repr(spec)
    if key not in _SOLO:
        _SOLO[key] = _digest(execute_trial(spec))
    return _SOLO[key]


def _chunk(specs):
    """Payloads of ``specs`` run through the batching serial path, in order."""
    payloads = dict(batched_payloads(specs))
    assert sorted(payloads) == list(range(len(specs)))
    return [payloads[index] for index in range(len(specs))]


def _expect_pinned(name: str, chunk, position: int) -> None:
    """``chunk[position]`` is pin ``name``; everything else is a neighbour."""
    payloads = _chunk(chunk)
    for index, (spec, payload) in enumerate(zip(chunk, payloads)):
        assert payload.error is None, (index, payload.error)
        assert payload.outcome.extras["simulator"] == "vectorized"
        expected = _GOLDEN[name][1] if index == position else _solo(spec)
        assert _digest(payload.outcome) == expected, (name, index)


#: Pins whose trials are cheap enough to batch eight at a time here.
_SMALL = sorted(name for name, (spec, _) in _GOLDEN.items() if spec.build_graph().num_nodes <= 64)


@pytest.mark.parametrize("name", sorted(_GOLDEN))
def test_every_pin_in_a_chunk_of_three(name):
    spec = _GOLDEN[name][0]
    first, last = _neighbours(spec, 2)
    _expect_pinned(name, [first, spec, last], 1)


@pytest.mark.parametrize("name", _SMALL)
def test_every_small_pin_in_a_chunk_of_eight(name):
    spec = _GOLDEN[name][0]
    chunk = _neighbours(spec, BATCH_TRIALS - 1)
    chunk.insert(3, spec)
    _expect_pinned(name, chunk, 3)


def test_a_chunk_of_one_is_the_solo_run():
    for name in ("faulty-delay3-hypercube4", "election-expander-crash", "known_tmix-expander"):
        _expect_pinned(name, [_GOLDEN[name][0]], 0)


#: ``faulty-fallback-campaign``'s shape: fault-free, crashing, dropping and
#: delayed members side by side.
_MIXED = [
    "faulty-drop-expander16",
    "faulty-drop-crash-hypercube4",
    "faulty-delay1-expander16",
    "faulty-duplicate-hypercube4",
    "faulty-edges-expander16",
    "faulty-delay3-hypercube4",
    "faulty-drop-crash-expander16",
    "faulty-edges-hypercube4",
]


@pytest.mark.parametrize("order", list(itertools.permutations(range(3))))
def test_member_order_of_three(order):
    names = [_MIXED[i] for i in order]
    payloads = _chunk([_GOLDEN[name][0] for name in names])
    for name, payload in zip(names, payloads):
        assert _digest(payload.outcome) == _GOLDEN[name][1], name


@pytest.mark.parametrize("shift", [0, 3, 5])
@pytest.mark.parametrize("reverse", [False, True])
def test_member_order_of_eight(shift, reverse):
    names = _MIXED[shift:] + _MIXED[:shift]
    names = names[::-1] if reverse else names
    payloads = _chunk([_GOLDEN[name][0] for name in names])
    for name, payload in zip(names, payloads):
        assert _digest(payload.outcome) == _GOLDEN[name][1], name
    # The members leave the batch at different phases.
    assert len({payload.outcome.extras["max_phases"] for payload in payloads}) > 1


def test_capped_member_beside_members_that_finish():
    spec = _GOLDEN["cap-mid-walk"][0]
    # Elections on a 64-clique mostly end before the cap.
    clique = [replace(spec, graph=GraphSpec("clique", (64,)), seed=seed) for seed in range(4)]
    chunk = clique[:2] + [spec] + clique[2:] + _neighbours(spec, 2)
    _expect_pinned("cap-mid-walk", chunk, 2)
    completed = [payload.outcome.metrics.completed for payload in _chunk(chunk)]
    assert not completed[2] and any(completed)


def test_duplicate_ids_fall_back_alone():
    # A believed n of 2 draws ids from [1, 16]: some of these 4-node trials
    # nominate two contenders with one id, which the engine refuses.
    chunk = [
        TrialSpec(
            graph=GraphSpec("clique", (4,)),
            seed=seed,
            simulator="vectorized",
            algo_kwargs={"known_n": 2},
        )
        for seed in range(8)
    ]
    tags = []
    for spec, payload in zip(chunk, _chunk(chunk)):
        assert _digest(payload.outcome) == _solo(spec)
        tags.append(payload.outcome.extras["simulator"])
    assert "vectorized" in tags
    assert any(tag.startswith("reference-fallback:duplicate contender") for tag in tags)


def test_failing_member_fails_alone():
    spec = _GOLDEN["faulty-drop-hypercube4"][0]
    # Same shape; its crash plan names a node the graph does not have.
    broken = replace(spec, seed=3, fault_plan=FaultPlan(crashes=CrashFaults(targets=(99,))))
    payloads = _chunk([spec, broken, spec])
    [(_, alone)] = batched_payloads([broken])
    assert payloads[1].outcome is None
    assert payloads[1].error == alone.error
    assert isinstance(payloads[1].exception, ValueError)
    for payload in (payloads[0], payloads[2]):
        assert _digest(payload.outcome) == _GOLDEN["faulty-drop-hypercube4"][1]


def test_chunk_shares_its_wall_time():
    payloads = _chunk([_GOLDEN[name][0] for name in _MIXED[:4]])
    assert len({payload.elapsed_seconds for payload in payloads}) == 1
    assert payloads[0].elapsed_seconds > 0


def test_only_same_shape_trials_share_a_batch():
    graph = hypercube_graph(4)
    trials = [
        vectorized_election_trial(graph, seed=1),
        vectorized_election_trial(graph, seed=2, max_rounds=500),
    ]
    with pytest.raises(ValueError, match="one shape"):
        run_vectorized_batch(trials)
    # Alone, each is the run its trial spec gives.
    (alone,) = run_vectorized_batch(trials[1:])
    spec = TrialSpec(graph=graph, seed=2, simulator="vectorized", algo_kwargs={"max_rounds": 500})
    again = execute_trial(spec)
    assert (alone.leaders, alone.metrics) == (again.winners, again.metrics)


class _Records(TraceSink):
    def __init__(self):
        self.records = []

    def emit(self, record):
        self.records.append(record)


def test_traced_chunk_has_one_run_span():
    sink = _Records()
    specs = [_GOLDEN[name][0] for name in _MIXED[:3]]
    with use_tracer(Tracer(sink)):
        payloads = _chunk(specs)
    for name, payload in zip(_MIXED, payloads):
        assert _digest(payload.outcome) == _GOLDEN[name][1]
    spans = [r for r in sink.records if r["kind"] == "span"]
    assert sum(r["name"] == "trial.build_graph" for r in spans) == 3
    runs = [r for r in spans if r["name"] == "trial.run"]
    assert len(runs) == 1 and runs[0]["attrs"]["trials"] == 3


class _PerTrial(SerialBackend):
    """The serial backend without batches: one engine call per trial."""

    def map(self, specs):
        for index, spec in enumerate(specs):
            [(_, payload)] = batched_payloads([spec])
            yield index, payload


def _campaign() -> CampaignSpec:
    templates = tuple(
        TrialSpec(graph=graph, fault_plan=plan, simulator="vectorized")
        for graph in (GraphSpec("expander", (16,), {"degree": 4}), GraphSpec("hypercube", (4,)))
        for plan in _NEIGHBOUR_PLANS[:4]
    )
    return CampaignSpec(
        name="batched",
        sweeps=(SweepSpec(name="grid", configs=templates, trials=2, base_seed=9),),
        retry=RetryPolicy(max_attempts=1),
    )


def _entries(directory):
    """Every cache entry's document, without its timing and timestamp."""
    entries = {}
    for root, _dirs, files in os.walk(directory):
        for name in files:
            with open(os.path.join(root, name), encoding="utf-8") as handle:
                document = json.load(handle)
            document.pop("elapsed_seconds")
            document.pop("created")
            entries[name] = document
    return entries


def test_campaign_writes_what_per_trial_execution_writes(tmp_path):
    reports = {}
    for label, backend in (("batched", SerialBackend()), ("per-trial", _PerTrial())):
        directory = tmp_path / label
        cache = ResultCache(directory / "cache")
        profile = ExecutionProfile(backend=backend)
        result = CampaignRunner(_campaign(), cache, directory=directory, profile=profile).run()
        assert result.failed == 0
        write_report(_campaign(), cache, directory)
        reports[label] = ((directory / "report.json").read_bytes(), _entries(directory / "cache"))
    assert reports["batched"][0] == reports["per-trial"][0]
    assert reports["batched"][1] == reports["per-trial"][1]
    assert len(reports["batched"][1]) == 16
