"""The live election coordinator: spawn nodes, drive the model's event loop.

``python -m repro.net.coordinator`` turns one :class:`~repro.exec.spec.TrialSpec`
into a *live* distributed run: one OS process per node (see
:mod:`repro.net.node`), real sockets between them, and this module as the
synchronous-round message router.

The coordinator builds the same :class:`~repro.sim.network.Network` a
simulated run of the spec builds (:meth:`ElectionRecipe.network
<repro.core.runner.ElectionRecipe.network>`: same port numbering, seed
streams and fault injector), with a stand-in protocol per node, and drives
its event loop, :meth:`Network.rounds <repro.sim.network.Network.rounds>`,
with frame exchanges in place of protocol calls:

* per event round, every node the loop lists receives one ``round`` frame
  (its inbox) and answers one ``acted`` frame (its sends, wake-ups, halted
  flag and a result snapshot);
* frame exchanges run concurrently -- node state is process-private, so
  parallelism cannot race -- but replies are *replayed in ascending node
  order* through each stand-in's context, which reproduces the simulator's
  outbox order and therefore the exact per-send fault-stream consumption;
* the loop routes the replayed sends through the injector (drops, duplicates,
  delays), and crash-stop faults become real ``SIGKILL``\\ s delivered before
  the first event round at or past the planned crash round.  The simulator
  never activates a crashed node again either, so the victim's last snapshot
  is exactly the result its in-process protocol would report.

Because the event loop *is* the simulator's, a live run's
:class:`~repro.core.result.TrialOutcome` equals the simulated outcome of the
same spec -- winners, classification, crashed nodes, and every model-level
metric.  The only difference is the extra ``metrics.net_events`` dict
recording transport costs (barriers, frames, wall-clock, kills).
:func:`cross_validate` checks that contract in one call; the CLI exposes it
as ``--verify``.
"""

from __future__ import annotations

import argparse
import asyncio
import dataclasses
import json
import os
import shutil
import subprocess
import sys
import tempfile
import time
from contextlib import ExitStack
from typing import Callable, Dict, List, Optional, Set, Tuple

from ..core.params import DEFAULT_PARAMETERS
from ..core.result import TrialOutcome, outcome_from_simulation
from ..exec.backends.workerpool import worker_environment
from ..exec.serialize import outcome_to_dict
from ..exec.spec import GraphSpec, TrialSpec
from ..faults.injector import FaultInjector
from ..graphs.generators import gilbert_connectivity_radius
from ..graphs.topology import Graph
from ..obs.tracer import current_tracer
from ..sim.node import Inbox, Protocol
from ..sim.rng import derive_seed
from .faults import plan_from_options
from .protocols import LIVE_ALGORITHMS, live_recipe
from .status import StatusBoard, StatusServer, write_snapshot
from .transport import (
    NET_WIRE_VERSION,
    FrameStream,
    inbox_to_wire,
    message_from_wire,
)

__all__ = [
    "LiveElection",
    "Agreement",
    "run_live_trial",
    "cross_validate",
    "compare_outcomes",
    "main",
]

#: Per-frame-exchange timeout (seconds): generous, because one barrier only
#: covers protocol work plus a socket round-trip, never a whole run.
DEFAULT_NODE_TIMEOUT = 120.0


class _RemoteNode(Protocol):
    """A node process's stand-in inside the coordinator's :class:`Network`.

    The event loop never calls it -- the real node acts in its own process.
    :meth:`replay` feeds that node's ``acted`` reply through this stand-in's
    context, so the loop routes the sends, schedules the wake-ups and records
    the halt exactly as for an in-process protocol.  Its result is the node's
    last snapshot.
    """

    def __init__(self, ctx) -> None:
        super().__init__(ctx)
        self.snapshot: Dict[str, object] = {}

    def on_start(self) -> None:
        raise RuntimeError("a remote node acts in its own process")

    def on_round(self, inbox: Inbox) -> None:
        raise RuntimeError("a remote node acts in its own process")

    def replay(self, reply: Dict[str, object]) -> None:
        """Apply one ``acted`` reply: sends in call order, wake-ups, halt."""
        for port, document in reply["sends"]:
            self.ctx.send(port, message_from_wire(document))
        for round_number in reply["wakeups"]:
            self.ctx.wake_at(round_number)
        if reply["halted"]:
            self.ctx.halt()
        self.snapshot = reply["result"]

    def result(self) -> Dict[str, object]:
        return self.snapshot


class LiveElection:
    """One live deployment of a trial spec; :meth:`run` drives it end-to-end."""

    def __init__(
        self,
        spec: TrialSpec,
        transport: str = "uds",
        node_timeout: float = DEFAULT_NODE_TIMEOUT,
        status: Optional[StatusBoard] = None,
        graph: Optional[Graph] = None,
        python: Optional[str] = None,
    ) -> None:
        if spec.seed is None:
            raise ValueError("a live run needs an explicit seed to be replayable")
        if spec.simulator != "reference":
            raise ValueError(
                "live deployments replicate the reference simulator; got %r"
                % spec.simulator
            )
        if transport not in ("uds", "tcp"):
            raise ValueError("transport must be 'uds' or 'tcp', got %r" % transport)
        self.spec = spec
        self.transport = transport
        self.node_timeout = node_timeout
        self.status = status if status is not None else StatusBoard()
        self.graph = graph if graph is not None else spec.build_graph()
        self.python = python or sys.executable
        self.recipe = live_recipe(spec, self.graph)

        # Run state (reset per run; an instance serves exactly one run).
        self._ran = False
        self._streams: Dict[int, FrameStream] = {}
        self._procs: Dict[int, subprocess.Popen] = {}
        self._killed: Set[int] = set()
        self._frames = 0
        self._tmpdir: Optional[str] = None
        self._server: Optional[asyncio.AbstractServer] = None
        self._connected: Optional[asyncio.Future] = None

    # ----------------------------------------------------------- entry points
    def run(self) -> TrialOutcome:
        """Run the live election synchronously and return its outcome."""
        return asyncio.run(self.run_async())

    async def run_async(self) -> TrialOutcome:
        if self._ran:
            raise RuntimeError("a LiveElection instance serves exactly one run")
        self._ran = True
        try:
            return await self._run()
        finally:
            await self._cleanup()

    def node_returncode(self, node: int) -> Optional[int]:
        """Exit status of one node process (``None`` if running or unknown).

        After a run with a crash plan, a planned victim reports the negated
        kill signal (``-9`` on POSIX) -- the chaos tests pin exactly that.
        """
        proc = self._procs.get(node)
        return None if proc is None else proc.poll()

    # --------------------------------------------------------------- the run
    async def _run(self) -> TrialOutcome:
        spec, graph, recipe = self.spec, self.graph, self.recipe
        n = graph.num_nodes
        tracer = current_tracer()
        started = time.monotonic()

        network = recipe.network(
            graph, spec.seed, spec.effective_fault_plan, factory=_RemoteNode
        )
        remotes: List[_RemoteNode] = network.protocols
        injector = network.fault_injector
        self.status.update(
            state="spawning",
            algorithm=spec.algorithm,
            n=n,
            transport=self.transport,
            seed=spec.seed,
            faulty=injector is not None,
            round=0,
            messages=0,
            killed=0,
        )
        tracer.event(
            "net.run_started",
            n=n,
            algorithm=spec.algorithm,
            transport=self.transport,
            faulty=injector is not None,
        )

        address = await self._start_server(n)
        self._spawn_nodes(address, n)
        await asyncio.wait_for(self._connected, timeout=self.node_timeout)

        # init / ready handshake; the ready snapshot doubles as the final
        # result of any node crash-stopped at round 0 (the simulator never
        # calls on_start on those either).
        self.status.update(state="handshake")
        network_seed = derive_seed(spec.seed, recipe.streams[1])
        config = dataclasses.asdict(recipe)
        init_replies = await asyncio.gather(
            *[
                self._exchange(
                    node,
                    {
                        "op": "init",
                        "version": NET_WIRE_VERSION,
                        "node": node,
                        "degree": remotes[node].ctx.degree,
                        "known_n": remotes[node].ctx.known_n,
                        "network_seed": network_seed,
                        "config": config,
                    },
                    expect="ready",
                )
                for node in range(n)
            ]
        )
        for remote, reply in zip(remotes, init_replies):
            remote.snapshot = reply["result"]

        # One barrier per event round of the simulator's own loop: the nodes
        # it lists act concurrently in their processes, and their replies are
        # replayed in node order, which is the simulator's outbox order.
        barriers = 0
        for round_number, nodes, inboxes in network.rounds(recipe.max_rounds):
            self._kill_due(injector, round_number, tracer)
            self.status.update(
                state="running",
                round=round_number,
                messages=network.messages,
                live=n - len(self._killed),
            )
            replies = await self._round_trip(
                nodes,
                lambda node: {"op": "start"}
                if inboxes is None
                else {
                    "op": "round",
                    "round": round_number,
                    "inbox": inbox_to_wire(inboxes.get(node, {})),
                },
            )
            for node, reply in replies:
                remotes[node].replay(reply)
            barriers += 1

        net_events = {
            "barriers": barriers,
            "frames": self._frames,
            "killed": len(self._killed),
            "wall_ms": int((time.monotonic() - started) * 1000),
        }
        result = network.result(net_events=net_events)
        run_metrics = result.metrics
        outcome = recipe.finish(outcome_from_simulation(recipe.algorithm, result))
        self.status.update(
            state="finished",
            round=run_metrics.rounds,
            messages=run_metrics.messages,
            killed=len(self._killed),
            classification=outcome.classification,
            winners=list(outcome.winners),
            completed=run_metrics.completed,
            wall_ms=net_events["wall_ms"],
        )
        tracer.event(
            "net.run_finished",
            classification=outcome.classification,
            rounds=run_metrics.rounds,
            messages=run_metrics.messages,
            barriers=barriers,
            killed=len(self._killed),
        )
        return outcome

    # ------------------------------------------------------------- transport
    async def _start_server(self, n: int) -> str:
        loop = asyncio.get_running_loop()
        self._connected = loop.create_future()

        async def on_connection(reader, writer) -> None:
            stream = FrameStream(reader, writer)
            try:
                hello = await stream.receive()
                self._frames += 1
                if hello is None or hello.get("op") != "hello":
                    raise ValueError("expected hello frame, got %r" % (hello,))
                if hello.get("version") != NET_WIRE_VERSION:
                    raise ValueError(
                        "node speaks net wire version %r, coordinator %d"
                        % (hello.get("version"), NET_WIRE_VERSION)
                    )
                node = hello["node"]
                if not 0 <= node < n or node in self._streams:
                    raise ValueError("unexpected or duplicate node index %r" % node)
                self._streams[node] = stream
                if len(self._streams) == n and not self._connected.done():
                    self._connected.set_result(None)
            except Exception as exc:  # surface handshake failures to run()
                if not self._connected.done():
                    self._connected.set_exception(exc)

        if self.transport == "uds":
            self._tmpdir = tempfile.mkdtemp(prefix="repro-net-")
            path = os.path.join(self._tmpdir, "coordinator.sock")
            self._server = await asyncio.start_unix_server(on_connection, path=path)
            return "uds:%s" % path
        self._server = await asyncio.start_server(
            on_connection, host="127.0.0.1", port=0
        )
        port = self._server.sockets[0].getsockname()[1]
        return "tcp:127.0.0.1:%d" % port

    def _spawn_nodes(self, address: str, n: int) -> None:
        env = worker_environment()
        for node in range(n):
            self._procs[node] = subprocess.Popen(
                [
                    self.python,
                    "-m",
                    "repro.net.node",
                    "--connect",
                    address,
                    "--index",
                    str(node),
                ],
                env=env,
                stdout=subprocess.DEVNULL,
            )

    async def _exchange(
        self, node: int, frame: Dict[str, object], expect: str = "acted"
    ) -> Dict[str, object]:
        stream = self._streams[node]
        await stream.send(frame)
        reply = await asyncio.wait_for(stream.receive(), timeout=self.node_timeout)
        self._frames += 2
        if reply is None:
            raise RuntimeError(
                "node %d closed its connection mid-run (crash outside the "
                "fault plan?)" % node
            )
        if reply.get("op") != expect:
            raise RuntimeError(
                "node %d answered op %r where %r was expected"
                % (node, reply.get("op"), expect)
            )
        return reply

    async def _round_trip(
        self, nodes: List[int], make_frame: Callable[[int], Dict[str, object]]
    ) -> List[Tuple[int, Dict[str, object]]]:
        """Exchange one frame with each node concurrently; replies in node order."""
        replies = await asyncio.gather(
            *[self._exchange(node, make_frame(node)) for node in nodes]
        )
        return list(zip(nodes, replies))

    def _kill_due(
        self, injector: Optional[FaultInjector], round_number: int, tracer
    ) -> None:
        """SIGKILL every node whose planned crash fires by ``round_number``."""
        crash_rounds = {} if injector is None else injector.crash_rounds
        for node in sorted(crash_rounds):
            if crash_rounds[node] > round_number or node in self._killed:
                continue
            proc = self._procs.get(node)
            if proc is not None and proc.poll() is None:
                proc.kill()
            self._killed.add(node)
            stream = self._streams.pop(node, None)
            if stream is not None:
                # The process is already dead; only the coordinator's socket
                # endpoint needs releasing.
                stream.abort()
            tracer.event("net.node_killed", node=node, round=round_number)
            self.status.update(killed=len(self._killed))

    async def _cleanup(self) -> None:
        for stream in self._streams.values():
            try:
                await stream.send({"op": "stop"})
                self._frames += 1
            except (ConnectionError, BrokenPipeError, OSError):
                pass
        for stream in self._streams.values():
            await stream.close()
        self._streams.clear()
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        for proc in self._procs.values():
            if proc.poll() is None:
                try:
                    await asyncio.to_thread(proc.wait, 5.0)
                except subprocess.TimeoutExpired:
                    proc.kill()
                    await asyncio.to_thread(proc.wait)
        if self._tmpdir is not None:
            shutil.rmtree(self._tmpdir, ignore_errors=True)
            self._tmpdir = None


def run_live_trial(
    spec: TrialSpec,
    transport: str = "uds",
    node_timeout: float = DEFAULT_NODE_TIMEOUT,
    status: Optional[StatusBoard] = None,
    graph: Optional[Graph] = None,
) -> TrialOutcome:
    """Deploy ``spec`` as live node processes and return its outcome."""
    return LiveElection(
        spec,
        transport=transport,
        node_timeout=node_timeout,
        status=status,
        graph=graph,
    ).run()


# ------------------------------------------------------------ cross-validation
def compare_outcomes(live: TrialOutcome, sim: TrialOutcome) -> List[str]:
    """Mismatch descriptions between a live and a simulated outcome.

    The contract: the serialised outcomes are *equal* except for the live
    run's ``metrics.net_events`` transport counters.  An empty list means
    full agreement.
    """
    live_doc = outcome_to_dict(live)
    sim_doc = outcome_to_dict(sim)
    live_doc["metrics"] = dict(live_doc["metrics"])
    sim_doc["metrics"] = dict(sim_doc["metrics"])
    live_doc["metrics"].pop("net_events", None)
    sim_doc["metrics"].pop("net_events", None)
    mismatches = []
    for key in sorted(set(live_doc) | set(sim_doc)):
        if live_doc.get(key) != sim_doc.get(key):
            mismatches.append(
                "%s: live=%r sim=%r" % (key, live_doc.get(key), sim_doc.get(key))
            )
    return mismatches


@dataclasses.dataclass
class Agreement:
    """Result of one live-vs-simulator cross-validation."""

    live: TrialOutcome
    sim: TrialOutcome
    mismatches: List[str]

    @property
    def agrees(self) -> bool:
        """Whether live and simulated outcomes matched exactly."""
        return not self.mismatches

    def table(self) -> str:
        """Human-readable side-by-side summary."""
        rows = [
            ("winners", self.live.winners, self.sim.winners),
            ("classification", self.live.classification, self.sim.classification),
            ("crashed_nodes", self.live.crashed_nodes, self.sim.crashed_nodes),
            ("rounds", self.live.rounds, self.sim.rounds),
            ("messages", self.live.messages, self.sim.messages),
            ("message_units", self.live.message_units, self.sim.message_units),
        ]
        lines = ["%-16s %-24s %-24s %s" % ("field", "live", "simulator", "match")]
        for name, live_value, sim_value in rows:
            lines.append(
                "%-16s %-24s %-24s %s"
                % (
                    name,
                    live_value,
                    sim_value,
                    "yes" if live_value == sim_value else "NO",
                )
            )
        return "\n".join(lines)


def cross_validate(
    spec: TrialSpec,
    transport: str = "uds",
    node_timeout: float = DEFAULT_NODE_TIMEOUT,
    status: Optional[StatusBoard] = None,
) -> Agreement:
    """Run ``spec`` live *and* simulated, and compare the outcomes.

    Both runs share one graph instance, so randomised graph families cannot
    diverge between the two executions.
    """
    from ..exec.algorithms import get_algorithm

    graph = spec.build_graph()
    live = run_live_trial(
        spec,
        transport=transport,
        node_timeout=node_timeout,
        status=status,
        graph=graph,
    )
    sim = get_algorithm(spec.algorithm).run(graph, spec)
    return Agreement(live=live, sim=sim, mismatches=compare_outcomes(live, sim))


# ------------------------------------------------------------------------ CLI
def graph_spec_from_options(
    family: str, n: int, degree: int, graph_seed: int
) -> GraphSpec:
    """The CLI's graph description -> a buildable :class:`GraphSpec`."""
    if family == "hypercube":
        dimension = n.bit_length() - 1
        if 2**dimension != n:
            raise ValueError("the hypercube family needs n to be a power of two")
        return GraphSpec("hypercube", (dimension,))
    if family == "gilbert":
        return GraphSpec(
            "gilbert", (n, gilbert_connectivity_radius(n)), seed=graph_seed
        )
    if family == "expander":
        return GraphSpec("expander", (n,), {"degree": degree}, seed=graph_seed)
    return GraphSpec(family, (n,), seed=graph_seed)


def spec_from_options(options: argparse.Namespace) -> TrialSpec:
    """Assemble the :class:`TrialSpec` the CLI options describe."""
    params = DEFAULT_PARAMETERS
    overrides = {}
    if options.c1 is not None:
        overrides["c1"] = options.c1
    if options.c2 is not None:
        overrides["c2"] = options.c2
    if overrides:
        params = params.with_overrides(**overrides)
    algo_kwargs: Dict[str, object] = {}
    if options.max_rounds is not None:
        algo_kwargs["max_rounds"] = options.max_rounds
    if options.algorithm == "known_tmix":
        if options.mixing_time is not None:
            algo_kwargs["mixing_time"] = options.mixing_time
        if options.safety_factor is not None:
            algo_kwargs["safety_factor"] = options.safety_factor
    return TrialSpec(
        graph=graph_spec_from_options(
            options.family, options.n, options.degree, options.graph_seed
        ),
        algorithm=options.algorithm,
        seed=options.seed,
        params=params,
        algo_kwargs=algo_kwargs,
        fault_plan=plan_from_options(
            drop=options.drop,
            duplicate=options.duplicate,
            crash=options.crash,
            delay=options.delay,
        ),
    )


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro.net.coordinator",
        description="run one election as live node processes over real sockets",
    )
    parser.add_argument("--family", default="expander", help="graph family name")
    parser.add_argument("--n", type=int, default=16, help="number of nodes")
    parser.add_argument(
        "--degree", type=int, default=4, help="expander degree (expander family only)"
    )
    parser.add_argument("--graph-seed", type=int, default=7, help="graph build seed")
    parser.add_argument(
        "--algorithm",
        default="election",
        choices=LIVE_ALGORITHMS,
        help="which registered algorithm to deploy",
    )
    parser.add_argument("--seed", type=int, default=42, help="master trial seed")
    parser.add_argument("--c1", type=float, default=None, help="params.c1 override")
    parser.add_argument("--c2", type=float, default=None, help="params.c2 override")
    parser.add_argument(
        "--max-rounds", type=int, default=None, help="defensive round cap"
    )
    parser.add_argument(
        "--mixing-time", type=int, default=None, help="known_tmix oracle override"
    )
    parser.add_argument(
        "--safety-factor", type=float, default=None, help="known_tmix walk stretch"
    )
    parser.add_argument(
        "--drop", type=float, default=0.0, help="per-message drop probability"
    )
    parser.add_argument(
        "--duplicate", type=float, default=0.0, help="per-message duplication probability"
    )
    parser.add_argument(
        "--crash", default=None, help="crash-stop plan K@R: kill K nodes at round R"
    )
    parser.add_argument(
        "--delay", type=int, default=0, help="uniform per-message delay in rounds"
    )
    parser.add_argument(
        "--transport", default="uds", choices=("uds", "tcp"), help="node transport"
    )
    parser.add_argument(
        "--timeout",
        type=float,
        default=DEFAULT_NODE_TIMEOUT,
        help="per-frame-exchange timeout in seconds",
    )
    parser.add_argument(
        "--status-port",
        type=int,
        default=None,
        help="serve GET /status and /healthz on this port (0 = ephemeral)",
    )
    parser.add_argument(
        "--status-snapshot",
        default=None,
        help="write the final status snapshot to this JSON file",
    )
    parser.add_argument(
        "--trace",
        default=None,
        help="directory for trace.jsonl + telemetry report (repro.obs format)",
    )
    parser.add_argument(
        "--output", default=None, help="write the outcome document to this JSON file"
    )
    parser.add_argument(
        "--verify",
        action="store_true",
        help="also run the simulator and fail on any live-vs-sim mismatch",
    )
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point of ``python -m repro.net.coordinator``."""
    options = _build_parser().parse_args(argv)
    spec = spec_from_options(options)
    board = StatusBoard()
    server = None
    if options.status_port is not None:
        server = StatusServer(board, port=options.status_port)
        print("status endpoint: %s/status" % server.url)

    exit_code = 0
    try:
        with ExitStack() as stack:
            if options.trace:
                from ..obs.report import campaign_telemetry

                stack.enter_context(campaign_telemetry(options.trace))
            if options.verify:
                agreement = cross_validate(
                    spec,
                    transport=options.transport,
                    node_timeout=options.timeout,
                    status=board,
                )
                outcome = agreement.live
                print(agreement.table())
                if agreement.agrees:
                    print("live run matches the simulator bit for bit")
                else:
                    print("LIVE RUN DIVERGED FROM THE SIMULATOR:")
                    for line in agreement.mismatches:
                        print("  " + line)
                    exit_code = 1
            else:
                outcome = run_live_trial(
                    spec,
                    transport=options.transport,
                    node_timeout=options.timeout,
                    status=board,
                )
            print(
                "%s on %s: %s, winners=%s"
                % (
                    spec.algorithm,
                    spec.graph.describe(),
                    outcome.classification,
                    outcome.winners,
                )
            )
            print("  " + outcome.metrics.summary())
            if options.output:
                with open(options.output, "w", encoding="utf-8") as handle:
                    json.dump(outcome_to_dict(outcome), handle, indent=2, sort_keys=True)
                    handle.write("\n")
                print("outcome written to %s" % options.output)
            if options.status_snapshot:
                write_snapshot(options.status_snapshot, board)
                print("status snapshot written to %s" % options.status_snapshot)
    finally:
        if server is not None:
            server.close()
    return exit_code


if __name__ == "__main__":  # pragma: no cover - exercised as a subprocess
    sys.exit(main())
