"""The live election node process: one protocol instance behind a socket.

``python -m repro.net.node --connect uds:/tmp/x.sock --index 3`` runs one
node of a live deployment.  The process connects back to the coordinator,
identifies itself, builds its protocol instance from the run's
:class:`~repro.core.runner.ElectionRecipe`, which the coordinator ships as
its ``dataclasses.asdict`` (see :mod:`repro.net.protocols`), and then
executes the lock-step frame protocol:

* ``hello`` (node -> coordinator): version handshake plus the node index;
* ``init`` (coordinator -> node): degree, resolved ``known_n``, the network
  seed the node derives its private randomness from, and the recipe;
* ``ready`` (node -> coordinator): acknowledges construction and carries the
  protocol's initial result snapshot (a node crash-stopped at round 0 is
  represented by exactly this snapshot, matching the simulator, which never
  calls ``on_start`` on such a node);
* ``start`` / ``round`` (coordinator -> node): one activation --
  ``on_start`` at round 0, ``on_round`` with a decoded inbox afterwards;
* ``acted`` (node -> coordinator): the activation's sends (in call order),
  requested wake-up rounds, the halted flag and a fresh result snapshot;
* ``stop`` (coordinator -> node): clean shutdown.

The node never sees the topology: like the paper's model, it knows its
degree, its ports and (when granted) ``n`` -- routing is the coordinator's
job.  All randomness comes from ``node_rng(network_seed, index)``, the exact
stream the simulator hands the same node, which is what makes the live run
bit-comparable to the simulated one.
"""

from __future__ import annotations

import argparse
import asyncio
import sys
from typing import List, Optional, Tuple

from ..core.runner import ElectionRecipe
from ..sim.message import Message
from ..sim.node import NodeContext
from ..sim.rng import node_rng
from .transport import (
    NET_WIRE_VERSION,
    FrameStream,
    inbox_from_wire,
    message_to_wire,
)

__all__ = ["run_node", "main"]


class _ProtocolShim:
    """Collects one activation's context callbacks for the reply frame."""

    def __init__(self) -> None:
        self.sends: List[Tuple[int, Message]] = []
        self.wakeups: List[int] = []

    def on_send(self, sender: int, port: int, message: Message) -> None:
        self.sends.append((port, message))

    def on_wake(self, node: int, round_number: int) -> None:
        self.wakeups.append(round_number)

    def drain(self) -> Tuple[List[Tuple[int, Message]], List[int]]:
        sends, wakeups = self.sends, self.wakeups
        self.sends, self.wakeups = [], []
        return sends, wakeups


async def run_node(address: str, index: int) -> None:
    """Run one live node to completion against the coordinator at ``address``."""
    stream = await FrameStream.connect(address)
    try:
        await stream.send(
            {"op": "hello", "version": NET_WIRE_VERSION, "node": index}
        )
        init = await stream.receive()
        if init is None:
            raise EOFError("coordinator closed the connection before init")
        if init.get("op") != "init":
            raise ValueError("expected init frame, got %r" % init.get("op"))
        if init.get("version") != NET_WIRE_VERSION:
            raise ValueError(
                "coordinator speaks net wire version %r; this node speaks %d"
                % (init.get("version"), NET_WIRE_VERSION)
            )

        shim = _ProtocolShim()
        ctx = NodeContext(
            node_index=index,
            degree=init["degree"],
            rng=node_rng(init["network_seed"], index),
            known_n=init["known_n"],
            send_callback=shim.on_send,
            wake_callback=shim.on_wake,
        )
        protocol = ElectionRecipe.from_config(init["config"]).protocol(ctx)
        await stream.send(
            {
                "op": "ready",
                "version": NET_WIRE_VERSION,
                "node": index,
                "result": protocol.result(),
            }
        )

        while True:
            frame = await stream.receive()
            if frame is None:
                # The coordinator SIGKILLs crash-planned nodes, so an abrupt
                # close is a normal way for this process's run to end.
                return
            op = frame.get("op")
            if op == "stop":
                return
            if op == "start":
                ctx._set_round(0)
                protocol.on_start()
            elif op == "round":
                ctx._set_round(frame["round"])
                protocol.on_round(inbox_from_wire(frame["inbox"]))
            else:
                raise ValueError("unexpected frame op %r" % op)
            sends, wakeups = shim.drain()
            await stream.send(
                {
                    "op": "acted",
                    "node": index,
                    "sends": [
                        [port, message_to_wire(message)] for port, message in sends
                    ],
                    "wakeups": wakeups,
                    "halted": ctx.halted,
                    "result": protocol.result(),
                }
            )
    finally:
        await stream.close()


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point of ``python -m repro.net.node``."""
    parser = argparse.ArgumentParser(
        prog="repro.net.node",
        description="one live election node; spawned by repro.net.coordinator",
    )
    parser.add_argument(
        "--connect",
        required=True,
        help="coordinator address (uds:<path> or tcp:<host>:<port>)",
    )
    parser.add_argument(
        "--index", required=True, type=int, help="this node's index in the topology"
    )
    options = parser.parse_args(argv)
    try:
        asyncio.run(run_node(options.connect, options.index))
    except (EOFError, ConnectionError, BrokenPipeError) as exc:
        print("repro.net.node %d: %s" % (options.index, exc), file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised as a subprocess
    sys.exit(main())
