"""Declarative host inventory: which machines a fleet campaign runs on.

A fleet is described by a sequence of :class:`HostSpec` values -- plain data,
serialisable as JSON, with **no transport code of their own**: each host
carries a *command template* whose expansion must start a
``python -m repro.exec.worker --serve`` process speaking length-prefixed
JSON frames on stdio (see :mod:`repro.exec.worker`); the fleet backend
appends ``--preload`` flags to it, so the template must end with the worker
command.  Because the transport is just an argv, the same
:class:`~repro.fleet.backend.FleetBackend` drives:

* **local process groups** (the default, ``command=None``) -- the testable
  backbone of the chaos suite and CI's fleet-smoke job;
* **SSH** -- ``command="ssh user@node42 {python} -m repro.exec.worker
  --serve"``;
* **k8s / job queues** -- ``command="kubectl exec -i pod-{host} -- {python}
  -m repro.exec.worker --serve"`` or a scheduler submit wrapper.

Template placeholders: ``{python}`` expands to the host's interpreter
(``python`` field, or this interpreter) and ``{host}`` to the host's name.
Inventories load from JSON (:func:`load_inventory`) or are built in code
(:func:`local_inventory`); see docs/architecture.md "Fleet dispatch" for the
file format and the remote recipes.

>>> host = HostSpec(name="a")
>>> host.command_argv()[-3:]
['-m', 'repro.exec.worker', '--serve']
>>> HostSpec(name="n7", command="ssh n7 {python} -m repro.exec.worker --serve").command_argv()[0]
'ssh'
"""

from __future__ import annotations

import json
import os
import shlex
import sys
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple, Union

from ..exec.backends.workerpool import worker_command

__all__ = [
    "HostSpec",
    "INVENTORY_VERSION",
    "inventory_to_document",
    "load_inventory",
    "local_inventory",
    "parse_inventory",
]

#: Version stamp of the JSON inventory format.
INVENTORY_VERSION = 1


@dataclass(frozen=True)
class HostSpec:
    """One machine of the fleet, as plain declarative data.

    ``name`` labels the host's processes in ``worker.spawned`` trace events
    and fills the ``{host}`` placeholder, so it is restricted to characters
    that expand safely into a command line.  ``env`` entries overlay the
    spawned process's environment (stored as a sorted tuple of pairs so
    specs stay hashable and order-independent).
    """

    name: str
    #: Command template whose expansion starts the host process; ``None``
    #: spawns ``{python} -m repro.exec.worker --serve`` locally.
    command: Optional[str] = None
    #: Serve processes started on this host, each one slot of the fleet
    #: backend (the host's parallelism).
    workers: int = 1
    #: Extra environment variables for the host process.
    env: Tuple[Tuple[str, str], ...] = ()
    #: Interpreter the ``{python}`` placeholder expands to (this one if unset).
    python: Optional[str] = None

    def __post_init__(self) -> None:
        if not self.name or not all(c.isalnum() or c in "-._" for c in self.name):
            raise ValueError(
                "host name %r must be non-empty and contain only letters, "
                "digits, '-', '.' or '_'" % (self.name,)
            )
        if self.workers < 1:
            raise ValueError("workers must be at least 1, got %d" % self.workers)
        if isinstance(self.env, dict):
            object.__setattr__(self, "env", tuple(sorted(self.env.items())))
        else:
            object.__setattr__(self, "env", tuple((k, v) for k, v in self.env))
        for key, value in self.env:
            if not isinstance(key, str) or not isinstance(value, str):
                raise TypeError(
                    "env entries must be str -> str; got %r=%r" % (key, value)
                )

    # ------------------------------------------------------------- transport
    def command_argv(self) -> List[str]:
        """The argv that starts one of this host's serve-mode processes."""
        python = self.python or sys.executable
        if self.command is None:
            return worker_command(python=python)
        try:
            return [
                part.format(python=python, host=self.name)
                for part in shlex.split(self.command)
            ]
        except (KeyError, IndexError) as exc:
            raise ValueError(
                "host %r command template %r uses an unknown placeholder "
                "(known: {python}, {host}): %s" % (self.name, self.command, exc)
            ) from None

    def environment(self, base: Dict[str, str]) -> Dict[str, str]:
        """``base`` with this host's ``env`` entries overlaid."""
        merged = dict(base)
        merged.update(dict(self.env))
        return merged

    # ------------------------------------------------------------------ wire
    def to_document(self) -> Dict[str, object]:
        """JSON-able form (the inventory-file entry shape)."""
        document: Dict[str, object] = {"name": self.name, "workers": self.workers}
        if self.command is not None:
            document["command"] = self.command
        if self.env:
            document["env"] = dict(self.env)
        if self.python is not None:
            document["python"] = self.python
        return document

    @classmethod
    def from_document(cls, document: Dict[str, object]) -> "HostSpec":
        """Rebuild a host spec from its :meth:`to_document` form."""
        return cls(
            name=document["name"],
            command=document.get("command"),
            workers=int(document.get("workers", 1)),
            env=dict(document.get("env", {})),
            python=document.get("python"),
        )


def local_inventory(count: int, workers: int = 1) -> Tuple[HostSpec, ...]:
    """``count`` local process-group hosts (``host-0`` ... ``host-N``).

    The testable default inventory: every "host" is a local subprocess, so
    chaos tests can SIGKILL/SIGSTOP individual hosts deterministically.
    """
    if count < 1:
        raise ValueError("a fleet needs at least one host, got %d" % count)
    return tuple(HostSpec(name="host-%d" % i, workers=workers) for i in range(count))


def parse_inventory(document: Dict[str, object]) -> Tuple[HostSpec, ...]:
    """Decode a JSON inventory document into host specs (validated)."""
    if document.get("version") != INVENTORY_VERSION:
        raise ValueError(
            "inventory version %r does not match this code's %d"
            % (document.get("version"), INVENTORY_VERSION)
        )
    raw_hosts = document.get("hosts")
    if not isinstance(raw_hosts, list) or not raw_hosts:
        raise ValueError("inventory carries no host list")
    hosts = tuple(HostSpec.from_document(entry) for entry in raw_hosts)
    names = [host.name for host in hosts]
    duplicates = sorted({name for name in names if names.count(name) > 1})
    if duplicates:
        raise ValueError(
            "host names must be unique; duplicated: %s" % ", ".join(duplicates)
        )
    return hosts


def inventory_to_document(hosts: Sequence[HostSpec]) -> Dict[str, object]:
    """The JSON document form of an inventory (``parse_inventory``'s inverse)."""
    return {
        "version": INVENTORY_VERSION,
        "hosts": [host.to_document() for host in hosts],
    }


def load_inventory(path: Union[str, os.PathLike]) -> Tuple[HostSpec, ...]:
    """Read a JSON inventory file (see docs/architecture.md for the format)."""
    with open(os.fspath(path), "r", encoding="utf-8") as handle:
        return parse_inventory(json.load(handle))
