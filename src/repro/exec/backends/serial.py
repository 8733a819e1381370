"""In-process execution: no pool, no pickling, no subprocesses."""

from __future__ import annotations

from typing import Iterator, Sequence, Tuple

from ..execute import TrialPayload, batched_payloads
from ..spec import TrialSpec
from .base import ExecutionBackend

__all__ = ["SerialBackend"]


class SerialBackend(ExecutionBackend):
    """Execute every trial in the submitting process, one after the other.

    The reference backend: everything else must match it bit for bit.
    """

    name = "serial"

    def map(self, specs: Sequence[TrialSpec]) -> Iterator[Tuple[int, TrialPayload]]:
        """Execute lazily, same-shape vectorized trials as one batch each
        (:func:`~repro.exec.execute.batched_payloads`), everything else in
        submission order.

        Laziness matters for ``on_error="raise"``: the runner stops
        consuming at the first failure, so trials after it -- beyond the
        failed trial's own batch -- never execute.
        """
        return batched_payloads(specs)
