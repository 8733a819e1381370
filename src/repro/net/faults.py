"""The coordinator CLI's fault options as a :class:`~repro.faults.plan.FaultPlan`.

A live run needs no fault machinery of its own: the coordinator drives the
simulator's event loop, so the plan reaches the same
:class:`~repro.faults.injector.FaultInjector`, seeded and consulted exactly
as in a simulated run.  This module only turns ``--drop``, ``--duplicate``,
``--crash K@R`` and ``--delay`` into that plan.
"""

from __future__ import annotations

from typing import Optional

from ..faults.plan import CrashFaults, DelayFaults, FaultPlan, MessageFaults

__all__ = ["plan_from_options", "parse_crash_option"]


# -------------------------------------------------------------- CLI parsing
def parse_crash_option(text: str) -> CrashFaults:
    """Parse the coordinator CLI's ``--crash K@R`` form.

    ``K`` nodes (drawn by the plan's crash stream) crash-stop from round
    ``R``; a bare ``K`` crashes at round 0.
    """
    count_text, _, round_text = text.partition("@")
    try:
        count = int(count_text)
        at_round = int(round_text) if round_text else 0
    except ValueError:
        raise ValueError(
            "--crash expects K or K@R (e.g. 2@40), got %r" % text
        ) from None
    return CrashFaults(count=count, at_round=at_round)


def plan_from_options(
    drop: float = 0.0,
    duplicate: float = 0.0,
    crash: Optional[str] = None,
    delay: int = 0,
) -> Optional[FaultPlan]:
    """Build the coordinator CLI's fault plan; ``None`` when all defaults."""
    kwargs = {}
    if drop > 0.0 or duplicate > 0.0:
        kwargs["messages"] = MessageFaults(
            drop_probability=drop, duplicate_probability=duplicate
        )
    if crash:
        kwargs["crashes"] = parse_crash_option(crash)
    if delay > 0:
        kwargs["delays"] = DelayFaults(max_delay=delay)
    if not kwargs:
        return None
    return FaultPlan(**kwargs)
