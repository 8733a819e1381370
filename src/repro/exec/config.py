"""One execution-configuration object for runners and campaigns.

Four selection mechanisms accreted across the execution stack, each with its
own spelling and its own override chain:

* the **execution backend** -- ``--backend`` on the campaign CLIs, the
  ``REPRO_EXEC_BACKEND`` environment override;
* the **cache backend** -- ``backend=`` on :class:`ResultCache`,
  ``--cache-backend`` on the CLIs, the ``REPRO_CACHE_BACKEND`` override and
  the ``cache.sqlite`` marker-file auto-detection;
* the **simulator engine** -- ``TrialSpec.simulator`` per trial, with no
  run-wide way to say "use the vectorized engine wherever it applies";
* **tracing** -- a hand-rolled ``--trace`` flag per example, wrapping the
  run in :func:`~repro.obs.report.campaign_telemetry`.

:class:`ExecutionProfile` unifies them under **one precedence rule**, applied
independently per dimension::

    explicit  >  CLI  >  environment  >  default

"Explicit" is a non-``None`` field on the profile (constructor argument, or a
non-empty CLI flag folded in by :meth:`ExecutionProfile.from_arguments` --
the CLI tier *is* an explicit field once parsed).  The environment tier is
consulted only when the field was left unset, and the default tier is
whatever the subsystem historically did: workers-derived backend selection,
``cache.sqlite``-marker auto-detection then ``json``, the per-spec
``reference`` simulator, tracing off.  ``TrialSpec.simulator`` set to a
non-default engine on a spec always wins over the profile -- a spec is the
most explicit statement there is.

:func:`add_execution_arguments` is the one CLI helper every campaign example
attaches instead of hand-rolling the five flags, and
``BatchRunner(profile=...)`` / ``CampaignRunner(profile=...)`` both accept
the resulting object (a fleet run is a campaign whose profile carries a
:class:`~repro.fleet.FleetBackend` instance).

>>> profile = ExecutionProfile(backend="serial", trace=True)
>>> profile.effective_backend()
'serial'
>>> profile.effective_trace()
True
"""

from __future__ import annotations

import dataclasses
import os
from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional, Union

from ..core.runner import KNOWN_SIMULATORS
from .algorithms import get_algorithm
from .backends import BACKEND_ENV_VAR, ExecutionBackend, add_backend_argument
from .cache import CACHE_BACKEND_ENV_VAR, ResultCache, add_cache_backend_argument
from .execute import default_worker_count
from .spec import TrialSpec

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from .cache import CacheBackend

__all__ = [
    "ExecutionProfile",
    "add_execution_arguments",
    "SIMULATOR_ENV_VAR",
    "TRACE_ENV_VAR",
]

#: Environment tier of the simulator dimension: a run-wide engine applied to
#: every trial whose algorithm declares it (specs naming a non-default
#: engine explicitly always win).
SIMULATOR_ENV_VAR = "REPRO_EXEC_SIMULATOR"

#: Environment tier of the trace dimension: a truthy value ("1", "true",
#: "yes", "on") turns campaign telemetry on for runs that did not decide.
TRACE_ENV_VAR = "REPRO_TRACE"

_TRUTHY = ("1", "true", "yes", "on")


@dataclass(frozen=True)
class ExecutionProfile:
    """Every execution-selection knob in one immutable value.

    A ``None`` field means "no explicit choice": resolution falls through to
    the environment tier and then the historical default, per dimension (see
    the module docstring for the precedence rule).  Profiles are plain
    frozen dataclasses -- derive variants with :func:`dataclasses.replace`.
    """

    #: Execution backend: a registry name, a live backend instance (the
    #: caller owns its lifecycle), or ``None`` (environment, then the
    #: workers-derived default).
    backend: Union[None, str, ExecutionBackend] = None
    #: Cache backend: a registry name, a live :class:`CacheBackend`
    #: instance, or ``None`` (``cache.sqlite`` marker auto-detection, then
    #: environment, then ``json``).
    cache_backend: Union[None, str, "CacheBackend"] = None
    #: Run-wide simulator engine, applied by :meth:`apply_to_spec` to every
    #: trial whose algorithm declares the engine; ``None`` leaves specs
    #: untouched (environment tier still applies).
    simulator: Optional[str] = None
    #: Whether runs with a directory record campaign telemetry
    #: (``trace.jsonl`` + ``telemetry.md``/``telemetry.json``); ``None``
    #: defers to the environment, then off.
    trace: Optional[bool] = None
    #: Worker budget runners fall back to when not given one explicitly;
    #: ``None`` keeps each runner's historical default.
    workers: Optional[int] = None

    def __post_init__(self) -> None:
        if self.workers is not None and self.workers < 1:
            raise ValueError("workers must be at least 1, got %d" % self.workers)
        if self.backend is not None and not isinstance(self.backend, (str, ExecutionBackend)):
            raise TypeError(
                "backend must be a name, an ExecutionBackend instance or None; "
                "got %r" % type(self.backend).__name__
            )
        if isinstance(self.trace, str):
            raise TypeError(
                "trace must be a bool or None (strings are only interpreted "
                "in the %s environment tier)" % TRACE_ENV_VAR
            )
        if self.simulator is not None and self.simulator not in KNOWN_SIMULATORS:
            raise ValueError(
                "unknown simulator %r; known engines: %s"
                % (self.simulator, ", ".join(KNOWN_SIMULATORS))
            )

    # ------------------------------------------------------------ resolution
    def effective_backend(self) -> Union[None, str, ExecutionBackend]:
        """Explicit backend choice, else the environment name, else ``None``.

        ``None`` means "let the runner apply its workers-derived default"
        (serial for one worker or a single pending trial, the worker pool
        otherwise) -- the default tier of the precedence rule.
        """
        if self.backend is not None:
            return self.backend
        return os.environ.get(BACKEND_ENV_VAR) or None

    def effective_cache_backend(self) -> Union[None, str, "CacheBackend"]:
        """Explicit cache-backend choice, or ``None`` for auto-detection.

        The environment tier of this dimension lives inside
        :class:`ResultCache` itself (after the ``cache.sqlite`` marker
        check: an already-migrated directory stays SQLite whatever the
        environment says), so ``None`` is simply passed through.
        """
        return self.cache_backend

    def effective_simulator(self) -> Optional[str]:
        """Explicit run-wide engine, else the environment one, else ``None``."""
        if self.simulator is not None:
            return self.simulator
        return os.environ.get(SIMULATOR_ENV_VAR) or None

    def effective_trace(self) -> bool:
        """Whether this run records campaign telemetry."""
        if self.trace is not None:
            return bool(self.trace)
        return (os.environ.get(TRACE_ENV_VAR) or "").strip().lower() in _TRUTHY

    def effective_workers(self, default: Optional[int] = None) -> int:
        """The worker budget, falling back to ``default`` (or the CPU count)."""
        if self.workers is not None:
            return self.workers
        if default is not None:
            return default
        return default_worker_count()

    # ------------------------------------------------------------ application
    def apply_to_spec(self, spec: TrialSpec) -> TrialSpec:
        """Apply the run-wide simulator to one trial spec, idempotently.

        A spec that already names a non-default engine keeps it (explicit
        beats the profile), and an algorithm that does not declare the
        profile's engine keeps the ``reference`` oracle rather than failing
        validation -- the profile asks for the engine *wherever it applies*.
        """
        simulator = self.effective_simulator()
        if simulator is None or spec.simulator != "reference":
            return spec
        if simulator == spec.simulator:
            return spec
        if simulator not in get_algorithm(spec.algorithm).simulators:
            return spec
        return dataclasses.replace(spec, simulator=simulator)

    def open_cache(self, root: Union[str, os.PathLike]) -> ResultCache:
        """Open ``root`` as a :class:`ResultCache` under this profile's rule."""
        return ResultCache(root, backend=self.effective_cache_backend())

    # ------------------------------------------------------------------- cli
    @classmethod
    def from_arguments(cls, arguments) -> "ExecutionProfile":
        """Fold a parsed :func:`add_execution_arguments` namespace in.

        Empty-string flag values (the "no explicit choice" CLI default)
        become ``None`` fields, so the environment and default tiers still
        apply; everything the user typed becomes an explicit field.  The
        ``--trace`` flag only ever *enables* tracing (``False`` stays the
        undecided ``None``, so ``REPRO_TRACE=1`` keeps working without the
        flag).
        """
        return cls(
            backend=getattr(arguments, "backend", "") or None,
            cache_backend=getattr(arguments, "cache_backend", "") or None,
            simulator=getattr(arguments, "simulator", "") or None,
            trace=True if getattr(arguments, "trace", False) else None,
            workers=getattr(arguments, "workers", None),
        )

    def describe(self) -> str:
        """One-line human summary of the explicit choices ("defaults" if none)."""
        parts = []
        for name in ("backend", "cache_backend", "simulator", "trace", "workers"):
            value = getattr(self, name)
            if value is not None:
                value = value if isinstance(value, (str, int, bool)) else type(value).__name__
                parts.append("%s=%s" % (name, value))
        return "profile(%s)" % ", ".join(parts) if parts else "profile(defaults)"


def add_execution_arguments(parser, workers_default: Optional[int] = None) -> None:
    """Attach the shared execution flags to an argparse parser.

    One helper for every campaign CLI: ``--workers``, ``--backend``,
    ``--cache-backend``, ``--simulator`` and ``--trace``, wired so that
    ``ExecutionProfile.from_arguments(parser.parse_args())`` yields the
    profile the flags describe.  ``workers_default`` overrides the
    ``--workers`` default (the CPU count otherwise).
    """
    parser.add_argument(
        "--workers",
        type=int,
        default=workers_default if workers_default is not None else default_worker_count(),
        help="worker processes for the batch runner (default: CPU count)",
    )
    add_backend_argument(parser)
    add_cache_backend_argument(parser)
    parser.add_argument(
        "--simulator",
        default="",
        choices=("",) + tuple(KNOWN_SIMULATORS),
        help="run-wide simulator engine, applied wherever an algorithm "
        "declares it (default: each spec's own choice; REPRO_EXEC_SIMULATOR "
        "overrides runs that did not decide)",
    )
    parser.add_argument(
        "--trace",
        action="store_true",
        help="write trace.jsonl + telemetry.md/json into the campaign "
        "directory (watch live with `python -m repro.obs.watch DIR`; "
        "REPRO_TRACE=1 enables this without the flag)",
    )

