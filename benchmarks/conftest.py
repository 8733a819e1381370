"""Shared configuration for the benchmark harness.

Every benchmark regenerates one of the paper's evaluation artefacts (see
DESIGN.md's per-experiment index and EXPERIMENTS.md for the recorded results).
Benchmarks use ``benchmark.pedantic`` with a single round because each run is
a full distributed-protocol simulation, and attach the measured quantities the
paper actually talks about (messages, rounds, leaders, ...) as ``extra_info``
so that ``--benchmark-json`` output contains the whole table.

Everything collected from this directory is auto-tagged with the ``bench``
marker.  ``--bench-smoke`` keeps only the first (smallest) test of each
benchmark file -- one tiny trial per experiment -- which is what the CI
smoke job runs to catch driver breakage without paying for full campaigns.
``--backend NAME`` routes every ``BatchRunner`` in the session through the
named execution backend (it sets the ``REPRO_EXEC_BACKEND`` override), so
the E12/E13 campaign drivers -- and every other driver -- can be exercised
under the worker pool without touching driver code.
"""

from __future__ import annotations

import os
import sys

import pytest

_SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
if _SRC not in sys.path:
    sys.path.insert(0, _SRC)

_BENCH_DIR = os.path.dirname(os.path.abspath(__file__))


def pytest_addoption(parser):
    parser.addoption(
        "--bench-smoke",
        action="store_true",
        default=False,
        help="run one tiny trial per benchmark file (CI smoke mode)",
    )
    parser.addoption(
        "--backend",
        default="",
        help="execution backend for every BatchRunner in the session "
        "(serial, process, workerpool); sets REPRO_EXEC_BACKEND",
    )


def pytest_configure(config):
    backend = config.getoption("--backend")
    if backend:
        from repro.exec import backend_names

        if backend not in backend_names():
            raise pytest.UsageError(
                "--backend must be one of %s, got %r"
                % (", ".join(backend_names()), backend)
            )
        os.environ["REPRO_EXEC_BACKEND"] = backend


def _is_benchmark_item(item) -> bool:
    try:
        return os.path.abspath(str(item.path)).startswith(_BENCH_DIR + os.sep)
    except Exception:
        return False


def pytest_collection_modifyitems(config, items):
    for item in items:
        if _is_benchmark_item(item):
            item.add_marker(pytest.mark.bench)

    if not config.getoption("--bench-smoke"):
        return
    seen_modules = set()
    selected, deselected = [], []
    for item in items:
        if not _is_benchmark_item(item):
            selected.append(item)
            continue
        module = item.nodeid.split("::", 1)[0]
        if module in seen_modules:
            deselected.append(item)
        else:
            seen_modules.add(module)
            selected.append(item)
    if deselected:
        config.hook.pytest_deselected(items=deselected)
        items[:] = selected
