"""What a fresh worker interpreter imports, pinned in a subprocess.

A worker-pool worker runs reference-engine trials far more often than
anything else, so its interpreter must not pay for numpy, the vectorized
engine or the mixing-time analysis until a trial needs them, nor ever for
the parent side of ``repro.exec`` (backends, caches, runner, execution
profile): importing ``repro.exec.worker`` and running the six small
baselines of the ``many-small-trials`` workload leave all of them
unloaded.  A vectorized trial run afterwards in the same process loads the
engine then and still produces its pinned outcome.  The packages that
export those names lazily (``repro``, ``repro.graphs``, ``repro.sim``,
``repro.exec``) still resolve every ``__all__`` name.
"""

from __future__ import annotations

import doctest
import importlib.util
import json
import os
import subprocess
import sys

import pytest

from repro.exec.backends import worker_environment
from repro.exec.spec import GraphSpec, TrialSpec
from repro.exec.wire import spec_to_dict

#: Modules only vectorized trials, graph analysis and the parent side of a
#: campaign need.
HEAVY = (
    "numpy",
    "repro.sim.vectorized",
    "repro.graphs.mixing",
    "repro.exec.cache",
    "repro.exec.backends",
    "repro.exec.runner",
    "repro.exec.config",
)

#: The six reference-engine baselines of the ``many-small-trials`` workload.
SMALL_TRIALS = (
    TrialSpec(graph=GraphSpec("cycle", (16,)), algorithm="flood_max", seed=1),
    TrialSpec(graph=GraphSpec("clique", (8,)), algorithm="controlled_flooding", seed=2),
    TrialSpec(graph=GraphSpec("hypercube", (4,)), algorithm="push_pull", seed=3),
    TrialSpec(graph=GraphSpec("hypercube", (4,)), algorithm="flooding", seed=4),
    TrialSpec(graph=GraphSpec("grid", (4, 4)), algorithm="spanning_tree", seed=5),
    TrialSpec(graph=GraphSpec("clique", (16,)), algorithm="clique_sublinear", seed=6),
)

_SCRIPT = r"""
import hashlib, json, sys

heavy, small, vectorized = json.loads(sys.argv[1])
report = {}
import repro.exec.worker as worker
report["import"] = [name for name in heavy if name in sys.modules]
answers = [payload for _, payload in worker.run_unit(small)]
report["errors"] = [payload["error"] for payload in answers if payload["error"]]
report["small"] = [name for name in heavy if name in sys.modules]
((_, payload),) = worker.run_unit([vectorized])
report["vectorized_error"] = payload["error"]
report["vectorized_simulator"] = payload["outcome"]["extras"]["simulator"]
report["vectorized_digest"] = hashlib.sha256(json.dumps(payload["outcome"]).encode()).hexdigest()
print(json.dumps(report))
"""


def _golden(name):
    """A pinned vectorized outcome of ``tests/sim/test_vectorized.py``."""
    path = os.path.join(os.path.dirname(os.path.dirname(__file__)), "sim", "test_vectorized.py")
    module_spec = importlib.util.spec_from_file_location("_vectorized_pins", path)
    module = importlib.util.module_from_spec(module_spec)
    module_spec.loader.exec_module(module)
    return module._GOLDEN[name]


def _run(code: str, *args: str) -> str:
    completed = subprocess.run(
        [sys.executable, "-c", code, *args],
        env=worker_environment(),
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert completed.returncode == 0, completed.stderr
    return completed.stdout


class TestWorkerImports:
    def test_worker_runs_baselines_without_the_vectorized_engine(self):
        spec, digest = _golden("election-hypercube")
        argument = json.dumps(
            [HEAVY, [spec_to_dict(small) for small in SMALL_TRIALS], spec_to_dict(spec)]
        )
        report = json.loads(_run(_SCRIPT, argument))
        assert report["import"] == []
        assert report["errors"] == []
        assert report["small"] == []
        # The engine loads at the first vectorized trial, which keeps its pin.
        assert report["vectorized_error"] is None
        assert report["vectorized_simulator"] == "vectorized"
        assert report["vectorized_digest"] == digest


class TestLazyExports:
    def test_every_public_name_resolves(self):
        code = (
            "import importlib\n"
            "for package in ('repro', 'repro.graphs', 'repro.sim', 'repro.exec'):\n"
            "    module = importlib.import_module(package)\n"
            "    for name in module.__all__:\n"
            "        namespace = {}\n"
            "        exec('from %s import %s' % (package, name), namespace)\n"
            "        assert namespace[name] is getattr(module, name), (package, name)\n"
            "    assert set(module.__all__) <= set(dir(module)), package\n"
            "print('ok')\n"
        )
        assert _run(code).strip() == "ok"

    def test_helper_example_runs(self):
        import repro._lazy

        assert doctest.testmod(repro._lazy).failed == 0

    def test_unknown_names_still_raise(self):
        import repro.graphs

        with pytest.raises(AttributeError, match="no_such_name"):
            repro.graphs.no_such_name
