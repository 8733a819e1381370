"""Smoke test of the campaign benchmark: a tiny run of every workload.

Run from the repository root with ``python3 -m pytest campaignbench/tests -q``
(about a minute on two CPUs).  Each workload runs at ``--seconds 1``, the
smallest size, untraced and traced; both must pass the benchmark's own
output checks and print exactly the metric names ``BENCHMARK.json`` lists.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _handle:
    BENCHMARK = json.load(_handle)

WORKLOADS = [workload["name"] for workload in BENCHMARK["workloads"]]


def _run(cwd, workload, trace):
    argv = BENCHMARK["command"] + [
        "--workload",
        workload,
        "--seed",
        "7",
        "--seconds",
        "1",
        "--trace",
        str(trace),
    ]
    argv[0] = sys.executable if argv[0] == "python3" else argv[0]
    return subprocess.run(argv, cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_tiny_run_passes_checks_and_prints_the_declared_metrics(workload, trace):
    completed = _run(ROOT, workload, trace)
    assert completed.returncode == 0, completed.stderr
    result = json.loads(completed.stdout.strip().splitlines()[-1])
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    declared = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == {
        name: metric["unit"] for name, metric in result["metrics"].items()
    }
    for metric in result["metrics"].values():
        assert isinstance(metric["value"], (int, float))


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    for path in BENCHMARK["paths"]:
        shutil.copytree(
            os.path.join(ROOT, path),
            tmp_path / path,
            ignore=shutil.ignore_patterns("__pycache__"),
        )
    completed = _run(tmp_path, WORKLOADS[0], 0)
    assert completed.returncode != 0
    assert not completed.stdout.strip()
