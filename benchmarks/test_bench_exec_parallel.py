"""EXEC -- the batch executor: serial/parallel equivalence and wall-clock speedup.

Two claims about ``repro.exec`` back the whole benchmark suite:

* ``BatchRunner(workers=k)`` is *bit-identical* to ``workers=1`` for a fixed
  master seed, because every trial's randomness is derived from its spec and
  never from worker state -- so parallelising a campaign cannot change any
  reported number;
* on a multi-core machine the worker pool turns that free determinism into
  real wall-clock speedup on an E1-style expander campaign (n up to 1024,
  >= 8 trials), which is what makes large-n sweeps practical.

The speedup measurement needs real cores; it skips on boxes with fewer than
four so that laptop/container runs stay honest (a 1-CPU machine cannot
demonstrate parallel speedup, only parallel overhead).
"""

import os
import time

import pytest

from repro.exec import BatchRunner, GraphSpec, SweepSpec, TrialSpec

SEED = 1807


def _expander_sweep(sizes, trials):
    return SweepSpec(
        name="e1-exec",
        configs=tuple(
            TrialSpec(
                graph=GraphSpec("expander", (n,), {"degree": 4}),
                algorithm="election",
                label="n=%d" % n,
            )
            for n in sizes
        ),
        trials=trials,
        base_seed=SEED,
    )


def _records(results):
    return [result.outcome.as_record() for result in results]


def test_exec_parallel_matches_serial(benchmark):
    """workers=2 reproduces the workers=1 outcome sequence exactly."""
    sweep = _expander_sweep([48, 64], trials=2)
    serial = BatchRunner(workers=1).run_sweep(sweep)

    parallel = benchmark.pedantic(
        lambda: BatchRunner(workers=2).run_sweep(sweep), rounds=1, iterations=1
    )

    assert _records(parallel) == _records(serial)
    assert [r.outcome.leaders for r in parallel] == [r.outcome.leaders for r in serial]
    assert [r.fingerprint for r in parallel] == [r.fingerprint for r in serial]
    benchmark.extra_info.update(
        {
            "trials": sweep.num_trials,
            "messages": [r.outcome.messages for r in parallel],
        }
    )


@pytest.mark.slow
def test_exec_parallel_speedup_e1_campaign(benchmark):
    """An E1-style campaign (n up to 1024, 9 trials) runs >= 2x faster on 4 workers."""
    cpus = os.cpu_count() or 1
    if cpus < 4:
        pytest.skip("parallel speedup needs >= 4 cores, found %d" % cpus)

    sweep = _expander_sweep([256, 512, 1024], trials=3)

    def campaign():
        start = time.perf_counter()
        serial = BatchRunner(workers=1).run_sweep(sweep)
        serial_seconds = time.perf_counter() - start
        start = time.perf_counter()
        parallel = BatchRunner(workers=4).run_sweep(sweep)
        parallel_seconds = time.perf_counter() - start
        return serial, serial_seconds, parallel, parallel_seconds

    serial, serial_seconds, parallel, parallel_seconds = benchmark.pedantic(
        campaign, rounds=1, iterations=1
    )

    assert _records(parallel) == _records(serial)
    speedup = serial_seconds / parallel_seconds
    benchmark.extra_info.update(
        {
            "trials": sweep.num_trials,
            "max_n": 1024,
            "serial_seconds": round(serial_seconds, 2),
            "parallel_seconds": round(parallel_seconds, 2),
            "speedup_at_4_workers": round(speedup, 2),
        }
    )
    print(
        "\n[exec] E1-style campaign (%d trials, n up to 1024): "
        "serial %.1fs, 4 workers %.1fs -> %.2fx speedup"
        % (sweep.num_trials, serial_seconds, parallel_seconds, speedup)
    )
    assert speedup >= 2.0
