#!/usr/bin/env python3
"""Campaign benchmark: named workloads through ``CampaignRunner``, end to end.

Usage (from the repository root)::

    python3 campaignbench/run.py --workload vectorized-campaign --seed 1 \\
        --seconds 28 --trace 0

``--trace 0`` runs the workload's campaign cold through the public path
``CampaignRunner`` -> ``BatchRunner`` -> execution backend -> engine ->
``ResultCache``, then warm resumes and ``campaign_report``, checks the
outputs and prints the end-to-end metrics.
``--trace 1`` runs the campaign once untraced and once as a traced replay
through each layer's public functions (see ``replay.py``) and prints the
per-layer metrics.  Both print every metric as ``name value unit`` lines, an
``env`` line, and as the last line one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  A failed output
check still prints the metrics, with ``"correct": false``, and exits 1.

The amount of work is a fixed function of ``(workload, --seconds)``, so the
paper-cost metrics (success, message units, rounds) repeat exactly for one
seed and code version.  Work files live under ``.campaignbench-work/`` in
the checkout; the traced run leaves its spans there as JSON.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SOURCE = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".campaignbench-work")
BENCHMARK_JSON = os.path.join(ROOT, "BENCHMARK.json")

#: Environment variables that would otherwise re-route a run; the benchmark
#: pins every choice explicitly instead.
_REPRO_OVERRIDES = (
    "REPRO_EXEC_BACKEND",
    "REPRO_CACHE_BACKEND",
    "REPRO_EXEC_SIMULATOR",
    "REPRO_TRACE",
)
_THREAD_VARIABLES = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)

#: How many fresh processes measure ``setup_s`` (the median is reported).
SETUP_PROBES = 3

#: :func:`calibration_seconds` on an idle 2-CPU x86 container; the speed
#: ``trials_per_s`` is scaled to.
REFERENCE_CALIBRATION_SECONDS = 0.010


def cpu_count() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # not Linux
        return os.cpu_count() or 1


def cap_threads() -> int:
    """Cap BLAS/OpenMP pools at the CPU count; must run before numpy loads."""
    cap = cpu_count()
    for variable in _THREAD_VARIABLES:
        current = os.environ.get(variable, "")
        if not current.isdigit() or int(current) > cap:
            os.environ[variable] = str(cap)
    for variable in _REPRO_OVERRIDES:
        os.environ.pop(variable, None)
    return cap


def parse_arguments(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--setup-probe",
        action="store_true",
        help="only import, generate the specs and open the cache, then exit "
        "(the parent times this process for setup_s)",
    )
    return parser.parse_args(argv)


# ------------------------------------------------------------------- helpers
def fresh_directory(*parts: str) -> str:
    path = os.path.join(WORK, *parts)
    shutil.rmtree(path, ignore_errors=True)
    os.makedirs(path)
    return path


def reset_peak_rss() -> bool:
    """Restart this process's peak-RSS mark (Linux); ``False`` if unsupported."""
    try:
        with open("/proc/self/clear_refs", "w") as handle:
            handle.write("5")
    except OSError:
        return False
    return True


def own_peak_rss_mb() -> float:
    """This process's peak RSS since the last :func:`reset_peak_rss`."""
    try:
        with open("/proc/self/status") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def children_peak_rss_mb() -> float:
    """Largest peak RSS of any reaped child (workerpool workers, probes)."""
    return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0


def calibration_seconds() -> float:
    """Median time of a fixed pure-Python loop: the machine's current speed.

    Shared hosts drift by 15-40% within minutes; timing this loop right
    before and after every cold campaign lets ``trials_per_s`` be scaled to
    :data:`REFERENCE_CALIBRATION_SECONDS`, which cancels most of the drift
    (it cut the cross-seed spread of faulty-fallback-campaign from 0.15-0.23
    to about 0.05).
    The loop runs in the benchmark's own process between campaigns, when no
    repro code is running.
    """
    samples = []
    for _ in range(3):
        start = time.perf_counter()
        table = {}
        for i in range(40000):
            table[i % 997] = table.get(i % 997, 0) + i * 3
            if i % 7 == 0:
                table.pop((i * 31) % 997, None)
        sorted(table.items())
        samples.append(time.perf_counter() - start)
    return statistics.median(samples)


def measure_setup(arguments) -> float:
    """Median wall time of fresh processes doing only the set-up steps."""
    argv = [
        sys.executable,
        os.path.abspath(__file__),
        "--setup-probe",
        "--workload",
        arguments.workload,
        "--seed",
        str(arguments.seed),
        "--seconds",
        str(arguments.seconds),
    ]
    samples = []
    for _ in range(SETUP_PROBES):
        start = time.perf_counter()
        subprocess.run(argv, check=True, timeout=120, stdout=subprocess.DEVNULL)
        samples.append(time.perf_counter() - start)
    return statistics.median(samples)


class Checks:
    """Named output checks; a failing one is reported, never raised."""

    def __init__(self) -> None:
        self.failures = []

    def expect(self, ok: bool, message: str) -> None:
        if not ok:
            self.failures.append(message)
            print("CHECK FAILED: %s" % message, file=sys.stderr)

    @property
    def passed(self) -> bool:
        return not self.failures


def check_digests(checks: Checks, digests: dict) -> None:
    """Each ``{campaign fingerprint: report digest}`` must match earlier runs.

    A campaign fingerprint covers workload, seed, size and code version, so
    the same campaign must always render the same ``report.json``.
    """
    path = os.path.join(WORK, "report-digests.json")
    try:
        with open(path, encoding="utf-8") as handle:
            known = json.load(handle)
    except (OSError, ValueError):
        known = {}
    for fingerprint, digest in digests.items():
        previous = known.setdefault(fingerprint, digest)
        checks.expect(
            previous == digest,
            "report.json digest %s differs from an earlier run's %s" % (digest, previous),
        )
    temporary = path + ".tmp"
    with open(temporary, "w", encoding="utf-8") as handle:
        json.dump(known, handle, sort_keys=True)
    os.replace(temporary, path)


def mean(values) -> float:
    values = list(values)
    return sum(values) / len(values) if values else 0.0


def outcome_metrics(results):
    """Paper-cost metrics and failures over cold ``CampaignResult``\\ s."""
    trial_results = [
        r for result in results for per in result.results.values() for r in per.values()
    ]
    outcomes = [r.outcome for r in trial_results if not r.failed]
    attempted = len(trial_results)
    return {
        "attempted": attempted,
        "failed": attempted - len(outcomes),
        "success_frac": sum(1 for o in outcomes if o.success) / attempted,
        "message_units_per_trial": mean(o.message_units for o in outcomes),
        "rounds_per_trial": mean(o.rounds for o in outcomes),
        "fallbacks": sum(
            1 for o in outcomes if o.extras.get("simulator", "reference") != "vectorized"
        ),
    }


def run_cold(workload, campaign, workers, directory, warm_repeats):
    """One cold campaign, then ``warm_repeats`` resumes and reports, timed.

    Returns the cold result, the cold wall time, the resumes as
    ``(seconds, CampaignResult)`` pairs, the report times and the bytes of
    the last ``report.json``.
    """
    from repro.campaign import CampaignRunner, write_report

    profile = workload.profile

    def run_campaign():
        return CampaignRunner(
            campaign, cache, workers=workers, directory=directory, profile=profile
        ).run()

    cache = profile.open_cache(os.path.join(directory, "cache"))
    resumes, reports = [], []
    try:
        start = time.perf_counter()
        result = run_campaign()
        cold = time.perf_counter() - start
        for _ in range(warm_repeats):
            start = time.perf_counter()
            resumed = run_campaign()
            resumes.append((time.perf_counter() - start, resumed))
        for _ in range(warm_repeats):
            start = time.perf_counter()
            _, json_path = write_report(campaign, cache, directory)
            reports.append(time.perf_counter() - start)
    finally:
        cache.close()
    with open(json_path, "rb") as handle:
        report_bytes = handle.read()
    return result, cold, resumes, reports, report_bytes


# --------------------------------------------------------------------- modes
def end_to_end(arguments, workload, campaigns, workers, checks):
    """``--trace 0``: every campaign cold once, each followed by one warm
    resume and one report for the output checks.

    A workload with a single campaign repeats it while ``--seconds`` allows;
    the paper-cost metrics come from the first pass over the campaigns.
    """
    colds, rates, peaks, results = [], [], [], []
    digests = {}
    failed = trials = 0
    tracks_peak = reset_peak_rss()
    begin = time.perf_counter()
    while True:
        campaign = campaigns[len(colds) % len(campaigns)]
        directory = fresh_directory("run-%d" % os.getpid(), "cold-%d" % len(colds))
        before = calibration_seconds()
        result, cold, warm, _, report_bytes = run_cold(workload, campaign, workers, directory, 1)
        after = calibration_seconds()
        peaks.append(own_peak_rss_mb())
        if tracks_peak:
            reset_peak_rss()
        shutil.rmtree(directory, ignore_errors=True)
        colds.append(cold)
        speed = REFERENCE_CALIBRATION_SECONDS * 2 / (before + after)
        rates.append(campaign.num_trials / (cold * speed))
        trials += campaign.num_trials
        failed += result.failed
        check_resumes(checks, warm)
        digest = hashlib.sha256(report_bytes).hexdigest()
        checks.expect(
            digests.setdefault(campaign.fingerprint(), digest) == digest,
            "report.json differs across repetitions of one campaign",
        )
        if len(results) < len(campaigns):
            results.append(result)
        done = len(colds)
        if done < len(campaigns):
            continue
        elapsed = time.perf_counter() - begin
        if workload.replicated or elapsed * (done + 1) / done > arguments.seconds:
            break

    summary = outcome_metrics(results)
    checks.expect(failed == 0, "%d trial(s) failed" % failed)
    check_digests(checks, digests)
    if workload.name == "vectorized-campaign":
        checks.expect(
            summary["fallbacks"] == 0,
            "%d vectorized trial(s) fell back to the reference engine" % summary["fallbacks"],
        )
    print(
        "cold campaigns %d, unscaled trials/s %.4f, scaled trials/s per campaign: %s"
        % (len(colds), trials / sum(colds), " ".join("%.4g" % rate for rate in rates))
    )
    metrics = [
        ("trials_per_s", statistics.median(rates)),
        ("success_frac", summary["success_frac"]),
        ("message_units_per_trial", summary["message_units_per_trial"]),
        ("rounds_per_trial", summary["rounds_per_trial"]),
        ("setup_s", measure_setup(arguments)),
        ("peak_rss_mb", max(statistics.median(peaks), children_peak_rss_mb())),
    ]
    return metrics, trials, failed


def check_resumes(checks, warm) -> None:
    """Every warm resume must execute nothing and hit the cache throughout."""
    for _, resumed in warm:
        checks.expect(
            resumed.executed == 0 and resumed.failed == 0,
            "warm resume executed %d trial(s)" % resumed.executed,
        )
        checks.expect(
            resumed.cache_hits == resumed.assigned,
            "warm resume hit %d of %d" % (resumed.cache_hits, resumed.assigned),
        )


def per_layer(arguments, workload, campaigns, workers, checks):
    """``--trace 1``: one untraced campaign, then the traced replay."""
    import replay as tracing

    (campaign,) = campaigns
    if workload.backend == "serial":
        warm_up(campaign, workload.profile)
    directory = fresh_directory("run-%d" % os.getpid(), "untraced")
    result, cold, warm, reports, untraced_bytes = run_cold(
        workload, campaign, workers, directory, workload.warm_repeats
    )
    check_resumes(checks, warm)
    summary = outcome_metrics([result])
    replay_directory = fresh_directory("run-%d" % os.getpid(), "traced")
    traced = tracing.replay(workload, campaign, workers, replay_directory)
    tracing.probe_off_path_layers(traced)

    attempted = summary["attempted"] + len(traced.outcomes)
    failed = summary["failed"]
    checks.expect(failed == 0, "%d trial(s) failed" % failed)
    checks.expect(
        traced.report_bytes == untraced_bytes,
        "the traced replay's report.json differs from the untraced run's",
    )
    check_digests(checks, {campaign.fingerprint(): hashlib.sha256(untraced_bytes).hexdigest()})
    metrics = tracing.layer_metrics(traced, cold + reports[0], failed, summary["attempted"])
    metrics += [
        ("resume_s", statistics.median(seconds for seconds, _ in warm)),
        ("report_s", statistics.median(reports)),
    ]
    values = dict(metrics)
    checks.expect(values["exec.cache.hit_ratio"] == 1.0, "warm lookups missed the cache")
    if workload.name == "vectorized-campaign":
        checks.expect(values["sim.fallback_frac"] == 0.0, "vectorized trials fell back")
    checks.expect(
        values["trace.unaccounted_frac"] <= 0.10,
        "layer spans cover less than 90% of the traced wall time",
    )

    os.makedirs(os.path.join(WORK, "traces"), exist_ok=True)
    trace_path = os.path.join(
        WORK, "traces", "%s-seed%d.json" % (workload.name, arguments.seed)
    )
    traced.recorder.dump(trace_path, {"workload": workload.name, "seed": arguments.seed})
    wall = traced.root.duration
    for name, seconds in sorted(traced.recorder.self_time_by_name(traced.root).items()):
        print("self %-28s %10.3f ms %6.2f%%" % (name, seconds * 1e3, 100 * seconds / wall))
    print("spans written to %s" % os.path.relpath(trace_path, ROOT))
    return metrics, attempted, failed


def warm_up(campaign, profile) -> None:
    """Run each kind of trial once on a 16-node hypercube, untimed.

    The untraced run and the traced replay share one process; without this
    the first of them alone would pay first-call costs (BLAS thread pools,
    lazily built tables) and ``trace.overhead_frac`` would compare unequal
    work.
    """
    from dataclasses import replace

    from repro.exec import GraphSpec, execute_trial

    kinds = {}
    for _, spec in campaign.expand():
        spec = profile.apply_to_spec(spec)
        kinds.setdefault((spec.algorithm, spec.simulator, repr(spec.fault_plan)), spec)
    for spec in kinds.values():
        execute_trial(replace(spec, graph=GraphSpec("hypercube", (4,))))


def declared_units(trace: int):
    """``{metric name: unit}`` of the metrics ``BENCHMARK.json`` declares."""
    with open(BENCHMARK_JSON, encoding="utf-8") as handle:
        document = json.load(handle)
    return {m["name"]: m["unit"] for m in document["per_layer" if trace else "end_to_end"]}


def main(argv=None) -> int:
    arguments = parse_arguments(argv)
    if not os.path.isfile(os.path.join(SOURCE, "repro", "__init__.py")):
        print("no repro sources under %s; run from a full checkout" % SOURCE, file=sys.stderr)
        return 2
    thread_cap = cap_threads()
    sys.path.insert(0, SOURCE)

    import numpy

    from repro.exec import trial_fingerprint
    from workloads import HELD_OUT_SEED, WORKLOADS

    if arguments.workload not in WORKLOADS:
        print(
            "unknown workload %r; known: %s" % (arguments.workload, ", ".join(WORKLOADS)),
            file=sys.stderr,
        )
        return 2
    workload = WORKLOADS[arguments.workload]
    workers = min(workload.workers, cpu_count())
    if arguments.trace:
        campaigns = [workload.traced_campaign(arguments.seed, arguments.seconds)]
    else:
        campaigns = workload.campaigns(arguments.seed, arguments.seconds)
    if arguments.setup_probe:
        profile = workload.profile
        for campaign in campaigns:
            for _, spec in campaign.expand():
                trial_fingerprint(profile.apply_to_spec(spec))
        profile.open_cache(fresh_directory("setup-%d" % os.getpid(), "cache")).close()
        shutil.rmtree(os.path.join(WORK, "setup-%d" % os.getpid()), ignore_errors=True)
        return 0

    environment = {
        "workload": workload.name,
        "seed": arguments.seed,
        "held_out_seed": HELD_OUT_SEED,
        "campaigns": len(campaigns),
        "trials": sum(campaign.num_trials for campaign in campaigns),
        "cpu_count": cpu_count(),
        "thread_cap": thread_cap,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "backend": workload.backend,
        "cache_backend": workload.cache_backend,
        "workers": workers,
    }
    print("env %s" % json.dumps(environment, sort_keys=True), flush=True)
    checks = Checks()
    mode = per_layer if arguments.trace else end_to_end
    try:
        metrics, attempted, failed = mode(arguments, workload, campaigns, workers, checks)
    finally:
        shutil.rmtree(os.path.join(WORK, "run-%d" % os.getpid()), ignore_errors=True)
    units = declared_units(arguments.trace)
    for name, value in metrics:
        print("%-34s %16.6f %s" % (name, value, units[name]))
    print(
        json.dumps(
            {
                "correct": checks.passed,
                "attempted": attempted,
                "failed": failed,
                "metrics": {
                    name: {"value": value, "unit": units[name]} for name, value in metrics
                },
            }
        )
    )
    return 0 if checks.passed else 1


if __name__ == "__main__":
    sys.exit(main())
