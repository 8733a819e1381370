"""The traced run: the steps ``CampaignRunner`` takes, through each layer's
public functions, with a span around every call.

:func:`replay` repeats what a cold ``CampaignRunner.run`` plus a report does,
in the same order:

1. expand and fingerprint the trials (``campaign.expand``);
2. look them up with ``get_many`` (``exec.cache.get_many.cold``);
3. run each trial.  In-process workloads call ``TrialSpec.build_graph``
   (``graphs.build``), ``cached_mixing_time`` for ``known_tmix``
   (``graphs.mixing``) and ``Algorithm.run`` (``sim.engine``) under one
   ``exec.backends.wait`` span per trial -- with the serial backend the
   parent is blocked on exactly that work.  Wire workloads encode each spec
   (``exec.wire.encode``) and call ``start``/``map``/``close`` on the
   backend, timing each blocking ``next()`` on the ``map`` iterator;
4. serialise each outcome (``exec.serialize``), ``put`` it
   (``exec.cache.put``), save the manifest (``campaign.manifest``) and write
   the report (``campaign.report``).

All of it sits under one ``replay`` root span, whose self time is the traced
wall time no layer span covers.  A warm ``get_many`` over the filled cache
follows as its own root (``exec.cache.get_many.warm``).

Layers a workload's path never calls in the parent process -- graph build
and engine inside workerpool workers, mixing time without ``known_tmix``
trials, the wire under the serial backend -- are measured by
:func:`probe_off_path_layers` on the same generated trials, under a separate
``probe`` root, so every per-layer metric is a measurement on every workload
while the replay's coverage stays exactly the production path.
"""

from __future__ import annotations

import json
import os
import statistics
from typing import Dict, List, Tuple

from repro.campaign import CampaignManifest, TrialEntry, campaign_report, write_report
from repro.exec import TrialPayload, TrialSpec, get_algorithm, make_backend, trial_fingerprint
from repro.exec.serialize import outcome_to_dict
from repro.exec.wire import (
    WIRE_VERSION,
    encode_frame,
    payload_from_dict,
    payload_to_dict,
    spec_to_dict,
    spec_wire_document,
)
from repro.graphs.mixing import cached_mixing_time
from spans import Recorder, percentile, tail_percentile

__all__ = ["Replay", "replay", "probe_off_path_layers", "layer_metrics"]

#: Trials per configuration the probe runs in-process for workloads whose
#: graph build and engine run inside worker processes.
PROBE_TRIALS_PER_CONFIG = 10


class Replay:
    """What one traced replay produced, for the metrics and the checks."""

    def __init__(self, recorder: Recorder, workers: int) -> None:
        self.recorder = recorder
        self.workers = workers
        self.specs: Dict[str, TrialSpec] = {}
        self.outcomes: Dict[str, object] = {}
        self.worker_seconds = 0.0
        self.map_seconds = 0.0
        self.frame_bytes: List[int] = []
        self.warm_hits = 0
        self.warm_lookups = 0
        self.cache_bytes_per_entry = 0.0
        self.report_bytes = b""
        self.root = None


def _run_in_process(recorder: Recorder, spec: TrialSpec, fingerprint: str):
    """Build, (mixing time,) engine: the serial backend's work for one trial."""
    with recorder.span("graphs.build", fingerprint):
        graph = spec.build_graph()
    if spec.algorithm == "known_tmix" and "mixing_time" not in spec.algo_kwargs:
        # The adapter reads the memo this fills, so the engine span below
        # holds the walk phases only.
        with recorder.span("graphs.mixing", fingerprint):
            cached_mixing_time(graph)
    algorithm = get_algorithm(spec.algorithm)
    with recorder.span("sim.engine", fingerprint):
        return algorithm.run(graph, spec)


def _collect(recorder, result, cache, fingerprint, spec, payload, wire):
    """Decode (wire only), serialise and store one finished trial."""
    with recorder.span("exec.collect", fingerprint):
        if wire:
            reply = payload_to_dict(payload)
            result.frame_bytes.append(len(encode_frame(reply)))
            with recorder.span("exec.wire.decode", fingerprint):
                payload = payload_from_dict(reply)
        if payload.error is not None:
            raise RuntimeError("trial %s failed: %s" % (spec.describe(), payload.error))
        with recorder.span("exec.serialize", fingerprint):
            json.dumps(outcome_to_dict(payload.outcome), sort_keys=True)
        with recorder.span("exec.cache.put", fingerprint):
            cache.put(fingerprint, spec, payload.outcome, payload.elapsed_seconds)
        result.outcomes[fingerprint] = payload.outcome
        result.worker_seconds += payload.elapsed_seconds


def replay(workload, campaign, workers: int, directory: str) -> Replay:
    """Send ``campaign``'s trials through each layer; see the module docstring."""
    profile = workload.profile
    recorder = Recorder()
    result = Replay(recorder, workers)
    cache = profile.open_cache(os.path.join(directory, "cache"))
    wire = workload.backend != "serial"
    try:
        with recorder.span("replay") as root:
            with recorder.span("campaign.expand"):
                trials = []
                for sweep in campaign.sweeps:
                    for index, spec in enumerate(sweep.expand()):
                        spec = profile.apply_to_spec(spec)
                        trials.append((sweep.name, index, spec, trial_fingerprint(spec)))
                campaign_fingerprint = campaign.fingerprint([t[3] for t in trials])
            fingerprints = [t[3] for t in trials]
            with recorder.span("exec.cache.get_many.cold"):
                cache.get_many(fingerprints)
            with recorder.span("exec.backends.start"):
                backend = make_backend(workload.backend, workers=workers)
                backend.start()
            try:
                if wire:
                    for _, _, spec, fingerprint in trials:
                        with recorder.span("exec.wire.encode", fingerprint):
                            backend.wire_safe(spec)
                            request = {"op": "run", "version": WIRE_VERSION}
                            request["trial"] = spec_to_dict(spec)
                            result.frame_bytes.append(len(encode_frame(request)))
                with recorder.span("exec.backends.map") as mapped:
                    if wire:
                        iterator = backend.map([t[2] for t in trials])
                        while True:
                            with recorder.span("exec.backends.wait"):
                                item = next(iterator, None)
                            if item is None:
                                break
                            _, _, spec, fingerprint = trials[item[0]]
                            _collect(recorder, result, cache, fingerprint, spec, item[1], True)
                    else:
                        for _, _, spec, fingerprint in trials:
                            with recorder.span("exec.backends.wait", fingerprint) as waited:
                                outcome = _run_in_process(recorder, spec, fingerprint)
                            payload = TrialPayload(outcome, None, waited.duration)
                            _collect(recorder, result, cache, fingerprint, spec, payload, False)
            finally:
                with recorder.span("exec.backends.close"):
                    backend.close()
            with recorder.span("campaign.manifest"):
                manifest = CampaignManifest(
                    campaign=campaign.name, fingerprint=campaign_fingerprint, shard=None
                )
                for sweep_name, index, spec, fingerprint in trials:
                    manifest.record(
                        TrialEntry(
                            sweep=sweep_name,
                            index=index,
                            fingerprint=fingerprint,
                            label=spec.describe(),
                            status="executed",
                            attempts=1,
                        )
                    )
                manifest.save(os.path.join(directory, "manifest.json"))
            with recorder.span("campaign.report"):
                _, json_path = write_report(
                    campaign, cache, directory, campaign_report(campaign, cache)
                )
        with recorder.span("exec.cache.get_many.warm"):
            warm = cache.get_many(fingerprints)
        result.warm_lookups = len(warm)
        result.warm_hits = sum(1 for cached in warm if cached is not None)
        stats = cache.stats()
        result.cache_bytes_per_entry = stats.total_bytes / max(1, stats.entries)
    finally:
        cache.close()
    with open(json_path, "rb") as handle:
        result.report_bytes = handle.read()
    result.root = root
    result.map_seconds = mapped.duration
    result.specs = {fingerprint: spec for _, _, spec, fingerprint in trials}
    return result


def probe_off_path_layers(result: Replay) -> None:
    """Measure, in-process, the layers this workload's path never calls here."""
    recorder = result.recorder
    specs = result.specs
    with recorder.span("probe"):
        if not recorder.named("graphs.mixing"):
            # One exact mixing time per distinct graph of the campaign.
            graphs = {}
            for fingerprint, spec in specs.items():
                graphs.setdefault(spec.graph.describe(), (fingerprint, spec))
            for fingerprint, spec in graphs.values():
                graph = spec.build_graph()
                with recorder.span("graphs.mixing", fingerprint):
                    cached_mixing_time(graph)
        if not recorder.named("sim.engine"):
            per_config: Dict[str, int] = {}
            for fingerprint, spec in specs.items():
                key = spec.algorithm + spec.graph.describe()
                per_config[key] = per_config.get(key, 0) + 1
                if per_config[key] <= PROBE_TRIALS_PER_CONFIG:
                    _run_in_process(recorder, spec, fingerprint)
        if not recorder.named("exec.wire.encode"):
            for fingerprint, spec in specs.items():
                outcome = result.outcomes[fingerprint]
                with recorder.span("exec.wire.encode", fingerprint):
                    spec_wire_document(spec)
                    request = {"op": "run", "version": WIRE_VERSION, "trial": spec_to_dict(spec)}
                    request_bytes = len(encode_frame(request))
                reply = payload_to_dict(TrialPayload(outcome, None, 0.0))
                result.frame_bytes.append(request_bytes + len(encode_frame(reply)))
                with recorder.span("exec.wire.decode", fingerprint):
                    payload_from_dict(reply)


def _distribution(name: str, unit_scale: float, values: List[float]) -> List[Tuple]:
    """``.p50``/``.tail``/``.n`` metrics of one duration list (seconds in)."""
    scaled = [value * unit_scale for value in values]
    tail = tail_percentile(len(scaled))
    return [
        (name + ".p50", percentile(scaled, 50)),
        (name + ".tail", percentile(scaled, tail)),
        (name + ".n", len(scaled)),
    ]


def layer_metrics(result: Replay, untraced_seconds: float, failed: int, attempted: int):
    """Every per-layer metric of one replay, as ``(name, value)`` pairs."""
    recorder = result.recorder
    outcomes = list(result.outcomes.values())
    trials = len(outcomes)
    builds = recorder.named("graphs.build")
    mixings = recorder.named("graphs.mixing")
    engines = recorder.named("sim.engine")
    engine_units = sum(result.outcomes[span.trial].message_units for span in engines)
    engine_ms = sum(span.duration for span in engines) * 1e3
    vectorized = [
        fingerprint
        for fingerprint, spec in result.specs.items()
        if spec.simulator == "vectorized"
    ]
    fallbacks = sum(
        1
        for fingerprint in vectorized
        if str(result.outcomes[fingerprint].extras.get("simulator", "")).startswith(
            "reference-fallback"
        )
    )
    sizes = result.frame_bytes
    metrics = []
    metrics += _distribution("graphs.build_ms", 1e3, [span.duration for span in builds])
    metrics.append(
        (
            "graphs.build_unique_ratio",
            len({result.specs[span.trial].graph.describe() for span in builds}) / len(builds),
        )
    )
    metrics += _distribution("graphs.mixing_ms", 1e3, [span.duration for span in mixings])
    metrics.append(
        (
            "graphs.mixing_unique_ratio",
            len({result.specs[span.trial].graph.describe() for span in mixings}) / len(mixings),
        )
    )
    metrics += _distribution("sim.engine_ms", 1e3, [span.duration for span in engines])
    metrics += [
        ("sim.units_per_engine_ms", engine_units / engine_ms),
        ("sim.fallback_frac", fallbacks / len(vectorized) if vectorized else 0.0),
        ("sim.messages_per_trial", sum(o.messages for o in outcomes) / trials),
        (
            "faults.events_per_trial",
            sum(sum(o.metrics.fault_events.values()) for o in outcomes) / trials,
        ),
        ("campaign.expand_ms", recorder.durations("campaign.expand")[0] * 1e3),
        ("campaign.manifest_ms", recorder.durations("campaign.manifest")[0] * 1e3),
        ("campaign.report_ms", recorder.durations("campaign.report")[0] * 1e3),
        (
            "exec.serialize.outcome_us",
            statistics.median(recorder.durations("exec.serialize")) * 1e6,
        ),
        ("exec.wire.encode_us", statistics.median(recorder.durations("exec.wire.encode")) * 1e6),
        ("exec.wire.decode_us", statistics.median(recorder.durations("exec.wire.decode")) * 1e6),
        ("exec.wire.frame_bytes", sum(sizes) / trials),
        ("exec.backends.start_ms", recorder.durations("exec.backends.start")[0] * 1e3),
        ("exec.backends.wait_ms", sum(recorder.durations("exec.backends.wait")) * 1e3),
        (
            "exec.backends.worker_busy_frac",
            result.worker_seconds / (result.workers * result.map_seconds),
        ),
    ]
    metrics += _distribution("exec.cache.put_us", 1e6, recorder.durations("exec.cache.put"))
    metrics += [
        ("exec.cache.get_many_ms", recorder.durations("exec.cache.get_many.warm")[0] * 1e3),
        ("exec.cache.hit_ratio", result.warm_hits / result.warm_lookups),
        ("exec.cache.bytes_per_entry", result.cache_bytes_per_entry),
        ("failed_frac", failed / attempted),
        ("trace.unaccounted_frac", recorder.unaccounted_fraction(result.root)),
        (
            "trace.overhead_frac",
            (result.root.duration - untraced_seconds) / untraced_seconds,
        ),
    ]
    return metrics
