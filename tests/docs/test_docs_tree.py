"""The docs tree stays in sync with the code it documents.

These are the reference checks CI's docs job runs: every experiment driver
is catalogued in docs/experiments.md, every package layer appears in
docs/architecture.md, and README/docs cross-link each other -- so adding an
experiment or a subsystem without documenting it fails the build.
"""

import os
import re

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


def _read(*parts):
    with open(os.path.join(REPO_ROOT, *parts), "r", encoding="utf-8") as handle:
        return handle.read()


def test_docs_tree_exists():
    for name in ("architecture.md", "experiments.md"):
        assert os.path.exists(os.path.join(REPO_ROOT, "docs", name)), name


def test_every_benchmark_file_is_catalogued():
    experiments = _read("docs", "experiments.md")
    bench_dir = os.path.join(REPO_ROOT, "benchmarks")
    bench_files = [
        name
        for name in os.listdir(bench_dir)
        if name.startswith("test_bench_") and name.endswith(".py")
    ]
    assert bench_files, "no benchmark drivers found"
    missing = [name for name in bench_files if name not in experiments]
    assert not missing, "benchmark files not mentioned in docs/experiments.md: %s" % missing


def test_every_package_layer_is_in_architecture():
    architecture = _read("docs", "architecture.md")
    src = os.path.join(REPO_ROOT, "src", "repro")
    packages = [
        name
        for name in os.listdir(src)
        if os.path.isdir(os.path.join(src, name)) and not name.startswith("__")
    ]
    assert packages
    missing = [name for name in packages if "repro.%s" % name not in architecture]
    assert not missing, "packages not mapped in docs/architecture.md: %s" % missing


def test_readme_links_to_docs():
    readme = _read("README.md")
    assert "docs/architecture.md" in readme
    assert "docs/experiments.md" in readme


def test_docs_cross_link_each_other():
    assert "experiments.md" in _read("docs", "architecture.md")
    assert "architecture.md" in _read("docs", "experiments.md")


def test_catalog_numbers_every_experiment():
    """E1 through E13 each appear as a table row in the catalog."""
    experiments = _read("docs", "experiments.md")
    table_rows = re.findall(r"^\| (E\d+) \|", experiments, flags=re.MULTILINE)
    assert table_rows == ["E%d" % i for i in range(1, 14)]


def test_every_algorithm_is_catalogued():
    """Registry consistency: each public algorithm name appears in the
    docs/architecture.md algorithm catalog (CI runs this as its own step)."""
    from repro.exec import algorithm_names

    architecture = _read("docs", "architecture.md")
    missing = [
        name
        for name in algorithm_names()
        if "`%s`" % name not in architecture
    ]
    assert not missing, (
        "registered algorithms missing from docs/architecture.md: %s" % missing
    )


def test_simulator_capability_column_matches_registry():
    """Registry consistency for the catalog's Simulators column: each public
    algorithm's table row declares exactly the simulators its registry entry
    does, and the "Simulators" section documents the engines (CI's
    registry-consistency step runs this next to the name check)."""
    from repro.exec import algorithm_names, get_algorithm

    architecture = _read("docs", "architecture.md")
    assert "## Simulators" in architecture
    for engine in ("reference", "vectorized"):
        assert "`%s`" % engine in architecture
    mismatched = []
    for name in algorithm_names():
        declared = set(get_algorithm(name).simulators)
        row = re.search(
            r"^\| `%s` \| [^|]+ \| [^|]+ \| ([^|]+) \|" % re.escape(name),
            architecture,
            flags=re.MULTILINE,
        )
        if row is None:
            mismatched.append("%s: no catalog row with a Simulators column" % name)
            continue
        documented = {cell.strip() for cell in row.group(1).split(",")}
        if documented != declared:
            mismatched.append(
                "%s: docs say %s, registry declares %s"
                % (name, sorted(documented), sorted(declared))
            )
    assert not mismatched, (
        "docs/architecture.md Simulators column out of sync: %s" % mismatched
    )


def test_perf_baseline_is_documented():
    """The committed BENCH_simcore.json ships with a reading guide in
    docs/experiments.md and exists at the repository root."""
    experiments = _read("docs", "experiments.md")
    assert "BENCH_simcore.json" in experiments
    assert "perf_driver.py" in experiments
    assert os.path.exists(os.path.join(REPO_ROOT, "BENCH_simcore.json"))


def test_every_execution_backend_is_catalogued():
    """Backend-registry consistency: each backend name appears in the
    docs/architecture.md "Execution backends" section, and the section
    itself exists (the new-subsystem analogue of the algorithm catalog)."""
    from repro.exec import backend_names

    architecture = _read("docs", "architecture.md")
    assert "## Execution backends" in architecture
    missing = [
        name for name in backend_names() if "`%s`" % name not in architecture
    ]
    assert not missing, (
        "registered execution backends missing from docs/architecture.md: %s"
        % missing
    )


def test_every_cache_backend_is_catalogued():
    """Cache-backend registry consistency: each backend name appears in the
    docs/architecture.md "The result cache" section, along with the
    selection/migration surface a campaign operator needs."""
    from repro.exec import cache_backend_names

    architecture = _read("docs", "architecture.md")
    assert "## The result cache" in architecture
    missing = [
        name for name in cache_backend_names() if "`%s`" % name not in architecture
    ]
    assert not missing, (
        "registered cache backends missing from docs/architecture.md: %s" % missing
    )
    for reference in (
        "REPRO_CACHE_BACKEND",
        "--cache-backend",
        "CACHE_SCHEMA_VERSION",
        "cache.sqlite",
        "path_for",
    ):
        assert reference in architecture, reference


def test_cache_perf_baseline_is_documented():
    """The committed BENCH_cache.json ships with a reading guide in
    docs/experiments.md and exists at the repository root."""
    experiments = _read("docs", "experiments.md")
    assert "BENCH_cache.json" in experiments
    assert "perf_cache.py" in experiments
    assert os.path.exists(os.path.join(REPO_ROOT, "BENCH_cache.json"))


def test_observability_layer_is_documented():
    """The telemetry subsystem is documented end to end: the architecture
    section exists and covers the tracer/sink/watch surface, the experiment
    catalog explains --trace, and the README cross-links the section."""
    architecture = _read("docs", "architecture.md")
    assert "## Observability" in architecture
    for reference in (
        "repro.obs",
        "TRACE_SCHEMA_VERSION",
        "`NullSink`",
        "`JsonlTraceSink`",
        "`MetricsAggregator`",
        "repro.obs.watch",
        "heartbeat",
    ):
        assert reference in architecture, reference
    experiments = _read("docs", "experiments.md")
    assert "--trace" in experiments
    assert "telemetry" in experiments.lower()
    readme = _read("README.md")
    assert "repro.obs" in readme
    assert "docs/architecture.md#observability" in readme


def test_networked_deployment_is_documented():
    """The live-deployment subsystem is documented end to end: the
    architecture section exists and covers the coordinator surface, the
    experiment catalog explains the committed BENCH_net.json baseline, and
    the README quick-starts the coordinator CLI."""
    architecture = _read("docs", "architecture.md")
    assert "## Networked deployment" in architecture
    for reference in (
        "repro.net",
        "repro.net.coordinator",
        "repro.net.node",
        "cross_validate",
        "net_events",
        "SIGKILL",
        "--verify",
        "--status-port",
    ):
        assert reference in architecture, reference
    experiments = _read("docs", "experiments.md")
    assert "BENCH_net.json" in experiments
    assert "perf_net.py" in experiments
    assert os.path.exists(os.path.join(REPO_ROOT, "BENCH_net.json"))
    readme = _read("README.md")
    assert "repro.net.coordinator" in readme
    assert "docs/architecture.md#networked-deployment" in readme


def test_backend_subsystem_modules_are_mapped():
    """The wire-worker subsystem is documented where the layer map lives:
    the backends package, the worker entrypoint and the environment
    override all appear in docs/architecture.md and the README."""
    architecture = _read("docs", "architecture.md")
    for reference in ("repro.exec.backends", "repro.exec.worker", "REPRO_EXEC_BACKEND"):
        assert reference in architecture, reference
    readme = _read("README.md")
    assert "REPRO_EXEC_BACKEND" in readme
    assert "docs/architecture.md#execution-backends" in readme


def test_fleet_dispatch_is_documented():
    """The fleet subsystem is documented end to end: the architecture
    section exists and covers the inventory/supervision surface, the
    experiment catalog walks through a distributed run and names CI's
    fleet-smoke job, and the README quick-starts the fleet backend."""
    architecture = _read("docs", "architecture.md")
    assert "## Fleet dispatch" in architecture
    for reference in (
        "repro.fleet",
        "FleetBackend",
        "CampaignRunner",
        "HostSpec",
        "local_inventory",
        "load_inventory",
        "repro.exec.worker --serve",
        "{python}",
        "RetryPolicy",
        "no live worker remains",
        "worker.spawned",
        "SIGKILL",
        "merge_from",
    ):
        assert reference in architecture, reference
    experiments = _read("docs", "experiments.md")
    assert "fleet_campaign.py" in experiments
    assert "fleet-smoke" in experiments
    readme = _read("README.md")
    assert "repro.fleet" in readme
    assert "docs/architecture.md#fleet-dispatch" in readme
    assert "fleet-smoke" in readme


def test_execution_profile_is_documented():
    """The unified execution-config surface is documented: the precedence
    rule, every environment tier, the shared CLI helper, and a migration
    table for each removed legacy knob."""
    architecture = _read("docs", "architecture.md")
    assert "## The execution profile" in architecture
    assert "explicit  >  CLI  >  environment  >  default" in architecture
    for reference in (
        "ExecutionProfile",
        "add_execution_arguments",
        "REPRO_EXEC_BACKEND",
        "REPRO_CACHE_BACKEND",
        "REPRO_EXEC_SIMULATOR",
        "REPRO_TRACE",
        "DeprecationWarning",
        "| Legacy spelling | Replacement |",
        "tests/exec/test_execution_profile.py",
    ):
        assert reference in architecture, reference
    readme = _read("README.md")
    assert "ExecutionProfile" in readme
    assert "docs/architecture.md#the-execution-profile" in readme
