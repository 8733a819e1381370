"""Tests for the unified execution-configuration API (``repro.exec.config``).

The contract under test is the one precedence rule, applied independently
per dimension::

    explicit  >  CLI  >  environment  >  default

plus the legacy selection knobs that still exist --
``ResultCache(backend=...)``, per-spec simulator engines and hand-rolled
``--trace`` flags -- routing through :class:`ExecutionProfile` with
unchanged behaviour.
"""

import argparse
import dataclasses
import os

import pytest

from repro.campaign import CampaignRunner, CampaignSpec
from repro.core.params import ElectionParameters
from repro.exec import (
    BatchRunner,
    ExecutionProfile,
    GraphSpec,
    ResultCache,
    SweepSpec,
    TrialSpec,
    add_execution_arguments,
)
from repro.exec.backends import BACKEND_ENV_VAR
from repro.exec.config import SIMULATOR_ENV_VAR, TRACE_ENV_VAR
from repro.exec.execute import default_worker_count

FAST = ElectionParameters(c1=3.0, c2=0.5)

ENV_VARS = (BACKEND_ENV_VAR, "REPRO_CACHE_BACKEND", SIMULATOR_ENV_VAR, TRACE_ENV_VAR)


@pytest.fixture(autouse=True)
def _clean_execution_environment(monkeypatch):
    """Each test starts from the default environment tier."""
    for name in ENV_VARS:
        monkeypatch.delenv(name, raising=False)


def _trial(seed=1, n=8):
    return TrialSpec(graph=GraphSpec("clique", (n,)), algorithm="flood_max", seed=seed)


def _campaign(name="profile-test", trials=2):
    return CampaignSpec(
        name=name,
        sweeps=(
            SweepSpec(name="s", configs=(_trial(),), trials=trials, base_seed=7),
        ),
    )


class TestPrecedence:
    """explicit > environment > default, one dimension at a time."""

    def test_backend_explicit_beats_environment(self, monkeypatch):
        monkeypatch.setenv(BACKEND_ENV_VAR, "workerpool")
        assert ExecutionProfile(backend="serial").effective_backend() == "serial"
        assert ExecutionProfile().effective_backend() == "workerpool"
        monkeypatch.setenv(BACKEND_ENV_VAR, "")
        assert ExecutionProfile().effective_backend() is None

    def test_backend_default_tier_is_none_for_the_runner_to_resolve(self):
        assert ExecutionProfile().effective_backend() is None

    def test_simulator_explicit_beats_environment(self, monkeypatch):
        monkeypatch.setenv(SIMULATOR_ENV_VAR, "vectorized")
        assert ExecutionProfile(simulator="reference").effective_simulator() == "reference"
        assert ExecutionProfile().effective_simulator() == "vectorized"
        monkeypatch.delenv(SIMULATOR_ENV_VAR)
        assert ExecutionProfile().effective_simulator() is None

    def test_trace_explicit_false_beats_a_truthy_environment(self, monkeypatch):
        monkeypatch.setenv(TRACE_ENV_VAR, "1")
        assert ExecutionProfile(trace=False).effective_trace() is False
        assert ExecutionProfile(trace=True).effective_trace() is True
        assert ExecutionProfile().effective_trace() is True

    @pytest.mark.parametrize(
        "value,expected",
        [
            ("1", True),
            ("true", True),
            ("YES", True),
            (" on ", True),
            ("0", False),
            ("", False),
            ("off", False),
            ("maybe", False),
        ],
    )
    def test_trace_environment_truthiness(self, monkeypatch, value, expected):
        monkeypatch.setenv(TRACE_ENV_VAR, value)
        assert ExecutionProfile().effective_trace() is expected

    def test_workers_explicit_beats_the_callers_default(self):
        assert ExecutionProfile(workers=3).effective_workers(default=1) == 3
        assert ExecutionProfile().effective_workers(default=5) == 5
        assert ExecutionProfile().effective_workers() == default_worker_count()

    def test_cache_backend_is_passed_through_for_resultcache_to_resolve(self, monkeypatch):
        # The environment tier of this dimension lives inside ResultCache
        # (after marker-file auto-detection), so the profile passes None on.
        monkeypatch.setenv("REPRO_CACHE_BACKEND", "sqlite")
        assert ExecutionProfile().effective_cache_backend() is None
        assert ExecutionProfile(cache_backend="json").effective_cache_backend() == "json"

    def test_open_cache_honours_the_explicit_choice(self, tmp_path):
        cache = ExecutionProfile(cache_backend="sqlite").open_cache(tmp_path / "c")
        assert cache.backend_name == "sqlite"
        default = ExecutionProfile().open_cache(tmp_path / "d")
        assert default.backend_name == "json"


class TestValidation:
    def test_workers_must_be_positive(self):
        with pytest.raises(ValueError, match="workers"):
            ExecutionProfile(workers=0)

    def test_trace_strings_are_rejected_outside_the_environment_tier(self):
        with pytest.raises(TypeError, match=TRACE_ENV_VAR):
            ExecutionProfile(trace="1")

    def test_unknown_simulator_is_rejected_with_the_known_set(self):
        with pytest.raises(ValueError, match="vectorized"):
            ExecutionProfile(simulator="warp-drive")


class TestApplyToSpec:
    def test_applies_where_the_algorithm_declares_the_engine(self):
        profile = ExecutionProfile(simulator="vectorized")
        spec = TrialSpec(
            graph=GraphSpec("clique", (8,)), algorithm="election", params=FAST, seed=1
        )
        applied = profile.apply_to_spec(spec)
        assert applied.simulator == "vectorized"
        assert profile.apply_to_spec(applied) == applied, "idempotent"

    def test_a_spec_naming_its_engine_explicitly_wins(self):
        spec = TrialSpec(
            graph=GraphSpec("clique", (8,)),
            algorithm="election",
            params=FAST,
            seed=1,
            simulator="vectorized",
        )
        assert ExecutionProfile(simulator="reference").apply_to_spec(spec) == spec

    def test_algorithms_without_the_engine_keep_the_reference_oracle(self):
        spec = _trial()  # flood_max declares only the reference engine
        applied = ExecutionProfile(simulator="vectorized").apply_to_spec(spec)
        assert applied.simulator == "reference"

    def test_environment_tier_applies_too(self, monkeypatch):
        monkeypatch.setenv(SIMULATOR_ENV_VAR, "vectorized")
        spec = TrialSpec(
            graph=GraphSpec("clique", (8,)), algorithm="election", params=FAST, seed=1
        )
        assert ExecutionProfile().apply_to_spec(spec).simulator == "vectorized"

    def test_no_choice_leaves_specs_untouched(self):
        spec = _trial()
        assert ExecutionProfile().apply_to_spec(spec) is spec


class TestFromArguments:
    def _parse(self, argv, workers_default=None):
        parser = argparse.ArgumentParser()
        add_execution_arguments(parser, workers_default=workers_default)
        return ExecutionProfile.from_arguments(parser.parse_args(argv))

    def test_bare_invocation_leaves_every_dimension_undecided(self):
        profile = self._parse([], workers_default=1)
        assert profile.backend is None
        assert profile.cache_backend is None
        assert profile.simulator is None
        assert profile.trace is None, "--trace absent keeps REPRO_TRACE working"
        assert profile.workers == 1

    def test_flags_become_explicit_fields(self):
        argv = ["--backend", "serial", "--cache-backend", "sqlite"]
        argv += ["--simulator", "vectorized", "--trace", "--workers", "2"]
        profile = self._parse(argv)
        assert profile == ExecutionProfile(
            backend="serial",
            cache_backend="sqlite",
            simulator="vectorized",
            trace=True,
            workers=2,
        )

    def test_describe_names_only_the_explicit_choices(self):
        assert ExecutionProfile().describe() == "profile(defaults)"
        text = ExecutionProfile(backend="serial", workers=2).describe()
        assert "backend=serial" in text and "workers=2" in text


class TestProfileDrivesTheRun:
    """Each legacy dimension, routed through the one profile object."""

    def test_environment_backend_tier_reaches_the_batch_runner(self, monkeypatch):
        monkeypatch.setenv(BACKEND_ENV_VAR, "serial")
        runner = BatchRunner(workers=4)
        runner.run([_trial()])
        assert runner.last_backend_name == "serial"

    def test_trace_dimension_writes_campaign_telemetry(self, tmp_path):
        directory = str(tmp_path / "traced")
        cache = ResultCache(os.path.join(directory, "cache"))
        CampaignRunner(
            _campaign(name="traced"),
            cache,
            workers=1,
            directory=directory,
            profile=ExecutionProfile(trace=True),
        ).run()
        assert os.path.exists(os.path.join(directory, "trace.jsonl"))
        assert os.path.exists(os.path.join(directory, "telemetry.md"))

    def test_trace_environment_tier_reaches_the_campaign(self, tmp_path, monkeypatch):
        monkeypatch.setenv(TRACE_ENV_VAR, "1")
        directory = str(tmp_path / "env-traced")
        cache = ResultCache(os.path.join(directory, "cache"))
        CampaignRunner(
            _campaign(name="env-traced"), cache, workers=1, directory=directory
        ).run()
        assert os.path.exists(os.path.join(directory, "trace.jsonl"))

    def test_simulator_dimension_changes_what_the_campaign_executes(self, tmp_path):
        election = TrialSpec(
            graph=GraphSpec("clique", (8,)), algorithm="election", params=FAST, seed=3
        )
        campaign = CampaignSpec(
            name="sim-routed",
            sweeps=(SweepSpec(name="s", configs=(election,), trials=1, base_seed=5),),
        )
        directory = str(tmp_path / "sim")
        cache = ResultCache(os.path.join(directory, "cache"))
        CampaignRunner(
            campaign,
            cache,
            workers=1,
            directory=directory,
            profile=ExecutionProfile(simulator="vectorized"),
        ).run()
        # The cache holds the vectorized spec's fingerprint -- the profile's
        # engine choice was applied before fingerprinting -- not the
        # reference one the raw spec would have produced.
        from repro.exec.fingerprint import trial_fingerprint

        (seeded,) = campaign.sweeps[0].expand()
        vectorized = dataclasses.replace(seeded, simulator="vectorized")
        assert cache.get(trial_fingerprint(vectorized)) is not None
        assert cache.get(trial_fingerprint(seeded)) is None

    def test_profiles_are_immutable_values(self):
        profile = ExecutionProfile(backend="serial")
        with pytest.raises(dataclasses.FrozenInstanceError):
            profile.backend = "workerpool"
