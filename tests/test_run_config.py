"""Tests for the unified RunConfig run API."""

import pytest

from repro.core.methodology import MeasurementSettings
from repro.core.parallel import ON_FAILURE_RAISE, ON_FAILURE_RECORD
from repro.chaos import ChaosCollector, ChaosConfig
from repro.experiments import FULL, QUICK, ExperimentSpec, Preset, RunConfig
from repro.obs import MetricsCollector, ProfileCollector, TraceCollector

TINY = Preset(
    name="tiny",
    settings=MeasurementSettings(duration=0.3),
    depths=(1, 16),
    vpg_counts=(1,),
)


class TestCoerce:
    """A RunConfig is the one way to configure a run."""

    def test_no_arguments_yields_the_default_config(self):
        config = RunConfig()
        assert config.preset is None and config.retries == 0
        assert config.instruments == ()

    def test_config_passes_through_unchanged(self):
        calls = []
        spec = ExperimentSpec("fig2", "t", calls.append)
        config = RunConfig(preset=TINY, jobs=2)
        spec.run(config)
        assert calls == [config]

    def test_non_config_positional_rejected(self):
        spec = ExperimentSpec("fig2", "t", lambda config: None)
        with pytest.raises(TypeError, match="RunConfig"):
            spec.run("quick")

    def test_config_is_frozen(self):
        with pytest.raises(Exception):
            RunConfig().jobs = 4


class TestResolution:
    def test_none_preset_resolves_to_full(self):
        assert RunConfig().resolved_preset("fig2") is FULL

    def test_name_resolves_per_experiment(self):
        assert RunConfig(preset="quick").resolved_preset("fig3a") is QUICK["fig3a"]

    def test_preset_instance_passes_through(self):
        assert RunConfig(preset=TINY).resolved_preset("fig2") is TINY

    def test_executor_carries_the_fault_tolerance_fields(self):
        executor = RunConfig(
            jobs=1, retries=3, point_timeout=5.0, on_failure="record"
        ).executor()
        assert executor.retries == 3
        assert executor.point_timeout == 5.0
        assert executor.on_failure == ON_FAILURE_RECORD
        assert RunConfig(jobs=1).executor().on_failure == ON_FAILURE_RAISE

    def test_executor_orders_the_instruments(self):
        metrics, trace = MetricsCollector(), TraceCollector()
        profile, chaos = ProfileCollector(), ChaosCollector(ChaosConfig("link-flap"))
        executor = RunConfig(jobs=1, instruments=(chaos, trace, metrics, profile)).executor()
        # Activation order is fixed: profile, metrics, trace, chaos.
        assert executor.instruments == (profile, metrics, trace, chaos)

    def test_two_instruments_of_one_kind_rejected(self):
        config = RunConfig(jobs=1, instruments=(MetricsCollector(), MetricsCollector(0.5)))
        with pytest.raises(ValueError, match="one per kind"):
            config.executor()
