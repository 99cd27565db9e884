"""Tests for experiment settings, env scaling, and memoisation."""

import pytest

from repro.experiments.common import ExperimentSettings, benchmark_names


class TestEnvironmentScaling:
    def test_env_defaults(self, monkeypatch):
        monkeypatch.delenv("REPRO_CHIPS", raising=False)
        monkeypatch.delenv("REPRO_SEED", raising=False)
        settings = ExperimentSettings()
        assert settings.chips == 2000
        assert settings.seed == 2006

    def test_env_overrides(self, monkeypatch):
        monkeypatch.setenv("REPRO_CHIPS", "123")
        monkeypatch.setenv("REPRO_SEED", "9")
        monkeypatch.setenv("REPRO_TRACE", "777")
        monkeypatch.setenv("REPRO_BENCHMARKS", "gzip,mcf")
        settings = ExperimentSettings()
        assert settings.chips == 123
        assert settings.seed == 9
        assert settings.trace_length == 777
        assert settings.benchmarks == ("gzip", "mcf")

    def test_benchmark_names_default_is_full_suite(self):
        settings = ExperimentSettings(benchmarks=None)
        assert len(benchmark_names(settings)) == 24

    def test_benchmark_names_subset(self):
        settings = ExperimentSettings(benchmarks=("mcf", "gzip"))
        assert benchmark_names(settings) == ["mcf", "gzip"]

    def test_unknown_benchmark_rejected_eagerly(self):
        from repro.core.errors import ConfigurationError

        with pytest.raises(ConfigurationError):
            ExperimentSettings(benchmarks=("quake3",))

    def test_unknown_benchmark_env_rejected_eagerly(self, monkeypatch):
        from repro.core.errors import ConfigurationError

        monkeypatch.setenv("REPRO_BENCHMARKS", "gzip,quake3")
        with pytest.raises(ConfigurationError):
            ExperimentSettings()

    def test_bad_env_int_names_the_variable(self, monkeypatch):
        from repro.core.errors import ConfigurationError

        monkeypatch.setenv("REPRO_CHIPS", "not-a-number")
        with pytest.raises(ConfigurationError, match="REPRO_CHIPS"):
            ExperimentSettings()


class TestMemoisation:
    """Settings that differ are distinct engine jobs. (The same settings
    memoise to the same object: ``test_engine.py::TestWarmCache``.)"""

    def test_population_distinct_per_seed(self, engine):
        a = engine.population(ExperimentSettings(chips=120, seed=1))
        b = engine.population(ExperimentSettings(chips=120, seed=2))
        assert a is not b

    def test_simulation_distinct_per_config(self, engine):
        settings = ExperimentSettings(
            trace_length=1500, warmup=500, benchmarks=("gzip",)
        )
        base = engine.simulate(settings, "gzip")
        slow = engine.simulate(settings, "gzip", way_cycles=(4, 4, 4, 5))
        assert base is not slow
