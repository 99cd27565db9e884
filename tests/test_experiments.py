"""Tests for the experiment harness (small populations / short traces)."""

import os
import re

import pytest

from repro.experiments import (
    ExperimentSettings,
    available_experiments,
    run_experiment,
)
from repro.experiments.common import render_table
from repro.experiments.table6 import CONFIG_ORDER, config_way_cycles
from repro.yieldmodel import LossReason

#: Fast settings: small chip population, tiny traces, 3 benchmarks.
FAST = ExperimentSettings(
    seed=2006,
    chips=300,
    trace_length=4000,
    warmup=3000,
    benchmarks=("gzip", "mcf", "crafty"),
)


@pytest.fixture
def experiment(module_engine):
    """``experiment(name)`` runs one experiment at ``FAST`` on the
    module's engine, so the module computes each population and
    simulation once."""
    return lambda name: run_experiment(name, FAST, module_engine)


class TestInfrastructure:
    def test_registry_covers_every_paper_artefact(self):
        names = available_experiments()
        for required in (
            "fig1",
            "fig8",
            "table2",
            "table3",
            "table4",
            "table5",
            "table6",
            "fig9",
            "fig10",
            "sec42",
            "sec45",
        ):
            assert required in names

    def test_unknown_experiment_rejected(self, experiment):
        from repro.core.errors import ConfigurationError

        with pytest.raises(ConfigurationError):
            experiment("table99")

    def test_render_table_alignment(self):
        text = render_table(["a", "bb"], [[1, 2.5], [30, 4]])
        lines = text.splitlines()
        assert len(lines) == 4
        assert len(set(map(len, lines))) == 1  # all rows same width

    def test_settings_validation(self):
        with pytest.raises(Exception):
            ExperimentSettings(chips=0)


class TestYieldExperiments:
    def test_fig1_is_self_consistent(self, experiment):
        result = experiment("fig1")
        for row in result.rows:
            assert row[-1] == pytest.approx(100.0)

    def test_fig1_parametric_loss_grows_as_features_shrink(self, experiment):
        factors = experiment("fig1").data["factors"]
        nodes = ("0.35", "0.25", "0.18", "0.13", "0.09")
        parametric = [factors[node][2] for node in nodes]
        assert parametric == sorted(parametric)

    def test_fig8_has_all_chips(self, experiment):
        result = experiment("fig8")
        assert len(result.data["normalized_leakage"]) == FAST.chips
        assert result.data["correlation"] < -0.3

    def test_table2_structure(self, experiment):
        result = experiment("table2")
        assert result.headers[2:] == ["YAPD", "VACA", "Hybrid"]
        total_row = result.rows[-1]
        assert total_row[0] == "total"
        breakdown = result.data["breakdown"]
        assert total_row[1] == breakdown.base_total

    def test_table2_scheme_orderings(self, experiment):
        breakdown = experiment("table2").data["breakdown"]
        assert breakdown.scheme_total("Hybrid") <= breakdown.scheme_total("YAPD")
        assert breakdown.scheme_total("Hybrid") <= breakdown.scheme_total("VACA")
        assert breakdown.scheme_losses["YAPD"].get(LossReason.DELAY_1, 0) == 0

    def test_table3_base_exceeds_table2(self, experiment):
        """The slower H-YAPD organisation fails more chips."""
        t2 = experiment("table2").data["breakdown"]
        t3 = experiment("table3").data["breakdown"]
        assert t3.base_total >= t2.base_total

    def test_table4_strict_worse_than_relaxed(self, experiment):
        result = experiment("table4")
        relaxed = result.data["breakdowns"]["relaxed"]
        strict = result.data["breakdowns"]["strict"]
        assert strict.base_total > relaxed.base_total

    def test_table5_matches_table4_shape(self, experiment):
        result = experiment("table5")
        assert [row[0] for row in result.rows] == ["relaxed", "strict"]

    def test_sec42_overhead(self, experiment):
        result = experiment("sec42")
        assert result.data["nominal_overhead"] == pytest.approx(0.025)
        assert result.data["h_losses"] >= result.data["base_losses"]


class TestPerformanceExperiments:
    def test_config_way_cycles_table(self):
        assert config_way_cycles("3-1-0", "YAPD") == (4, 4, 4, None)
        assert config_way_cycles("3-1-0", "VACA") == (4, 4, 4, 5)
        assert config_way_cycles("2-2-0", "YAPD") is None
        assert config_way_cycles("3-0-1", "VACA") is None
        assert config_way_cycles("3-0-1", "Hybrid") == (4, 4, 4, None)
        assert config_way_cycles("2-1-1", "Hybrid") == (4, 4, 5, None)
        assert config_way_cycles("0-3-1", "Hybrid") == (5, 5, 5, None)
        assert config_way_cycles("4-0-0", "VACA") is None
        assert config_way_cycles("4-0-0", "Hybrid") == (4, 4, 4, None)

    def test_table6_structure_and_weighting(self, experiment):
        result = experiment("table6")
        assert [row[0] for row in result.rows[:-1]] == list(CONFIG_ORDER)
        weighted = result.data["weighted"]
        degs = result.data["degradations"]
        # Hybrid equals VACA on 3-1-0 (keeps the way powered)
        assert degs["3-1-0"]["Hybrid"] == degs["3-1-0"]["VACA"]
        # YAPD has one number for all its configurations
        assert degs["3-1-0"]["YAPD"] == degs["4-0-0"]["YAPD"]
        assert set(weighted) == {"YAPD", "VACA", "Hybrid"}

    def test_table6_weighted_sums_order(self, experiment):
        weighted = experiment("table6").data["weighted"]
        # Hybrid sits between YAPD and VACA (paper: 1.08/1.83/2.20)
        assert weighted["YAPD"] <= weighted["Hybrid"] * 1.5
        assert weighted["Hybrid"] <= weighted["VACA"] * 1.2

    def test_table6_vaca_monotone_in_slow_ways(self, experiment):
        degs = experiment("table6").data["degradations"]
        assert (
            degs["3-1-0"]["VACA"]
            <= degs["2-2-0"]["VACA"]
            <= degs["1-3-0"]["VACA"]
            <= degs["0-4-0"]["VACA"]
        )

    def test_fig9_rows_cover_benchmarks(self, experiment):
        result = experiment("fig9")
        names = [row[0] for row in result.rows[:-1]]
        assert names == ["gzip", "mcf", "crafty"]
        assert result.rows[-1][0] == "average"

    def test_fig10_vaca_only(self, experiment):
        result = experiment("fig10")
        assert result.headers == ["benchmark", "base CPI", "VACA"]

    def test_sec45_binning_ordering(self, experiment):
        series = experiment("sec45").data["series"]
        for name in ("gzip", "crafty"):
            assert series["binning@6"][name] > series["binning@5"][name] > 0

    def test_ablation_lbb_tradeoff(self, experiment):
        result = experiment("ablation_lbb")
        data = result.data
        # deeper buffers never lose yield, never get cheaper
        assert data[0]["reduction"] <= data[1]["reduction"] <= data[2]["reduction"]
        assert data[0]["cost"] <= data[1]["cost"] <= data[2]["cost"]

    def test_ablation_lbb_dispatches_its_simulations_at_once(self, tmp_path):
        """Cold, at two workers, the baselines and both slow-way sweeps
        reach the pool in one dispatch, not one in-process dispatch per
        cell."""
        from repro.engine import Engine, EngineConfig
        from repro.experiments.ablations import run_ablation_lbb
        from repro.obs import (
            configure_tracing,
            disable_tracing,
            load_spans_counted,
        )

        settings = ExperimentSettings(
            seed=31, chips=150, trace_length=300, warmup=100,
            benchmarks=("gzip", "mcf"),
        )
        trace = tmp_path / "t.jsonl"
        configure_tracing(trace)
        engine = Engine(EngineConfig(workers=2, cache_dir=tmp_path / "cache"))
        try:
            run_ablation_lbb(settings, engine)
        finally:
            disable_tracing()
        jobs = [
            r["attrs"]["jobs"] for r in load_spans_counted(trace)[0]
            if r["name"] == "engine.dispatch"
            and r["attrs"].get("kind") == "simulation"
        ]
        assert jobs == [3 * len(settings.benchmarks)]


class TestCLI:
    def test_list(self, capsys):
        from repro.cli import main

        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "table2" in out

    def test_run_fig1(self, capsys):
        from repro.cli import main

        assert main(["run", "fig1"]) == 0
        assert "Figure 1" in capsys.readouterr().out

    def test_run_writes_output(self, tmp_path, capsys):
        from repro.cli import main

        code = main(
            [
                "run",
                "table2",
                "--chips",
                "200",
                "--out",
                str(tmp_path),
            ]
        )
        assert code == 0
        assert (tmp_path / "table2.txt").exists()

    def test_run_out_file(self, tmp_path, capsys):
        """`repro run --out FILE` writes one file (parity with `all --out DIR`)."""
        from repro.cli import main

        target = tmp_path / "nested" / "figure1.txt"
        assert main(["run", "fig1", "--out", str(target)]) == 0
        assert "Figure 1" in target.read_text(encoding="utf-8")

    def test_all_out_dir(self, tmp_path, capsys, monkeypatch):
        """`repro all --out DIR` writes one artefact per experiment."""
        from repro.cli import main
        from repro.experiments import available_experiments

        monkeypatch.setenv("REPRO_CHIPS", "150")
        monkeypatch.setenv("REPRO_TRACE", "800")
        monkeypatch.setenv("REPRO_WARMUP", "200")
        monkeypatch.setenv("REPRO_BENCHMARKS", "gzip")
        assert main(["all", "--out", str(tmp_path)]) == 0
        for name in available_experiments():
            assert (tmp_path / f"{name}.txt").exists()

    def test_run_workers_and_stats_flags(self, capsys):
        from repro.cli import main

        assert main(["run", "fig1", "--workers", "2", "--stats"]) == 0
        out = capsys.readouterr().out
        assert "engine statistics" in out
        assert "workers            2" in out
        if os.path.exists("/proc/self/status"):
            # Read from /proc when it is printed.
            assert re.search(r"^peak rss +\d+\.\d MB$", out, re.M), out

    def test_cache_subcommand(self, tmp_path, capsys, monkeypatch):
        from repro.cli import main

        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
        assert main(["run", "table2", "--chips", "120"]) == 0
        capsys.readouterr()
        assert main(["cache", "info"]) == 0
        out = capsys.readouterr().out
        assert "entries" in out and "population" in out
        assert main(["cache", "clear"]) == 0
        assert "removed" in capsys.readouterr().out
        assert main(["cache", "info"]) == 0
        assert "entries          0" in capsys.readouterr().out
