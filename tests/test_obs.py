"""Tests for the observability layer (tracing, metrics, CLI surface)."""

from __future__ import annotations

import json
import os

import pytest

from repro.cli import _split_trace_arg, main
from repro.engine import Engine, EngineConfig, EngineStats
from repro.experiments import ExperimentSettings
from repro.obs import (
    MetricsRegistry,
    configure_tracing,
    disable_tracing,
    load_spans_counted,
    render_summary,
    span,
    summarize_spans,
    tracing_enabled,
)
from repro.obs.trace import NULL_SPAN


@pytest.fixture(autouse=True)
def _clean_tracing():
    """Every test starts and ends with tracing off (incl. the env var)."""
    disable_tracing()
    yield
    disable_tracing()


# ----------------------------------------------------------------------
# metrics registry
# ----------------------------------------------------------------------
class TestMetrics:
    def test_instruments_are_shared_by_name(self):
        registry = MetricsRegistry()
        registry.counter("a").inc()
        registry.counter("a").inc(2.5)
        assert registry.counter("a").value == 3.5
        registry.gauge("g").set(7)
        assert registry.gauge("g").value == 7.0

    def test_name_collision_across_types_raises(self):
        registry = MetricsRegistry()
        registry.counter("x")
        with pytest.raises(ValueError):
            registry.gauge("x")
        with pytest.raises(ValueError):
            registry.histogram("x")

    def test_histogram_stats_and_buckets(self):
        registry = MetricsRegistry()
        hist = registry.histogram("h", bounds=[1.0, 10.0])
        for value in (0.5, 2.0, 20.0):
            hist.observe(value)
        snap = hist.snapshot()
        assert snap["count"] == 3
        assert snap["sum"] == pytest.approx(22.5)
        assert snap["min"] == 0.5 and snap["max"] == 20.0
        assert snap["buckets"] == {"le_1": 1, "le_10": 1}
        assert snap["overflow"] == 1
        assert hist.mean == pytest.approx(7.5)

    def test_snapshot_is_json_able(self):
        registry = MetricsRegistry()
        registry.counter("jobs").inc()
        registry.histogram("lat").observe(0.25)
        json.dumps(registry.snapshot())

    @pytest.mark.skipif(
        not os.path.exists("/proc/self/status"), reason="needs /proc"
    )
    def test_read_resources_reads_rss_peak_and_cpu(self):
        from repro.obs import read_resources

        readings = read_resources()
        assert readings["rss_bytes"] > 0
        assert readings["rss_peak_bytes"] >= readings["rss_bytes"]
        assert readings["cpu_user_seconds"] > 0.0
        assert readings["cpu_system_seconds"] >= 0.0


class TestMetricsConcurrency:
    """Serve's pool threads share the engine registry with its event loop."""

    def test_concurrent_inc_and_observe_lose_nothing(self):
        import threading

        registry = MetricsRegistry()
        threads_n, per_thread = 8, 5000
        barrier = threading.Barrier(threads_n)

        def hammer():
            barrier.wait()
            # All instrument lookups race on first use too.
            counter = registry.counter("c")
            hist = registry.histogram("h", bounds=[0.5])
            gauge = registry.gauge("g")
            for i in range(per_thread):
                counter.inc()
                hist.observe(0.25 if i % 2 else 0.75)
                gauge.set(i)

        threads = [threading.Thread(target=hammer) for _ in range(threads_n)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        total = threads_n * per_thread
        assert registry.counter("c").value == total
        hist = registry.histogram("h")
        assert hist.count == total
        assert sum(hist.bucket_counts) == total
        assert hist.total == pytest.approx(0.5 * total)
        assert registry.gauge("g").value == per_thread - 1


# ----------------------------------------------------------------------
# tracer
# ----------------------------------------------------------------------
class TestTracer:
    def test_disabled_span_is_shared_noop(self):
        assert not tracing_enabled()
        s = span("anything", a=1)
        assert s is NULL_SPAN
        with s as inner:
            inner.set(b=2)  # must not raise

    def test_spans_nest_and_export_jsonl(self, tmp_path):
        path = tmp_path / "t.jsonl"
        configure_tracing(path)
        assert tracing_enabled()
        with span("outer", kind="test") as outer:
            with span("inner") as inner:
                inner.set(items=3)
        records = load_spans_counted(path)[0]
        assert [r["name"] for r in records] == ["inner", "outer"]
        by_name = {r["name"]: r for r in records}
        assert by_name["inner"]["parent_id"] == by_name["outer"]["span_id"]
        assert by_name["outer"]["parent_id"] is None
        assert by_name["inner"]["attrs"] == {"items": 3}
        assert by_name["outer"]["attrs"] == {"kind": "test"}
        assert all(r["pid"] == os.getpid() for r in records)
        assert all(r["dur"] >= 0.0 for r in records)

    def test_exception_is_recorded_and_propagates(self, tmp_path):
        configure_tracing(tmp_path / "t.jsonl")
        with pytest.raises(RuntimeError):
            with span("broken"):
                raise RuntimeError("boom")
        [record] = load_spans_counted(tmp_path / "t.jsonl")[0]
        assert record["attrs"]["error"] == "RuntimeError"

    def test_configure_exports_env_and_disable_clears_it(self, tmp_path):
        configure_tracing(tmp_path / "t.jsonl")
        assert os.environ["REPRO_TRACE_FILE"] == str(tmp_path / "t.jsonl")
        disable_tracing()
        assert "REPRO_TRACE_FILE" not in os.environ
        assert not tracing_enabled()

    def test_unserialisable_attrs_keep_timing(self, tmp_path):
        configure_tracing(tmp_path / "t.jsonl")
        with span("odd", payload=object()):
            pass
        [record] = load_spans_counted(tmp_path / "t.jsonl")[0]
        assert record["name"] == "odd"  # default=str stringified the attr


# ----------------------------------------------------------------------
# trace summary
# ----------------------------------------------------------------------
class TestSummary:
    def test_malformed_lines_are_skipped(self, tmp_path):
        path = tmp_path / "t.jsonl"
        good = {"name": "ok", "dur": 0.5, "pid": 1}
        path.write_text(
            json.dumps(good) + "\n"
            + "{truncated\n"
            + "[1, 2]\n"
            + json.dumps({"dur": 1.0}) + "\n"  # no name
            + json.dumps(good) + "\n",
            encoding="utf-8",
        )
        spans = load_spans_counted(path)[0]
        assert len(spans) == 2

    def test_malformed_lines_are_counted(self, tmp_path):
        from repro.obs import summary_text

        path = tmp_path / "t.jsonl"
        good = {"name": "ok", "dur": 0.5, "pid": 1}
        path.write_text(
            json.dumps(good) + "\n"
            + "{truncated\n"
            + json.dumps({"dur": 1.0}) + "\n"  # no name
            + json.dumps(good) + "\n",
            encoding="utf-8",
        )
        spans, skipped = load_spans_counted(path)
        assert len(spans) == 2
        assert skipped == 2
        text = summary_text(path)
        assert "skipped 2 malformed trace line(s)" in text

    def test_clean_trace_reports_no_skip_warning(self, tmp_path):
        from repro.obs import summary_text

        path = tmp_path / "t.jsonl"
        path.write_text(
            json.dumps({"name": "ok", "dur": 0.5, "pid": 1}) + "\n",
            encoding="utf-8",
        )
        assert "malformed" not in summary_text(path)

    def test_aggregates_and_top_n(self):
        spans = [
            {"name": "a", "dur": 1.0, "pid": 1},
            {"name": "a", "dur": 3.0, "pid": 2},
            {"name": "b", "dur": 0.5, "pid": 1},
        ]
        summary = summarize_spans(spans, top=2)
        assert summary["spans"] == 3
        assert summary["processes"] == [1, 2]
        assert summary["by_name"]["a"]["count"] == 2
        assert summary["by_name"]["a"]["total_s"] == pytest.approx(4.0)
        assert summary["by_name"]["a"]["mean_s"] == pytest.approx(2.0)
        assert summary["by_name"]["a"]["max_s"] == pytest.approx(3.0)
        assert [s["dur"] for s in summary["slowest"]] == [3.0, 1.0]
        text = render_summary(summary)
        assert "a" in text and "b" in text and "trace summary" in text


# ----------------------------------------------------------------------
# EngineStats as a registry view
# ----------------------------------------------------------------------
class TestEngineStatsView:
    def test_counters_read_and_write_the_registry(self):
        registry = MetricsRegistry()
        stats = EngineStats(workers=2, registry=registry)
        stats.jobs_run += 3
        stats.busy_seconds += 1.5
        assert stats.jobs_run == 3
        assert registry.counter("engine.jobs.run").value == 3.0
        assert registry.counter("engine.busy_seconds").value == 1.5
        # Another view over the same registry sees the same numbers.
        assert EngineStats(workers=2, registry=registry).jobs_run == 3

    def test_stage_feeds_histogram_and_stage_seconds(self):
        stats = EngineStats()
        with stats.stage("population"):
            pass
        with stats.stage("population"):
            pass
        assert set(stats.stage_seconds) == {"population"}
        hist = stats.registry.histogram("stage.population")
        assert hist.count == 2
        assert stats.stage_seconds["population"] == pytest.approx(hist.total)

    def test_empty_run_ratios_do_not_divide_by_zero(self):
        stats = EngineStats(workers=0)
        assert stats.jobs_total == 0
        assert stats.hit_ratio == 0.0
        assert stats.utilization == 0.0
        assert "cache hit ratio    0.0%" in stats.summary()

    def test_hit_ratio_counts_memo_and_disk(self):
        stats = EngineStats()
        stats.jobs_run = 1
        stats.jobs_cached_memory = 2
        stats.jobs_cached_disk = 1
        assert stats.hit_ratio == pytest.approx(0.75)

    def test_engine_wires_store_metrics_into_same_registry(self, tmp_path):
        engine = Engine(EngineConfig(workers=1, cache_dir=tmp_path))
        settings = ExperimentSettings(
            seed=5, chips=16, trace_length=800, warmup=100,
            benchmarks=("gzip",),
        )
        engine.population(settings)
        counters = engine.metrics.snapshot()["counters"]
        assert counters["store.save"] >= 1
        assert counters["engine.jobs.run"] == 1
        # A fresh engine on the same store reads it back.
        engine = Engine(EngineConfig(workers=1, cache_dir=tmp_path))
        engine.population(settings)
        counters = engine.metrics.snapshot()["counters"]
        assert counters["store.load.hit"] == 1
        assert engine.stats.hit_ratio == 1.0


# ----------------------------------------------------------------------
# CLI surface
# ----------------------------------------------------------------------
class TestCli:
    def test_split_trace_arg(self):
        assert _split_trace_arg(None) == (None, None)
        length, path = _split_trace_arg("20000")
        assert length == 20000 and path is None
        length, path = _split_trace_arg("out.jsonl")
        assert length is None and str(path) == "out.jsonl"

    def test_traced_parallel_run_merges_worker_spans(
        self, tmp_path, capsys, monkeypatch
    ):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
        trace_file = tmp_path / "run.jsonl"
        code = main([
            "run", "fig8", "--chips", "64", "--seed", "123",
            "--workers", "2", "--trace", str(trace_file), "--stats",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "engine statistics" in out
        assert f"trace spans written to {trace_file}" in out
        records = load_spans_counted(trace_file)[0]
        assert records, "traced run produced no spans"
        names = {r["name"] for r in records}
        assert "engine.population" in names
        assert "worker:chip_shard" in names
        assert "stage:experiment:fig8" in names
        # Spans from the main process and at least one pool worker
        # merged into one file.
        assert len({r["pid"] for r in records}) >= 2
        # And tracing is off again after the CLI returns.
        assert not tracing_enabled()

    def test_trace_summary_command_agrees_with_spans(self, tmp_path, capsys):
        path = tmp_path / "t.jsonl"
        spans = [
            {"name": "stage:simulation", "dur": 2.0, "pid": 7},
            {"name": "stage:simulation", "dur": 1.0, "pid": 7},
            {"name": "stage:population", "dur": 0.25, "pid": 8},
        ]
        path.write_text(
            "".join(json.dumps(s) + "\n" for s in spans), encoding="utf-8"
        )
        assert main(["trace", "summary", str(path), "--top", "2"]) == 0
        out = capsys.readouterr().out
        assert "spans      3" in out
        assert "stage:simulation" in out
        assert "3.0000" in out  # aggregate total of the simulation stage
        assert "top 2 slowest spans" in out

    def test_trace_integer_still_sets_trace_length(self, tmp_path, capsys,
                                                   monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
        code = main([
            "run", "fig1", "--trace", "1200", "--warmup", "300",
            "--chips", "16", "--seed", "9", "--benchmark", "gzip",
        ])
        assert code == 0
        assert "Figure 1" in capsys.readouterr().out
