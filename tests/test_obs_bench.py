"""Tests for the perf-regression layer (bench, regress, report, CLI)."""

from __future__ import annotations

import json
import os
import random
import shutil
import subprocess

import pytest

from repro.cli import main
from repro.core.errors import ConfigurationError
from repro.obs import disable_tracing, provenance_stamp, working_tree_dirty
from repro.obs.bench import (
    SUITES,
    Benchmark,
    BenchResult,
    HISTORY_SCHEMA_VERSION,
    append_history,
    load_history,
    make_record,
    new_run_id,
    run_ids,
    run_suite,
    samples_by_bench,
    save_history,
)
from repro.obs.regress import (
    IMPROVED,
    NEUTRAL,
    REGRESSED,
    bootstrap_median_delta_ci,
    classify,
    compare_runs,
    worst_verdict,
)
from repro.obs.report import (
    bench_report_html,
    build_flame_tree,
    flamegraph_html,
)


@pytest.fixture(autouse=True)
def _clean_state():
    disable_tracing()
    yield
    disable_tracing()


def _samples(seed: int, center: float, spread: float, n: int = 20):
    rng = random.Random(seed)
    return [abs(rng.gauss(center, spread)) for _ in range(n)]


def _record(bench="engine.population", run_id="run-a", median=0.1,
            suite="engine", created=1000.0, samples=None):
    result = BenchResult(
        suite=suite, bench=bench,
        samples=samples if samples is not None else [median] * 3,
        warmup=1,
    )
    return make_record(
        result, run_id, created, provenance_stamp(workers=1)
    )


# ----------------------------------------------------------------------
# regress: seeded synthetic distributions with known verdicts
# ----------------------------------------------------------------------
class TestRegress:
    def test_clear_regression_is_flagged(self):
        baseline = _samples(1, 1.0, 0.02)
        current = _samples(2, 1.5, 0.02)
        comparison = classify(baseline, current, bench="x", tolerance=0.05)
        assert comparison.verdict == REGRESSED
        assert comparison.delta == pytest.approx(0.5, abs=0.05)
        assert comparison.ci_low > 0.05

    def test_clear_improvement_is_flagged(self):
        baseline = _samples(3, 1.0, 0.02)
        current = _samples(4, 0.5, 0.02)
        comparison = classify(baseline, current, tolerance=0.05)
        assert comparison.verdict == IMPROVED
        assert comparison.ci_high < -0.05

    def test_same_distribution_is_neutral(self):
        baseline = _samples(5, 1.0, 0.02)
        current = _samples(6, 1.0, 0.02)
        assert classify(baseline, current, tolerance=0.05).verdict == NEUTRAL

    def test_identical_samples_are_neutral(self):
        samples = [0.5, 0.6, 0.7]
        comparison = classify(samples, samples)
        assert comparison.verdict == NEUTRAL
        assert comparison.delta == 0.0

    def test_constant_samples_have_zero_width_ci(self):
        comparison = classify([0.5] * 5, [0.5] * 5)
        assert comparison.verdict == NEUTRAL
        assert comparison.ci_low == comparison.ci_high == 0.0

    def test_small_shift_within_tolerance_is_neutral(self):
        baseline = _samples(7, 1.0, 0.01)
        current = _samples(8, 1.02, 0.01)  # +2% < 5% tolerance
        assert classify(baseline, current, tolerance=0.05).verdict == NEUTRAL

    def test_classification_is_deterministic(self):
        baseline = _samples(9, 1.0, 0.05)
        current = _samples(10, 1.1, 0.05)
        first = classify(baseline, current, bench="b")
        second = classify(baseline, current, bench="b")
        assert first == second

    def test_bootstrap_ci_brackets_the_delta(self):
        baseline = _samples(11, 1.0, 0.02)
        current = _samples(12, 1.2, 0.02)
        low, high = bootstrap_median_delta_ci(baseline, current)
        assert low <= 0.2 <= high + 0.05

    def test_rejects_empty_samples_and_bad_params(self):
        with pytest.raises(ValueError):
            bootstrap_median_delta_ci([], [1.0])
        with pytest.raises(ValueError):
            bootstrap_median_delta_ci([1.0], [1.0], confidence=1.5)
        with pytest.raises(ValueError):
            classify([1.0], [1.0], tolerance=-0.1)

    def test_compare_runs_reports_unmatched(self):
        comparisons, unmatched = compare_runs(
            {"a": [1.0, 1.0], "only_base": [1.0]},
            {"a": [1.0, 1.0], "only_cur": [1.0]},
        )
        assert [c.bench for c in comparisons] == ["a"]
        assert unmatched == ["only_base", "only_cur"]

    def test_worst_verdict_orders_severity(self):
        neutral = classify([1.0, 1.0], [1.0, 1.0], bench="n")
        regressed = classify(
            _samples(13, 1.0, 0.01), _samples(14, 2.0, 0.01), bench="r"
        )
        assert worst_verdict([]) is None
        assert worst_verdict([neutral]) == NEUTRAL
        assert worst_verdict([neutral, regressed]) == REGRESSED


# ----------------------------------------------------------------------
# trend store codec
# ----------------------------------------------------------------------
class TestHistoryCodec:
    def test_missing_file_is_empty_history(self, tmp_path):
        assert load_history(tmp_path / "none.json") == ([], 0)

    def test_round_trip_preserves_records(self, tmp_path):
        path = tmp_path / "BENCH_history.json"
        records = [
            _record(bench="a", run_id="r1", samples=[0.1, 0.2, 0.3]),
            _record(bench="b", run_id="r1", samples=[0.4]),
        ]
        save_history(path, records)
        loaded, skipped = load_history(path)
        assert skipped == 0
        assert loaded == records
        assert loaded[0]["provenance"]["workers"] == 1

    def test_append_accumulates(self, tmp_path):
        path = tmp_path / "h.json"
        assert append_history(path, [_record(run_id="r1")]) == 1
        assert append_history(path, [_record(run_id="r2")]) == 2
        loaded, _ = load_history(path)
        assert run_ids(loaded) == ["r1", "r2"]

    def test_schema_version_gate_refuses_other_versions(self, tmp_path):
        path = tmp_path / "h.json"
        path.write_text(
            json.dumps({"version": HISTORY_SCHEMA_VERSION + 1, "records": []}),
            encoding="utf-8",
        )
        with pytest.raises(ConfigurationError, match="schema version"):
            load_history(path)

    def test_non_json_and_wrong_shape_refuse(self, tmp_path):
        path = tmp_path / "h.json"
        path.write_text("{truncated", encoding="utf-8")
        with pytest.raises(ConfigurationError, match="not valid JSON"):
            load_history(path)
        path.write_text(json.dumps([1, 2, 3]), encoding="utf-8")
        with pytest.raises(ConfigurationError, match="unexpected shape"):
            load_history(path)

    def test_malformed_records_are_skipped_and_counted(self, tmp_path):
        path = tmp_path / "h.json"
        good = _record(run_id="r1")
        path.write_text(
            json.dumps({
                "version": HISTORY_SCHEMA_VERSION,
                "records": [
                    good,
                    {"run_id": "r2"},          # missing everything else
                    {"run_id": "r3", "suite": "s", "bench": "b",
                     "samples": [], "provenance": {}},  # empty samples
                    "not-a-dict",
                ],
            }),
            encoding="utf-8",
        )
        loaded, skipped = load_history(path)
        assert loaded == [good]
        assert skipped == 3

    def test_samples_by_bench_filters_run_and_suite(self):
        records = [
            _record(bench="a", run_id="r1", samples=[1.0]),
            _record(bench="a", run_id="r2", samples=[2.0]),
            _record(bench="p", run_id="r2", suite="pipeline", samples=[3.0]),
        ]
        assert samples_by_bench(records, run_id="r2") == {
            "a": [2.0], "p": [3.0]
        }
        assert samples_by_bench(records, run_id="r2", suite="engine") == {
            "a": [2.0]
        }


# ----------------------------------------------------------------------
# provenance
# ----------------------------------------------------------------------
class TestProvenance:
    def test_stamp_has_identity_and_no_host_details(self):
        stamp = provenance_stamp(workers=3, config={"suite": "engine"})
        assert set(stamp) == {
            "git_sha", "dirty", "python", "implementation", "platform",
            "workers", "config_hash",
        }
        assert stamp["workers"] == 3
        assert len(stamp["config_hash"]) == 12
        # Records are committed/shared: nothing host-identifying.
        text = json.dumps(stamp)
        import socket
        assert socket.gethostname() not in text

    def test_stamp_in_this_repo_has_real_sha(self):
        import pathlib
        stamp = provenance_stamp(cwd=str(pathlib.Path(__file__).parent))
        assert stamp["git_sha"] == "unknown" or (
            len(stamp["git_sha"]) == 40
            and all(c in "0123456789abcdef" for c in stamp["git_sha"])
        )

    def test_outside_a_repo_degrades_gracefully(self, tmp_path):
        assert working_tree_dirty(cwd=str(tmp_path)) in (None, False)
        stamp = provenance_stamp(cwd=str(tmp_path))
        assert stamp["git_sha"] == "unknown" or stamp["git_sha"]

    def test_config_hash_is_stable_and_order_independent(self):
        from repro.obs import config_hash
        assert config_hash({"a": 1, "b": 2}) == config_hash({"b": 2, "a": 1})
        assert config_hash({"a": 1}) != config_hash({"a": 2})


# ----------------------------------------------------------------------
# harness
# ----------------------------------------------------------------------
class TestHarness:
    def test_unknown_suite_and_bad_params_raise(self):
        with pytest.raises(ConfigurationError, match="unknown bench suite"):
            run_suite("nope")
        with pytest.raises(ConfigurationError):
            run_suite("engine", repeats=0)
        with pytest.raises(ConfigurationError):
            run_suite("engine", warmup=-1)

    def test_engine_suite_produces_timed_results(self):
        results = run_suite("engine", repeats=2, warmup=0)
        assert [r.bench for r in results] == [
            "engine.population",
            "engine.store_roundtrip",
            "engine.store_10k",
            "engine.population_store",
            "engine.correlation_sweep",
        ]
        for result in results:
            assert len(result.samples) == 2
            assert all(s > 0 for s in result.samples)
            assert result.median > 0
        # Each repeat recomputed: the engine memo was cleared, so the
        # population benchmark ran as many compute jobs as repeats.
        counters = results[0].metrics["counters"]
        assert counters["engine.jobs.run"] >= 2

    def test_records_carry_only_published_estimates(self):
        """Each case has its own registry, so a case that estimates
        nothing records no estimator block, not zeroed figures."""
        results = {
            r.bench: r.metrics
            for r in run_suite("engine", repeats=1, warmup=0)
        }
        assert "estimator" not in results["engine.store_roundtrip"]
        estimator = results["engine.population"]["estimator"]
        assert sorted(estimator) == ["horizontal.base", "regular.base"]
        assert all(entry["samples"] == 64 for entry in estimator.values())

    def test_repeats_alternate_cases_on_their_own_engines(
        self, monkeypatch
    ):
        """Every case warms up first; then each round times every case
        once, in alternating order, and each case runs on its own
        engine; cleanups run after the last round."""
        calls = []

        def case(name):
            def prepare(engine):
                def run():
                    calls.append((name, engine))

                run.cleanup = lambda: calls.append((f"cleanup {name}", None))
                return run

            return Benchmark(name, prepare)

        monkeypatch.setitem(SUITES, "pair", [case("A"), case("B")])
        results = run_suite("pair", repeats=3, warmup=1)
        names = [name for name, _ in calls]
        assert names[:2] == ["A", "B"]  # the warmups
        assert names[2:8] == ["A", "B", "B", "A", "A", "B"]
        assert sorted(names[8:]) == ["cleanup A", "cleanup B"]
        engines = {name: {id(e) for n, e in calls if n == name}
                   for name in ("A", "B")}
        assert len(engines["A"]) == len(engines["B"]) == 1
        assert engines["A"] != engines["B"]
        assert [(r.bench, len(r.samples)) for r in results] == [
            ("A", 3), ("B", 3)
        ]

    def test_cases_draw_their_own_chips(self, monkeypatch):
        """A suite run's 2000-chip seed-2006 population can outlive the
        run; a later case that studies those chips still draws them
        instead of reading that population's rows."""
        from repro.variation.columnar import ColumnarPopulationSampler

        run_suite("schemes", repeats=1, warmup=0)
        drawn = []
        sample_range = ColumnarPopulationSampler.sample_range

        def spy(self, seed, start, stop, *args, **kwargs):
            drawn.append((seed, start, stop))
            return sample_range(self, seed, start, stop, *args, **kwargs)

        monkeypatch.setattr(ColumnarPopulationSampler, "sample_range", spy)
        results = run_suite("schemes", repeats=1, warmup=0)
        assert [r.bench for r in results] == [
            "schemes.breakdown_vertical",
            "schemes.breakdown_horizontal",
        ]
        # Both 2000-chip cases drew their chips: one case's population
        # is not the next case's either.
        assert drawn == [(2006, 0, 2000), (2006, 0, 2000)]


# ----------------------------------------------------------------------
# reports (self-contained HTML)
# ----------------------------------------------------------------------
class TestReports:
    def test_bench_report_is_self_contained(self):
        records = [
            _record(run_id="r1", samples=[0.10, 0.11], created=1.0),
            _record(run_id="r2", samples=[0.12, 0.13], created=2.0),
        ]
        comparisons, _ = compare_runs(
            samples_by_bench(records, run_id="r1"),
            samples_by_bench(records, run_id="r2"),
        )
        html_text = bench_report_html(records, skipped=1,
                                      comparisons=comparisons)
        assert "engine.population" in html_text
        assert "<svg" in html_text and "polyline" in html_text
        assert "skipped 1 malformed" in html_text
        assert "http" not in html_text
        assert "src=" not in html_text and "href=" not in html_text

    def test_empty_report_renders(self):
        html_text = bench_report_html([])
        assert "No benchmark records" in html_text
        assert "http" not in html_text

    def test_flame_tree_merges_same_name_siblings(self):
        spans = [
            {"name": "root", "span_id": "1", "parent_id": None, "dur": 1.0},
            {"name": "job", "span_id": "2", "parent_id": "1", "dur": 0.3},
            {"name": "job", "span_id": "3", "parent_id": "1", "dur": 0.2},
            {"name": "orphan", "span_id": "4", "parent_id": "missing",
             "dur": 0.1},
        ]
        root = build_flame_tree(spans)
        assert set(root.children) == {"root", "orphan"}
        job = root.children["root"].children["job"]
        assert job.count == 2
        assert job.total == pytest.approx(0.5)
        # Root totals cover only top-level frames (parents already
        # include their children).
        assert root.total == pytest.approx(1.1)

    def test_flamegraph_html_is_self_contained_and_collapsible(self):
        spans = [
            {"name": "outer", "span_id": "1", "parent_id": None, "dur": 2.0},
            {"name": "inner", "span_id": "2", "parent_id": "1", "dur": 1.5},
        ]
        html_text = flamegraph_html(spans, skipped=2, source="t.jsonl")
        assert "<details" in html_text and "<summary>" in html_text
        assert "outer" in html_text and "inner" in html_text
        assert "skipped 2 malformed" in html_text
        assert "http" not in html_text
        assert "<script" not in html_text

    def test_flamegraph_of_empty_trace(self):
        html_text = flamegraph_html([])
        assert "No spans" in html_text


# ----------------------------------------------------------------------
# CLI surface
# ----------------------------------------------------------------------
class TestBenchCli:
    def test_run_compare_report_flamegraph_round_trip(
        self, tmp_path, capsys, monkeypatch
    ):
        monkeypatch.chdir(tmp_path)
        for _ in range(2):
            assert main([
                "bench", "run", "--suite", "engine",
                "--repeats", "2", "--warmup-runs", "0", "--allow-dirty",
            ]) == 0
        history = tmp_path / "BENCH_history.json"
        assert history.is_file()
        records, skipped = load_history(history)
        assert skipped == 0
        assert len(records) == 10  # 2 runs x 5 benchmarks
        assert len(run_ids(records)) == 2
        assert all(r["provenance"]["python"] for r in records)
        # Each record carries the process's peak RSS and CPU time.
        for record in records:
            assert record["resources"]["cpu_user_seconds"] > 0
            if os.path.exists("/proc/self/status"):
                assert record["resources"]["rss_peak_bytes"] > 0
        # The trend store is the only record a run writes.
        assert [p.name for p in tmp_path.glob("BENCH_*.json")] == [
            "BENCH_history.json"
        ]

        # Compare the two runs' records with known, equal timings: this
        # test checks the CLI round trip, and two-repeat host timings
        # are too noisy for a fixed verdict (regression detection has
        # its own deterministic test below).
        known = []
        for record in records:
            result = BenchResult(
                suite=record["suite"], bench=record["bench"],
                samples=[0.01, 0.01], warmup=0,
            )
            known.append(make_record(
                result, record["run_id"], record["created"],
                record["provenance"],
            ))
        save_history(history, known)
        assert main(["bench", "compare", "--tolerance", "0.9"]) == 0
        out = capsys.readouterr().out
        assert "bench compare" in out
        assert "overall: neutral" in out

        assert main(["bench", "report", "report.html"]) == 0
        html_text = (tmp_path / "report.html").read_text(encoding="utf-8")
        assert "http" not in html_text
        assert "engine.population" in html_text

        # bench run traced by default -> flamegraph needs no arguments
        # beyond the output path.
        assert (tmp_path / "BENCH_trace.jsonl").is_file()
        assert main(["trace", "flamegraph", "flame.html"]) == 0
        flame = (tmp_path / "flame.html").read_text(encoding="utf-8")
        assert "http" not in flame
        assert "engine.population" in flame

    def test_dirty_tree_is_refused_without_allow_dirty(
        self, tmp_path, capsys, monkeypatch
    ):
        monkeypatch.chdir(tmp_path)
        monkeypatch.setattr(
            "repro.obs.provenance.working_tree_dirty",
            lambda cwd=None, ignore=None: True,
        )
        assert main(["bench", "run", "--suite", "engine"]) == 2
        err = capsys.readouterr().err
        assert "uncommitted changes" in err
        assert not (tmp_path / "BENCH_history.json").exists()

    @pytest.mark.skipif(shutil.which("git") is None, reason="needs git")
    @pytest.mark.parametrize("cwd, history", [
        (".", "BENCH_history.json"),
        ("bench", "../BENCH_history.json"),
    ])
    def test_runs_do_not_dirty_their_own_checkout(
        self, tmp_path, monkeypatch, cwd, history
    ):
        """The tracked trend store a run appends to never makes the next
        run refuse; any other tracked change does, wherever it is."""
        noop = Benchmark("noop.pass", lambda engine: lambda: None)
        monkeypatch.setitem(SUITES, "noop", [noop])
        for path in ("src/mod.py", "bench/README"):
            (tmp_path / path).parent.mkdir(exist_ok=True)
            (tmp_path / path).write_text("x = 1\n", encoding="utf-8")
        save_history(tmp_path / "BENCH_history.json", [])
        for args in (
            ["init", "-q"],
            ["add", "."],
            ["-c", "user.name=t", "-c", "user.email=t@t",
             "commit", "-qm", "x"],
        ):
            subprocess.run(
                ["git", "-C", str(tmp_path), *args],
                check=True, capture_output=True,
            )
        monkeypatch.chdir(tmp_path / cwd)
        argv = [
            "bench", "run", "--suite", "noop", "--repeats", "1",
            "--warmup-runs", "0", "--no-trace", "--history", history,
        ]
        assert main(argv) == 0
        assert main(argv) == 0
        records, _ = load_history(tmp_path / "BENCH_history.json")
        assert len(run_ids(records)) == 2
        assert [r["provenance"]["dirty"] for r in records] == [False, False]
        (tmp_path / "src" / "mod.py").write_text("x = 2\n", encoding="utf-8")
        assert main(argv) == 2

    def test_compare_detects_synthetic_regression(
        self, tmp_path, capsys, monkeypatch
    ):
        monkeypatch.chdir(tmp_path)
        history = tmp_path / "BENCH_history.json"
        fast = _samples(20, 0.10, 0.002)
        slow = _samples(21, 0.20, 0.002)
        save_history(history, [
            _record(run_id="r-base", samples=fast, created=1.0),
            _record(run_id="r-new", samples=slow, created=2.0),
        ])
        assert main(["bench", "compare"]) == 1  # regression -> exit 1
        assert "regressed" in capsys.readouterr().out
        assert main(["bench", "compare", "--warn-only"]) == 0

    def test_compare_against_baseline_file(
        self, tmp_path, capsys, monkeypatch
    ):
        monkeypatch.chdir(tmp_path)
        baseline_file = tmp_path / "baseline.json"
        save_history(
            baseline_file, [_record(run_id="r-base", samples=[0.1] * 5)]
        )
        save_history(
            tmp_path / "BENCH_history.json",
            [_record(run_id="r-new", samples=[0.1] * 5)],
        )
        assert main([
            "bench", "compare", "--baseline", str(baseline_file)
        ]) == 0
        out = capsys.readouterr().out
        assert "neutral" in out

    def test_compare_baseline_file_takes_the_suites_last_run(
        self, tmp_path, capsys, monkeypatch
    ):
        """A baseline file whose last run is of another suite still
        yields the asked suite's last run."""
        monkeypatch.chdir(tmp_path)
        baseline_file = tmp_path / "parent.json"
        save_history(baseline_file, [
            _record(run_id="r-engine", samples=[0.1] * 5),
            _record(bench="schemes.breakdown_vertical", suite="schemes",
                    run_id="r-schemes", samples=[0.1] * 5),
        ])
        save_history(
            tmp_path / "BENCH_history.json",
            [_record(run_id="r-new", samples=[0.1] * 5)],
        )
        assert main([
            "bench", "compare", "--baseline", str(baseline_file),
            "--suite", "engine",
        ]) == 0
        out = capsys.readouterr().out
        assert "(run r-engine)" in out
        assert "overall: neutral" in out

    def test_runs_pair_within_their_suite(self, tmp_path, capsys, monkeypatch):
        """A history written one suite per run (engine, serve, engine,
        serve) gives each suite a verdict against its own baseline."""
        monkeypatch.chdir(tmp_path)
        history = tmp_path / "H.json"
        save_history(history, [
            _record(bench=f"{suite}.case", suite=suite,
                    run_id=f"r{created}-{suite}", created=float(created),
                    samples=[0.1] * 5)
            for created, suite in enumerate(
                ("engine", "serve", "engine", "serve"), start=1
            )
        ])

        def compare(*extra):
            code = main(["bench", "compare", "--history", str(history),
                         *extra])
            out = capsys.readouterr().out
            return code, out, [
                line for line in out.splitlines()
                if line.startswith("verdict ")
            ]

        code, out, verdicts = compare()
        assert code == 0
        assert verdicts == ["verdict engine: neutral",
                            "verdict serve: neutral"]
        assert "run r3-engine vs run r1-engine" in out
        assert "run r4-serve vs run r2-serve" in out
        # A named run is the baseline of the suites it holds.
        code, out, verdicts = compare("--baseline", "r1")
        assert code == 0
        assert verdicts == ["verdict engine: neutral",
                            "verdict serve: none (nothing in common)"]
        # A baseline file gives each suite that suite's latest run there.
        code, out, verdicts = compare("--baseline", str(history))
        assert code == 0 and len(verdicts) == 2
        assert f"vs file {history} (run r2-serve)" not in out
        assert f"vs file {history} (run r4-serve)" in out

        assert main(["bench", "report", "out.html",
                     "--history", str(history)]) == 0
        page = (tmp_path / "out.html").read_text(encoding="utf-8")
        assert "Verdicts vs baseline" in page
        assert page.count('<td class="neutral">neutral</td>') == 2

    def test_compare_without_records_errors(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert main(["bench", "compare"]) == 2

    def test_flamegraph_explicit_trace_input(self, tmp_path, capsys):
        trace = tmp_path / "t.jsonl"
        trace.write_text(
            json.dumps({"name": "s", "span_id": "1", "parent_id": None,
                        "dur": 0.5, "pid": 1}) + "\n" + "{garbled\n",
            encoding="utf-8",
        )
        out = tmp_path / "flame.html"
        assert main([
            "trace", "flamegraph", str(trace), "--out", str(out)
        ]) == 0
        console = capsys.readouterr().out
        assert "skipped 1 malformed" in console
        assert "http" not in out.read_text(encoding="utf-8")

    def test_flamegraph_without_any_trace_errors(
        self, tmp_path, capsys, monkeypatch
    ):
        monkeypatch.chdir(tmp_path)
        monkeypatch.delenv("REPRO_TRACE_FILE", raising=False)
        assert main(["trace", "flamegraph", "flame.html"]) == 2
        assert "no trace input" in capsys.readouterr().err


# ----------------------------------------------------------------------
# engine provenance hooks
# ----------------------------------------------------------------------
class TestEngineProvenance:
    def test_engine_provenance_is_cached(self):
        from repro.engine.core import Engine, EngineConfig
        engine = Engine(EngineConfig(workers=2, persistent=False))
        stamp = engine.provenance()
        assert stamp["workers"] == 2
        assert engine.provenance() is stamp

    def test_traced_dispatch_carries_provenance(self, tmp_path):
        from repro.engine import Engine, EngineConfig
        from repro.experiments import ExperimentSettings
        from repro.obs import configure_tracing, load_spans_counted

        trace = tmp_path / "t.jsonl"
        configure_tracing(trace)
        engine = Engine(EngineConfig(workers=1, cache_dir=tmp_path / "cache"))
        engine.population(ExperimentSettings(
            seed=5, chips=16, trace_length=800, warmup=100,
            benchmarks=("gzip",),
        ))
        disable_tracing()
        dispatches = [
            r for r in load_spans_counted(trace)[0]
            if r["name"] == "engine.dispatch"
        ]
        assert dispatches
        attrs = dispatches[0]["attrs"]
        assert "sha" in attrs and "config" in attrs
        assert attrs["sha"] == engine.provenance()["git_sha"]
