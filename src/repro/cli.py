"""Command-line interface.

Examples::

    repro list
    repro run table2
    repro run table6 --trace 20000 --benchmarks gzip,mcf,swim
    repro run fig8 --workers 4 --stats --out results/fig8.txt
    repro run table6 --workers 2 --trace run.jsonl   # traced run
    repro trace summary run.jsonl --top 15
    repro trace flamegraph run.jsonl --out flame.html
    repro all --chips 500 --workers 4 --out results/
    repro cache info
    repro cache clear
    repro bench run --suite engine --repeats 5
    repro bench compare --tolerance 0.1
    repro bench report bench.html
    repro serve --port 8787 --workers 2
    repro serve --port 0 --max-active 4 --trace serve.jsonl

The same environment variables the experiment settings honour
(``REPRO_CHIPS`` etc.) also work; explicit flags win. ``--workers``
(default ``REPRO_WORKERS``) spreads populations and simulations over a
process pool, and completed work persists under ``.repro_cache/``
(``REPRO_CACHE_DIR``) so repeated runs skip it; ``repro cache`` inspects
or empties that store.

``--trace`` is overloaded for backward compatibility: a bare integer is
the per-run measured instruction count (as it always was), anything else
is a path that receives the run's JSONL trace spans — from the main
process and every pool worker — which ``repro trace summary`` turns into
per-stage aggregates and a top-N slowest-spans list, and ``repro trace
flamegraph`` into a self-contained collapsible HTML flamegraph.

``repro bench`` is the perf-regression surface: ``run`` executes a
benchmark suite (warmup + repeats on a scratch engine) and appends
provenance-stamped records to the ``BENCH_history.json`` trend store,
``compare`` classifies the latest run against a baseline
(improved/neutral/regressed, bootstrap CI on median deltas), and
``report`` renders the history as one self-contained HTML page. ``run``
refuses a dirty working tree (changes to its own trend store aside)
unless ``--allow-dirty`` is passed, so the recorded git SHAs stay
honest. ``repro run --stats`` prints the process's peak RSS, and
``repro bench run`` records peak RSS and CPU time; each is read from
``/proc`` and ``os.times()`` when it is reported.
"""

from __future__ import annotations

import argparse
import dataclasses
import pathlib
import sys
from typing import List, Optional, Tuple

from repro.core.errors import ConfigurationError
from repro.engine import Engine, EngineConfig
from repro.experiments import (
    ExperimentSettings,
    available_experiments,
    run_experiment,
)
from repro.obs import (
    configure_tracing,
    disable_tracing,
    read_resources,
    summary_text,
)
from repro.yieldmodel.estimators import ESTIMATOR_KINDS, EstimatorSpec

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    """Build the CLI argument parser."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Reproduction of 'Yield-Aware Cache Architectures' (MICRO 2006)"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list available experiments")

    def add_settings(p: argparse.ArgumentParser, out_help: str) -> None:
        p.add_argument("--seed", type=int, default=None, help="experiment seed")
        p.add_argument(
            "--chips", type=int, default=None, help="Monte Carlo population"
        )
        p.add_argument(
            "--trace", type=str, default=None,
            help=(
                "an integer: measured instructions per pipeline run; "
                "a path: write JSONL trace spans there"
            ),
        )
        p.add_argument(
            "--warmup", type=int, default=None,
            help="cache warmup instructions per pipeline run",
        )
        p.add_argument(
            "--benchmarks", "--benchmark", type=str, default=None,
            help="comma-separated benchmark subset",
        )
        p.add_argument("--out", type=pathlib.Path, default=None, help=out_help)
        p.add_argument(
            "--workers", type=int, default=None,
            help="worker processes (default: REPRO_WORKERS or 1)",
        )
        p.add_argument(
            "--stats", action="store_true",
            help="print engine statistics after the run",
        )
        p.add_argument(
            "--estimator", choices=ESTIMATOR_KINDS, default=None,
            help=(
                "yield estimator: fixed (default), adaptive (CI-driven "
                "early stopping), stratified, is (importance sampling); "
                "the weighted kinds run through the 'estimators' "
                "experiment only"
            ),
        )
        p.add_argument(
            "--ci-target", type=float, default=None,
            help=(
                "stop sampling once every yield CI half-width is at or "
                "below this (requires --estimator; default: run to the "
                "full population)"
            ),
        )

    run_parser = sub.add_parser("run", help="run one experiment")
    run_parser.add_argument("experiment", choices=available_experiments())
    add_settings(
        run_parser,
        out_help=(
            "file to also write the result into "
            "(an existing directory gets <experiment>.txt)"
        ),
    )

    all_parser = sub.add_parser("all", help="run every experiment")
    add_settings(all_parser, out_help="directory to also write results into")

    cache_parser = sub.add_parser(
        "cache", help="inspect or clear the persistent result store"
    )
    cache_parser.add_argument("action", choices=["info", "clear"])

    trace_parser = sub.add_parser(
        "trace", help="inspect a JSONL trace written by --trace <file>"
    )
    trace_parser.add_argument("action", choices=["summary", "flamegraph"])
    trace_parser.add_argument(
        "file", type=pathlib.Path,
        help=(
            "JSONL trace to read; for flamegraph an .html path is also "
            "accepted here as the output (the trace then comes from "
            "--input or the default BENCH_trace.jsonl)"
        ),
    )
    trace_parser.add_argument(
        "--top", type=int, default=10,
        help="how many slowest spans to list (default 10, summary only)",
    )
    trace_parser.add_argument(
        "--out", type=pathlib.Path, default=None,
        help="flamegraph output path (default: trace file with .html)",
    )
    trace_parser.add_argument(
        "--input", type=pathlib.Path, default=None,
        help="flamegraph trace input when the positional is the output",
    )

    bench_parser = sub.add_parser(
        "bench", help="benchmark suites, trend store and regression checks"
    )
    bench_sub = bench_parser.add_subparsers(dest="bench_command", required=True)

    bench_run = bench_sub.add_parser(
        "run", help="run a suite and record provenance-stamped timings"
    )
    bench_run.add_argument(
        "--suite", default="engine",
        help="suite to run, or 'all' (default: engine)",
    )
    bench_run.add_argument(
        "--repeats", type=int, default=5,
        help="timed runs per benchmark (default 5)",
    )
    bench_run.add_argument(
        "--warmup-runs", type=int, default=1,
        help="untimed warmup runs per benchmark (default 1)",
    )
    bench_run.add_argument(
        "--workers", type=int, default=1,
        help="engine worker processes for the benchmarks (default 1)",
    )
    bench_run.add_argument(
        "--history", type=pathlib.Path, default=None,
        help="trend store path (default BENCH_history.json)",
    )
    bench_run.add_argument(
        "--allow-dirty", action="store_true",
        help="record timings even with uncommitted changes",
    )
    bench_run.add_argument(
        "--trace", type=pathlib.Path, default=None,
        help="JSONL trace output (default BENCH_trace.jsonl)",
    )
    bench_run.add_argument(
        "--no-trace", action="store_true", help="skip trace span export"
    )

    bench_compare = bench_sub.add_parser(
        "compare", help="classify the latest run against a baseline"
    )
    bench_compare.add_argument(
        "--history", type=pathlib.Path, default=None,
        help="trend store path (default BENCH_history.json)",
    )
    bench_compare.add_argument(
        "--baseline", default=None,
        help=(
            "baseline: a run-id prefix from the history, or a path to a "
            "history file whose latest run of each suite is that suite's "
            "baseline (default: each suite's previous run in the history)"
        ),
    )
    bench_compare.add_argument(
        "--suite", default=None, help="restrict the comparison to one suite"
    )
    bench_compare.add_argument(
        "--tolerance", type=float, default=0.05,
        help="relative no-change band around the baseline median "
             "(default 0.05 = 5%%)",
    )
    bench_compare.add_argument(
        "--warn-only", action="store_true",
        help="exit 0 even when a regression is detected (CI smoke mode)",
    )

    bench_report = bench_sub.add_parser(
        "report", help="render the trend store as self-contained HTML"
    )
    bench_report.add_argument(
        "out", type=pathlib.Path, help="HTML output path"
    )
    bench_report.add_argument(
        "--history", type=pathlib.Path, default=None,
        help="trend store path (default BENCH_history.json)",
    )
    bench_report.add_argument(
        "--suite", default=None, help="restrict the report to one suite"
    )
    bench_report.add_argument(
        "--tolerance", type=float, default=0.05,
        help="tolerance for the embedded verdict table (default 0.05)",
    )

    serve_parser = sub.add_parser(
        "serve", help="run the long-lived yield-analysis HTTP service"
    )
    serve_parser.add_argument(
        "--host", default="127.0.0.1", help="bind address (default 127.0.0.1)"
    )
    serve_parser.add_argument(
        "--port", type=int, default=8787,
        help="bind port; 0 picks an ephemeral port (default 8787)",
    )
    serve_parser.add_argument(
        "--workers", type=int, default=None,
        help="engine worker processes (default: REPRO_WORKERS or 1)",
    )
    serve_parser.add_argument(
        "--max-active", type=int, default=8,
        help="cold requests computing at once (default 8)",
    )
    serve_parser.add_argument(
        "--max-queued", type=int, default=64,
        help="cold requests waiting for admission before 503 (default 64)",
    )
    serve_parser.add_argument(
        "--max-per-client", type=int, default=16,
        help="queued requests per client before 429 (default 16)",
    )
    serve_parser.add_argument(
        "--drain-timeout", type=float, default=30.0,
        help="seconds to finish in-flight work on SIGTERM (default 30)",
    )
    serve_parser.add_argument(
        "--trace", type=pathlib.Path, default=None,
        help="write JSONL trace spans (one serve.request span per request)",
    )
    serve_parser.add_argument(
        "--log-requests", type=pathlib.Path, default=None, metavar="FILE",
        help="append one JSONL line per finished request to FILE",
    )
    serve_parser.add_argument(
        "--window", type=float, default=10.0, metavar="SECONDS",
        help="width of one rolling-SLO window on /metrics (default 10)",
    )
    serve_parser.add_argument(
        "--window-count", type=int, default=6, metavar="N",
        help="windows retained in the rolling ring (default 6)",
    )
    serve_parser.add_argument(
        "--no-dashboard", dest="dashboard", action="store_false",
        help="do not serve the live HTML dashboard at /dashboard",
    )
    return parser


def _split_trace_arg(
    value: Optional[str],
) -> Tuple[Optional[int], Optional[pathlib.Path]]:
    """Disambiguate ``--trace``: instruction count vs JSONL output path."""
    if value is None:
        return None, None
    try:
        return int(value), None
    except ValueError:
        return None, pathlib.Path(value)


def _settings_from_args(
    args: argparse.Namespace, trace_length: Optional[int]
) -> ExperimentSettings:
    defaults = ExperimentSettings()
    return ExperimentSettings(
        seed=args.seed if args.seed is not None else defaults.seed,
        chips=args.chips if args.chips is not None else defaults.chips,
        trace_length=(
            trace_length if trace_length is not None else defaults.trace_length
        ),
        warmup=args.warmup if args.warmup is not None else defaults.warmup,
        benchmarks=(
            tuple(args.benchmarks.split(","))
            if args.benchmarks
            else defaults.benchmarks
        ),
    )


def _write_into_dir(result, out: pathlib.Path) -> None:
    from repro.reporting.figures import figure_svg

    out.mkdir(parents=True, exist_ok=True)
    (out / f"{result.experiment}.txt").write_text(
        result.text + "\n", encoding="utf-8"
    )
    svg = figure_svg(result)
    if svg is not None:
        (out / f"{result.experiment}.svg").write_text(svg, encoding="utf-8")


def _write_into_file(result, out: pathlib.Path) -> None:
    from repro.reporting.figures import figure_svg

    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(result.text + "\n", encoding="utf-8")
    svg = figure_svg(result)
    if svg is not None and out.suffix != ".svg":
        out.with_suffix(".svg").write_text(svg, encoding="utf-8")


def _emit(result, out: Optional[pathlib.Path], single: bool = False) -> None:
    print(result.text)
    print()
    if out is None:
        return
    if single and not out.is_dir():
        _write_into_file(result, out)
    else:
        _write_into_dir(result, out)


def _engine(**flags) -> Engine:
    """This call's one engine: the environment's configuration, with each
    field whose flag is set (not ``None``) replaced."""
    overrides = {
        name: value for name, value in flags.items() if value is not None
    }
    return Engine(dataclasses.replace(EngineConfig.from_env(), **overrides))


def _cache_command(action: str, engine: Engine) -> int:
    from repro.workloads.compiled import clear_trace_cache, trace_cache_info

    store = engine.store
    if action == "clear":
        dropped = clear_trace_cache()
        if store is None:
            print("persistent cache disabled (REPRO_CACHE=0)")
        else:
            removed = store.clear()
            print(f"removed {removed} cache entries from {store.root}")
        print(f"dropped {dropped} compiled traces from the in-process cache")
        return 0
    if store is None:
        print("persistent cache disabled (REPRO_CACHE=0)")
    else:
        info = store.info()
        print(f"cache directory  {info['root']}")
        print(f"entries          {info['entries']}")
        print(f"size             {info['bytes'] / 1e6:.2f} MB")
        cap = info["max_bytes"]
        print(
            f"size cap         "
            f"{'none' if cap is None else f'{cap / 1e6:.0f} MB'}"
        )
        for kind, count in sorted(info["per_kind"].items()):
            print(f"  {kind:<14} {count}")
    # The compiled-trace cache is per process (workers each hold their
    # own); this row reports this process's view.
    ctrace = trace_cache_info()
    print(
        f"compiled traces  {ctrace['entries']} "
        f"({ctrace['instructions']} instructions, "
        f"{ctrace['bytes'] / 1e6:.2f} MB packed), "
        f"hit rate {ctrace['hit_rate']:.0%} "
        f"({ctrace['hits']} hits / {ctrace['misses']} misses), "
        f"{ctrace['evictions']} evicted"
    )
    return 0


#: Default JSONL destination of ``repro bench run`` trace spans.
DEFAULT_BENCH_TRACE = pathlib.Path("BENCH_trace.jsonl")


def _default_flamegraph_input() -> Optional[pathlib.Path]:
    """The trace a bare ``repro trace flamegraph out.html`` should read."""
    import os

    env = os.environ.get("REPRO_TRACE_FILE")
    candidates = [pathlib.Path(env)] if env else []
    candidates += [DEFAULT_BENCH_TRACE, pathlib.Path("trace.jsonl")]
    for candidate in candidates:
        if candidate.is_file():
            return candidate
    return None


def _trace_command(args: argparse.Namespace) -> int:
    if args.action == "summary":
        print(summary_text(args.file, top=args.top))
        return 0
    # flamegraph: the positional is normally the trace, but accept an
    # .html path there as the output for symmetry with `bench report`.
    from repro.obs.report import render_flamegraph
    from repro.obs.summary import load_spans_counted

    if args.file.suffix == ".html" and not args.file.is_file():
        out = args.file
        source = args.input or _default_flamegraph_input()
        if source is None:
            print(
                "error: no trace input found — pass one with --input, or "
                "run `repro bench run` / `repro run --trace out.jsonl` "
                "first",
                file=sys.stderr,
            )
            return 2
    else:
        source = args.file
        out = args.out or args.file.with_suffix(".html")
    try:
        spans, skipped = load_spans_counted(source)
    except OSError as exc:
        print(f"error: cannot read trace {source}: {exc}", file=sys.stderr)
        return 2
    render_flamegraph(spans, out, skipped=skipped, source=str(source))
    if skipped:
        print(f"warning: skipped {skipped} malformed trace line(s)")
    print(f"flamegraph written to {out} ({len(spans)} spans)")
    return 0


def _bench_history(args: argparse.Namespace) -> pathlib.Path:
    from repro.obs.bench import DEFAULT_HISTORY_PATH

    return args.history if args.history is not None else DEFAULT_HISTORY_PATH


def _bench_run_command(args: argparse.Namespace) -> int:
    import time

    from repro.obs import provenance_stamp
    from repro.obs.bench import (
        SUITES,
        append_history,
        available_suites,
        make_record,
        new_run_id,
        run_suite,
    )

    suites = available_suites() if args.suite == "all" else [args.suite]
    unknown = [s for s in suites if s not in SUITES]
    if unknown:
        print(
            f"error: unknown suite {unknown[0]!r}; "
            f"available: {available_suites()} (or 'all')",
            file=sys.stderr,
        )
        return 2

    history = _bench_history(args)
    provenance = provenance_stamp(
        workers=args.workers,
        config={
            "suites": suites,
            "repeats": args.repeats,
            "warmup": args.warmup_runs,
            "workers": args.workers,
        },
        ignore=history,
    )
    if provenance["dirty"] is True and not args.allow_dirty:
        print(
            "error: the working tree has uncommitted changes, so the "
            "recorded git SHA would misattribute these timings.\n"
            "Commit (or stash) first, or pass --allow-dirty to record "
            "anyway (the record is then flagged dirty).",
            file=sys.stderr,
        )
        return 2
    trace_path = None
    if not args.no_trace:
        trace_path = args.trace if args.trace is not None else DEFAULT_BENCH_TRACE
        trace_path.parent.mkdir(parents=True, exist_ok=True)
        configure_tracing(trace_path)
    try:
        created = time.time()
        run_id = new_run_id(",".join(suites), created, provenance)
        print(f"== bench run {run_id} ==")
        print(
            f"commit {provenance['git_sha'][:12]}"
            + (" (dirty)" if provenance["dirty"] else "")
            + f", python {provenance['python']}, workers {args.workers}, "
            f"repeats {args.repeats} (+{args.warmup_runs} warmup)"
        )
        records = []
        for suite in suites:
            results = run_suite(
                suite,
                repeats=args.repeats,
                warmup=args.warmup_runs,
                workers=args.workers,
            )
            records.extend(
                make_record(result, run_id, created, provenance)
                for result in results
            )
            for result in results:
                print(
                    f"  {result.bench:<28} median {result.median * 1e3:9.3f}ms"
                    f"  min {min(result.samples) * 1e3:9.3f}ms"
                    f"  max {max(result.samples) * 1e3:9.3f}ms"
                )
        total = append_history(history, records)
        print(f"history -> {history} ({total} records)")
    finally:
        if trace_path is not None:
            disable_tracing()
    if trace_path is not None:
        print(f"trace spans -> {trace_path}")
    resources = read_resources()
    if resources["rss_peak_bytes"]:
        print(
            f"peak rss {resources['rss_peak_bytes'] / 1e6:.1f} MB, "
            f"cpu {resources['cpu_user_seconds']:.2f}s user / "
            f"{resources['cpu_system_seconds']:.2f}s system"
        )
    return 0


def _bench_compare_command(args: argparse.Namespace) -> int:
    from repro.obs.bench import load_history, suite_pairs
    from repro.obs.regress import REGRESSED, compare_runs, worst_verdict

    history = _bench_history(args)
    records, skipped = load_history(history)
    if skipped:
        print(f"warning: skipped {skipped} malformed history record(s)")
    if args.suite is not None:
        records = [r for r in records if r["suite"] == args.suite]
    if not records:
        print(
            f"error: no bench records in {history}; "
            "run `repro bench run` first",
            file=sys.stderr,
        )
        return 2
    judged = []
    for pair in suite_pairs(records, args.baseline):
        print(
            f"== bench compare {pair.suite}: run {pair.run_id} "
            f"vs {pair.origin} =="
        )
        comparisons, unmatched = compare_runs(
            pair.baseline, pair.current, tolerance=args.tolerance
        )
        for comparison in comparisons:
            print(f"  {comparison.describe()}")
        for name in unmatched:
            print(f"  {name:<28} (present in only one of the runs)")
        verdict = worst_verdict(comparisons) or "none (nothing in common)"
        print(f"verdict {pair.suite}: {verdict}")
        judged.extend(comparisons)
    overall = worst_verdict(judged)
    if overall is None:
        print("no benchmarks in common with the baseline")
        return 2
    print(f"overall: {overall} (tolerance {args.tolerance * 100:g}%)")
    if overall == REGRESSED and not args.warn_only:
        return 1
    return 0


def _bench_report_command(args: argparse.Namespace) -> int:
    from repro.obs.bench import load_history, suite_pairs
    from repro.obs.regress import compare_runs
    from repro.obs.report import render_bench_report

    history = _bench_history(args)
    records, skipped = load_history(history)
    if args.suite is not None:
        records = [r for r in records if r["suite"] == args.suite]
    comparisons = []
    for pair in suite_pairs(records):
        if pair.baseline_id != pair.run_id:  # a suite with one run has none
            comparisons.extend(compare_runs(
                pair.baseline, pair.current, tolerance=args.tolerance
            )[0])
    out = render_bench_report(
        records, args.out, skipped=skipped, comparisons=comparisons
    )
    print(f"bench report written to {out} ({len(records)} records)")
    return 0


def _serve_command(args: argparse.Namespace) -> int:
    from repro.core.errors import ConfigurationError
    from repro.serve.server import ServeConfig, run_server

    if args.trace is not None:
        args.trace.parent.mkdir(parents=True, exist_ok=True)
        configure_tracing(args.trace)
    engine = _engine(workers=args.workers)
    if args.window <= 0:
        raise ConfigurationError("--window must be positive")
    if args.window_count < 1:
        raise ConfigurationError("--window-count must be >= 1")
    config = ServeConfig(
        host=args.host,
        port=args.port,
        max_active=args.max_active,
        max_queued=args.max_queued,
        max_per_client=args.max_per_client,
        drain_timeout=args.drain_timeout,
        window_seconds=args.window,
        window_count=args.window_count,
        request_log=(
            str(args.log_requests) if args.log_requests is not None else None
        ),
        dashboard=args.dashboard,
    )

    def announce(server) -> None:
        print(
            f"repro serve listening on http://{server.host}:{server.port}",
            flush=True,
        )
        print(
            f"  workers {engine.config.workers}, "
            f"max-active {config.max_active}, "
            f"max-queued {config.max_queued}",
            flush=True,
        )
        if config.dashboard:
            print(
                f"  dashboard http://{server.host}:{server.port}/dashboard",
                flush=True,
            )
        if config.request_log:
            print(f"  request log {config.request_log}", flush=True)

    try:
        run_server(config, engine=engine, announce=announce)
    finally:
        if args.trace is not None:
            disable_tracing()
    print("repro serve: drained, exiting", flush=True)
    return 0


def _bench_command(args: argparse.Namespace) -> int:
    from repro.core.errors import ConfigurationError

    try:
        if args.bench_command == "run":
            return _bench_run_command(args)
        if args.bench_command == "compare":
            return _bench_compare_command(args)
        return _bench_report_command(args)
    except ConfigurationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point."""
    parser = build_parser()
    args = parser.parse_args(argv)

    if args.command == "list":
        for name in available_experiments():
            print(name)
        return 0

    if args.command == "cache":
        return _cache_command(args.action, _engine())

    if args.command == "trace":
        return _trace_command(args)

    if args.command == "bench":
        return _bench_command(args)

    if args.command == "serve":
        return _serve_command(args)

    trace_length, trace_path = _split_trace_arg(args.trace)
    if trace_path is not None:
        # Enable before the engine exists so pool workers (forked during
        # dispatch) inherit the tracer and append to the same file.
        trace_path.parent.mkdir(parents=True, exist_ok=True)
        configure_tracing(trace_path)

    if args.ci_target is not None and args.estimator is None:
        print(
            "error: --ci-target requires --estimator "
            "(adaptive, stratified or is)",
            file=sys.stderr,
        )
        return 2
    if args.estimator in ("stratified", "is") and not (
        args.command == "run" and args.experiment == "estimators"
    ):
        print(
            f"error: the {args.estimator!r} estimator reweights chips and "
            "cannot back scheme-level experiments; run it through "
            "'repro run estimators'",
            file=sys.stderr,
        )
        return 2
    estimator = None
    if args.estimator is not None:
        try:
            estimator = EstimatorSpec(
                kind=args.estimator, ci_target=args.ci_target
            )
        except ConfigurationError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2

    try:
        engine = _engine(workers=args.workers, estimator=estimator)
        settings = _settings_from_args(args, trace_length)
        if args.command == "run":
            result = run_experiment(args.experiment, settings, engine)
            _emit(result, args.out, single=True)
        else:  # `all`
            for name in available_experiments():
                result = run_experiment(name, settings, engine)
                _emit(result, args.out)

        if args.stats:
            print(engine.stats.summary())
            peak = read_resources()["rss_peak_bytes"]
            if peak:
                print(f"peak rss           {peak / 1e6:.1f} MB")
        if trace_path is not None:
            print(f"trace spans written to {trace_path}")
    finally:
        if trace_path is not None:
            disable_tracing()
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
