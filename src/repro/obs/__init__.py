"""Observability: tracing, metrics, benchmarks and perf-trend reports.

Zero-dependency instrumentation threaded through the hot layers — engine
dispatch, the persistent store, pool workers, the pipeline simulator and
every experiment entry point. Tracing is off by default (the disabled
:func:`span` path is a no-op object); enable it with
``repro run ... --trace out.jsonl`` or ``REPRO_TRACE_FILE``. Metrics are
always on: instruments are plain counters touched once per job (and
thread-safe, so serve's pool threads can share the engine's registry
with its event loop), and :class:`~repro.engine.stats.EngineStats` is a
thin view over the engine's registry. :func:`read_resources` reads the
process's RSS, peak RSS and CPU time at the moment a caller reports
them.

On top of those primitives sits the perf-regression layer:
:mod:`repro.obs.bench` (provenance-stamped benchmark harness and the
``BENCH_history.json`` trend store), :mod:`repro.obs.regress`
(bootstrap-CI change detection) and :mod:`repro.obs.report`
(self-contained HTML trend reports and trace flamegraphs), surfaced as
``repro bench run|compare|report`` and ``repro trace flamegraph``.

The live-serving layer adds :mod:`repro.obs.rollup` (rolling-window
SLO aggregation with streaming quantile sketches),
:mod:`repro.obs.promtext` (Prometheus text exposition),
:mod:`repro.obs.reqlog` (JSONL request logs, request ids and the
bounded span ring behind ``GET /debug/traces``) and
:mod:`repro.obs.dashboard` (the self-contained live HTML page at
``GET /dashboard``).

See :mod:`repro.obs.trace`, :mod:`repro.obs.metrics`,
:mod:`repro.obs.summary`, :mod:`repro.obs.provenance`,
:mod:`repro.obs.resources`, :mod:`repro.obs.bench`,
:mod:`repro.obs.regress` and :mod:`repro.obs.report`.
"""

from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    get_metrics,
    reset_metrics,
)
from repro.obs.provenance import (
    config_hash,
    git_revision,
    provenance_stamp,
    working_tree_dirty,
)
from repro.obs.promtext import render_exposition
from repro.obs.regress import (
    IMPROVED,
    NEUTRAL,
    REGRESSED,
    Comparison,
    classify,
    compare_runs,
)
from repro.obs.reqlog import RequestLog, SpanRing, new_request_id
from repro.obs.resources import read_resources
from repro.obs.rollup import QuantileSketch, RequestRollup
from repro.obs.summary import (
    load_spans_counted,
    render_summary,
    summarize_spans,
    summary_text,
)
from repro.obs.trace import (
    Span,
    Tracer,
    configure_tracing,
    disable_tracing,
    span,
    tracing_enabled,
)

__all__ = [
    "Comparison",
    "Counter",
    "Gauge",
    "Histogram",
    "IMPROVED",
    "MetricsRegistry",
    "NEUTRAL",
    "QuantileSketch",
    "REGRESSED",
    "RequestLog",
    "RequestRollup",
    "Span",
    "SpanRing",
    "Tracer",
    "classify",
    "compare_runs",
    "config_hash",
    "configure_tracing",
    "disable_tracing",
    "get_metrics",
    "git_revision",
    "load_spans_counted",
    "new_request_id",
    "provenance_stamp",
    "read_resources",
    "render_exposition",
    "render_summary",
    "reset_metrics",
    "span",
    "summarize_spans",
    "summary_text",
    "tracing_enabled",
    "working_tree_dirty",
]
