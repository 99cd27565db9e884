"""Prometheus text exposition (format 0.0.4) over the metrics substrate.

Renders a :class:`~repro.obs.metrics.MetricsRegistry` snapshot — plus
the serve layer's :class:`~repro.obs.rollup.RequestRollup` windowed
summaries — as the plain-text format every Prometheus-compatible scraper
understands, with no third-party client library:

* counters become ``repro_<name>_total`` with a ``# TYPE ... counter``
  header;
* gauges become ``repro_<name>``;
* histograms become the full ``_bucket``/``_sum``/``_count`` family with
  **cumulative** ``le`` buckets ending in ``+Inf`` (the registry stores
  per-bucket counts, so the cumulation happens here);
* rollup summaries become ``repro_serve_latency_seconds`` with
  ``{endpoint,quantile}`` labels plus windowed request/rate/status
  gauges.

``tests/exposition.py`` holds the strict parser the tests and the CI
smoke job check this output with.
"""

from __future__ import annotations

import math
import re
from typing import Dict, List, Optional, Sequence, Tuple

__all__ = [
    "metric_name",
    "render_exposition",
    "CONTENT_TYPE",
]

#: The content type Prometheus scrapers expect from /metrics.
CONTENT_TYPE = "text/plain; version=0.0.4; charset=utf-8"

#: Everything outside this set collapses to '_' in a metric name.
_NAME_OK = re.compile(r"[^a-zA-Z0-9_:]")


def metric_name(name: str, prefix: str = "repro") -> str:
    """Sanitize a dotted registry name into an exposition name."""
    flat = _NAME_OK.sub("_", name.replace(".", "_"))
    if prefix:
        flat = f"{prefix}_{flat}"
    if flat[0].isdigit():
        flat = "_" + flat
    return flat


def _escape_label(value: str) -> str:
    return (
        str(value)
        .replace("\\", "\\\\")
        .replace('"', '\\"')
        .replace("\n", "\\n")
    )


def _fmt(value: float) -> str:
    value = float(value)
    if math.isinf(value):
        return "+Inf" if value > 0 else "-Inf"
    if math.isnan(value):
        return "NaN"
    if value == int(value) and abs(value) < 1e15:
        return str(int(value))
    return repr(value)


def _labels(pairs: Dict[str, object]) -> str:
    if not pairs:
        return ""
    inner = ",".join(
        f'{key}="{_escape_label(value)}"' for key, value in pairs.items()
    )
    return "{" + inner + "}"


class _Writer:
    """Accumulates families; guards against duplicate sample names."""

    def __init__(self) -> None:
        self.lines: List[str] = []
        self._seen_families: set = set()

    def family(
        self, name: str, kind: str, help_text: str,
        samples: Sequence[Tuple[str, Dict[str, object], float]],
    ) -> None:
        """Emit one metric family: HELP/TYPE then its samples.

        ``samples`` entries are ``(suffix, labels, value)``; the suffix
        ("_bucket", "_sum", ...) is empty for plain counters/gauges.
        """
        if name in self._seen_families:
            return  # first writer wins (engine registry over process)
        self._seen_families.add(name)
        self.lines.append(f"# HELP {name} {help_text}")
        self.lines.append(f"# TYPE {name} {kind}")
        for suffix, labels, value in samples:
            self.lines.append(
                f"{name}{suffix}{_labels(labels)} {_fmt(value)}"
            )

    def text(self) -> str:
        return "\n".join(self.lines) + "\n"


def _render_registry_snapshot(
    writer: _Writer, snapshot: Dict[str, object], source: str
) -> None:
    for name, value in snapshot.get("counters", {}).items():
        flat = metric_name(name)
        if not flat.endswith("_total"):
            flat += "_total"
        writer.family(
            flat, "counter", f"{name} ({source} registry counter)",
            [("", {}, float(value))],
        )
    for name, value in snapshot.get("gauges", {}).items():
        writer.family(
            metric_name(name), "gauge", f"{name} ({source} registry gauge)",
            [("", {}, float(value))],
        )
    for name, hist in snapshot.get("histograms", {}).items():
        flat = metric_name(name)
        samples: List[Tuple[str, Dict[str, object], float]] = []
        cumulative = 0
        for bound_key, count in hist.get("buckets", {}).items():
            cumulative += int(count)
            # snapshot keys look like "le_0.05"
            bound = bound_key.split("_", 1)[1]
            samples.append(("_bucket", {"le": bound}, float(cumulative)))
        samples.append(("_bucket", {"le": "+Inf"}, float(hist["count"])))
        samples.append(("_sum", {}, float(hist["sum"])))
        samples.append(("_count", {}, float(hist["count"])))
        writer.family(
            flat, "histogram", f"{name} ({source} registry histogram)",
            samples,
        )


def _render_rollup(writer: _Writer, rollup: Dict[str, object]) -> None:
    endpoints: Dict[str, Dict[str, object]] = dict(
        rollup.get("endpoints", {})
    )
    span = float(rollup.get("span_seconds", 0.0))
    latency: List[Tuple[str, Dict[str, object], float]] = []
    requests: List[Tuple[str, Dict[str, object], float]] = []
    rates: List[Tuple[str, Dict[str, object], float]] = []
    statuses: List[Tuple[str, Dict[str, object], float]] = []
    dispositions: List[Tuple[str, Dict[str, object], float]] = []
    errors: List[Tuple[str, Dict[str, object], float]] = []
    for endpoint, summary in endpoints.items():
        base = {"endpoint": endpoint}
        for q, value in summary.get("quantiles", {}).items():
            latency.append(
                ("", {"endpoint": endpoint, "quantile": q}, float(value))
            )
        latency.append(
            ("_sum", dict(base),
             float(summary["mean"]) * float(summary["count"]))
        )
        latency.append(("_count", dict(base), float(summary["count"])))
        requests.append(("", dict(base), float(summary["count"])))
        rates.append(("", dict(base), float(summary["rate"])))
        errors.append(("", dict(base), float(summary["error_rate"])))
        for status, count in summary.get("statuses", {}).items():
            statuses.append(
                ("", {"endpoint": endpoint, "class": status}, float(count))
            )
        for flag, count in summary.get("dispositions", {}).items():
            dispositions.append(
                ("", {"endpoint": endpoint, "kind": flag}, float(count))
            )
    writer.family(
        "repro_serve_latency_seconds", "summary",
        f"request latency quantiles over the last {span:g}s window",
        latency,
    )
    writer.family(
        "repro_serve_window_requests", "gauge",
        f"requests finished in the last {span:g}s, per endpoint", requests,
    )
    writer.family(
        "repro_serve_window_rate", "gauge",
        "windowed request rate per second, per endpoint", rates,
    )
    writer.family(
        "repro_serve_window_error_rate", "gauge",
        "windowed 4xx+5xx share of responses, per endpoint", errors,
    )
    writer.family(
        "repro_serve_window_responses", "gauge",
        "windowed responses per status class, per endpoint", statuses,
    )
    writer.family(
        "repro_serve_window_disposition", "gauge",
        "windowed warm/cold/coalesced/batched request counts", dispositions,
    )


def render_exposition(
    registry_snapshots: Sequence[Tuple[str, Dict[str, object]]],
    rollup: Optional[Dict[str, object]] = None,
) -> str:
    """Render the whole exposition page.

    ``registry_snapshots`` is an ordered list of ``(source_label,
    registry.snapshot())`` pairs; when two registries carry the same
    instrument name (serve's engine registry and the process-wide one
    can both hold ``yield.*`` gauges) the **first** one wins, keeping
    the page free of duplicate samples.
    """
    writer = _Writer()
    if rollup is not None:
        _render_rollup(writer, rollup)
    for source, snapshot in registry_snapshots:
        _render_registry_snapshot(writer, snapshot, source)
    return writer.text()
