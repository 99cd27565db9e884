"""Unit tests for the live-observability layer.

Covers the three new obs modules end to end, without a socket:

* quantile sketches — exact below capacity, bounded rank error above it
  (seeded reservoir, so the assertions are deterministic);
* rolling-window rollups — rotation, in-place recycling, aging-out,
  integrity under many threaded writers, and sketch seeds that are the
  same in every process;
* Prometheus text exposition — a golden-format check plus the strict
  parser rejecting malformed pages;
* request logs, span rings, and the self-contained dashboard page.
"""

from __future__ import annotations

import json
import os
import random
import subprocess
import sys
import threading

import pytest

from repro.obs.dashboard import dashboard_html
from repro.obs.metrics import MetricsRegistry
from exposition import parse_exposition
from repro.obs.promtext import metric_name, render_exposition
from repro.obs.reqlog import RequestLog, SpanRing, new_request_id
from repro.obs.rollup import QuantileSketch, RequestRollup, _quantile_of

SRC = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")


# ----------------------------------------------------------------------
# quantile sketches
# ----------------------------------------------------------------------
def _quantile(sketch: QuantileSketch, q: float) -> float:
    """The sketch's ``q``-quantile, read as the rollup reads it."""
    return _quantile_of(sorted(sketch._samples), q)


def test_sketch_exact_below_capacity():
    rng = random.Random(7)
    values = [rng.gauss(10.0, 3.0) for _ in range(300)]
    sketch = QuantileSketch(capacity=512, seed=1)
    for value in values:
        sketch.observe(value)
    ordered = sorted(values)
    for q in (0.0, 0.25, 0.5, 0.95, 0.99, 1.0):
        assert _quantile(sketch, q) == _quantile_of(ordered, q)
    assert sketch.count == 300
    assert sketch.min == min(values)
    assert sketch.max == max(values)
    assert sketch.total == pytest.approx(sum(values))


def test_sketch_accuracy_bounds_above_capacity():
    # Uniform[0,1): the true q-quantile IS q, so rank error is readable
    # directly off the estimate. With capacity 512 the standard error of
    # a quantile is ~sqrt(q(1-q)/512) <= 0.023; 0.1 is > 4 sigma.
    rng = random.Random(2006)
    sketch = QuantileSketch(capacity=512, seed=9)
    for _ in range(20000):
        sketch.observe(rng.random())
    for q in (0.5, 0.95, 0.99):
        estimate = _quantile(sketch, q)
        assert abs(estimate - q) < 0.1, (q, estimate)
    assert sketch.count == 20000
    assert len(sketch._samples) == 512


def test_sketch_is_deterministic_and_resets():
    def run():
        sketch = QuantileSketch(capacity=64, seed=5)
        for i in range(1000):
            sketch.observe((i * 37) % 101)
        return list(sketch._samples)

    assert run() == run()
    sketch = QuantileSketch(capacity=64, seed=5)
    sketch.observe(1.0)
    sketch.reset()
    assert sketch.count == 0
    assert _quantile(sketch, 0.5) == 0.0


def test_quantile_of_edge_cases():
    assert _quantile_of([], 0.5) == 0.0
    assert _quantile_of([3.0], 0.99) == 3.0
    assert _quantile_of([1.0, 2.0], 0.5) == 1.5
    with pytest.raises(ValueError):
        _quantile_of([1.0], 1.5)
    with pytest.raises(ValueError):
        QuantileSketch(capacity=0)


# ----------------------------------------------------------------------
# rolling windows
# ----------------------------------------------------------------------
def test_rollup_aggregates_within_span():
    rollup = RequestRollup(window_seconds=10.0, windows=3)
    rollup.record("/a", 200, 0.010, warm=True, now=100.0)
    rollup.record("/a", 200, 0.030, now=105.0)
    rollup.record("/a", 500, 0.200, now=112.0)
    rollup.record("/b", 429, 0.001, coalesced=True, now=119.0)
    snap = rollup.snapshot(now=119.0)
    a = snap["endpoints"]["/a"]
    assert a["count"] == 3
    assert a["statuses"] == {"2xx": 2, "5xx": 1}
    assert a["error_rate"] == pytest.approx(1 / 3)
    assert a["dispositions"]["warm"] == 1
    assert a["dispositions"]["cold"] == 2
    assert a["max"] == pytest.approx(0.200)
    b = snap["endpoints"]["/b"]
    assert b["statuses"] == {"4xx": 1}
    assert b["dispositions"]["coalesced"] == 1
    total = snap["total"]
    assert total["count"] == 4
    assert total["rate"] == pytest.approx(4 / 30.0)
    assert snap["recorded_total"] == 4


def test_rollup_ages_out_old_windows():
    rollup = RequestRollup(window_seconds=1.0, windows=2)
    rollup.record("/x", 200, 0.01, now=0.5)
    assert rollup.snapshot(now=0.9)["total"]["count"] == 1
    # Two windows later the old record is outside the covered span.
    snap = rollup.snapshot(now=2.5)
    assert snap["endpoints"] == {}
    assert snap["total"]["count"] == 0
    # Lifetime accounting survives rotation.
    assert rollup.recorded() == 1
    # The recycled slot starts clean when traffic returns.
    rollup.record("/x", 200, 0.02, now=2.6)
    fresh = rollup.snapshot(now=2.7)["endpoints"]["/x"]
    assert fresh["count"] == 1
    assert fresh["max"] == pytest.approx(0.02)


def test_rollup_threaded_writers_keep_integrity():
    rollup = RequestRollup(window_seconds=0.5, windows=4, sketch_capacity=64)
    threads, per_thread = 8, 2000
    base = 1000.0

    def writer(index: int) -> None:
        # Each writer walks its own deterministic clock through several
        # rotations while recording. The 1.5 s sweep fits inside the
        # ring's 2.0 s span, so nothing ages out before the final check.
        for i in range(per_thread):
            now = base + (i / per_thread) * 1.5
            rollup.record(
                f"/ep{index % 2}", 200 if i % 10 else 500, 0.001 * (i % 7),
                warm=bool(i % 2), now=now,
            )

    workers = [
        threading.Thread(target=writer, args=(i,)) for i in range(threads)
    ]
    snapshots = []

    def reader() -> None:
        for _ in range(200):
            snapshots.append(rollup.snapshot(now=base + 1.5))

    observer = threading.Thread(target=reader)
    for worker in workers:
        worker.start()
    observer.start()
    for worker in workers:
        worker.join(timeout=30)
    observer.join(timeout=30)

    assert rollup.recorded() == threads * per_thread
    # Every record landed in a window the final snapshot still covers
    # (the sweep spans windows 2000..2002; the snapshot covers
    # 2000..2003, and late records only ever fold *forward*), so the
    # rolling view conserves the full write count.
    final = rollup.snapshot(now=base + 1.5)
    assert final["total"]["count"] == threads * per_thread
    # Every concurrent snapshot was internally consistent.
    for snap in snapshots:
        total = sum(s["count"] for s in snap["endpoints"].values())
        assert total == snap["total"]["count"]


#: Reads one 64-sample window's quantiles after 5000 records.
_ROLLUP_QUANTILES = """
import random
from repro.obs.rollup import RequestRollup

rollup = RequestRollup(window_seconds=10.0, windows=1, sketch_capacity=64)
rng = random.Random(5)
for _ in range(5000):
    rollup.record("/v1/population", 200, rng.random() * 5.0, now=1.0)
snapshot = rollup.snapshot(now=1.0)
print(snapshot["endpoints"]["/v1/population"]["quantiles"])
"""


def test_rollup_sketches_are_seeded_alike_in_every_process():
    """A rerun of the same traffic reads the same quantiles, whatever
    salt ``PYTHONHASHSEED`` gives the interpreter's string hashes."""
    readings = set()
    for hashseed in ("1", "2", "3"):
        env = dict(os.environ, PYTHONHASHSEED=hashseed, PYTHONPATH=SRC)
        done = subprocess.run(
            [sys.executable, "-c", _ROLLUP_QUANTILES],
            env=env, capture_output=True, text=True, check=True,
        )
        readings.add(done.stdout)
    assert len(readings) == 1, readings


def test_rollup_validates_configuration():
    with pytest.raises(ValueError):
        RequestRollup(window_seconds=0.0)
    with pytest.raises(ValueError):
        RequestRollup(windows=0)


# ----------------------------------------------------------------------
# Prometheus exposition
# ----------------------------------------------------------------------
def _sample_registry() -> MetricsRegistry:
    registry = MetricsRegistry()
    registry.counter("serve.requests").inc(7)
    registry.gauge("serve.active").set(2)
    hist = registry.histogram("serve.request_seconds", bounds=(0.01, 0.1, 1.0))
    for value in (0.005, 0.05, 0.05, 0.5, 2.0):
        hist.observe(value)
    return registry


def test_exposition_golden_format():
    registry = _sample_registry()
    # Scrape-time values are plain registry gauges (serve writes them
    # just before it snapshots the registry).
    registry.gauge("serve.uptime_seconds").set(12.5)
    rollup = RequestRollup(window_seconds=10.0, windows=3)
    rollup.record("/v1/population", 200, 0.02, warm=True, now=50.0)
    rollup.record("/v1/population", 503, 0.001, now=55.0)
    text = render_exposition(
        registry.snapshot(), rollup=rollup.snapshot(now=55.0)
    )
    lines = text.splitlines()
    assert "# TYPE repro_serve_requests_total counter" in lines
    assert "repro_serve_requests_total 7" in lines
    assert "# TYPE repro_serve_active gauge" in lines
    assert "repro_serve_active 2" in lines
    assert "# TYPE repro_serve_request_seconds histogram" in lines
    assert 'repro_serve_request_seconds_bucket{le="0.01"} 1' in lines
    assert 'repro_serve_request_seconds_bucket{le="1"} 4' in lines
    assert 'repro_serve_request_seconds_bucket{le="+Inf"} 5' in lines
    assert "repro_serve_request_seconds_count 5" in lines
    assert "# TYPE repro_serve_latency_seconds summary" in lines
    assert any(
        line.startswith(
            'repro_serve_latency_seconds{endpoint="/v1/population",'
            'quantile="0.95"} '
        )
        for line in lines
    )
    assert 'repro_serve_window_responses{endpoint="/v1/population",class="5xx"} 1' in lines
    assert "# TYPE repro_serve_uptime_seconds gauge" in lines
    assert "repro_serve_uptime_seconds 12.5" in lines
    assert text.endswith("\n")


def test_exposition_round_trips_through_strict_parser():
    registry = _sample_registry()
    rollup = RequestRollup(window_seconds=5.0, windows=2)
    # A hostile endpoint label must escape and round-trip cleanly.
    nasty = '/we"ird\\path'
    rollup.record(nasty, 200, 0.01, now=10.0)
    text = render_exposition(
        registry.snapshot(), rollup=rollup.snapshot(now=10.0)
    )
    families = parse_exposition(text)
    assert families["repro_serve_requests_total"]["type"] == "counter"
    assert families["repro_serve_requests_total"]["samples"][0][2] == 7.0
    hist = families["repro_serve_request_seconds"]
    buckets = [
        (labels["le"], value)
        for name, labels, value in hist["samples"]
        if name.endswith("_bucket")
    ]
    assert buckets[-1] == ("+Inf", 5.0)
    labels = [
        labels
        for _, labels, _ in families["repro_serve_window_requests"]["samples"]
    ]
    assert {"endpoint": nasty} in labels


@pytest.mark.parametrize(
    "page",
    [
        "repro_orphan 1\n",  # sample without a TYPE header
        "# TYPE repro_x gauge\nrepro_x notanumber\n",
        "# TYPE repro_x gauge\n# TYPE repro_x gauge\nrepro_x 1\n",
        "# TYPE repro_x gauge\nrepro_x 1\nrepro_x 1\n",  # duplicate sample
        "# TYPE repro_x wibble\nrepro_x 1\n",  # unknown type
        "# TYPE repro_x gauge\nrepro_x{bad-label=\"y\"} 1\n",
        "!!! not exposition at all\n",
    ],
)
def test_parser_rejects_malformed_pages(page):
    with pytest.raises(ValueError):
        parse_exposition(page)


def test_parser_rejects_non_cumulative_histogram():
    page = (
        "# TYPE repro_h histogram\n"
        'repro_h_bucket{le="0.1"} 5\n'
        'repro_h_bucket{le="+Inf"} 3\n'
        "repro_h_sum 1\n"
        "repro_h_count 3\n"
    )
    with pytest.raises(ValueError):
        parse_exposition(page)


def test_metric_name_sanitization():
    assert metric_name("serve.request_seconds") == "repro_serve_request_seconds"
    assert metric_name("weird name!") == "repro_weird_name_"
    assert metric_name("engine.inflight", prefix="") == "engine_inflight"


# ----------------------------------------------------------------------
# request log + span ring
# ----------------------------------------------------------------------
def test_request_log_appends_jsonl(tmp_path):
    path = tmp_path / "logs" / "requests.jsonl"
    log = RequestLog(str(path))
    log.record({"request_id": "a" * 16, "status": 200})
    log.record({"request_id": "b" * 16, "status": 503})
    log.close()
    lines = path.read_text(encoding="utf-8").splitlines()
    assert len(lines) == 2
    assert json.loads(lines[0])["request_id"] == "a" * 16
    assert log.stats()["written"] == 2
    assert log.stats()["dropped"] == 0


def test_request_log_failure_never_raises(tmp_path):
    target = tmp_path / "blocked"
    target.write_text("a file, not a directory")
    log = RequestLog(str(target / "requests.jsonl"))
    log.record({"status": 200})  # must not raise
    stats = log.stats()
    assert stats["failed"] is True
    assert stats["dropped"] == 1
    log.record({"status": 200})
    assert log.stats()["dropped"] == 2
    log.close()


def test_span_ring_bounds_and_accounting():
    ring = SpanRing(capacity=3)
    for i in range(5):
        ring.append({"request_id": f"r{i}"})
    snap = ring.snapshot()
    assert snap["capacity"] == 3
    assert snap["appended"] == 5
    assert snap["retained"] == 3
    assert snap["dropped"] == 2
    assert [s["request_id"] for s in snap["spans"]] == ["r2", "r3", "r4"]
    limited = ring.snapshot(limit=1)
    assert [s["request_id"] for s in limited["spans"]] == ["r4"]
    assert limited["dropped"] == 2
    with pytest.raises(ValueError):
        SpanRing(capacity=0)


def test_request_ids_are_unique_hex():
    ids = {new_request_id() for _ in range(256)}
    assert len(ids) == 256
    assert all(len(i) == 16 and int(i, 16) >= 0 for i in ids)


# ----------------------------------------------------------------------
# dashboard
# ----------------------------------------------------------------------
def test_dashboard_is_self_contained():
    snapshot = {
        "rollup": {
            "total": {
                "count": 12, "rate": 1.2, "error_rate": 0.25,
                "quantiles": {"0.5": 0.01, "0.95": 0.02, "0.99": 0.03},
            },
            "endpoints": {
                "/v1/population": {
                    "count": 12, "rate": 1.2, "error_rate": 0.25,
                    "quantiles": {"0.5": 0.01, "0.95": 0.02, "0.99": 0.03},
                },
            },
        },
        "engine": {
            "gauges": {"serve.active": 2, "yield.estimate.regular.base": 0.9,
                       "yield.ci_halfwidth.regular.base": 0.04,
                       "yield.samples.regular.base": 64,
                       "proc.rss_bytes": 50 << 20,
                       "serve.uptime_seconds": 42.0},
            "counters": {"serve.admit.accepted": 5},
        },
    }
    page = dashboard_html(snapshot, refresh_seconds=1.0)
    # Zero network references: no absolute URLs, no external resources.
    assert "http://" not in page and "https://" not in page
    assert "src=" not in page and "<link" not in page
    assert page.count("<script>") == page.count("</script>") == 2
    for anchor in ("spark-rate", "spark-p95", "ep-rows", "yield-rows",
                   "q-active", "lat-p95"):
        assert f'id="{anchor}"' in page
    assert "/v1/population" in page
    assert "12</td>" in page  # initial server-side endpoint row
    assert '<b id="proc-rss">50.0 MiB</b>' in page  # from the engine gauges
    assert '<b id="uptime">42 s</b>' in page
    assert "REPRO_REFRESH_MS = 1000" in page
