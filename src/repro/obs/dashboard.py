"""The in-process live dashboard served at ``GET /dashboard``.

One self-contained HTML page — inline CSS, inline JavaScript, inline
SVG, **zero network references** (same contract as the bench reports in
:mod:`repro.obs.report`, whose document shell and sparkline idiom this
reuses). The page renders an initial server-side snapshot, then a small
inline script polls ``GET /metrics`` with ``Accept: application/json``
and redraws:

* per-endpoint windowed latency quantiles (p50/p95/p99), rates and
  error rates from the rollup;
* live sparklines (request rate, total p95) accumulated client-side;
* queue pressure (active/queued gauges, admission accept/reject
  counters), coalescing and batching effectiveness;
* yield-estimator quality gauges (``yield.estimate.*`` /
  ``yield.ci_halfwidth.*`` / ``yield.samples.*``) with CI bars;
* process RSS/CPU, the ``proc.*`` gauges serve writes into its engine
  registry whenever it renders a snapshot.

Everything dynamic lives in the script; the Python side only provides
the skeleton and the first snapshot, so the page keeps working (static)
even with JavaScript disabled.
"""

from __future__ import annotations

import html
import json
from typing import Dict, Optional

from repro.obs.report import html_document, sparkline_svg

__all__ = ["dashboard_html"]

_DASH_STYLE = """
.panels { display: flex; flex-wrap: wrap; gap: 1em; }
.panel { border: 1px solid #bbb; padding: 0.6em 0.9em; min-width: 240px;
         background: #fff; }
.panel h2 { margin: 0 0 0.4em 0; font-size: 1.0em; }
.big { font-size: 1.5em; font-weight: bold; }
.cibar { display: inline-block; height: 0.7em; background: #117733; }
.cierr { display: inline-block; height: 0.7em; background: #cc3311; }
.stale { color: #cc3311; font-weight: bold; }
"""

# The poller: fetch /metrics as JSON, update text nodes by id, append to
# bounded history arrays and redraw the two sparkline polylines.
_DASH_SCRIPT = """
(function () {
  "use strict";
  var HIST = 60, rates = [], p95s = [];
  function fmt(x, digits) {
    if (x === undefined || x === null || isNaN(x)) return "-";
    return Number(x).toFixed(digits === undefined ? 2 : digits);
  }
  function ms(x) { return x === undefined ? "-" : fmt(x * 1000, 2) + " ms"; }
  function text(id, value) {
    var node = document.getElementById(id);
    if (node) node.textContent = value;
  }
  function spark(id, values) {
    var svg = document.getElementById(id);
    if (!svg || values.length < 2) return;
    var w = svg.width.baseVal.value, h = svg.height.baseVal.value, pad = 3;
    var lo = Math.min.apply(null, values), hi = Math.max.apply(null, values);
    var span = (hi - lo) || 1, step = (w - 2 * pad) / (values.length - 1);
    var pts = values.map(function (v, i) {
      return (pad + i * step).toFixed(1) + "," +
             (h - pad - (v - lo) / span * (h - 2 * pad)).toFixed(1);
    }).join(" ");
    svg.innerHTML = '<polyline points="' + pts +
      '" fill="none" stroke="#4477aa" stroke-width="1.5"/>';
  }
  function counter(counters, name) { return counters[name] || 0; }
  function rows(tableId, rowsHtml) {
    var body = document.getElementById(tableId);
    if (body) body.innerHTML = rowsHtml;
  }
  function esc(s) {
    return String(s).replace(/&/g, "&amp;").replace(/</g, "&lt;");
  }
  function render(data) {
    var rollup = data.rollup || {}, total = rollup.total || {};
    var eng = data.engine || {}, proc = data.process || {};
    var gauges = eng.gauges || {}, counters = eng.counters || {};
    var pg = proc.gauges || {};
    var q = total.quantiles || {};
    text("win-count", fmt(total.count, 0));
    text("win-rate", fmt(total.rate, 2) + "/s");
    text("win-err", fmt((total.error_rate || 0) * 100, 1) + "%");
    text("lat-p50", ms(q["0.5"]));
    text("lat-p95", ms(q["0.95"]));
    text("lat-p99", ms(q["0.99"]));
    rates.push(total.rate || 0); if (rates.length > HIST) rates.shift();
    p95s.push((q["0.95"] || 0) * 1000); if (p95s.length > HIST) p95s.shift();
    spark("spark-rate", rates);
    spark("spark-p95", p95s);
    text("q-active", fmt(gauges["serve.active"], 0));
    text("q-queued", fmt(gauges["serve.queued"], 0));
    text("q-inflight", fmt(gauges["serve.flights"], 0));
    text("q-batchpend", fmt(gauges["serve.batch.pending"], 0));
    text("q-fill", fmt(counter(counters, "serve.batch.jobs") /
                       (counter(counters, "serve.batch.dispatches") || 1), 2));
    text("adm-ok", fmt(counter(counters, "serve.admit.accepted"), 0));
    text("adm-429", fmt(counter(counters, "serve.admit.rejected_429"), 0));
    text("adm-503", fmt(counter(counters, "serve.admit.rejected_503"), 0));
    text("co-leader", fmt(counter(counters, "serve.coalesce.leader"), 0));
    text("co-joined", fmt(counter(counters, "serve.coalesce.joined"), 0));
    text("proc-rss", fmt(gauges["proc.rss_bytes"] / 1048576, 1) + " MiB");
    text("proc-cpu", fmt(gauges["proc.cpu_user_seconds"] +
                         gauges["proc.cpu_system_seconds"], 1) + " s");
    var eps = rollup.endpoints || {}, body = "";
    Object.keys(eps).sort().forEach(function (ep) {
      var s = eps[ep], sq = s.quantiles || {};
      body += "<tr><td>" + esc(ep) + "</td><td>" + fmt(s.count, 0) +
        "</td><td>" + fmt(s.rate, 2) + "</td><td>" + ms(sq["0.5"]) +
        "</td><td>" + ms(sq["0.95"]) + "</td><td>" + ms(sq["0.99"]) +
        "</td><td>" + fmt((s.error_rate || 0) * 100, 1) + "%</td></tr>";
    });
    rows("ep-rows", body);
    var allGauges = {};
    [pg, gauges].forEach(function (src) {
      Object.keys(src).forEach(function (k) { allGauges[k] = src[k]; });
    });
    var ybody = "", names = Object.keys(allGauges).filter(function (n) {
      return n.indexOf("yield.estimate.") === 0;
    }).sort();
    names.forEach(function (n) {
      var key = n.slice("yield.estimate.".length);
      var est = allGauges[n];
      var half = allGauges["yield.ci_halfwidth." + key];
      var samples = allGauges["yield.samples." + key];
      var bar = Math.round(Math.max(0, Math.min(1, est)) * 160);
      var err = Math.round(Math.max(0, Math.min(1, half || 0)) * 160);
      ybody += "<tr><td>" + esc(key) + "</td><td>" + fmt(est * 100, 2) +
        "%</td><td>&plusmn;" + fmt((half || 0) * 100, 2) + "%</td><td>" +
        fmt(samples, 0) + '</td><td><span class="cibar" style="width:' +
        bar + 'px"></span><span class="cierr" style="width:' + err +
        'px"></span></td></tr>';
    });
    rows("yield-rows", ybody);
    var server = data.server || {};
    text("uptime", fmt(server.uptime_seconds, 0) + " s");
    text("updated", new Date().toLocaleTimeString());
    var status = document.getElementById("status");
    if (status) { status.textContent = "live"; status.className = ""; }
  }
  function poll() {
    fetch("/metrics", { headers: { "Accept": "application/json" } })
      .then(function (r) { return r.json(); })
      .then(render)
      .catch(function () {
        var status = document.getElementById("status");
        if (status) { status.textContent = "stale"; status.className = "stale"; }
      });
  }
  function start() {
    poll();
    setInterval(poll, window.REPRO_REFRESH_MS || 2000);
  }
  if (document.readyState === "loading") {
    document.addEventListener("DOMContentLoaded", start);
  } else {
    start();
  }
})();
"""


def _panel(title: str, body: str) -> str:
    return (
        f'<div class="panel"><h2>{html.escape(title)}</h2>{body}</div>'
    )


def dashboard_html(
    snapshot: Optional[Dict[str, object]] = None,
    refresh_seconds: float = 2.0,
) -> str:
    """Render the dashboard page around an initial metrics ``snapshot``."""
    snapshot = snapshot or {}
    rollup = snapshot.get("rollup") or {}
    total = rollup.get("total") or {}
    quantiles = total.get("quantiles") or {}
    engine = snapshot.get("engine") or {}
    gauges = engine.get("gauges") or {}
    counters = engine.get("counters") or {}
    server = snapshot.get("server") or {}

    def g(name: str, default: float = 0.0) -> float:
        try:
            return float(gauges.get(name, default))
        except (TypeError, ValueError):
            return default

    def c(name: str) -> int:
        try:
            return int(counters.get(name, 0))
        except (TypeError, ValueError):
            return 0

    def q(key: str) -> str:
        value = quantiles.get(key)
        return f"{float(value) * 1e3:.2f} ms" if value is not None else "-"

    # Server-rendered first frame of each sparkline (reusing the bench
    # report's machinery); the poller redraws the polyline in place.
    rate_spark = sparkline_svg([float(total.get("rate", 0.0))]).replace(
        "<svg ", '<svg id="spark-rate" ', 1
    )
    p95_spark = sparkline_svg(
        [float(quantiles.get("0.95", 0.0) or 0.0) * 1e3]
    ).replace("<svg ", '<svg id="spark-p95" ', 1)
    # Jobs per dispatch: how many cold simulations shared each one.
    batch_fill = c("serve.batch.jobs") / max(1, c("serve.batch.dispatches"))
    panels = [
        _panel(
            "Requests (window)",
            f'<div><span class="big" id="win-count">'
            f'{int(total.get("count", 0))}</span> requests · '
            f'<span id="win-rate">{float(total.get("rate", 0.0)):.2f}/s'
            "</span> · errors "
            f'<span id="win-err">'
            f'{float(total.get("error_rate", 0.0)) * 100:.1f}%</span></div>'
            f"<div>rate {rate_spark}</div>",
        ),
        _panel(
            "Latency (window)",
            f'<div>p50 <b id="lat-p50">{q("0.5")}</b> · '
            f'p95 <b id="lat-p95">{q("0.95")}</b> · '
            f'p99 <b id="lat-p99">{q("0.99")}</b></div>'
            f"<div>p95 {p95_spark}</div>",
        ),
        _panel(
            "Queues &amp; batching",
            f'<div>active <b id="q-active">{g("serve.active"):.0f}</b> · '
            f'queued <b id="q-queued">{g("serve.queued"):.0f}</b> · '
            f'in-flight <b id="q-inflight">{g("serve.flights"):.0f}</b>'
            "</div>"
            f'<div>batch pending <b id="q-batchpend">'
            f'{g("serve.batch.pending"):.0f}</b> · fill '
            f'<b id="q-fill">{batch_fill:.2f}</b></div>'
            f'<div>admitted <b id="adm-ok">{c("serve.admit.accepted")}</b> · '
            f'429 <b id="adm-429">{c("serve.admit.rejected_429")}</b> · '
            f'503 <b id="adm-503">{c("serve.admit.rejected_503")}</b></div>',
        ),
        _panel(
            "Coalescing",
            f'<div>leaders <b id="co-leader">{c("serve.coalesce.leader")}'
            "</b> · joined "
            f'<b id="co-joined">{c("serve.coalesce.joined")}</b></div>',
        ),
        _panel(
            "Process",
            f'<div>RSS <b id="proc-rss">'
            f'{g("proc.rss_bytes") / 1048576:.1f} MiB</b> · '
            f'CPU <b id="proc-cpu">'
            f'{g("proc.cpu_user_seconds") + g("proc.cpu_system_seconds"):.1f}'
            " s</b></div>"
            f'<div>uptime <b id="uptime">'
            f'{float(server.get("uptime_seconds", 0.0)):.0f} s</b></div>',
        ),
    ]

    endpoints = rollup.get("endpoints") or {}
    endpoint_rows = "".join(
        f"<tr><td>{html.escape(ep)}</td>"
        f'<td>{int(s.get("count", 0))}</td>'
        f'<td>{float(s.get("rate", 0.0)):.2f}</td>'
        f'<td>{float((s.get("quantiles") or {}).get("0.5", 0.0)) * 1e3:.2f} ms</td>'
        f'<td>{float((s.get("quantiles") or {}).get("0.95", 0.0)) * 1e3:.2f} ms</td>'
        f'<td>{float((s.get("quantiles") or {}).get("0.99", 0.0)) * 1e3:.2f} ms</td>'
        f'<td>{float(s.get("error_rate", 0.0)) * 100:.1f}%</td></tr>'
        for ep, s in sorted(endpoints.items())
    )
    tables = (
        "<h2>Endpoints (rolling window)</h2>\n"
        "<table><thead><tr><th>endpoint</th><th>requests</th><th>rate/s</th>"
        "<th>p50</th><th>p95</th><th>p99</th><th>errors</th></tr></thead>"
        f'<tbody id="ep-rows">{endpoint_rows}</tbody></table>\n'
        "<h2>Yield estimator quality</h2>\n"
        "<table><thead><tr><th>scheme</th><th>yield</th><th>95% CI</th>"
        "<th>samples</th><th>estimate &amp; half-width</th></tr></thead>"
        '<tbody id="yield-rows"></tbody></table>'
    )

    body = (
        f'<p>status <b id="status">initial snapshot</b> · last update '
        f'<span id="updated">server render</span></p>\n'
        f'<div class="panels">{"".join(panels)}</div>\n{tables}'
    )
    refresh_ms = max(250, int(refresh_seconds * 1000))
    head_extra = (
        f"<style>{_DASH_STYLE}</style>\n"
        f"<script>window.REPRO_REFRESH_MS = {json.dumps(refresh_ms)};"
        "</script>\n"
        f"<script>{_DASH_SCRIPT}</script>\n"
    )
    return html_document("repro serve — live dashboard", body, head_extra)
