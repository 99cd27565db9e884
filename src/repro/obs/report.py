"""Self-contained HTML reports: bench trends and trace flamegraphs.

Both renderers emit one HTML file with **zero network references** — no
external scripts, stylesheets, fonts or images (not even an ``xmlns``
URL: inline SVG in HTML needs none). A report must stay readable years
later, attached to a CI run, on a machine with no network.

* :func:`render_bench_report` — per-benchmark trend sparklines (inline
  SVG polylines over the run history's medians), the latest medians, and
  the provenance of the newest record; optionally a verdict table from
  :mod:`repro.obs.regress`.
* :func:`render_flamegraph` — a collapsible flamegraph over JSONL trace
  spans. Sibling spans with the same name merge (durations sum, counts
  shown), which is what makes a 10k-span worker trace readable. Nodes
  are nested ``<details>`` elements — collapsing works with no
  JavaScript at all.
"""

from __future__ import annotations

import html
import pathlib
from typing import Dict, List, Optional, Sequence, Tuple

from repro.obs.regress import Comparison

__all__ = [
    "build_flame_tree",
    "flamegraph_html",
    "bench_report_html",
    "render_bench_report",
    "render_flamegraph",
    "sparkline_svg",
    "html_document",
]

_STYLE = """
body { font-family: monospace; margin: 1.5em; background: #fdfdfd; color: #222; }
h1 { font-size: 1.3em; } h2 { font-size: 1.1em; margin-top: 1.5em; }
table { border-collapse: collapse; margin: 0.5em 0; }
th, td { border: 1px solid #bbb; padding: 0.25em 0.6em; text-align: left; }
th { background: #eee; }
.improved { color: #117733; font-weight: bold; }
.regressed { color: #cc3311; font-weight: bold; }
.neutral { color: #555; }
.warn { color: #996600; }
.frame { margin-left: 1.1em; }
.frame summary { cursor: pointer; white-space: nowrap; }
.bar { display: inline-block; height: 0.7em; background: #4477aa; vertical-align: baseline; }
.dim { color: #777; }
"""


def html_document(title: str, body: str, head_extra: str = "") -> str:
    """The shared self-contained document shell.

    ``head_extra`` lets callers (the live dashboard) add inline
    ``<style>``/``<script>`` blocks — never external references.
    """
    return (
        "<!DOCTYPE html>\n"
        '<html lang="en"><head><meta charset="utf-8">\n'
        f"<title>{html.escape(title)}</title>\n"
        f"<style>{_STYLE}</style>\n{head_extra}"
        f"</head><body>\n<h1>{html.escape(title)}</h1>\n{body}\n</body></html>\n"
    )


# ----------------------------------------------------------------------
# bench trend report
# ----------------------------------------------------------------------
def sparkline_svg(
    values: Sequence[float], width: int = 180, height: int = 36
) -> str:
    """Inline-SVG polyline of ``values`` (chronological, left to right).

    Shared by the bench trend report and the live serve dashboard — one
    sparkline idiom everywhere, zero network references.
    """
    if not values:
        return '<span class="dim">no data</span>'
    if len(values) == 1:
        values = [values[0], values[0]]
    low, high = min(values), max(values)
    span = (high - low) or 1.0
    pad = 3.0
    step = (width - 2 * pad) / (len(values) - 1)
    points = " ".join(
        f"{pad + i * step:.1f},"
        f"{height - pad - (v - low) / span * (height - 2 * pad):.1f}"
        for i, v in enumerate(values)
    )
    last_x = pad + (len(values) - 1) * step
    last_y = height - pad - (values[-1] - low) / span * (height - 2 * pad)
    return (
        f'<svg width="{width}" height="{height}">'
        f'<polyline points="{points}" fill="none" stroke="#4477aa" '
        'stroke-width="1.5"/>'
        f'<circle cx="{last_x:.1f}" cy="{last_y:.1f}" r="2.5" fill="#cc3311"/>'
        "</svg>"
    )


def _fmt_ms(seconds: float) -> str:
    return f"{seconds * 1e3:.3f} ms"


def _provenance_row(provenance: Dict[str, object]) -> str:
    sha = str(provenance.get("git_sha", "unknown"))[:12]
    dirty = provenance.get("dirty")
    dirty_text = {True: " (dirty)", False: "", None: " (dirty: unknown)"}[dirty]
    return (
        f"commit <b>{html.escape(sha)}</b>{dirty_text}, "
        f"python {html.escape(str(provenance.get('python', '?')))}, "
        f"{html.escape(str(provenance.get('platform', '?')))}, "
        f"workers {html.escape(str(provenance.get('workers', '?')))}, "
        f"config {html.escape(str(provenance.get('config_hash', '?')))}"
    )


def bench_report_html(
    records: Sequence[Dict[str, object]],
    skipped: int = 0,
    comparisons: Optional[Sequence[Comparison]] = None,
    title: str = "Benchmark trends",
) -> str:
    """The trend report as an HTML string."""
    parts: List[str] = []
    if skipped:
        parts.append(
            f'<p class="warn">warning: skipped {skipped} malformed history '
            "record(s)</p>"
        )
    if not records:
        parts.append("<p>No benchmark records yet — run "
                     "<b>repro bench run</b> first.</p>")
        return html_document(title, "\n".join(parts))

    newest = max(records, key=lambda r: float(r.get("created", 0.0)))
    parts.append(
        f"<p>{len(records)} records · latest run "
        f"<b>{html.escape(str(newest['run_id']))}</b> · "
        f"{_provenance_row(newest.get('provenance', {}))}</p>"
    )

    if comparisons:
        rows = "\n".join(
            f'<tr><td>{html.escape(c.bench)}</td>'
            f'<td class="{c.verdict}">{c.verdict}</td>'
            f"<td>{_fmt_ms(c.baseline_median)}</td>"
            f"<td>{_fmt_ms(c.current_median)}</td>"
            f"<td>{c.percent:+.2f}%</td>"
            f"<td>[{c.ci_low * 100:+.2f}%, {c.ci_high * 100:+.2f}%]</td></tr>"
            for c in comparisons
        )
        parts.append(
            "<h2>Verdicts vs baseline</h2>\n<table>"
            "<tr><th>benchmark</th><th>verdict</th><th>baseline</th>"
            "<th>current</th><th>&Delta; median</th><th>95% CI</th></tr>\n"
            f"{rows}</table>"
        )

    by_bench: Dict[str, List[Dict[str, object]]] = {}
    for record in records:
        by_bench.setdefault(str(record["bench"]), []).append(record)
    parts.append("<h2>Trends (median seconds per run, oldest &rarr; newest)"
                 "</h2>\n<table><tr><th>benchmark</th><th>trend</th>"
                 "<th>runs</th><th>latest median</th><th>latest range</th>"
                 "</tr>")
    for bench in sorted(by_bench):
        history = sorted(
            by_bench[bench], key=lambda r: float(r.get("created", 0.0))
        )
        medians = [float(r.get("median", 0.0)) for r in history]
        latest = history[-1]
        low = float(latest.get("min", medians[-1]))
        high = float(latest.get("max", medians[-1]))
        parts.append(
            f"<tr><td>{html.escape(bench)}</td>"
            f"<td>{sparkline_svg(medians)}</td>"
            f"<td>{len(history)}</td>"
            f"<td>{_fmt_ms(medians[-1])}</td>"
            f"<td>{_fmt_ms(low)} &ndash; {_fmt_ms(high)}</td></tr>"
        )
    parts.append("</table>")
    return html_document(title, "\n".join(parts))


def render_bench_report(
    records: Sequence[Dict[str, object]],
    out: pathlib.Path,
    skipped: int = 0,
    comparisons: Optional[Sequence[Comparison]] = None,
) -> pathlib.Path:
    """Write the trend report to ``out`` and return the path."""
    out = pathlib.Path(out)
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(
        bench_report_html(records, skipped=skipped, comparisons=comparisons),
        encoding="utf-8",
    )
    return out


# ----------------------------------------------------------------------
# flamegraph
# ----------------------------------------------------------------------
class FlameNode:
    """One merged frame: all same-named siblings under one parent path."""

    __slots__ = ("name", "total", "count", "children")

    def __init__(self, name: str) -> None:
        self.name = name
        self.total = 0.0
        self.count = 0
        self.children: Dict[str, "FlameNode"] = {}

    def child(self, name: str) -> "FlameNode":
        node = self.children.get(name)
        if node is None:
            node = self.children[name] = FlameNode(name)
        return node


def build_flame_tree(spans: Sequence[Dict[str, object]]) -> FlameNode:
    """Merge spans into a name-keyed tree rooted at a synthetic node.

    Spans whose ``parent_id`` is unknown (the parent record was lost to
    truncation, or they are genuine roots) attach to the root — a
    corrupted trace still renders, it just shows flatter stacks.
    """
    by_id = {
        str(s["span_id"]): s
        for s in spans
        if isinstance(s.get("span_id"), str)
    }

    def path_names(span: Dict[str, object]) -> List[str]:
        names = [str(span["name"])]
        seen = {str(span.get("span_id", ""))}
        parent_id = span.get("parent_id")
        while isinstance(parent_id, str) and parent_id in by_id:
            if parent_id in seen:  # corrupt trace: defensive cycle break
                break
            seen.add(parent_id)
            parent = by_id[parent_id]
            names.append(str(parent["name"]))
            parent_id = parent.get("parent_id")
        names.reverse()
        return names

    root = FlameNode("trace")
    for span in spans:
        node = root
        for name in path_names(span):
            node = node.child(name)
        node.total += float(span["dur"])
        node.count += 1
    # Self time propagates up only implicitly: a parent's recorded span
    # already covers its children, so the root total is the sum of the
    # top-level frames alone.
    root.total = sum(child.total for child in root.children.values())
    root.count = sum(child.count for child in root.children.values())
    return root


def _render_node(
    node: FlameNode, scale_total: float, depth: int, out: List[str]
) -> None:
    share = (node.total / scale_total) if scale_total > 0 else 0.0
    bar = max(1, int(round(share * 320)))
    label = (
        f"<span class=\"bar\" style=\"width:{bar}px\"></span> "
        f"{html.escape(node.name)} "
        f"<span class=\"dim\">{node.total * 1e3:.3f} ms · "
        f"{share * 100:.1f}% · ×{node.count}</span>"
    )
    children = sorted(
        node.children.values(), key=lambda n: n.total, reverse=True
    )
    if children and depth < 64:
        open_attr = " open" if depth < 2 else ""
        out.append(
            f'<details class="frame"{open_attr}><summary>{label}</summary>'
        )
        for child in children:
            _render_node(child, scale_total, depth + 1, out)
        out.append("</details>")
    else:
        out.append(f'<div class="frame">{label}</div>')


def flamegraph_html(
    spans: Sequence[Dict[str, object]],
    skipped: int = 0,
    source: str = "",
    title: str = "Trace flamegraph",
) -> str:
    """The flamegraph as an HTML string."""
    parts: List[str] = []
    if source:
        parts.append(f'<p class="dim">source: {html.escape(source)}</p>')
    if skipped:
        parts.append(
            f'<p class="warn">warning: skipped {skipped} malformed trace '
            "line(s)</p>"
        )
    if not spans:
        parts.append("<p>No spans in the trace.</p>")
        return html_document(title, "\n".join(parts))
    root = build_flame_tree(spans)
    pids = {s.get("pid") for s in spans if s.get("pid") is not None}
    parts.append(
        f"<p>{len(spans)} spans · {len(pids)} process(es) · "
        f"total {root.total * 1e3:.3f} ms (sum of top-level frames). "
        "Click a frame to fold or unfold its children; bar widths are "
        "the share of the total.</p>"
    )
    body: List[str] = []
    for child in sorted(
        root.children.values(), key=lambda n: n.total, reverse=True
    ):
        _render_node(child, root.total, 0, body)
    parts.extend(body)
    return html_document(title, "\n".join(parts))


def render_flamegraph(
    spans: Sequence[Dict[str, object]],
    out: pathlib.Path,
    skipped: int = 0,
    source: str = "",
) -> pathlib.Path:
    """Write the flamegraph to ``out`` and return the path."""
    out = pathlib.Path(out)
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(
        flamegraph_html(spans, skipped=skipped, source=source),
        encoding="utf-8",
    )
    return out
