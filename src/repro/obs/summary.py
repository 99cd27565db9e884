"""Aggregate a JSONL trace into a human-readable report.

``repro trace summary out.jsonl`` goes through here: load every span
record (tolerating truncated/garbled lines — a killed run must still be
inspectable), aggregate wall time per span name, and list the top-N
slowest individual spans. The per-name totals line up with ``repro run
--stats``: the engine's stage timer emits a ``stage:<name>`` span around
exactly the region it books under ``stage_seconds``.
"""

from __future__ import annotations

import json
import pathlib
from typing import Dict, Iterable, List, Optional, Tuple

__all__ = [
    "load_spans_counted",
    "summarize_spans",
    "render_summary",
    "summary_text",
]


def load_spans_counted(path: pathlib.Path) -> Tuple[List[dict], int]:
    """Parse a JSONL trace: ``(spans, skipped_line_count)``.

    Malformed, truncated or foreign lines are skipped *and counted* —
    matching the result store's corruption-tolerance policy, a killed
    run must stay inspectable, but the reader deserves to know how much
    of the trace was lost.
    """
    spans: List[dict] = []
    skipped = 0
    with open(path, "r", encoding="utf-8", errors="replace") as handle:
        for line in handle:
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except ValueError:
                skipped += 1
                continue
            if (
                isinstance(record, dict)
                and isinstance(record.get("name"), str)
                and isinstance(record.get("dur"), (int, float))
            ):
                spans.append(record)
            else:
                skipped += 1
    return spans, skipped


def summarize_spans(
    spans: Iterable[dict], top: int = 10, skipped: int = 0
) -> Dict[str, object]:
    """Per-name aggregates plus the ``top`` slowest individual spans."""
    by_name: Dict[str, Dict[str, float]] = {}
    pids = set()
    total = 0
    for record in spans:
        total += 1
        pid = record.get("pid")
        if pid is not None:
            pids.add(pid)
        entry = by_name.setdefault(
            record["name"],
            {"count": 0, "total_s": 0.0, "max_s": 0.0},
        )
        dur = float(record["dur"])
        entry["count"] += 1
        entry["total_s"] += dur
        if dur > entry["max_s"]:
            entry["max_s"] = dur
    for entry in by_name.values():
        entry["mean_s"] = entry["total_s"] / entry["count"]
    slowest = sorted(spans, key=lambda r: float(r["dur"]), reverse=True)[:top]
    return {
        "spans": total,
        "skipped": skipped,
        "processes": sorted(pids),
        "by_name": by_name,
        "slowest": slowest,
    }


def _table(headers: List[str], rows: List[List[str]]) -> List[str]:
    widths = [
        max(len(headers[i]), *(len(row[i]) for row in rows)) if rows
        else len(headers[i])
        for i in range(len(headers))
    ]
    lines = [
        "  ".join(h.ljust(w) for h, w in zip(headers, widths)).rstrip(),
        "  ".join("-" * w for w in widths),
    ]
    for row in rows:
        lines.append(
            "  ".join(c.ljust(w) for c, w in zip(row, widths)).rstrip()
        )
    return lines


def render_summary(summary: Dict[str, object]) -> str:
    """Text report for one :func:`summarize_spans` result."""
    lines = [
        "== trace summary ==",
        f"spans      {summary['spans']}",
        f"processes  {len(summary['processes'])} "
        f"(pids {', '.join(str(p) for p in summary['processes'])})",
    ]
    if summary.get("skipped"):
        lines.append(
            f"warning    skipped {summary['skipped']} malformed trace line(s)"
        )
    lines.extend(["", "per-span aggregates (by total time):"])
    by_name: Dict[str, Dict[str, float]] = summary["by_name"]  # type: ignore
    rows = [
        [
            name,
            str(int(entry["count"])),
            f"{entry['total_s']:.4f}",
            f"{entry['mean_s']:.4f}",
            f"{entry['max_s']:.4f}",
        ]
        for name, entry in sorted(
            by_name.items(), key=lambda kv: kv[1]["total_s"], reverse=True
        )
    ]
    lines.extend(_table(["span", "count", "total s", "mean s", "max s"], rows))
    slowest: List[dict] = summary["slowest"]  # type: ignore
    if slowest:
        lines.append("")
        lines.append(f"top {len(slowest)} slowest spans:")
        rows = [
            [
                record["name"],
                f"{float(record['dur']):.4f}",
                str(record.get("pid", "?")),
                json.dumps(record.get("attrs", {}), sort_keys=True),
            ]
            for record in slowest
        ]
        lines.extend(_table(["span", "dur s", "pid", "attrs"], rows))
    return "\n".join(lines)


def summary_text(path: pathlib.Path, top: int = 10) -> str:
    """Load, aggregate and render ``path`` in one call (the CLI path)."""
    spans, skipped = load_spans_counted(path)
    return render_summary(summarize_spans(spans, top=top, skipped=skipped))
