"""A strict parser for Prometheus text exposition (format 0.0.4).

``repro.obs.promtext`` renders ``/metrics`` as exposition text; the tests
and the CI serve smoke job read it back with :func:`parse_exposition`.
The parser rejects malformed names, duplicate samples, samples without a
preceding ``TYPE`` line and non-float values — if it accepts the output,
a real scraper will too (the reverse is not guaranteed, hence the
strictness).
"""

from __future__ import annotations

import re
from typing import Dict, Optional

__all__ = ["parse_exposition"]

#: Valid exposition metric name.
_NAME_RE = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")

#: One sample line: name, optional {labels}, value.
_SAMPLE_RE = re.compile(
    r"^([a-zA-Z_:][a-zA-Z0-9_:]*)(\{[^}]*\})?\s+(\S+)$"
)

#: One label inside a label set: name="escaped value".
_LABEL_RE = re.compile(r'([a-zA-Z_][a-zA-Z0-9_]*)="((?:[^"\\]|\\.)*)"')


def _parse_value(raw: str) -> float:
    if raw == "+Inf":
        return float("inf")
    if raw == "-Inf":
        return float("-inf")
    if raw == "NaN":
        return float("nan")
    return float(raw)  # raises ValueError on garbage


def parse_exposition(
    text: str,
) -> Dict[str, Dict[str, object]]:
    """Strictly parse exposition text into families.

    Returns ``{family_name: {"type": ..., "samples": [(sample_name,
    labels_dict, value), ...]}}``. Raises :class:`ValueError` on any
    deviation: unknown line shapes, samples before their TYPE header,
    invalid names, duplicate (name, labels) samples, unparsable values.
    """
    families: Dict[str, Dict[str, object]] = {}
    seen_samples: set = set()
    current: Optional[str] = None

    def family_of(sample_name: str) -> Optional[str]:
        for suffix in ("_bucket", "_sum", "_count", "_total", ""):
            if suffix and sample_name.endswith(suffix):
                base = sample_name[: -len(suffix)] if suffix else sample_name
                if base in families or sample_name in families:
                    return sample_name if sample_name in families else base
        return sample_name if sample_name in families else None

    for lineno, line in enumerate(text.splitlines(), 1):
        if not line.strip():
            continue
        if line.startswith("# HELP "):
            continue
        if line.startswith("# TYPE "):
            parts = line.split(None, 3)
            if len(parts) != 4:
                raise ValueError(f"line {lineno}: malformed TYPE line")
            _, _, name, kind = parts
            if not _NAME_RE.match(name):
                raise ValueError(f"line {lineno}: invalid family name {name!r}")
            if kind not in ("counter", "gauge", "histogram", "summary",
                            "untyped"):
                raise ValueError(f"line {lineno}: unknown type {kind!r}")
            if name in families:
                raise ValueError(f"line {lineno}: duplicate family {name!r}")
            families[name] = {"type": kind, "samples": []}
            current = name
            continue
        if line.startswith("#"):
            raise ValueError(f"line {lineno}: unknown comment {line!r}")
        match = _SAMPLE_RE.match(line)
        if not match:
            raise ValueError(f"line {lineno}: malformed sample {line!r}")
        sample_name, label_blob, raw_value = match.groups()
        family = family_of(sample_name)
        if family is None or current is None:
            raise ValueError(
                f"line {lineno}: sample {sample_name!r} has no TYPE header"
            )
        labels: Dict[str, str] = {}
        if label_blob:
            inner = label_blob[1:-1]
            matched = _LABEL_RE.findall(inner)
            rebuilt = ",".join(f'{k}="{v}"' for k, v in matched)
            if rebuilt != inner:
                raise ValueError(f"line {lineno}: malformed labels {label_blob!r}")
            for key, value in matched:
                labels[key] = (
                    value.replace('\\"', '"')
                    .replace("\\n", "\n")
                    .replace("\\\\", "\\")
                )
        try:
            value = _parse_value(raw_value)
        except ValueError:
            raise ValueError(
                f"line {lineno}: unparsable value {raw_value!r}"
            ) from None
        dedup_key = (sample_name, tuple(sorted(labels.items())))
        if dedup_key in seen_samples:
            raise ValueError(f"line {lineno}: duplicate sample {dedup_key!r}")
        seen_samples.add(dedup_key)
        families[family]["samples"].append((sample_name, labels, value))

    # Histogram invariants: buckets cumulative, +Inf equals _count.
    for name, family in families.items():
        if family["type"] != "histogram":
            continue
        buckets = [
            (labels, value)
            for sample_name, labels, value in family["samples"]
            if sample_name == f"{name}_bucket"
        ]
        previous = 0.0
        for labels, value in buckets:
            if "le" not in labels:
                raise ValueError(f"{name}: bucket sample without le label")
            if value < previous:
                raise ValueError(f"{name}: buckets are not cumulative")
            previous = value
        counts = [
            value for sample_name, _, value in family["samples"]
            if sample_name == f"{name}_count"
        ]
        if buckets and counts and buckets[-1][1] != counts[0]:
            raise ValueError(f"{name}: +Inf bucket != count")
    return families
