"""Exposition: Prometheus text format and JSON snapshots.

The renderers work off registry *snapshots* (plain dicts), so the same
code serves a live registry, a merged multi-process snapshot, or a
snapshot loaded back from a benchmark artifact.
"""

from __future__ import annotations

import json
import re
from typing import Mapping

_NAME_RE = re.compile(r"[^a-zA-Z0-9_:]")


def _prom_name(name: str) -> str:
    """Dotted registry names → Prometheus-legal: dots become underscores."""
    sanitized = _NAME_RE.sub("_", name)
    if sanitized and sanitized[0].isdigit():
        sanitized = "_" + sanitized
    return sanitized


def _fmt(value: float) -> str:
    if value == float("inf"):
        return "+Inf"
    if isinstance(value, float) and value.is_integer():
        return str(int(value))
    return repr(value)


def render_prometheus(snapshot: Mapping[str, dict]) -> str:
    """A registry snapshot in Prometheus text exposition format 0.0.4.

    Histograms render cumulatively (``_bucket{le="..."}`` plus ``_sum``
    and ``_count``) so standard ``histogram_quantile`` queries work.
    """
    lines: list[str] = []
    for name in sorted(snapshot):
        data = snapshot[name]
        prom = _prom_name(name)
        kind = data["kind"]
        if kind in ("counter", "gauge"):
            lines.append(f"# TYPE {prom} {kind}")
            lines.append(f"{prom} {_fmt(data['value'])}")
        else:
            lines.append(f"# TYPE {prom} histogram")
            cumulative = 0
            for bound, count in zip(data["bounds"], data["buckets"]):
                cumulative += count
                lines.append(
                    f'{prom}_bucket{{le="{_fmt(float(bound))}"}} {cumulative}'
                )
            cumulative += data["buckets"][len(data["bounds"])]
            lines.append(f'{prom}_bucket{{le="+Inf"}} {cumulative}')
            lines.append(f"{prom}_sum {_fmt(data['sum'])}")
            lines.append(f"{prom}_count {data['count']}")
    return "\n".join(lines) + "\n"


def render_json(snapshot: Mapping[str, dict], indent: int | None = None) -> str:
    """A registry snapshot as JSON; histograms keep their summary
    percentiles (p50/p95/p99) but drop the raw bucket vectors — the JSON
    endpoint is for dashboards and assertions, the Prometheus one for
    scraping."""
    out: dict[str, dict] = {}
    for name in sorted(snapshot):
        data = snapshot[name]
        if data["kind"] == "histogram":
            out[name] = {
                "kind": "histogram",
                "count": data["count"],
                "sum": data["sum"],
                "min": data.get("min", 0.0),
                "max": data.get("max", 0.0),
                "p50": data.get("p50", 0.0),
                "p95": data.get("p95", 0.0),
                "p99": data.get("p99", 0.0),
            }
        else:
            out[name] = {"kind": data["kind"], "value": data["value"]}
    return json.dumps(out, indent=indent)

