"""repro.obs — the telemetry spine: spans, metrics, exposition.

Three pieces, importable with zero repro dependencies (stdlib only):

* :mod:`~repro.obs.trace` — structured span tracer with contextvar
  nesting, cross-process propagation, and Chrome ``trace_event`` export;
* :mod:`~repro.obs.metrics` — named counters / gauges / fixed-bucket
  histograms in mergeable registries;
* :mod:`~repro.obs.exposition` — Prometheus text + JSON renderers.

See README "Observability" for the naming scheme and the metrics table.
"""

from .metrics import (
    DEFAULT_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    global_registry,
)
from .trace import (
    Span,
    Tracer,
    capture_worker,
    disable_tracing,
    enable_tracing,
    get_tracer,
    ingest_telemetry,
    propagation_context,
    span,
    tracing_enabled,
)
from .exposition import render_json, render_prometheus

__all__ = [
    "DEFAULT_BUCKETS",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "Span",
    "Tracer",
    "capture_worker",
    "disable_tracing",
    "enable_tracing",
    "get_tracer",
    "global_registry",
    "ingest_telemetry",
    "propagation_context",
    "render_json",
    "render_prometheus",
    "span",
    "tracing_enabled",
]
