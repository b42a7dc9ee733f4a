"""Structured span tracing with cross-process context propagation.

A *span* is one timed operation — a session flush, a join strategy run, a
worker shard — with a name, wall-clock bounds, free-form attributes and a
parent.  Parentage is tracked through a :mod:`contextvars` variable, so
nesting falls out of ``with`` blocks; crossing a process boundary is
explicit: the parent side captures :func:`propagation_context`, ships it
with the task, and the worker side adopts it via :func:`capture_worker`,
which also returns the spans and metric deltas the task produced so the
pool can merge them back.  Timestamps are epoch ``time.time_ns()`` — not
``perf_counter`` — precisely so spans recorded in different processes
share one clock and render as a single tree in Perfetto
(:meth:`Tracer.export_chrome`).

The tracer is **disabled by default** and the disabled path is a single
dictionary-free call returning a cached no-op context manager; hot paths
stay instrumented unconditionally and pay < 1 µs per span when tracing is
off (``tests/test_obs.py::TestTracer::
test_disabled_spans_cost_under_two_percent_of_a_flush`` bounds that cost
against a query flush).  Set
``REPRO_TRACE=1`` to enable at import, or call :func:`enable_tracing`.
"""

from __future__ import annotations

import contextvars
import itertools
import json
import os
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Iterator, Mapping

# (trace_id, span_id) of the active span; None outside any span.
_CURRENT: contextvars.ContextVar[tuple[str, str] | None] = contextvars.ContextVar(
    "repro_obs_current_span", default=None
)

_SPAN_IDS = itertools.count(1)


def _new_id() -> str:
    """A process-unique id; embedding the pid keeps ids unique across the
    pool without coordination."""
    return f"{os.getpid():x}-{next(_SPAN_IDS):x}"


@dataclass
class Span:
    """One finished (or in-flight) timed operation."""

    name: str
    trace_id: str
    span_id: str
    parent_id: str | None
    start_ns: int
    end_ns: int = 0
    pid: int = field(default_factory=os.getpid)
    tid: int = 0
    attrs: dict[str, Any] = field(default_factory=dict)

    @property
    def duration_s(self) -> float:
        return max(0, self.end_ns - self.start_ns) / 1e9

    def set_attr(self, key: str, value: Any) -> None:
        self.attrs[key] = value

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "trace_id": self.trace_id,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "start_ns": self.start_ns,
            "end_ns": self.end_ns,
            "pid": self.pid,
            "tid": self.tid,
            "attrs": dict(self.attrs),
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "Span":
        return cls(
            name=data["name"],
            trace_id=data["trace_id"],
            span_id=data["span_id"],
            parent_id=data["parent_id"],
            start_ns=data["start_ns"],
            end_ns=data["end_ns"],
            pid=data["pid"],
            tid=data["tid"],
            attrs=dict(data["attrs"]),
        )


class _ActiveSpan:
    """Context manager for one live span; also the handle instrumented code
    uses to attach attributes (``span.set_attr``) and counter deltas."""

    __slots__ = ("_tracer", "_span", "_token", "_counters_before", "_counters_obj")

    def __init__(self, tracer: "Tracer", name: str, attrs: dict[str, Any],
                 counters: Any = None) -> None:
        self._tracer = tracer
        self._counters_obj = counters
        self._counters_before = None
        parent = _CURRENT.get()
        if parent is not None:
            trace_id, parent_id = parent
        else:
            trace_id, parent_id = _new_id(), None
        self._span = Span(
            name=name,
            trace_id=trace_id,
            span_id=_new_id(),
            parent_id=parent_id,
            start_ns=0,
            tid=threading.get_ident() & 0xFFFFFFFF,
            attrs=attrs,
        )
        self._token = None

    def __enter__(self) -> Span:
        span = self._span
        self._token = _CURRENT.set((span.trace_id, span.span_id))
        if self._counters_obj is not None:
            self._counters_before = self._counters_obj.snapshot()
        span.start_ns = time.time_ns()
        return span

    def __exit__(self, exc_type, exc, tb) -> None:
        span = self._span
        span.end_ns = time.time_ns()
        if exc_type is not None:
            span.attrs["error"] = exc_type.__name__
        if self._counters_before is not None:
            delta = self._counters_obj.diff(self._counters_before)
            for key, value in delta.as_dict().items():
                if value:
                    span.attrs[f"counters.{key}"] = value
        _CURRENT.reset(self._token)
        self._tracer._record(span)


class _NoopSpan:
    """The disabled-tracer fast path: one cached instance, no allocation."""

    __slots__ = ()

    def __enter__(self) -> "_NoopSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        return None

    def set_attr(self, key: str, value: Any) -> None:
        return None


_NOOP = _NoopSpan()


class Tracer:
    """Collects finished spans; disabled unless told otherwise."""

    def __init__(self, enabled: bool = False) -> None:
        self.enabled = enabled
        self._lock = threading.Lock()
        self._spans: list[Span] = []

    def span(self, name: str, *, counters: Any = None, **attrs: Any):
        """Open a span.  ``counters`` may be any object with
        ``snapshot()``/``diff()`` returning something with ``as_dict()``
        (duck-typed to :class:`repro.instrumentation.counters.Counters`);
        nonzero deltas are attached as ``counters.*`` attrs on exit."""
        if not self.enabled:
            return _NOOP
        return _ActiveSpan(self, name, attrs, counters)

    def _record(self, span: Span) -> None:
        with self._lock:
            self._spans.append(span)

    def ingest(self, spans: Iterator[Mapping[str, Any]] | list) -> None:
        """Adopt spans recorded elsewhere (pool workers)."""
        decoded = [
            span if isinstance(span, Span) else Span.from_dict(span)
            for span in spans
        ]
        with self._lock:
            self._spans.extend(decoded)

    def spans(self) -> list[Span]:
        with self._lock:
            return list(self._spans)

    def drain(self) -> list[Span]:
        with self._lock:
            out = self._spans
            self._spans = []
            return out

    def clear(self) -> None:
        with self._lock:
            self._spans.clear()

    def export_chrome(self, path: str | None = None) -> list[dict]:
        """Spans as Chrome ``trace_event`` complete events ("ph": "X") —
        load the JSON file in Perfetto (https://ui.perfetto.dev) or
        ``chrome://tracing``.  Parent/child renders by nesting since child
        intervals sit inside their parents on the same pid/tid track."""
        events = []
        for span in self.spans():
            args = {k: v for k, v in span.attrs.items()}
            args["span_id"] = span.span_id
            if span.parent_id:
                args["parent_id"] = span.parent_id
            args["trace_id"] = span.trace_id
            events.append({
                "name": span.name,
                "ph": "X",
                "ts": span.start_ns / 1000.0,
                "dur": max(span.end_ns - span.start_ns, 0) / 1000.0,
                "pid": span.pid,
                "tid": span.tid,
                "cat": span.name.split(".", 1)[0],
                "args": args,
            })
        if path is not None:
            with open(path, "w") as fh:
                json.dump({"traceEvents": events,
                           "displayTimeUnit": "ms"}, fh, indent=1)
        return events


# -- the process-wide tracer ---------------------------------------------------

_TRACER = Tracer(enabled=os.environ.get("REPRO_TRACE", "") not in ("", "0"))


def get_tracer() -> Tracer:
    return _TRACER


def enable_tracing() -> Tracer:
    _TRACER.enabled = True
    return _TRACER


def disable_tracing() -> None:
    _TRACER.enabled = False


def span(name: str, *, counters: Any = None, **attrs: Any):
    """Module-level shortcut: ``with obs.span("join.flush", strategy=...)``."""
    return _TRACER.span(name, counters=counters, **attrs)


def tracing_enabled() -> bool:
    return _TRACER.enabled


# -- cross-process propagation -------------------------------------------------

def propagation_context() -> tuple[str, str] | None:
    """What the parent ships with a task: ``(trace_id, parent_span_id)`` of
    the active span, or None when tracing is off / no span is open."""
    if not _TRACER.enabled:
        return None
    return _CURRENT.get()


class capture_worker:
    """Worker-side bracket around one task.

    Adopts the propagated context (temporarily enabling this process's
    tracer — pool workers run one task at a time, so flipping the global
    flag is race-free), opens a ``worker.<task>`` span, snapshots the
    global metrics registry, and on exit packages everything the task
    produced::

        with capture_worker("query_shard", ctx) as cap:
            ... do the work ...
        return (*payload, cap.telemetry)

    ``telemetry`` is ``{"spans": [...], "metrics": {...}}``, or ``None``
    when the task produced neither (no ctx propagated and no registry
    activity), so idle tasks ship no extra bytes.  The metrics delta is
    captured regardless of tracing — counters merge back even on untraced
    runs; only span recording is gated on the propagated ctx.
    """

    __slots__ = ("_name", "_ctx", "_attrs", "_was_enabled", "_ctx_token",
                 "_metrics_before", "_spans_before", "_span_cm", "_span",
                 "telemetry")

    def __init__(self, name: str, ctx: tuple[str, str] | None, **attrs: Any) -> None:
        self._name = name
        self._ctx = ctx
        self._attrs = attrs
        self.telemetry: dict | None = None

    def __enter__(self) -> "capture_worker":
        from .metrics import global_registry

        self._metrics_before = global_registry().snapshot()
        self._was_enabled = _TRACER.enabled
        self._ctx_token = None
        self._span_cm = None
        self._span = None
        # Baseline, not drain-everything: a forked worker inherits the
        # parent tracer's span list wholesale, and shipping those back
        # would duplicate every pre-fork span on ingest.  Only spans
        # recorded inside this bracket belong to the task.
        self._spans_before = len(_TRACER._spans)
        if self._ctx is not None:
            _TRACER.enabled = True
            self._ctx_token = _CURRENT.set((self._ctx[0], self._ctx[1]))
        if _TRACER.enabled:
            self._span_cm = _TRACER.span(f"worker.{self._name}", **self._attrs)
            self._span = self._span_cm.__enter__()
        return self

    def set_attr(self, key: str, value: Any) -> None:
        if self._span is not None:
            self._span.set_attr(key, value)

    def __exit__(self, exc_type, exc, tb) -> None:
        from .metrics import global_registry, snapshot_delta

        if self._span_cm is not None:
            self._span_cm.__exit__(exc_type, exc, tb)
        if self._ctx_token is not None:
            _CURRENT.reset(self._ctx_token)
        if self._span_cm is not None:
            with _TRACER._lock:
                spans = _TRACER._spans[self._spans_before:]
                del _TRACER._spans[self._spans_before:]
        else:
            spans = []
        _TRACER.enabled = self._was_enabled
        metrics = snapshot_delta(global_registry().snapshot(), self._metrics_before)
        if spans or metrics:
            self.telemetry = {
                "spans": [span.to_dict() for span in spans],
                "metrics": metrics,
            }
        return None


def ingest_telemetry(telemetry: Mapping[str, Any] | None) -> None:
    """Parent-side fold of one worker's :class:`capture_worker` payload:
    spans into the tracer, metric deltas into the global registry."""
    if not telemetry:
        return
    spans = telemetry.get("spans")
    if spans:
        _TRACER.ingest(spans)
    metrics = telemetry.get("metrics")
    if metrics:
        from .metrics import global_registry

        global_registry().merge_snapshot(metrics)
