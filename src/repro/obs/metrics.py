"""Cross-process metrics: named counters, gauges and fixed-bucket histograms.

Every session tally lands in exactly one place: the session's registry.
``Counters`` stays the kernel struct for the Figure 3 cost categories; a
session's ``stats`` is a read-only :class:`MetricsView` over its registry,
so there is no second copy to drift.  The three metric kinds:

* :class:`Counter` — a monotonically increasing total (int or float);
* :class:`Gauge` — a point-in-time value (merges take the max, which is the
  right fold for high-water marks — the dominant gauge kind here);
* :class:`Histogram` — fixed log-spaced buckets, so p50/p95/p99 come out of
  cumulative bucket counts **without storing samples**, and two histograms
  merge by adding bucket vectors — the property that makes one registry
  mergeable into another.

Registries are cheap dictionaries guarded by one lock; hot paths cache the
metric object once and pay an attribute bump per event.  ``snapshot()``
produces a plain-dict form that ``merge_snapshot`` folds into another
registry (the serving tier's merged view).  Pool workers ship no metrics:
the grid kernels they run write nothing to the global registry.
"""

from __future__ import annotations

import threading
from bisect import bisect_left
from typing import Iterable, Mapping

#: Default latency buckets: powers of two from 1 µs to ~134 s.  Log-spaced
#: buckets keep relative quantile error bounded (< one octave) at every
#: scale a flush, shard or tick can plausibly take.
DEFAULT_BUCKETS: tuple[float, ...] = tuple(1e-6 * (2.0 ** i) for i in range(28))


class Counter:
    """A monotonically increasing total."""

    __slots__ = ("value",)
    kind = "counter"

    def __init__(self) -> None:
        self.value: float = 0

    def inc(self, amount: float = 1) -> None:
        self.value += amount

    def to_dict(self) -> dict:
        return {"kind": "counter", "value": self.value}


class Gauge:
    """A point-in-time value; ``track_max`` folds high-water marks."""

    __slots__ = ("value",)
    kind = "gauge"

    def __init__(self) -> None:
        self.value: float = 0

    def set(self, value: float) -> None:
        self.value = value

    def track_max(self, value: float) -> None:
        if value > self.value:
            self.value = value

    def to_dict(self) -> dict:
        return {"kind": "gauge", "value": self.value}


class Histogram:
    """Fixed-bucket histogram: percentiles without stored samples.

    ``bounds[i]`` is the inclusive upper edge of bucket ``i``; one overflow
    bucket catches everything past the last edge.  ``percentile`` walks the
    cumulative counts and interpolates linearly inside the landing bucket,
    clamped to the observed ``[min, max]`` — exact at the extremes, within
    one bucket's width everywhere else.
    """

    __slots__ = ("bounds", "buckets", "count", "total", "vmin", "vmax")
    kind = "histogram"

    def __init__(self, bounds: Iterable[float] = DEFAULT_BUCKETS) -> None:
        self.bounds = tuple(float(b) for b in bounds)
        if not self.bounds or list(self.bounds) != sorted(self.bounds):
            raise ValueError("histogram bounds must be a sorted non-empty sequence")
        self.buckets = [0] * (len(self.bounds) + 1)
        self.count = 0
        self.total = 0.0
        self.vmin = float("inf")
        self.vmax = float("-inf")

    def observe(self, value: float) -> None:
        self.buckets[bisect_left(self.bounds, value)] += 1
        self.count += 1
        self.total += value
        if value < self.vmin:
            self.vmin = value
        if value > self.vmax:
            self.vmax = value

    def percentile(self, q: float) -> float:
        """The q-th percentile (``q`` in [0, 100]) of the observed stream."""
        if self.count == 0:
            return 0.0
        rank = q / 100.0 * self.count
        cumulative = 0
        for i, n in enumerate(self.buckets):
            if n == 0:
                continue
            if cumulative + n >= rank:
                lo = self.bounds[i - 1] if i > 0 else 0.0
                hi = self.bounds[i] if i < len(self.bounds) else self.vmax
                fraction = (rank - cumulative) / n
                estimate = lo + (hi - lo) * max(0.0, min(1.0, fraction))
                return max(self.vmin, min(self.vmax, estimate))
            cumulative += n
        return self.vmax

    def summary(self) -> dict:
        """The serving-tier digest: count/sum/min/max plus p50/p95/p99."""
        if self.count == 0:
            return {"count": 0, "sum": 0.0, "min": 0.0, "max": 0.0,
                    "p50": 0.0, "p95": 0.0, "p99": 0.0}
        return {
            "count": self.count,
            "sum": self.total,
            "min": self.vmin,
            "max": self.vmax,
            "p50": self.percentile(50),
            "p95": self.percentile(95),
            "p99": self.percentile(99),
        }

    def to_dict(self) -> dict:
        out = {"kind": "histogram", "bounds": list(self.bounds),
               "buckets": list(self.buckets), "count": self.count,
               "sum": self.total}
        if self.count:
            out["min"] = self.vmin
            out["max"] = self.vmax
        out.update({k: v for k, v in self.summary().items()
                    if k in ("p50", "p95", "p99")})
        return out


Metric = Counter | Gauge | Histogram


class MetricsRegistry:
    """A thread-safe name → metric map with get-or-create accessors.

    Naming scheme (see README "Observability"): dotted lower-case
    ``layer.component[.unit]`` — ``query.flush.seconds``,
    ``join.strategy.pbsm_spill``, ``spill.bytes_written``,
    ``worker.query_shard.seconds``.  The Prometheus renderer maps dots to
    underscores.
    """

    def __init__(self) -> None:
        self._lock = threading.RLock()
        self._metrics: dict[str, Metric] = {}

    def _get(self, name: str, factory, kind: str) -> Metric:
        with self._lock:
            metric = self._metrics.get(name)
            if metric is None:
                metric = factory()
                self._metrics[name] = metric
            elif metric.kind != kind:
                raise TypeError(
                    f"metric {name!r} is a {metric.kind}, requested {kind}"
                )
            return metric

    def counter(self, name: str) -> Counter:
        return self._get(name, Counter, "counter")  # type: ignore[return-value]

    def gauge(self, name: str) -> Gauge:
        return self._get(name, Gauge, "gauge")  # type: ignore[return-value]

    def histogram(
        self, name: str, bounds: Iterable[float] = DEFAULT_BUCKETS
    ) -> Histogram:
        return self._get(name, lambda: Histogram(bounds), "histogram")  # type: ignore[return-value]

    def get(self, name: str) -> Metric | None:
        with self._lock:
            return self._metrics.get(name)

    def value(self, name: str, default: float = 0) -> float:
        """The scalar value of a counter/gauge (``default`` when absent)."""
        metric = self.get(name)
        if metric is None or isinstance(metric, Histogram):
            return default
        return metric.value

    def tally(self, head: str) -> dict[str, int]:
        """``{suffix: count}`` of the counters named ``head`` + suffix, in first-use order."""
        with self._lock:
            return {
                name[len(head):]: int(metric.value)
                for name, metric in self._metrics.items()
                if name.startswith(head) and metric.kind == "counter"
            }

    def clear(self) -> None:
        with self._lock:
            self._metrics.clear()

    # -- cross-process plumbing -----------------------------------------------

    def snapshot(self) -> dict[str, dict]:
        """A picklable plain-dict copy of every metric."""
        with self._lock:
            return {name: metric.to_dict() for name, metric in self._metrics.items()}

    def merge_snapshot(self, snapshot: Mapping[str, dict]) -> None:
        """Fold another registry's snapshot into this one.

        Counters and histogram buckets add; gauges take the max (high-water
        fold); histogram bounds must agree — mismatched bounds raise rather
        than silently mis-bucket.
        """
        with self._lock:
            for name, data in snapshot.items():
                kind = data["kind"]
                if kind == "counter":
                    self.counter(name).inc(data["value"])
                elif kind == "gauge":
                    self.gauge(name).track_max(data["value"])
                else:
                    hist = self.histogram(name, data["bounds"])
                    if list(hist.bounds) != list(data["bounds"]):
                        raise ValueError(
                            f"histogram {name!r} bucket bounds differ; cannot merge"
                        )
                    for i, n in enumerate(data["buckets"]):
                        hist.buckets[i] += n
                    hist.count += data["count"]
                    hist.total += data["sum"]
                    if data["count"]:
                        hist.vmin = min(hist.vmin, data["min"])
                        hist.vmax = max(hist.vmax, data["max"])


# -- read-only views -----------------------------------------------------------


class MetricsView:
    """Read-only attribute access to one registry.  A subclass is the table
    from attribute to metric: :class:`Read` entries, or properties deriving
    one field from others.  Assigning any attribute raises AttributeError."""

    __slots__ = ("_registry",)

    def __init__(self, registry: MetricsRegistry) -> None:
        object.__setattr__(self, "_registry", registry)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"{type(self).__name__} is a read-only view of a metrics registry")


class Read:
    """A view attribute: the int value of counter or gauge ``name``."""

    def __init__(self, name: str) -> None:
        self.name = name

    def __get__(self, view: MetricsView | None, owner: type | None = None):
        return self if view is None else self.read(view._registry)

    def read(self, registry: MetricsRegistry):
        return int(registry.value(self.name))


class Seconds(Read):
    """A view attribute: the float sum of histogram ``name``."""

    def read(self, registry: MetricsRegistry) -> float:
        return registry.histogram(self.name).total


class Tally(Read):
    """A view attribute: :meth:`MetricsRegistry.tally` of prefix ``name``."""

    def read(self, registry: MetricsRegistry) -> dict[str, int]:
        return registry.tally(self.name)


# -- the process-wide registry -------------------------------------------------

_GLOBAL = MetricsRegistry()


def global_registry() -> MetricsRegistry:
    """The process-wide registry layer instrumentation publishes into.

    Sessions keep their own registries for per-session reports; storage,
    spill and approximate-kNN layers (which have no session handle) land
    here.
    """
    return _GLOBAL
