"""Shared machinery of the performance ledger.

Everything here is benchmark-owned: the span recorder, the op accounting, the
seeded input generators, the host calibration spin and the environment block.
Nothing in this file reaches into the program under test — workloads time
public calls and read public stats objects only.
"""

from __future__ import annotations

import contextvars
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from typing import Any, Callable, Sequence

import numpy as np

LEDGER_DIR = os.path.dirname(os.path.abspath(__file__))
REPO_ROOT = os.path.dirname(os.path.dirname(LEDGER_DIR))
OUT_DIR = os.path.join(LEDGER_DIR, "out")
BENCHMARK_JSON = os.path.join(REPO_ROOT, "BENCHMARK.json")

#: Client coroutines and pool workers: the sizing host has two cores.
POOL_WORKERS = 2

#: Untraced op-level detail every result file carries next to the gated
#: end-to-end metrics: name -> (workload, regression bound used by --check).
#: These are the per-op latencies the issue lists; they are workload-specific,
#: so they cannot be declared end-to-end metrics (every declared end-to-end
#: metric is reported on every workload) and live in the result file instead.
#: Bounds are at least twice the ten-seed spread seen on the sizing host.
OP_METRICS: dict[str, tuple[str, float]] = {
    "step_p50_ms": ("sim_step", 0.15),
    "join_p50_ms": ("sim_step", 0.25),
    "dash_frame_p50_ms": ("serve_mixed", 0.25),
    "dash_frame_p99_ms": ("serve_mixed", 0.25),
    "bulk_batch_p50_ms": ("serve_mixed", 0.25),
    "spill_join_p50_ms": ("out_of_core", 0.15),
    "ext_build_p50_ms": ("out_of_core", 0.20),
    "disk_query_p50_ms": ("out_of_core", 0.10),
    "disk_query_p99_ms": ("out_of_core", 0.25),
    "tick_p50_ms": ("continuous_ticks", 0.20),
}


#: Per-layer counts that must repeat exactly for a fixed workload, seed and
#: scale (traced runs use fixed op counts, so they do): ``--check`` fails on
#: any difference.
EXACT_COUNTS = (
    "core.snapshot_rebuilds",
    "engine.flushes",
    "joins.candidates",
    "joins.pairs",
    "joins.comparisons",
    "serving.pool_exports",
    "exec.tiles_spilled",
    "exec.spill_bytes_written",
    "exec.spill_bytes_read",
    "exec.budget_high_water",
    "storage.pool_hit_rate",
    "storage.pages_read_per_query",
    "indexes.disk_node_tests_per_query",
    "continuous.route_predictive",
    "continuous.route_incremental",
    "continuous.route_recompute",
)


def load_benchmark() -> dict:
    with open(BENCHMARK_JSON) as handle:
        return json.load(handle)


# -- seeded inputs ---------------------------------------------------------------


def stream(seed: int, lane: int) -> np.random.Generator:
    """An independent generator per (run seed, purpose): the same seed gives
    the same inputs whatever order the lanes are drawn in."""
    return np.random.default_rng([seed, lane])


def make_items(lo: np.ndarray, hi: np.ndarray) -> list:
    """``(eid, AABB)`` items, eids 0..n-1, from corner arrays."""
    from repro.geometry.aabb import AABB

    return [(eid, AABB(l, h)) for eid, (l, h) in enumerate(zip(lo.tolist(), hi.tolist()))]


def uniform_box_arrays(
    rng: np.random.Generator, n: int, side: float, min_extent: float, max_extent: float
) -> tuple[np.ndarray, np.ndarray]:
    """The legacy benches' canonical geometry: small boxes uniform in a cube."""
    lo = rng.uniform(0.0, side - max_extent, size=(n, 3))
    hi = np.minimum(lo + rng.uniform(min_extent, max_extent, size=(n, 3)), side)
    return lo, hi


def window_array(rng: np.random.Generator, m: int, side: float, width: float) -> np.ndarray:
    """``(m, 2, 3)`` query windows of one width, uniform in the cube."""
    lo = rng.uniform(0.0, side - width, size=(m, 3))
    return np.stack([lo, lo + width], axis=1)


# -- statistics -------------------------------------------------------------------


def percentile(samples: Sequence[float], q: float) -> float:
    return float(np.percentile(np.asarray(samples, dtype=np.float64), q))


def median_ms(samples: Sequence[float]) -> float:
    return statistics.median(samples) * 1e3 if samples else 0.0


def best_of(series: Sequence[Sequence[float]]) -> list[float]:
    """Per-index minimum over repetitions of one op sequence.

    Every measured slice replays the same seeded inputs from the same
    post-warm-up state, minutes-scale host contention only ever adds time,
    and the slices are seconds apart — so the fastest of the repetitions of
    op ``i`` is the best estimate of what op ``i`` costs.  The median over
    ``i`` is then taken as usual."""
    length = max((len(s) for s in series), default=0)
    return [min(s[i] for s in series if i < len(s)) for i in range(length)]


def spread(values: Sequence[float]) -> float | None:
    """Interquartile distance as a share of the median (the driver's rule)."""
    if len(values) < 2:
        return None
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2 if q2 else None


# -- span recorder -----------------------------------------------------------------

_current_span: contextvars.ContextVar[int] = contextvars.ContextVar("ledger_span", default=0)


class _Span:
    __slots__ = ("rec", "name", "op", "sid", "parent", "start", "token")

    def __init__(self, rec: "Recorder", name: str, op: int | None) -> None:
        self.rec = rec
        self.name = name
        self.op = op

    def __enter__(self) -> "_Span":
        rec = self.rec
        rec.next_id += 1
        self.sid = rec.next_id
        self.parent = _current_span.get()
        self.token = _current_span.set(self.sid)
        self.start = time.perf_counter_ns()
        return self

    def __exit__(self, *exc_info: object) -> None:
        end = time.perf_counter_ns()
        _current_span.reset(self.token)
        self.rec.spans.append((self.sid, self.name, self.start, end, self.parent, self.op))


class _NoSpan:
    __slots__ = ()

    def __enter__(self) -> "_NoSpan":
        return self

    def __exit__(self, *exc_info: object) -> None:
        return None


_NO_SPAN = _NoSpan()


class Recorder:
    """Benchmark-owned spans: (id, name, start ns, end ns, parent id, op id).

    Kept in memory and written once, when the workload ends.  Parentage rides
    a context variable, so spans opened by concurrent client coroutines nest
    under their own frame, not under whichever coroutine ran last.
    """

    def __init__(self, enabled: bool) -> None:
        self.enabled = enabled
        self.spans: list[tuple[int, str, int, int, int, int | None]] = []
        self.next_id = 0

    def span(self, name: str, op: int | None = None):
        return _Span(self, name, op) if self.enabled else _NO_SPAN

    def self_times(self) -> dict[int, int]:
        """Span id -> duration minus the part its children cover (ns)."""
        children: dict[int, list[tuple[int, int]]] = {}
        for _, _, start, end, parent, _ in self.spans:
            children.setdefault(parent, []).append((start, end))
        out: dict[int, int] = {}
        for sid, _, start, end, _, _ in self.spans:
            covered = 0
            cursor = start
            for c_start, c_end in sorted(children.get(sid, ())):
                c_start, c_end = max(c_start, cursor), min(c_end, end)
                if c_end > c_start:
                    covered += c_end - c_start
                    cursor = c_end
            out[sid] = (end - start) - covered
        return out

    def self_ms_by_name(self) -> dict[str, float]:
        self_ns = self.self_times()
        totals: dict[str, float] = {}
        for sid, name, *_ in self.spans:
            totals[name] = totals.get(name, 0.0) + self_ns[sid] / 1e6
        return totals

    def export_chrome(self, path: str, process_name: str) -> None:
        """Chrome ``trace_event`` JSON, loadable in Perfetto / chrome://tracing."""
        pid = os.getpid()
        events: list[dict[str, Any]] = [
            {"name": "process_name", "ph": "M", "pid": pid, "tid": 0,
             "args": {"name": process_name}}
        ]
        origin = min((s[2] for s in self.spans), default=0)
        for sid, name, start, end, parent, op in self.spans:
            events.append({
                "name": name, "cat": name.split(".", 1)[0], "ph": "X", "pid": pid, "tid": 0,
                "ts": (start - origin) / 1e3, "dur": (end - start) / 1e3,
                "args": {"id": sid, "parent": parent, "op": op},
            })
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w") as handle:
            json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, handle)


# -- op accounting ------------------------------------------------------------------


class Run:
    """One workload run's bookkeeping: ops attempted / failed, named latency
    samples, and the recorder the timed calls are wrapped in."""

    def __init__(self, tracing: bool) -> None:
        self.rec = Recorder(tracing)
        self.tracing = tracing
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.samples: dict[str, list[float]] = {}
        self.span_s = 0.0
        self.inner_s = 0.0

    def fail(self, what: str, count: int = 1) -> None:
        self.failed += count
        if len(self.failures) < 20:
            self.failures.append(what)

    def timed(self, span: str, fn: Callable[..., Any], *args: Any, count: int = 1):
        """One public call as ``count`` timed ops: ``(seconds, result)``.  An
        exception is a failed op, not a crash; the span sits outside the
        clock reads so its cost never lands in a reported time (``span_s``
        minus ``inner_s`` is what the recorder added around the calls)."""
        self.attempted += count
        outer = time.perf_counter()
        with self.rec.span(span):
            start = time.perf_counter()
            try:
                out = fn(*args)
            except Exception as exc:  # boundary: a failing op must be counted, not fatal
                out = None
                self.fail(f"{span}: {type(exc).__name__}: {exc}", count)
            elapsed = time.perf_counter() - start
        self.span_s += time.perf_counter() - outer
        self.inner_s += elapsed
        return elapsed, out

    def sample(self, name: str, seconds: float) -> None:
        self.samples.setdefault(name, []).append(seconds)

    def median_ms(self, name: str) -> float:
        return median_ms(self.samples.get(name, []))

    def take_samples(self) -> dict[str, list[float]]:
        """Hand over this slice's samples and start the next slice empty."""
        taken, self.samples = self.samples, {}
        return taken

    def check(self, what: str, ok: bool) -> None:
        """One oracle comparison = one attempted op; a mismatch is a failed op."""
        self.attempted += 1
        if not ok:
            self.fail(f"oracle mismatch: {what}")


# -- host context -------------------------------------------------------------------

_CALIB_ARRAY = np.random.default_rng(0).random(200_000)


def calib_ms() -> float:
    """A fixed NumPy + Python spin (median of 5).  Reported so a reader can
    tell a slow host from a slow program; never used to normalise anything."""
    times = []
    for _ in range(5):
        start = time.perf_counter()
        acc = 0
        for i in range(100_000):
            acc += i * i
        for _ in range(20):
            np.sort(_CALIB_ARRAY)
        times.append(time.perf_counter() - start)
    return statistics.median(times) * 1e3


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit() -> str:
    try:
        out = subprocess.run(
            ["git", "-C", REPO_ROOT, "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 and out.stdout.strip() else "unknown"


def environment() -> dict[str, Any]:
    return {
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "platform": platform.platform(),
        "git_commit": _git_commit(),
        "pool_workers": POOL_WORKERS,
    }
