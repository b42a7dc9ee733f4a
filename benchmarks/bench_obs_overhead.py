"""Observability overhead: what instrumentation costs when nobody is looking.

ISSUE 10 keeps every hot path instrumented *unconditionally* — session
flushes, join strategy runs, spill partition/merge, worker shards — and
pays for it with a disabled-tracer fast path (one cached no-op context
manager, no allocation).  This bench pins the two bars from the issue:

* **disabled overhead < 2 %** — measured structurally: the micro-cost of
  one disabled ``span()`` call × the number of spans a traced flush
  actually records, as a fraction of the untraced flush wall time.  This
  is the honest form of the bound — a wall-clock A/B at < 2 % drowns in
  scheduler noise, while the per-span cost is stable to nanoseconds;
* **traced ≤ 1.15x untraced** — the same query-session flush workload
  with tracing on vs off, best-of-5 wall clock (reported always, asserted
  at full scale where the runs are long enough to time).

Usage::

    PYTHONPATH=src python benchmarks/bench_obs_overhead.py          # full
    PYTHONPATH=src python benchmarks/bench_obs_overhead.py --quick  # CI

Also collectable by pytest, where it runs at quick scale and asserts the
disabled-path bound (the wall-clock ratio stays report-only at that
scale).
"""

from __future__ import annotations

import argparse
import os
import sys
import time

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src"))
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from bench_common import emit, range_window_workload
from repro import (
    QuerySession,
    UniformGrid,
    disable_tracing,
    enable_tracing,
    get_tracer,
    tracing_enabled,
)
from repro.analysis.reporting import format_table
from repro.geometry.aabb import AABB

UNIVERSE = AABB((0.0, 0.0, 0.0), (100.0, 100.0, 100.0))
FULL_N, FULL_M = 100_000, 10_000
QUICK_N, QUICK_M = 10_000, 1_000
MICRO_ITERS = 200_000
DISABLED_BUDGET = 0.02  # the issue's acceptance bar
TRACED_RATIO_BAR = 1.15


def best_of(fn, rounds: int = 5) -> float:
    best = float("inf")
    for _ in range(rounds):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def micro_disabled_span_cost(iters: int = MICRO_ITERS) -> float:
    """Seconds per ``span()`` call while the tracer is disabled."""
    from repro.obs import span

    assert not tracing_enabled()
    start = time.perf_counter()
    for _ in range(iters):
        with span("bench.noop"):
            pass
    elapsed = time.perf_counter() - start
    # Subtract the loop's own floor so the number is the span cost, not
    # the iteration cost.
    start = time.perf_counter()
    for _ in range(iters):
        pass
    floor = time.perf_counter() - start
    return max(elapsed - floor, 0.0) / iters


def run(quick: bool = False) -> dict[str, float]:
    n, m = (QUICK_N, QUICK_M) if quick else (FULL_N, FULL_M)
    items, queries = range_window_workload(n, m)
    grid = UniformGrid(universe=UNIVERSE)
    grid.bulk_load(items)
    session = QuerySession(grid)
    session.range_query(queries)  # warm kernels / caches once

    disable_tracing()
    per_span = micro_disabled_span_cost()
    untraced = best_of(lambda: session.range_query(queries))

    tracer = enable_tracing()
    tracer.clear()
    session.range_query(queries)
    spans_per_flush = len(tracer.spans())
    traced = best_of(lambda: session.range_query(queries))
    tracer.clear()
    disable_tracing()

    # Structural bound: even if a flush recorded 10x the spans it does
    # today, the disabled path charges per_span each — relate that to the
    # untraced flush wall time.
    disabled_overhead = (per_span * spans_per_flush) / untraced
    ratio = traced / untraced

    emit(
        f"Observability overhead — n={n:,}, m={m:,}\n"
        + format_table(
            ["metric", "value"],
            [
                ["disabled span cost (ns)", per_span * 1e9],
                ["spans per traced flush", float(spans_per_flush)],
                ["untraced flush (s)", untraced],
                ["traced flush (s)", traced],
                ["disabled overhead (%)", disabled_overhead * 100.0],
                ["traced / untraced", ratio],
            ],
        )
    )
    return {
        "per_span_ns": per_span * 1e9,
        "spans_per_flush": float(spans_per_flush),
        "untraced_s": untraced,
        "traced_s": traced,
        "disabled_overhead": disabled_overhead,
        "traced_ratio": ratio,
    }


def test_obs_overhead_quick_scale():
    """Harness smoke: the disabled fast path is structurally free."""
    was_enabled = tracing_enabled()
    try:
        results = run(quick=True)
    finally:
        get_tracer().enabled = was_enabled
    assert results["spans_per_flush"] >= 1, "traced flush recorded no spans"
    assert results["disabled_overhead"] < DISABLED_BUDGET, (
        f"disabled-tracer overhead {results['disabled_overhead'] * 100:.3f}% "
        f">= {DISABLED_BUDGET * 100:.0f}% "
        f"({results['per_span_ns']:.0f} ns x {results['spans_per_flush']:.0f} spans "
        f"vs {results['untraced_s'] * 1e3:.1f} ms flush)"
    )


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--quick", action="store_true", help="CI smoke scale (10k/1k)")
    args = parser.parse_args()
    results = run(quick=args.quick)
    assert results["disabled_overhead"] < DISABLED_BUDGET, (
        f"disabled-tracer overhead {results['disabled_overhead'] * 100:.3f}% "
        f">= {DISABLED_BUDGET * 100:.0f}%"
    )
    print(
        f"OK: disabled overhead {results['disabled_overhead'] * 100:.4f}% "
        f"({results['per_span_ns']:.0f} ns/span x "
        f"{results['spans_per_flush']:.0f} spans/flush)"
    )
    if args.quick:
        print(f"traced/untraced {results['traced_ratio']:.3f}x (report-only at quick scale)")
        return
    assert results["traced_ratio"] <= TRACED_RATIO_BAR, (
        f"traced flush {results['traced_ratio']:.3f}x untraced "
        f"> {TRACED_RATIO_BAR:.2f}x"
    )
    print(f"OK: traced/untraced {results['traced_ratio']:.3f}x (<= {TRACED_RATIO_BAR:.2f}x)")


if __name__ == "__main__":
    main()
