"""Serving-tier throughput and latency: the worker pool vs in-process batching.

A persistent shared-memory :class:`~repro.serving.pool.WorkerPool` ships the
index to its workers once and each flush only probe arrays and result ids.
This bench measures it two ways at the paper's analysis scale (n=100k
elements / m=10k queries):

* **steady-state sharding** — the same range batch answered by a pooled
  ``ShardedExecutor`` (snapshot attached once) and by the in-process
  ``BatchExecutor``; both qps are reported, not asserted — what the pool
  buys depends on the cores the host has;
* **async serving** — N=8 asyncio clients sustaining a mixed range/kNN
  workload through a :class:`ServingSession`, beside one array client whose
  batch-sized submissions flush on their own (ISSUE 18); reports
  client-observed p50/p99 latency and aggregate qps, with every answer —
  the array client's included — checked against the LinearScan oracle.

Usage::

    PYTHONPATH=src python benchmarks/bench_serving.py          # full scale
    PYTHONPATH=src python benchmarks/bench_serving.py --quick  # CI smoke

Also collectable by pytest (``python -m pytest benchmarks/bench_serving.py``),
where it runs at quick scale and checks correctness, not wall-clock.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import multiprocessing
import os
import sys
import time

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src"))
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import numpy as np

from bench_common import emit, range_window_workload
from repro import (
    AABB,
    BatchExecutor,
    FlushPolicy,
    KNNQuery,
    QuerySession,
    RangeQuery,
    SelfJoinSpec,
    ServingSession,
    ShardedExecutor,
    UniformGrid,
    WorkerPool,
    enable_tracing,
    get_tracer,
    tracing_enabled,
)
from repro.analysis.reporting import format_table
from repro.indexes.linear_scan import LinearScan

UNIVERSE = AABB((0.0, 0.0, 0.0), (100.0, 100.0, 100.0))
FULL_N, FULL_M = 100_000, 10_000
QUICK_N, QUICK_M = 10_000, 1_000
CLIENTS = 8
REQUESTS_PER_CLIENT_FULL = 150
REQUESTS_PER_CLIENT_QUICK = 30
ARRAY_ROUNDS = 4  # batch-sized submissions from the array client

# Observability artifacts (ISSUE 10): a short traced pass runs *after* the
# timed workload, so the exported trace shows real pool traffic without
# perturbing the measured qps/latency numbers.
TRACE_ARTIFACT = "BENCH_serving_trace.json"
METRICS_ARTIFACT = "BENCH_serving_metrics.json"


def best_of(fn, rounds: int = 3) -> float:
    best = float("inf")
    for _ in range(rounds):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def percentile(samples: list[float], q: float) -> float:
    return float(np.percentile(np.asarray(samples), q))


def bench_pool_vs_inline(grid, queries, m: int, pool: WorkerPool) -> dict[str, float]:
    """The same range batch, pool-backed vs in-process batching."""
    workers = pool.workers
    min_shard = max(m // (2 * workers), 1)
    pooled = QuerySession(
        grid, executor=ShardedExecutor(workers=workers, min_shard=min_shard, pool=pool)
    )
    inline = QuerySession(grid, executor=BatchExecutor())
    expected = pooled.range_query(queries)  # also warms pool + snapshot
    assert inline.range_query(queries) == expected, "in-process path diverged from pool path"

    pooled_time = best_of(lambda: pooled.range_query(queries))
    inline_time = best_of(lambda: inline.range_query(queries))
    return {
        "pooled_qps": m / pooled_time,
        "inline_qps": m / inline_time,
        "speedup": inline_time / pooled_time,
        "exports": float(pool.exports),
    }


async def _client(serving, oracle, boxes, points, latencies, check: bool):
    for box, point in zip(boxes, points):
        start = time.perf_counter()
        ids = await serving.range_query(box)
        latencies.append(time.perf_counter() - start)
        if check:
            assert sorted(ids) == sorted(oracle.range_query(box))
        start = time.perf_counter()
        neighbours = await serving.knn(point, 8)
        latencies.append(time.perf_counter() - start)
        if check:
            exact = oracle.knn(point, 8)
            assert [eid for _, eid in neighbours] == [eid for _, eid in exact]


async def _array_client(serving, batches) -> None:
    """Whole-batch submissions: each fills ``FlushPolicy.max_batch`` by
    itself and shards onto the pool, so it flushes on its own while the
    single-request clients keep being answered.  ``batches`` pairs each
    window array with its oracle answers, computed ahead of the timed loop
    (or ``None`` to skip the check)."""
    for windows, expected in batches:
        handle = await serving.query_executor.submit_ranges(windows)
        answer = await handle
        assert len(answer) == len(windows)
        if expected is not None:
            assert [sorted(ids) for ids in answer] == expected


async def _export_artifacts(serving, oracle, workload, items, array_batch) -> None:
    """One traced round through the live session, then write the
    Chrome-trace JSON and the merged metrics snapshot for CI to upload.
    The array batch is what puts *worker* spans in the trace: single awaited
    queries batch too narrowly to shard, but a batch-sized array fans out
    across the pool and its worker spans merge back under the flush span.
    The self-join runs in-process, off the loop."""
    was_enabled = tracing_enabled()
    tracer = enable_tracing()
    tracer.clear()
    try:
        boxes, points = workload
        await _client(serving, oracle, boxes[:4], points[:4], [], check=False)
        await _array_client(serving, [array_batch])
        await serving.join(SelfJoinSpec(items[: max(len(items) // 2, 6_000)]))
    finally:
        tracer.enabled = was_enabled
    events = serving.export_trace(TRACE_ARTIFACT)
    assert events, "traced pass produced no spans"
    with open(METRICS_ARTIFACT, "w") as fh:
        fh.write(serving.metrics_json(indent=1))
    tracer.clear()


def bench_async_serving(
    grid, oracle, pool: WorkerPool, requests_per_client: int, check: bool, items
) -> dict[str, float]:
    rng = np.random.default_rng(3)
    per_client: list[tuple[list[AABB], list[tuple[float, ...]]]] = []
    for _ in range(CLIENTS):
        lo = rng.uniform(0.0, 98.0, size=(requests_per_client, 3))
        boxes = [AABB(row, np.minimum(row + 2.0, 100.0)) for row in lo]
        points = [tuple(p) for p in rng.uniform(0.0, 100.0, size=(requests_per_client, 3))]
        per_client.append((boxes, points))

    rows = FlushPolicy().max_batch  # the session below runs the default policy
    array_batches = []
    for _ in range(ARRAY_ROUNDS):
        lo = rng.uniform(0.0, 98.0, size=(rows, 3))
        windows = np.stack([lo, np.minimum(lo + 2.0, 100.0)], axis=1)
        expected = [sorted(ids) for ids in oracle.batch_range_query(windows)] if check else None
        array_batches.append((windows, expected))

    latencies: list[float] = []

    async def main() -> float:
        async with ServingSession(grid, pool=pool, min_shard=4) as serving:
            start = time.perf_counter()
            await asyncio.gather(
                *(
                    _client(serving, oracle, boxes, points, latencies, check)
                    for boxes, points in per_client
                ),
                _array_client(serving, array_batches),
            )
            elapsed = time.perf_counter() - start
            stats = serving.queries.stats
            assert stats.queue_high_water >= 2, "clients never overlapped in the queue"
            # bench_pool_vs_inline left a live export of this grid, so every
            # array submission flushed on its own: none entered the queue,
            # each is one "full" flush, and none re-exported the index.
            assert stats.queue_high_water < rows, "an array submission sat in the queue"
            assert stats.flush_triggers.get("full", 0) == ARRAY_ROUNDS
            assert sum(stats.flush_triggers.values()) == stats.flushes
            assert pool.exports == 1, f"expected one snapshot export, saw {pool.exports}"
            await _export_artifacts(serving, oracle, per_client[0], items, array_batches[0])
            return elapsed

    elapsed = asyncio.run(main())
    # Single requests only: the array client's rows are not latency samples.
    total = 2 * CLIENTS * requests_per_client
    return {
        "async_qps": total / elapsed,
        "p50_ms": percentile(latencies, 50) * 1e3,
        "p99_ms": percentile(latencies, 99) * 1e3,
        "requests": float(total),
    }


def run(quick: bool = False) -> dict[str, float]:
    n, m = (QUICK_N, QUICK_M) if quick else (FULL_N, FULL_M)
    requests = REQUESTS_PER_CLIENT_QUICK if quick else REQUESTS_PER_CLIENT_FULL
    items, queries = range_window_workload(n, m)
    grid = UniformGrid(universe=UNIVERSE)
    grid.bulk_load(items)
    oracle = LinearScan()
    oracle.bulk_load(items)

    cpus = multiprocessing.cpu_count()
    with WorkerPool(workers=min(cpus, 4) if cpus > 1 else 2) as pool:
        sharded = bench_pool_vs_inline(grid, queries, m, pool)
        # Oracle-check every async answer at quick scale; at full scale spot
        # throughput (the correctness pin lives in tests/test_serving.py).
        serving = bench_async_serving(grid, oracle, pool, requests, check=quick, items=items)

    emit(
        f"Serving tier — n={n:,}, m={m:,}, {cpus} CPUs visible\n"
        + format_table(
            ["executor", "qps", "vs in-process"],
            [
                ["in-process batch", sharded["inline_qps"], 1.0],
                ["worker pool", sharded["pooled_qps"], sharded["speedup"]],
            ],
        )
        + f"\nindex exports over the whole run: {sharded['exports']:.0f}\n\n"
        + f"async serving — {CLIENTS} clients x {requests} range+kNN rounds\n"
        + format_table(
            ["metric", "value"],
            [
                ["qps", serving["async_qps"]],
                ["p50 latency (ms)", serving["p50_ms"]],
                ["p99 latency (ms)", serving["p99_ms"]],
            ],
        )
    )
    return {**sharded, **serving, "cpus": float(cpus)}


def test_serving_bench_quick_scale():
    """Harness smoke: pooled results stay correct and telemetry adds up."""
    results = run(quick=True)
    assert results["exports"] == 1.0  # one snapshot across every flush
    assert results["requests"] == 2.0 * CLIENTS * REQUESTS_PER_CLIENT_QUICK
    # The observability artifacts CI uploads are well-formed and non-empty.
    with open(TRACE_ARTIFACT) as fh:
        trace = json.load(fh)
    events = trace["traceEvents"]
    assert any(
        event["name"] == "serving.flush" for event in events
    ), "trace artifact is missing serving.flush spans"
    worker_events = [event for event in events if event["name"].startswith("worker.")]
    assert worker_events, "trace artifact has no pool-worker spans"
    parent_pid = os.getpid()
    assert any(event["pid"] != parent_pid for event in worker_events), (
        "worker spans all carry the parent pid — pool propagation broke"
    )
    with open(METRICS_ARTIFACT) as fh:
        metrics = json.load(fh)
    assert metrics["query.flushes"]["value"] > 0
    assert metrics["serving.flush.seconds"]["count"] > 0


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--quick", action="store_true", help="CI smoke scale (10k/1k)")
    args = parser.parse_args()
    results = run(quick=args.quick)
    assert results["exports"] == 1.0, (
        f"expected one snapshot export, saw {results['exports']:.0f}"
    )
    if args.quick:
        return
    print(
        f"worker pool {results['pooled_qps']:.0f} qps vs in-process "
        f"{results['inline_qps']:.0f} qps ({results['speedup']:.2f}x) on "
        f"{results['cpus']:.0f} CPU(s)"
    )
    print(
        f"async serving: {results['async_qps']:.0f} qps, "
        f"p50 {results['p50_ms']:.2f} ms, p99 {results['p99_ms']:.2f} ms"
    )


if __name__ == "__main__":
    main()
