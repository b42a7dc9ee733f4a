"""Per-query loop vs batched kNN — the tentpole claim of the batch-kNN PR.

Nearest-synapse and nearest-segment lookups dominate the paper's analysis
phase: they are issued by the million per simulation step, and after PR 1
only LinearScan answered them at array speed.  This bench builds the uniform
n=100k / m=10k workload and times, per index:

* ``loop``   — one scalar ``knn`` call per probe point;
* ``first``  — a cold ``batch_knn`` kernel call over the whole point array
  (pays any one-time dense packing: the grid snapshot, tree entry arrays);
* ``steady`` — repeated batches against an unmutated index, the paper's
  analysis regime (visualization frames, monitors, synapse probes).

The acceptance bar asserted at full scale: steady-state batched kNN on
**UniformGrid** and on the **R-tree** beats the per-query loop by >= 3x.

Usage::

    PYTHONPATH=src python benchmarks/bench_batch_knn.py          # full scale
    PYTHONPATH=src python benchmarks/bench_batch_knn.py --quick  # CI smoke

Also collectable by pytest (``python -m pytest benchmarks/bench_batch_knn.py``),
where it runs at quick scale.
"""

from __future__ import annotations

import argparse
import os
import sys
import time

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src"))
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import numpy as np

from bench_common import emit, knn_point_workload
from repro.analysis.reporting import format_table
from repro.core.multires_grid import MultiResolutionGrid
from repro.core.uniform_grid import UniformGrid
from repro.geometry.aabb import AABB
from repro.indexes.linear_scan import LinearScan
from repro.indexes.rtree import RTree

UNIVERSE = AABB((0.0, 0.0, 0.0), (100.0, 100.0, 100.0))
FULL_N, FULL_M = 100_000, 10_000
QUICK_N, QUICK_M = 10_000, 1_000
K = 8


def bench_index(name, index, items, points, loop_cap, verify_sample=25, steady_rounds=3):
    """Times the scalar loop (possibly on a subsample) and the batch regimes.

    The loop is pure-Python per query, so slow contenders are measured on
    ``loop_cap`` probes and compared by throughput; the batch always runs
    the full array.  ``first`` is a cold batch including one-time packing;
    ``steady`` amortizes over repeated batches on the unmutated index.
    """
    index.bulk_load(items)
    loop_points = points[:loop_cap]

    start = time.perf_counter()
    looped = [index.knn(tuple(p), K) for p in loop_points]
    loop_seconds = time.perf_counter() - start

    start = time.perf_counter()
    batched = index.batch_knn(points, K)
    first_seconds = time.perf_counter() - start

    # Best-of-rounds: the steady regime asks "how fast can a warm batch
    # run", so scheduler noise in a round shouldn't count against it.
    steady_seconds = float("inf")
    for _ in range(steady_rounds):
        start = time.perf_counter()
        index.batch_knn(points, K)
        steady_seconds = min(steady_seconds, time.perf_counter() - start)

    for i in np.linspace(0, len(loop_points) - 1, verify_sample).astype(int):
        got = [(round(d, 6), e) for d, e in batched[i]]
        expected = [(round(d, 6), e) for d, e in looped[i]]
        assert got == expected, f"{name}: kNN mismatch on probe {i}"

    loop_qps = len(loop_points) / loop_seconds
    return {
        "index": name,
        "loop qps": loop_qps,
        "first qps": len(points) / first_seconds,
        "steady qps": len(points) / steady_seconds,
        "first speedup": (len(points) / first_seconds) / loop_qps,
        "steady speedup": (len(points) / steady_seconds) / loop_qps,
    }


def run(quick: bool = False) -> dict[str, float]:
    n, m = (QUICK_N, QUICK_M) if quick else (FULL_N, FULL_M)
    items, points = knn_point_workload(n, m)
    # The scan is O(n) per query in both regimes (pure Python looped, m*n
    # matrix batched); cap its query counts so the bench stays minutes-free
    # — throughput comparisons remain fair.  The indexed contenders run the
    # full batch and a capped pure-Python loop.
    contenders = [
        ("LinearScan", LinearScan(), 100, 1_000),
        ("UniformGrid", UniformGrid(universe=UNIVERSE), 2_000, None),
        ("Multi-res grid", MultiResolutionGrid(universe=UNIVERSE, levels=3), 2_000, None),
        ("R-tree", RTree(max_entries=16), 2_000, None),
    ]
    rows = []
    speedups: dict[str, float] = {}
    for name, index, loop_cap, batch_cap in contenders:
        batch_points = points if batch_cap is None else points[:batch_cap]
        result = bench_index(name, index, items, batch_points, min(loop_cap, m))
        speedups[name] = result["steady speedup"]
        rows.append(
            [
                name,
                f"{result['loop qps']:,.0f}",
                f"{result['first qps']:,.0f}",
                f"{result['steady qps']:,.0f}",
                f"{result['steady speedup']:.1f}x",
            ]
        )
    emit(
        f"Batched vs per-query kNN (k={K}) — n={n:,} elements, m={m:,} probes\n"
        "('first batch' pays any one-time dense packing; 'steady' is the\n"
        "paper's analysis regime: repeated batches on an unmutated index)\n"
        + format_table(
            ["index", "per-query qps", "first batch qps", "steady qps", "steady speedup"],
            rows,
        )
    )
    return speedups


def test_batch_knn_beats_per_query_loop():
    """Quick-scale shape check for the benchmark harness run."""
    speedups = run(quick=True)
    assert speedups["UniformGrid"] > 1.0
    assert speedups["R-tree"] > 1.0


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--quick", action="store_true", help="CI smoke scale (10k/1k)")
    args = parser.parse_args()
    speedups = run(quick=args.quick)
    if not args.quick:
        # The acceptance bar: steady-state batching must buy >= 3x on the
        # paper's primary in-memory candidate AND the reference dynamic tree.
        for name in ("UniformGrid", "R-tree"):
            assert speedups[name] >= 3.0, f"{name} batch speedup {speedups[name]:.1f}x < 3x"
        print(
            "OK: steady-state batched kNN speedup "
            f"UniformGrid {speedups['UniformGrid']:.1f}x, "
            f"R-tree {speedups['R-tree']:.1f}x (>= 3x)"
        )


if __name__ == "__main__":
    main()
