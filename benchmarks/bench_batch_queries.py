"""Per-query loop vs batched execution — the batch kernels' reason to exist.

The paper's workloads are batch-shaped: "thousands of range queries need to
be executed between two simulation steps" (§2.2) and synapse detection probes
every neuron branch.  This bench builds the same uniform workload at
n=100k elements / m=10k queries and times three execution strategies on each
index:

* ``loop``   — one ``range_query`` call per query (the seed library's only
  option);
* ``batch``  — the index's ``batch_range_query`` kernel over the whole array;

and asserts the claim the batch kernels were built on: batched range queries on the
UniformGrid run at least 3× the per-query loop's throughput.

Usage::

    PYTHONPATH=src python benchmarks/bench_batch_queries.py          # full scale
    PYTHONPATH=src python benchmarks/bench_batch_queries.py --quick  # CI smoke

Also collectable by pytest (``python -m pytest benchmarks/bench_batch_queries.py``),
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

from bench_common import emit, range_window_workload
from repro.analysis.reporting import format_table
from repro.core.multires_grid import MultiResolutionGrid
from repro.core.uniform_grid import UniformGrid
from repro.geometry.aabb import AABB
from repro.indexes.linear_scan import LinearScan
from repro.indexes.rtree import RTree

UNIVERSE = AABB((0.0, 0.0, 0.0), (100.0, 100.0, 100.0))
FULL_N, FULL_M = 100_000, 10_000
QUICK_N, QUICK_M = 10_000, 1_000


def bench_index(name, index, items, queries, verify_sample=25, steady_rounds=3):
    """Times three regimes.

    ``first`` is a cold batch and includes any one-time dense packing an
    index performs; ``steady`` is the amortized regime of the paper's
    analysis phase — multiple query batches (visualization frames, monitors,
    probes) against an index that is not mutated between them.
    """
    index.bulk_load(items)
    query_boxes = [AABB(q[0], q[1]) for q in queries]

    start = time.perf_counter()
    looped = [index.range_query(box) for box in query_boxes]
    loop_seconds = time.perf_counter() - start

    start = time.perf_counter()
    batched = index.batch_range_query(queries)
    first_seconds = time.perf_counter() - start

    start = time.perf_counter()
    for _ in range(steady_rounds):
        index.batch_range_query(queries)
    steady_seconds = (time.perf_counter() - start) / steady_rounds

    for i in np.linspace(0, len(query_boxes) - 1, verify_sample).astype(int):
        assert sorted(batched[i]) == sorted(looped[i]), f"{name}: mismatch on query {i}"

    m = len(query_boxes)
    return {
        "index": name,
        "loop qps": m / loop_seconds,
        "first qps": m / first_seconds,
        "steady qps": m / steady_seconds,
        "first speedup": loop_seconds / first_seconds,
        "steady speedup": loop_seconds / steady_seconds,
    }


def run(quick: bool = False) -> dict[str, float]:
    n, m = (QUICK_N, QUICK_M) if quick else (FULL_N, FULL_M)
    items, queries = range_window_workload(n, m)
    contenders = {
        "LinearScan": LinearScan(),
        "UniformGrid": UniformGrid(universe=UNIVERSE),
        "Multi-res grid": MultiResolutionGrid(universe=UNIVERSE, levels=3),
        "R-tree": RTree(max_entries=16),
    }
    # The scan's per-query loop is O(n*m) pure Python (~7 min at full scale);
    # qps comparisons stay fair on a query subsample.
    query_cap = {"LinearScan": 1_000}
    rows = []
    speedups: dict[str, float] = {}
    for name, index in contenders.items():
        result = bench_index(name, index, items, queries[: query_cap.get(name, m)])
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
        f"Batched vs per-query range queries — n={n:,} elements, m={m:,} queries\n"
        "('first batch' pays any one-time dense packing; 'steady' is the\n"
        "paper's analysis regime: repeated batches on an unmutated index)\n"
        + format_table(
            ["index", "per-query qps", "first batch qps", "steady qps", "steady speedup"],
            rows,
        )
    )
    return speedups


def test_batch_beats_per_query_loop():
    """Quick-scale shape check for the benchmark harness run."""
    speedups = run(quick=True)
    assert speedups["UniformGrid"] > 1.0
    assert speedups["LinearScan"] > 1.0


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--quick", action="store_true", help="CI smoke scale (10k/1k)")
    args = parser.parse_args()
    speedups = run(quick=args.quick)
    if not args.quick:
        # The acceptance bar: batching must buy >= 3x on the paper's primary
        # in-memory candidate at full scale.
        assert speedups["UniformGrid"] >= 3.0, (
            f"UniformGrid batch speedup {speedups['UniformGrid']:.1f}x < 3x"
        )
        print(f"OK: UniformGrid batched speedup {speedups['UniformGrid']:.1f}x (>= 3x)")


if __name__ == "__main__":
    main()
