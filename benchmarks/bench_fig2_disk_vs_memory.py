"""Figure 2 — R-tree query time breakdown: disk vs memory.

Paper: 200 queries (selectivity 5×10⁻⁴ %) on a 200 M-element R-tree take
2253 s on disk with **96.7 % of time reading data**, and 40 s in memory with
**3.3 % reading / 95.3 % computing**.

Reproduction: the same experiment design at harness scale, with the disk
R-tree running over the simulated page store (cold cache, cleaned between
queries — the paper's protocol) and both sides priced by the calibrated cost
models.  Shape assertions: reading dominates on disk, computation dominates
in memory, and the modeled in-memory run is orders of magnitude faster.
"""

from __future__ import annotations

from repro.analysis.breakdown import coarse_breakdown_rows
from repro.indexes.disk_rtree import DiskRTree
from repro.indexes.rtree import RTree
from repro.instrumentation.costmodel import READING, DiskCostModel, MemoryCostModel

from bench_common import record


def _run_queries(index, queries, clear_cache=False):
    before = index.counters.snapshot()
    results = 0
    for query in queries:
        if clear_cache:
            index.clear_cache()
        results += len(index.range_query(query))
    return index.counters.diff(before), results


def test_fig2_disk_vs_memory(neuron_items, paper_queries, benchmark):
    disk = DiskRTree(max_entries=64, buffer_pages=64)
    disk.bulk_load(neuron_items)
    memory = RTree(max_entries=16)
    memory.bulk_load(neuron_items)

    disk_counters, disk_hits = _run_queries(disk, paper_queries, clear_cache=True)

    def run_memory():
        return _run_queries(memory, paper_queries)

    memory_counters, memory_hits = benchmark.pedantic(run_memory, rounds=1, iterations=1)
    assert disk_hits == memory_hits  # same answers on both substrates

    disk_breakdown = DiskCostModel().breakdown(disk_counters).coarse()
    memory_breakdown = MemoryCostModel().breakdown(memory_counters).coarse()

    record(
        "fig2_disk_vs_memory",
        ["configuration", "reading %", "computing %", "modeled s"],
        coarse_breakdown_rows("R-Tree on Disk", disk_breakdown)
        + coarse_breakdown_rows("R-Tree in Memory", memory_breakdown),
        elements=len(neuron_items),
        queries=len(paper_queries),
        paper="disk 96.7 % reading / memory 3.3 % reading, 2253 s -> 40 s",
    )

    # Shape assertions (the paper's claims).
    assert disk_breakdown.fraction(READING) > 0.85, "disk must be read-dominated"
    assert memory_breakdown.fraction(READING) < 0.15, "memory must be compute-dominated"
    speedup = disk_breakdown.total() / max(memory_breakdown.total(), 1e-12)
    assert speedup > 10, f"memory should be order(s) of magnitude faster, got {speedup:.1f}x"
