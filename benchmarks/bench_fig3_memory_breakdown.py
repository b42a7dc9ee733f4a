"""Figure 3 — in-memory R-tree query breakdown by computation kind.

Paper: in memory ~80 % of query time is intersection tests — 55 % against
the tree structure, 25 % against elements — with reading data at 3.3 % and
the rest bookkeeping.

Reproduction: same query workload as Figure 2; counters attribute every
operation, and the memory cost model prices them into the paper's four
categories.  Shape assertions: intersection tests dominate (> 2/3), tree
tests are a major share, reading data is small.
"""

from __future__ import annotations

from repro.indexes.rtree import RTree
from repro.instrumentation.costmodel import (
    ELEM_TESTS,
    READING,
    TREE_TESTS,
    MemoryCostModel,
)

from bench_common import record


def test_fig3_memory_breakdown(neuron_items, paper_queries, benchmark):
    index = RTree(max_entries=16)
    index.bulk_load(neuron_items)

    def run():
        before = index.counters.snapshot()
        for query in paper_queries:
            index.range_query(query)
        return index.counters.diff(before)

    counters = benchmark.pedantic(run, rounds=1, iterations=1)
    breakdown = MemoryCostModel().breakdown(counters)

    record(
        "fig3_memory_breakdown",
        ["category", "% of time", "modeled s"],
        [
            [category, breakdown.percent(category), seconds]
            for category, seconds in breakdown.seconds.items()
        ],
        elements=len(neuron_items),
        queries=len(paper_queries),
        paper="~3.3 % reading, ~55 % tree tests, ~25 % element tests",
    )

    tests_share = breakdown.fraction(TREE_TESTS) + breakdown.fraction(ELEM_TESTS)
    assert tests_share > 0.65, f"intersection tests must dominate, got {tests_share:.2f}"
    assert breakdown.fraction(READING) < 0.15
    assert breakdown.fraction(TREE_TESTS) > 0.25, "tree traversal must be a major share"
    assert counters.node_tests > 0 and counters.elem_tests > 0
