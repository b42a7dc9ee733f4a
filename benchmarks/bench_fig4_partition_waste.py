"""Figure 4 — narrow data-oriented partitions cause unnecessary tests.

Paper: "a range query intersecting with such a partition may contain only few
of the partition's elements, yet all elements need to be tested for
intersection, leading to unnecessary intersection tests.  This degrades
performance particularly in memory."

Reproduction: a dataset of strongly *elongated* elements (neuron-segment
style) makes R-tree leaf partitions narrow; we measure the **waste ratio** —
element tests that did not produce a hit, per query — for the data-oriented
R-tree vs the space-oriented uniform grid at the analytical-model resolution.
Shape assertion: the R-tree wastes a higher fraction of its element tests
than the grid.
"""

from __future__ import annotations

from repro.core.resolution import optimal_cell_size
from repro.core.uniform_grid import UniformGrid
from repro.datasets.points import clustered_boxes
from repro.datasets.queries import random_range_queries
from repro.geometry.aabb import AABB
from repro.indexes.rtree import RTree

from bench_common import record

UNIVERSE = AABB((0, 0, 0), (100, 100, 100))


def _waste(index, queries):
    tests = 0
    hits = 0
    before = index.counters.snapshot()
    for query in queries:
        hits += len(index.range_query(query))
    tests = index.counters.diff(before).elem_tests
    return tests, hits, (tests - hits) / max(tests, 1)


def test_fig4_partition_waste(benchmark):
    items = clustered_boxes(
        20_000, UNIVERSE, clusters=10, min_extent=0.1, max_extent=0.5,
        elongation=60.0, seed=3,
    )
    queries = random_range_queries(100, UNIVERSE, extent=4.0, seed=5)

    rtree = RTree(max_entries=16)
    rtree.bulk_load(items)
    extents = [max(box.extents()) for _, box in items]
    cell = optimal_cell_size(
        len(items), UNIVERSE, sum(extents) / len(extents), avg_query_extent=4.0
    )
    grid = UniformGrid(universe=UNIVERSE, cell_size=cell)
    grid.bulk_load(items)

    def run():
        return _waste(rtree, queries), _waste(grid, queries)

    (rtree_stats, grid_stats) = benchmark.pedantic(run, rounds=1, iterations=1)
    rtree_tests, rtree_hits, rtree_waste = rtree_stats
    grid_tests, grid_hits, grid_waste = grid_stats
    assert rtree_hits == grid_hits  # identical answers

    record(
        "fig4_partition_waste",
        ["index", "elem tests", "hits", "wasted fraction"],
        [
            ["R-tree (data-oriented)", rtree_tests, rtree_hits, rtree_waste],
            ["Uniform grid (space-oriented)", grid_tests, grid_hits, grid_waste],
        ],
        elements=len(items),
        queries=len(queries),
        paper="narrow data-oriented partitions => unnecessary tests",
    )

    assert rtree_waste > grid_waste, (
        f"data-oriented partitioning should waste more tests "
        f"({rtree_waste:.2f} vs {grid_waste:.2f})"
    )
