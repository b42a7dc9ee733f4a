"""Oracle-driven property tests for the batch query layer.

Every index's ``batch_range_query`` / ``batch_knn`` must agree item-for-item
with the :class:`~repro.indexes.linear_scan.LinearScan` oracle — including
empty batches, duplicate queries and degenerate (zero-extent) boxes.  The
hypothesis suites drive the comparison with generated datasets and batches;
the deterministic tests pin the session's batch path (dedup, point queries,
input forms) and the UniformGrid cell-visit regression.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import UNIVERSE_3D, knn_pairs, make_items, make_queries
from repro.core.multires_grid import MultiResolutionGrid
from repro.core.uniform_grid import UniformGrid
from repro.engine import BatchExecutor, QuerySession
from repro.geometry.aabb import AABB, boxes_to_array
from repro.indexes.disk_rtree import DiskRTree
from repro.indexes.linear_scan import LinearScan
from repro.indexes.rstar import RStarTree
from repro.indexes.rtree import RTree
from repro.instrumentation.counters import Counters

INDEX_FACTORIES = {
    "linear_scan": LinearScan,
    "uniform_grid": UniformGrid,
    "multires_grid": lambda: MultiResolutionGrid(levels=3),
    "rtree": lambda: RTree(max_entries=8),
    "rstar": lambda: RStarTree(max_entries=8),
    "disk_rtree": lambda: DiskRTree(max_entries=8),
}

FACTORY_PARAMS = pytest.mark.parametrize(
    "factory", INDEX_FACTORIES.values(), ids=INDEX_FACTORIES.keys()
)

coordinate = st.floats(-50.0, 50.0, allow_nan=False, allow_infinity=False)


@st.composite
def random_boxes(draw, dims: int, max_count: int, allow_degenerate: bool = True):
    """A list of boxes; roughly a third are degenerate when allowed."""
    count = draw(st.integers(0, max_count))
    boxes = []
    for _ in range(count):
        a = [draw(coordinate) for _ in range(dims)]
        if allow_degenerate and draw(st.booleans()) and draw(st.booleans()):
            boxes.append(AABB(a, a))
            continue
        b = [draw(coordinate) for _ in range(dims)]
        lo = [min(x, y) for x, y in zip(a, b)]
        hi = [max(x, y) for x, y in zip(a, b)]
        boxes.append(AABB(lo, hi))
    return boxes


@st.composite
def dataset_and_queries(draw, dims: int):
    items = [(eid, box) for eid, box in enumerate(draw(random_boxes(dims, 40)))]
    queries = draw(random_boxes(dims, 8))
    # Force duplicates into most non-empty batches.
    if queries and draw(st.booleans()):
        queries = queries + [queries[0]]
    return items, queries


class TestBatchRangeMatchesOracle:
    @FACTORY_PARAMS
    @settings(max_examples=30, deadline=None)
    @given(data=st.data(), dims=st.sampled_from([2, 3]))
    def test_matches_linear_scan(self, factory, data, dims):
        items, queries = data.draw(dataset_and_queries(dims))
        index = factory()
        index.bulk_load(items)
        oracle = LinearScan()
        oracle.bulk_load(items)
        got = index.batch_range_query(queries)
        assert len(got) == len(queries)
        for answer, query in zip(got, queries):
            assert sorted(answer) == sorted(oracle.range_query(query))

    @FACTORY_PARAMS
    def test_empty_batch(self, factory):
        index = factory()
        index.bulk_load(make_items(50, seed=2))
        assert index.batch_range_query([]) == []
        assert index.batch_range_query(np.empty((0, 2, 3))) == []

    @FACTORY_PARAMS
    def test_empty_index(self, factory):
        index = factory()
        index.bulk_load([])
        queries = make_queries(4, seed=3)
        assert index.batch_range_query(queries) == [[], [], [], []]

    @FACTORY_PARAMS
    def test_ndarray_and_aabb_inputs_agree(self, factory):
        items = make_items(300, seed=5)
        queries = make_queries(10, seed=6) + [AABB.from_point((50.0, 50.0, 50.0))]
        index = factory()
        index.bulk_load(items)
        from_objects = index.batch_range_query(queries)
        from_array = index.batch_range_query(boxes_to_array(queries))
        assert [sorted(r) for r in from_objects] == [sorted(r) for r in from_array]

    @FACTORY_PARAMS
    def test_extreme_query_coordinates(self, factory):
        """Queries far outside the universe must clamp, not overflow.

        Regression: the grid kernel's float->int64 cell cast wrapped for
        coordinates ~1e30 and silently dropped hits.
        """
        items = make_items(60, seed=17)
        index = factory()
        index.bulk_load(items)
        huge = AABB((-1e30,) * 3, (1e30,) * 3)
        assert sorted(index.batch_range_query([huge])[0]) == sorted(
            eid for eid, _ in items
        )

    @FACTORY_PARAMS
    def test_batch_after_mutations(self, factory):
        """Mutations must invalidate any cached batch state."""
        items = make_items(200, seed=8)
        index = factory()
        index.bulk_load(items)
        queries = make_queries(6, seed=9)
        index.batch_range_query(queries)  # warm any lazy cache
        index.delete(*items[0])
        index.insert(10_000, AABB((1.0, 1.0, 1.0), (3.0, 3.0, 3.0)))
        oracle = LinearScan()
        oracle.bulk_load(items[1:] + [(10_000, AABB((1.0, 1.0, 1.0), (3.0, 3.0, 3.0)))])
        for answer, query in zip(index.batch_range_query(queries), queries):
            assert sorted(answer) == sorted(oracle.range_query(query))


class TestBatchKnnMatchesOracle:
    @FACTORY_PARAMS
    @settings(max_examples=20, deadline=None)
    @given(data=st.data(), dims=st.sampled_from([2, 3]), k=st.integers(0, 6))
    def test_matches_linear_scan(self, factory, data, dims, k):
        items, _ = data.draw(dataset_and_queries(dims))
        points = [tuple(box.center()) for box in data.draw(random_boxes(dims, 5))]
        if points and data.draw(st.booleans()):
            points = points + [points[0]]
        index = factory()
        index.bulk_load(items)
        oracle = LinearScan()
        oracle.bulk_load(items)
        got = index.batch_knn(points, k)
        assert len(got) == len(points)
        for answer, point in zip(got, points):
            # Exact ordered comparison: the (distance, id) tie-break contract
            # (indexes/base.py) leaves nothing to sort.
            assert knn_pairs(answer) == knn_pairs(oracle.knn(point, k))

    @FACTORY_PARAMS
    def test_empty_batch(self, factory):
        index = factory()
        index.bulk_load(make_items(30, seed=4))
        assert index.batch_knn([], 3) == []


class TestSessionBatchPath:
    def _setup(self, n=400):
        items = make_items(n, seed=11)
        index = UniformGrid()
        index.bulk_load(items)
        oracle = LinearScan()
        oracle.bulk_load(items)
        return index, oracle

    def test_range_dedup_fans_results_back_out(self):
        index, oracle = self._setup()
        query = make_queries(1, seed=12)[0]
        session = QuerySession(index, executor=BatchExecutor())
        results = session.range_query([query] * 7)
        assert session.stats.batch.deduplicated == 6
        assert session.stats.batch.queries == 7
        expected = sorted(oracle.range_query(query))
        assert all(sorted(r) == expected for r in results)
        # Fanned-out lists must be independent copies.
        results[0].append(-1)
        assert results[1] != results[0]

    def test_point_query_is_containment(self):
        index, oracle = self._setup()
        points = np.array([[50.0, 50.0, 50.0], [1.0, 2.0, 3.0], [99.0, 99.0, 99.0]])
        got = QuerySession(index, executor=BatchExecutor()).point_query(points)
        for answer, point in zip(got, points):
            assert sorted(answer) == sorted(oracle.range_query(AABB.from_point(point)))

    def test_knn_matches_oracle(self):
        index, oracle = self._setup()
        points = np.array([[10.0, 20.0, 30.0], [10.0, 20.0, 30.0], [80.0, 10.0, 40.0]])
        got = QuerySession(index, executor=BatchExecutor()).knn(points, 5)
        for answer, point in zip(got, points):
            assert knn_pairs(answer) == knn_pairs(oracle.knn(tuple(point), 5))

    def test_empty_batches(self):
        index, _ = self._setup(50)
        session = QuerySession(index, executor=BatchExecutor())
        assert session.range_query([]) == []
        assert session.knn([], 4) == []
        assert session.point_query([]) == []


class TestUniformGridBatchCellRegression:
    def test_batch_visits_no_more_cells_than_per_query_sum(self):
        """Pin the batching win the engine exists for: the vectorized pass
        resolves each distinct cell once, so it can never probe more cells
        than the per-query loop's sum (and probes strictly fewer when
        queries repeat or overlap)."""
        counters = Counters()
        grid = UniformGrid(counters=counters)
        grid.bulk_load(make_items(600, seed=21))
        queries = make_queries(30, seed=22)
        queries = queries + queries[:10]  # repeats make the bound strict

        before = counters.snapshot()
        for query in queries:
            grid.range_query(query)
        per_query_cells = counters.diff(before).cells_probed

        before = counters.snapshot()
        batched = grid.batch_range_query(queries)
        batch_cells = counters.diff(before).cells_probed

        assert 0 < batch_cells <= per_query_cells
        oracle = LinearScan()
        oracle.bulk_load(make_items(600, seed=21))
        for answer, query in zip(batched, queries):
            assert sorted(answer) == sorted(oracle.range_query(query))
