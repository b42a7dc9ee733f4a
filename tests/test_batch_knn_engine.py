"""Oracle-driven suite for the vectorized batch-kNN kernels.

Every index's ``batch_knn`` must match the :class:`LinearScan` oracle as an
*exact ordered list* of ``(distance, id)`` pairs — the deterministic
tie-break contract (``repro/indexes/base.py``) leaves nothing to sort.  The
hypothesis suites drive that comparison with generated datasets; the
deterministic tests pin the adversarial corners: ``k = 0``, ``k >= n``,
co-located/duplicate geometry, empty indexes, probes far outside the data
bounds and batches full of repeated queries.  The session and sim-monitor
tests cover the wiring: ``QuerySession.knn`` dedup fan-out and the
``NearestNeighborMonitor`` batch path.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import UNIVERSE_3D, knn_pairs, make_items
from repro.core.multires_grid import MultiResolutionGrid
from repro.core.uniform_grid import UniformGrid
from repro.engine import QuerySession
from repro.geometry.aabb import AABB
from repro.indexes.crtree import CRTree
from repro.indexes.disk_rtree import DiskRTree
from repro.indexes.kdtree import KDTree
from repro.indexes.linear_scan import LinearScan
from repro.indexes.loose_octree import LooseOctree
from repro.indexes.octree import Octree
from repro.indexes.rplus import RPlusTree
from repro.indexes.rstar import RStarTree
from repro.indexes.rtree import RTree
from repro.mesh.flat import FLAT
from repro.moving.bottom_up import BottomUpRTree
from repro.moving.buffered_rtree import BufferedRTree
from repro.moving.lur_tree import LURTree
from repro.moving.tpr import TPRIndex
from repro.sim.monitors import NearestNeighborMonitor

# KDTree is a point access method: it joins the harness on point datasets
# only, the rest also take volumetric boxes.  Every exact index the library
# ships is here — the registry's, FLAT and the moving-object trees; the
# 2-d-only QuadTree cannot take the 3-d probes of the deterministic tests.
BOX_FACTORIES = {
    "linear_scan": LinearScan,
    "uniform_grid": UniformGrid,
    "multires_grid": lambda: MultiResolutionGrid(levels=3),
    "rtree": lambda: RTree(max_entries=8),
    "rstar": lambda: RStarTree(max_entries=8),
    "rplus": lambda: RPlusTree(max_entries=8),
    "disk_rtree": lambda: DiskRTree(max_entries=8),
    "crtree": lambda: CRTree(max_entries=8),
    "octree": lambda: Octree(capacity=8),
    "loose_octree": LooseOctree,
    "flat": FLAT,
    "bottom_up": lambda: BottomUpRTree(max_entries=8),
    "lur": lambda: LURTree(max_entries=8),
    "buffered": lambda: BufferedRTree(buffer_capacity=16, max_entries=8),
    "tpr": lambda: TPRIndex(max_entries=8),
}
ALL_FACTORIES = {**BOX_FACTORIES, "kdtree": lambda: KDTree(bucket_size=8)}

BOX_PARAMS = pytest.mark.parametrize(
    "factory", BOX_FACTORIES.values(), ids=BOX_FACTORIES.keys()
)
ALL_PARAMS = pytest.mark.parametrize(
    "factory", ALL_FACTORIES.values(), ids=ALL_FACTORIES.keys()
)


def build(factory, items):
    index = factory()
    index.bulk_load(items)
    oracle = LinearScan()
    oracle.bulk_load(items)
    return index, oracle


def assert_batch_matches(index, oracle, points, k):
    got = index.batch_knn(points, k)
    assert len(got) == len(points)
    for answer, point in zip(got, points):
        expected = oracle.knn(tuple(point), k)
        assert knn_pairs(answer) == knn_pairs(expected), (
            f"batch kNN mismatch at {tuple(point)} (k={k})"
        )


def points_only(factory) -> bool:
    return factory is ALL_FACTORIES["kdtree"]


# Coordinates on a fixed binary grid (multiples of 2**-10 in [-50, 50]): gaps,
# their squares and the sums of squares are then exact in float64, so the
# datasets are rich in exact distance ties for the ``(distance, id)`` order.
coordinate = st.integers(-51200, 51200).map(lambda i: i / 1024)


@st.composite
def point_batches(draw, dims: int, max_count: int):
    count = draw(st.integers(0, max_count))
    points = [tuple(draw(coordinate) for _ in range(dims)) for _ in range(count)]
    # Force duplicate probes into most non-empty batches.
    if points and draw(st.booleans()):
        points = points + [points[0]]
    return points


@st.composite
def knn_dataset(draw, dims: int, points: bool):
    count = draw(st.integers(0, 40))
    items = []
    for eid in range(count):
        a = [draw(coordinate) for _ in range(dims)]
        if points or draw(st.booleans()):
            items.append((eid, AABB(a, a)))
            continue
        b = [draw(coordinate) for _ in range(dims)]
        lo = [min(x, y) for x, y in zip(a, b)]
        hi = [max(x, y) for x, y in zip(a, b)]
        items.append((eid, AABB(lo, hi)))
    # Co-locate a run of elements on the first geometry to force exact ties.
    if items and draw(st.booleans()):
        tied = draw(st.integers(1, 3))
        base = items[0][1]
        for extra in range(tied):
            items.append((count + extra, base))
    return items


class TestBatchKnnMatchesOracle:
    @ALL_PARAMS
    @settings(max_examples=25, deadline=None)
    @given(data=st.data(), dims=st.sampled_from([2, 3]), k=st.integers(0, 8))
    def test_matches_linear_scan(self, factory, data, dims, k):
        if factory is ALL_FACTORIES["octree"]:
            dims = 3  # the octree splits in three dimensions only
        items = data.draw(knn_dataset(dims, points=points_only(factory)))
        points = data.draw(point_batches(dims, 6))
        index, oracle = build(factory, items)
        assert_batch_matches(index, oracle, points, k)

    def test_scalar_and_batch_agree_where_two_formulas_once_differed(self):
        """The example ``width=32`` floats once produced: element 1 is one
        ulp nearer than the five on the origin by one formula and tied by
        the other, so ``batch_knn`` answered 0 where scalar ``knn`` answered
        1.  With one formula every path gives the same bits."""
        origin = AABB((0.0, 0.0), (0.0, 0.0))
        items = [(eid, origin) for eid in range(6)]
        items[1] = (1, AABB((-2.0**-52, 0.0), (0.0, 0.0)))
        probe = (-1.25, 1.0)
        answers = []
        for index in (LinearScan(), UniformGrid()):
            index.bulk_load(items)
            answers += [index.knn(probe, 2), *index.batch_knn([probe], 2)]
        expected = sorted((box.min_distance_to_point(probe), eid) for eid, box in items)[:2]
        assert answers == [expected] * 4

    @ALL_PARAMS
    def test_empty_batch(self, factory):
        index, _ = build(factory, make_items(40, seed=2, points=True))
        assert index.batch_knn([], 3) == []
        assert index.batch_knn(np.empty((0, 3)), 3) == []

    @ALL_PARAMS
    def test_k_zero(self, factory):
        index, _ = build(factory, make_items(40, seed=3, points=True))
        assert index.batch_knn([(1.0, 2.0, 3.0), (50.0, 50.0, 50.0)], 0) == [[], []]

    @ALL_PARAMS
    def test_empty_index(self, factory):
        index, _ = build(factory, [])
        assert index.batch_knn([(0.0, 0.0, 0.0)], 5) == [[]]

    @ALL_PARAMS
    def test_k_exceeds_n(self, factory):
        items = make_items(17, seed=4, points=True)
        index, oracle = build(factory, items)
        points = np.array([[10.0, 20.0, 30.0], [95.0, 5.0, 60.0]])
        got = index.batch_knn(points, 100)
        for answer in got:
            assert len(answer) == len(items)
        assert_batch_matches(index, oracle, points, 100)

    @ALL_PARAMS
    def test_queries_far_outside_bounds(self, factory):
        items = make_items(60, seed=5, points=points_only(factory))
        index, oracle = build(factory, items)
        points = np.array(
            [[1e6, 1e6, 1e6], [-1e6, 50.0, 50.0], [0.0, 0.0, -1e7]]
        )
        assert_batch_matches(index, oracle, points, 4)

    @ALL_PARAMS
    def test_colocated_elements_tie_break_by_id(self, factory):
        """Five elements on one point: ids must come back ascending."""
        spot = AABB((10.0, 10.0, 10.0), (10.0, 10.0, 10.0))
        items = [(eid, spot) for eid in (7, 3, 11, 5, 2)]
        items += [(1, AABB((40.0, 40.0, 40.0), (40.0, 40.0, 40.0)))]
        index, oracle = build(factory, items)
        [answer] = index.batch_knn([(10.0, 10.0, 10.0)], 3)
        assert [eid for _, eid in answer] == [2, 3, 5]
        assert [d for d, _ in answer] == [0.0, 0.0, 0.0]
        assert_batch_matches(index, oracle, [(10.0, 10.0, 10.0), (39.0, 40.0, 40.0)], 6)

    @ALL_PARAMS
    def test_mixed_duplicate_batch(self, factory):
        """Repeated probes inside one batch answer identically each time."""
        items = make_items(120, seed=6, points=points_only(factory))
        index, oracle = build(factory, items)
        base = [(20.0, 30.0, 40.0), (70.0, 10.0, 90.0), (5.0, 5.0, 5.0)]
        batch = [base[0], base[1], base[0], base[2], base[1], base[0]]
        got = index.batch_knn(batch, 5)
        assert knn_pairs(got[0]) == knn_pairs(got[2]) == knn_pairs(got[5])
        assert knn_pairs(got[1]) == knn_pairs(got[4])
        assert_batch_matches(index, oracle, batch, 5)

    @BOX_PARAMS
    def test_batch_after_mutations(self, factory):
        """Mutations must be visible to the next batch (cache patching)."""
        items = make_items(200, seed=8)
        index = factory()
        index.bulk_load(items)
        points = np.array([[10.0, 20.0, 30.0], [80.0, 10.0, 40.0], [2.0, 2.0, 2.0]])
        index.batch_knn(points, 4)  # warm any lazy cache
        index.delete(*items[0])
        newcomer = AABB((1.0, 1.0, 1.0), (3.0, 3.0, 3.0))
        index.insert(10_000, newcomer)
        oracle = LinearScan()
        oracle.bulk_load(items[1:] + [(10_000, newcomer)])
        assert_batch_matches(index, oracle, points, 4)

    @ALL_PARAMS
    def test_scalar_knn_matches_oracle_exactly(self, factory):
        """The scalar path obeys the same (distance, id) contract."""
        items = make_items(150, seed=9, points=points_only(factory))
        index, oracle = build(factory, items)
        for point in [(25.0, 25.0, 25.0), (90.0, 5.0, 50.0), (-10.0, 110.0, 50.0)]:
            assert knn_pairs(index.knn(point, 7)) == knn_pairs(oracle.knn(point, 7))


class TestSessionAndMonitorWiring:
    def test_session_knn_dedup_fans_results_back_out(self):
        items = make_items(300, seed=11)
        index = UniformGrid()
        index.bulk_load(items)
        oracle = LinearScan()
        oracle.bulk_load(items)
        session = QuerySession(index)
        point = (33.0, 44.0, 55.0)
        results = session.knn([point] * 5, 6)
        assert session.stats.batch.deduplicated == 4
        expected = knn_pairs(oracle.knn(point, 6))
        assert all(knn_pairs(r) == expected for r in results)
        # Fanned-out lists must be independent copies.
        results[0].append((-1.0, -1))
        assert results[1] != results[0]

    def test_nearest_neighbor_monitor_batch_equals_loop(self):
        items = make_items(250, seed=12)
        index = UniformGrid()
        index.bulk_load(items)
        looped = NearestNeighborMonitor(UNIVERSE_3D, probes_per_step=20, k=3, seed=5)
        batched = NearestNeighborMonitor(UNIVERSE_3D, probes_per_step=20, k=3, seed=5)
        looped.observe(index, step=0)
        batched.observe_batch(QuerySession(index), step=0)
        assert looped.nearest_ids == batched.nearest_ids
        assert np.allclose(looped.kth_distances, batched.kth_distances)

    def test_monitor_runs_inside_simulation(self):
        from repro.sim.engine import TimeSteppedSimulation
        from repro.sim.plasticity import PlasticityModel

        model = PlasticityModel(dict(make_items(40, seed=3)), UNIVERSE_3D, seed=3)
        index = UniformGrid(universe=UNIVERSE_3D)
        monitor = NearestNeighborMonitor(UNIVERSE_3D, probes_per_step=10, k=2, seed=1)
        sim = TimeSteppedSimulation(model, index, monitors=[monitor])
        sim.run(3)
        assert len(monitor.kth_distances) == 3
        assert all(len(step) == 10 for step in monitor.kth_distances)
