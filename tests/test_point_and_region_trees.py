"""KD-tree, quadtree/octree (replication) and loose octree."""

import time

import numpy as np
import pytest

from repro import BatchExecutor, InlineExecutor, QuerySession
from repro.geometry.aabb import AABB
from repro.indexes.kdtree import KDTree
from repro.indexes.loose_octree import LooseOctree
from repro.indexes.octree import Octree
from repro.indexes.quadtree import QuadTree
from repro.indexes.rplus import RPlusTree

from conftest import (
    UNIVERSE_2D,
    UNIVERSE_3D,
    assert_same_knn,
    assert_same_range_results,
    make_items,
    make_queries,
)


class TestKDTree:
    def test_points_only(self):
        tree = KDTree()
        with pytest.raises(ValueError, match="point access method"):
            tree.insert(1, AABB((0, 0, 0), (1, 1, 1)))

    def test_range_matches_oracle(self):
        items = make_items(500, seed=3, points=True)
        tree = KDTree(bucket_size=8)
        tree.bulk_load(items)
        assert_same_range_results(tree, items, make_queries(10, seed=4))

    def test_knn_matches_oracle(self):
        items = make_items(500, seed=3, points=True)
        tree = KDTree(bucket_size=8)
        tree.bulk_load(items)
        assert_same_knn(tree, items, [(50, 50, 50), (5, 95, 5)], k=10)

    def test_dynamic_insert_delete(self):
        items = make_items(300, seed=5, points=True)
        tree = KDTree(bucket_size=8)
        live = {}
        for eid, box in items:
            tree.insert(eid, box)
            live[eid] = box
        for eid in list(live)[::2]:
            tree.delete(eid, live.pop(eid))
        assert len(tree) == len(live)
        assert_same_range_results(tree, list(live.items()), make_queries(8, seed=6))

    def test_delete_missing(self):
        tree = KDTree()
        tree.insert(1, AABB((1, 1, 1), (1, 1, 1)))
        with pytest.raises(KeyError):
            tree.delete(2, AABB((1, 1, 1), (1, 1, 1)))

    def test_duplicate_coordinates(self):
        """All-equal points must not infinitely split."""
        box = AABB((5, 5, 5), (5, 5, 5))
        tree = KDTree(bucket_size=4)
        for eid in range(20):
            tree.insert(eid, box)
        assert sorted(tree.range_query(AABB((4, 4, 4), (6, 6, 6)))) == list(range(20))

    @pytest.mark.parametrize(
        "kind, payload",
        [
            ("range", [[[1.0, 1.0], [50.0, 50.0]]]),
            ("point", [[10.0, 10.0]]),
            ("knn", [[10.0, 10.0]]),
        ],
        ids=["window_2d", "point_2d", "probe_2d"],
    )
    def test_a_wrong_dims_query_is_refused_inline_and_batch(self, kind, payload):
        """A 2-d query on a 3-d point tree is refused on every path, as the
        batch kNN kernel already refused it."""
        tree = KDTree(bucket_size=8)
        tree.bulk_load(make_items(200, seed=3, points=True))
        payload = np.asarray(payload, dtype=np.float64)
        for executor in (InlineExecutor(), BatchExecutor()):
            session = QuerySession(tree, executor=executor)
            ask = {
                "range": lambda: session.range_query(payload),
                "point": lambda: session.point_query(payload),
                "knn": lambda: session.knn(payload, 3),
            }[kind]
            with pytest.raises(ValueError, match="2 dims, index has 3"):
                ask()

    def test_wrong_dims_messages(self):
        tree = KDTree(bucket_size=8)
        tree.bulk_load(make_items(50, seed=3, points=True))
        with pytest.raises(ValueError, match="query has 2 dims, index has 3"):
            tree.range_query(AABB((1.0, 1.0), (2.0, 2.0)))
        with pytest.raises(ValueError, match="query has 2 dims, index has 3"):
            tree.batch_range_query(np.zeros((1, 2, 2)))
        with pytest.raises(ValueError, match="point has 2 dims, index has 3"):
            tree.knn((1.0, 1.0), 3)
        with pytest.raises(ValueError, match="points have 2 dims, index has 3"):
            tree.batch_knn(np.zeros((1, 2)), 3)


class TestRegionTrees:
    def test_quadtree_oracle(self):
        items = make_items(400, universe=UNIVERSE_2D, seed=8)
        tree = QuadTree(universe=UNIVERSE_2D, capacity=12)
        tree.bulk_load(items)
        assert_same_range_results(tree, items, make_queries(10, UNIVERSE_2D, seed=9))

    def test_octree_oracle(self, items_3d, queries_3d):
        tree = Octree(universe=UNIVERSE_3D, capacity=12)
        tree.bulk_load(items_3d)
        assert_same_range_results(tree, items_3d, queries_3d)

    def test_octree_knn(self, items_3d):
        tree = Octree(universe=UNIVERSE_3D)
        tree.bulk_load(items_3d)
        assert_same_knn(tree, items_3d, [(40, 40, 40)], k=6)

    def test_replication_reported(self, items_3d):
        tree = Octree(universe=UNIVERSE_3D, capacity=4, max_depth=8)
        tree.bulk_load(items_3d)
        assert tree.replication_factor >= 1.0

    def test_out_of_universe_insert_grows(self):
        tree = Octree(universe=AABB((0, 0, 0), (10, 10, 10)))
        inside = AABB((1, 1, 1), (2, 2, 2))
        outside = AABB((50, 50, 50), (51, 51, 51))
        tree.insert(1, inside)
        tree.insert(2, outside)
        assert sorted(tree.range_query(AABB((0, 0, 0), (100, 100, 100)))) == [1, 2]

    def test_delete_and_query(self, items_3d, queries_3d):
        tree = Octree(universe=UNIVERSE_3D, capacity=8)
        tree.bulk_load(items_3d)
        live = dict(items_3d)
        for eid in list(live)[::5]:
            tree.delete(eid, live.pop(eid))
        assert_same_range_results(tree, list(live.items()), queries_3d)

    def test_dims_validation(self):
        tree = QuadTree(universe=UNIVERSE_2D)
        with pytest.raises(ValueError):
            tree.insert(1, AABB((0, 0, 0), (1, 1, 1)))

    def test_duplicate_id_refused(self):
        """An id the tree holds is refused before any write: the old
        replicas stay and answer, and the new box does not."""
        tree = Octree(universe=UNIVERSE_3D, capacity=4)
        tree.bulk_load([(i, AABB((i, i, i), (i + 1.0, i + 1.0, i + 1.0))) for i in range(20)])
        with pytest.raises(ValueError, match="already present"):
            tree.insert(3, AABB((60, 60, 60), (61, 61, 61)))
        assert len(tree) == 20
        assert tree.range_query(AABB((3.2, 3.2, 3.2), (3.8, 3.8, 3.8))) == [3]
        assert tree.range_query(AABB((59, 59, 59), (62, 62, 62))) == []

    @pytest.mark.parametrize(
        "make",
        [
            pytest.param(lambda: Octree(universe=UNIVERSE_3D, capacity=16, max_depth=4), id="octree"),
            pytest.param(lambda: RPlusTree(max_entries=8, universe=UNIVERSE_3D), id="rplus"),
        ],
    )
    def test_a_cut_that_separates_nothing_is_not_made(self, make):
        """Boxes spanning the centre (and every lower bound) stay in one
        oversized leaf instead of being copied into each child, level after
        level."""
        items = [(i, AABB((1 + i * 0.01, 1, 1), (99, 99, 99))) for i in range(40)]
        tree = make()
        tree.bulk_load(items)
        assert tree.replication_factor == 1.0
        assert sorted(tree.range_query(AABB((50, 50, 50), (51, 51, 51)))) == list(range(40))


class TestLooseOctree:
    def test_oracle(self, items_3d, queries_3d):
        tree = LooseOctree(universe=UNIVERSE_3D)
        tree.bulk_load(items_3d)
        assert_same_range_results(tree, items_3d, queries_3d)

    def test_no_replication(self, items_3d):
        tree = LooseOctree(universe=UNIVERSE_3D)
        tree.bulk_load(items_3d)
        stored = sum(len(bucket) for bucket in tree._cells.values())
        assert stored == len(items_3d)

    def test_knn(self, items_3d):
        tree = LooseOctree(universe=UNIVERSE_3D)
        tree.bulk_load(items_3d)
        assert_same_knn(tree, items_3d, [(60, 20, 80)], k=5)

    def test_in_cell_update_is_cheap(self):
        tree = LooseOctree(universe=UNIVERSE_3D)
        box = AABB((50, 50, 50), (51, 51, 51))
        tree.insert(1, box)
        cells_before = dict(tree._cells)
        nudged = AABB((50.01, 50.01, 50.01), (51.01, 51.01, 51.01))
        tree.update(1, box, nudged)
        assert set(tree._cells) == set(cells_before)  # same cell, no move

    def test_update_across_cells(self):
        tree = LooseOctree(universe=UNIVERSE_3D)
        box = AABB((1, 1, 1), (2, 2, 2))
        far = AABB((90, 90, 90), (91, 91, 91))
        tree.insert(1, box)
        tree.update(1, box, far)
        assert tree.range_query(AABB((89, 89, 89), (92, 92, 92))) == [1]
        assert tree.range_query(AABB((0, 0, 0), (3, 3, 3))) == []

    def test_rejects_bad_params(self):
        with pytest.raises(ValueError):
            LooseOctree(looseness=0.5)
        with pytest.raises(ValueError):
            LooseOctree(max_level=-1)

    def test_degenerate_universe_huge_query_terminates(self):
        """Regression: a query box vastly larger than a single-point-derived
        universe used to enumerate the full 2^(level*dims) cell window
        (billions of empty cells — an effective hang).  The window must
        clamp to occupied cells, as UniformGrid._coord does."""
        tree = LooseOctree()  # universe derived from the data: degenerate
        tree.bulk_load([(0, AABB.from_point((5.0, 5.0, 5.0)))])
        start = time.perf_counter()
        hits = tree.range_query(AABB((-1e9, -1e9, -1e9), (1e9, 1e9, 1e9)))
        elapsed = time.perf_counter() - start
        assert hits == [0]
        assert elapsed < 1.0  # was minutes before the occupied-cell clamp
        # The probe count is bounded by the population, not the window.
        assert tree.counters.cells_probed <= tree.cell_count + 1

    def test_degenerate_universe_queries_stay_exact(self):
        """The occupied-cell path must answer exactly like the window path."""
        rng = np.random.default_rng(31)
        items = [(eid, AABB.from_point(rng.uniform(0, 1e-6, 3))) for eid in range(50)]
        tree = LooseOctree()
        tree.bulk_load(items)
        assert sorted(tree.range_query(AABB((-1e3,) * 3, (1e3,) * 3))) == list(range(50))
        assert tree.range_query(AABB((1.0,) * 3, (2.0,) * 3)) == []
        for eid in range(0, 50, 2):
            tree.delete(eid, items[eid][1])
        assert sorted(tree.range_query(AABB((-1e3,) * 3, (1e3,) * 3))) == list(range(1, 50, 2))
