"""R+-tree: the overlap-free invariant and oracle equivalence."""

import pytest

from repro.geometry.aabb import AABB
from repro.indexes.octree import Octree
from repro.indexes.rplus import RPlusTree
from repro.indexes.rtree import RTree

from conftest import (
    UNIVERSE_3D,
    assert_same_knn,
    assert_same_range_results,
    make_items,
    make_queries,
)


class TestCorrectness:
    def test_range_matches_oracle(self, items_3d, queries_3d):
        tree = RPlusTree(max_entries=8, universe=UNIVERSE_3D)
        tree.bulk_load(items_3d)
        assert_same_range_results(tree, items_3d, queries_3d)

    def test_knn_matches_oracle(self, items_3d):
        tree = RPlusTree(max_entries=8, universe=UNIVERSE_3D)
        tree.bulk_load(items_3d)
        assert_same_knn(tree, items_3d, [(15, 75, 40), (90, 5, 60)], k=6)

    def test_dynamic_workload(self, queries_3d):
        items = make_items(400, seed=31)
        tree = RPlusTree(max_entries=8, universe=UNIVERSE_3D)
        live = {}
        for eid, box in items:
            tree.insert(eid, box)
            live[eid] = box
        for eid in list(live)[::3]:
            tree.delete(eid, live.pop(eid))
        assert len(tree) == len(live)
        assert_same_range_results(tree, list(live.items()), queries_3d)

    def test_out_of_universe_insert(self):
        tree = RPlusTree(universe=AABB((0, 0, 0), (10, 10, 10)))
        tree.insert(1, AABB((50, 50, 50), (51, 51, 51)))
        assert tree.range_query(AABB((49, 49, 49), (52, 52, 52))) == [1]

    def test_delete_missing(self):
        tree = RPlusTree(universe=UNIVERSE_3D)
        with pytest.raises(KeyError):
            tree.delete(1, AABB((0, 0, 0), (1, 1, 1)))

    def test_duplicate_insert_rejected(self):
        tree = RPlusTree(universe=UNIVERSE_3D)
        box = AABB((1, 1, 1), (2, 2, 2))
        tree.insert(1, box)
        with pytest.raises(ValueError):
            tree.insert(1, box)

    def test_identical_boxes_tolerated(self):
        """All-identical elements cannot be cut apart; oversized leaf."""
        box = AABB((5, 5, 5), (6, 6, 6))
        tree = RPlusTree(max_entries=4, universe=UNIVERSE_3D)
        tree.bulk_load([(i, box) for i in range(20)])
        assert sorted(tree.range_query(AABB((4, 4, 4), (7, 7, 7)))) == list(range(20))


class TestRPlusInvariants:
    def test_zero_sibling_overlap(self, items_3d):
        """The defining R+ property: sibling regions never overlap."""
        tree = RPlusTree(max_entries=8, universe=UNIVERSE_3D)
        tree.bulk_load(items_3d)
        assert tree.max_sibling_overlap() == 0.0

    @pytest.mark.parametrize(
        "make",
        [
            pytest.param(lambda: RPlusTree(max_entries=8, universe=UNIVERSE_3D), id="rplus"),
            pytest.param(lambda: Octree(universe=UNIVERSE_3D, capacity=8), id="octree"),
        ],
    )
    def test_zero_overlap_survives_churn(self, make):
        """Both cut rules tile their regions, so churn leaves no overlap."""
        items = make_items(300, seed=33)
        tree = make()
        tree.bulk_load(items)
        live = dict(items)
        for eid in list(live)[::2]:
            tree.delete(eid, live.pop(eid))
        for eid in range(1000, 1100):
            box = make_items(1, seed=eid)[0][1]
            tree.insert(eid, box)
            live[eid] = box
        assert tree.max_sibling_overlap() == 0.0

    def test_replication_reported(self, items_3d):
        tree = RPlusTree(max_entries=8, universe=UNIVERSE_3D)
        tree.bulk_load(items_3d)
        assert tree.replication_factor >= 1.0

    def test_overlap_vs_guttman_tradeoff(self, items_3d):
        """R+ pays replication to remove overlap; Guttman pays overlap to
        avoid replication — both measurable on the same data."""
        rplus = RPlusTree(max_entries=8, universe=UNIVERSE_3D)
        rplus.bulk_load(items_3d)
        rtree = RTree(max_entries=8)
        rtree.bulk_load(items_3d)
        assert rplus.max_sibling_overlap() == 0.0
        assert rplus.replication_factor > 1.0
