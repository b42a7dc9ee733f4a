"""R-tree family: Guttman R-tree, R*-tree, STR bulk loading."""

import numpy as np
import pytest

from repro.datasets.queries import range_queries_for_selectivity
from repro.geometry.aabb import AABB
from repro.indexes.bulkload import str_pack
from repro.indexes.rstar import RStarTree
from repro.indexes.rtree import Node, RTree, _linear_split, _quadratic_split

from conftest import (
    assert_same_knn,
    assert_same_range_results,
    make_items,
    make_queries,
    modeled_query_cost,
)


class TestConstruction:
    def test_rejects_small_capacity(self):
        with pytest.raises(ValueError):
            RTree(max_entries=3)

    def test_rejects_unknown_split(self):
        with pytest.raises(ValueError):
            RTree(split="magic")

    def test_rejects_bad_min_entries(self):
        with pytest.raises(ValueError):
            RTree(max_entries=8, min_entries=5)

    def test_empty_index(self):
        tree = RTree()
        assert len(tree) == 0
        assert tree.range_query(AABB((0, 0, 0), (1, 1, 1))) == []
        assert tree.knn((0, 0, 0), 3) == []


class TestBulkLoad:
    def test_str_packing_structure(self):
        items = make_items(500, seed=3)
        tree = RTree(max_entries=16)
        tree.bulk_load(items)
        assert len(tree) == 500
        tree.check_invariants()
        # STR-packed trees are near-minimal height.
        assert tree.height <= 4

    def test_bulk_load_replaces(self):
        tree = RTree()
        tree.bulk_load(make_items(100, seed=1))
        tree.bulk_load(make_items(50, seed=2))
        assert len(tree) == 50

    def test_bulk_load_empty(self):
        tree = RTree()
        tree.bulk_load([])
        assert len(tree) == 0

    def test_duplicate_ids_rejected(self):
        box = AABB((0, 0, 0), (1, 1, 1))
        with pytest.raises(ValueError, match="duplicate"):
            RTree().bulk_load([(1, box), (1, box)])

    def test_str_pack_group_sizes(self):
        items = make_items(300, seed=5)
        root, height, node_count = str_pack(items, 16, Node)
        stack = [(root, height - 1)]
        seen_items = 0
        counted_nodes = 0
        while stack:
            node, level = stack.pop()
            counted_nodes += 1
            assert len(node.entries) <= 16
            if node.is_leaf:
                assert level == 0
                seen_items += len(node.entries)
            else:
                for entry_box, child in node.entries:
                    assert entry_box.contains_box(child.mbr())
                    stack.append((child, level - 1))
        assert seen_items == 300
        assert counted_nodes == node_count


class TestQueriesMatchOracle:
    @pytest.mark.parametrize("split", ["quadratic", "linear"])
    def test_range_after_bulk_load(self, split, items_3d, queries_3d):
        tree = RTree(max_entries=12, split=split)
        tree.bulk_load(items_3d)
        assert_same_range_results(tree, items_3d, queries_3d)

    def test_range_after_inserts(self, items_3d, queries_3d):
        tree = RTree(max_entries=8)
        for eid, box in items_3d:
            tree.insert(eid, box)
        tree.check_invariants()
        assert_same_range_results(tree, items_3d, queries_3d)

    def test_knn(self, items_3d):
        tree = RTree(max_entries=12)
        tree.bulk_load(items_3d)
        points = [(10, 10, 10), (50, 50, 50), (99, 1, 99)]
        assert_same_knn(tree, items_3d, points, k=7)

    def test_knn_k_exceeds_size(self):
        items = make_items(5, seed=2)
        tree = RTree()
        tree.bulk_load(items)
        assert len(tree.knn((0, 0, 0), 50)) == 5


class TestMaintenance:
    def test_delete_missing_raises(self):
        tree = RTree()
        tree.insert(1, AABB((0, 0, 0), (1, 1, 1)))
        with pytest.raises(KeyError):
            tree.delete(2, AABB((0, 0, 0), (1, 1, 1)))
        with pytest.raises(KeyError):
            tree.delete(1, AABB((0, 0, 0), (2, 2, 2)))

    def test_delete_all_then_reuse(self):
        items = make_items(120, seed=9)
        tree = RTree(max_entries=8)
        tree.bulk_load(items)
        for eid, box in items:
            tree.delete(eid, box)
        assert len(tree) == 0
        tree.insert(0, AABB((0, 0, 0), (1, 1, 1)))
        assert tree.range_query(AABB((0, 0, 0), (2, 2, 2))) == [0]

    def test_interleaved_workload_preserves_correctness(self, queries_3d):
        rng = np.random.default_rng(13)
        tree = RTree(max_entries=8)
        live: dict[int, AABB] = {}
        next_id = 0
        for round_index in range(6):
            for _ in range(80):
                lo = rng.uniform(0, 95, 3)
                box = AABB(lo, lo + rng.uniform(0.1, 4, 3))
                tree.insert(next_id, box)
                live[next_id] = box
                next_id += 1
            victims = list(live)[:: 3 + round_index]
            for eid in victims:
                tree.delete(eid, live.pop(eid))
            tree.check_invariants()
        assert len(tree) == len(live)
        assert_same_range_results(tree, list(live.items()), queries_3d)

    def test_update_moves_element(self):
        tree = RTree()
        old = AABB((0, 0, 0), (1, 1, 1))
        new = AABB((50, 50, 50), (51, 51, 51))
        tree.insert(1, old)
        tree.update(1, old, new)
        assert tree.range_query(AABB((49, 49, 49), (52, 52, 52))) == [1]
        assert tree.range_query(AABB((0, 0, 0), (2, 2, 2))) == []

    def test_node_count_tracks_structure(self):
        items = make_items(200, seed=21)
        tree = RTree(max_entries=8)
        for eid, box in items:
            tree.insert(eid, box)
        assert tree.node_count >= len(items) // 8


class TestSplits:
    def _entries(self, n, seed):
        return [(box, eid) for eid, box in make_items(n, seed=seed)]

    @pytest.mark.parametrize("split_fn", [_quadratic_split, _linear_split])
    def test_split_partitions_entries(self, split_fn):
        entries = self._entries(17, seed=2)
        group_a, group_b = split_fn(entries, min_entries=4)
        assert len(group_a) + len(group_b) == 17
        assert len(group_a) >= 4
        assert len(group_b) >= 4
        ids = sorted(ref for _, ref in group_a + group_b)
        assert ids == sorted(ref for _, ref in entries)


class TestCounters:
    def test_query_charges_tests_and_bytes(self, items_3d):
        tree = RTree(max_entries=12)
        tree.bulk_load(items_3d)
        before = tree.counters.snapshot()
        tree.range_query(AABB((10, 10, 10), (40, 40, 40)))
        delta = tree.counters.diff(before)
        assert delta.elem_tests > 0
        assert delta.node_tests > 0
        assert delta.bytes_touched > 0
        assert delta.pointer_follows > 0


class TestNodeSizeInMemory:
    def test_a_sub_page_node_wins_under_the_memory_cost_model(self, small_neurons):
        """§3.3: in memory, nodes far below the 4 KB disk page (≈ 70
        entries) win; the paper puts the optimum at 640 B–1 KB."""
        queries = range_queries_for_selectivity(
            60, small_neurons.universe, selectivity=5e-6, seed=7
        )
        costs = {}
        for fanout in (4, 8, 16, 32, 70, 140):
            tree = RTree(max_entries=fanout)
            tree.bulk_load(small_neurons.items)
            costs[fanout] = modeled_query_cost(tree, queries)[0]
        best = min(costs, key=costs.get)
        assert best < 70
        assert costs[best] < costs[70]


class TestRStar:
    def test_queries_match_oracle(self, items_3d, queries_3d):
        tree = RStarTree(max_entries=8)
        for eid, box in items_3d:
            tree.insert(eid, box)
        tree.check_invariants()
        assert_same_range_results(tree, items_3d, queries_3d)

    def test_knn_matches(self, items_3d):
        tree = RStarTree(max_entries=8)
        tree.bulk_load(items_3d)
        assert_same_knn(tree, items_3d, [(25, 25, 25)], k=5)

    def test_dynamic_delete(self, queries_3d):
        items = make_items(250, seed=4)
        tree = RStarTree(max_entries=8)
        for eid, box in items:
            tree.insert(eid, box)
        live = dict(items)
        for eid in list(live)[::2]:
            tree.delete(eid, live.pop(eid))
        tree.check_invariants()
        assert_same_range_results(tree, list(live.items()), queries_3d)

    def test_less_overlap_than_guttman(self):
        """R*'s raison d'être: lower inner-node overlap on clustered data.

        Measured as node_tests needed for the same query workload after
        identical dynamic insertion."""
        items = make_items(600, seed=8, max_extent=6.0)
        plain = RTree(max_entries=8)
        star = RStarTree(max_entries=8)
        for eid, box in items:
            plain.insert(eid, box)
            star.insert(eid, box)
        queries = make_queries(30, extent=10.0, seed=3)
        for query in queries:
            plain.range_query(query)
            star.range_query(query)
        assert star.counters.node_tests <= plain.counters.node_tests * 1.1
