"""R-tree family: Guttman R-tree, R*-tree, STR bulk loading."""

import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.datasets.queries import range_queries_for_selectivity
from repro.geometry.aabb import AABB, union_all
from repro.indexes.crtree import CRTree
from repro.indexes.disk_rtree import DiskRTree
from repro.indexes.rstar import RStarTree, _rstar_split
from repro.indexes.rtree import RTree, _quadratic_split
from repro.instrumentation.counters import Counters
from repro.moving.bottom_up import BottomUpRTree

from conftest import (
    answer_digest,
    assert_same_knn,
    assert_same_range_results,
    make_items,
    make_queries,
    modeled_query_cost,
    reachable_nodes,
)


class TestConstruction:
    def test_rejects_small_capacity(self):
        with pytest.raises(ValueError):
            RTree(max_entries=3)

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

    def test_the_lower_fill_bound_binds_only_trees_no_pack_built(self):
        # STR tiles 300 boxes at 16 into full nodes plus a short last one.
        packed = RTree(max_entries=16)
        packed.bulk_load(make_items(300, seed=5))
        packed.check_invariants()
        grown = RTree(max_entries=16)
        for eid, box in make_items(300, seed=5):
            grown.insert(eid, box)
        grown.check_invariants()
        # Cut one leaf of the grown tree to a single entry: now it is underfull.
        leaf = next(
            page for page in grown._pages
            if grown._node_arrays(page)[0] and page != grown._root
        )
        _, boxes, refs = grown._node_arrays(leaf)
        grown._write_arrays(leaf, True, boxes[:1].copy(), refs[:1].copy())
        grown._size -= refs.shape[0] - 1
        with pytest.raises(AssertionError, match="underfull node"):
            grown.check_invariants()

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

    def test_str_bulk_load_group_sizes(self):
        items = make_items(300, seed=5)
        tree = RTree(max_entries=16)
        tree.bulk_load(items)
        stack = [(tree._root, tree.height - 1)]
        seen_items = []
        counted_nodes = 0
        while stack:
            page, level = stack.pop()
            counted_nodes += 1
            is_leaf, boxes, refs = tree._node_arrays(page)
            assert refs.shape[0] <= 16
            assert is_leaf == (level == 0)
            if is_leaf:
                seen_items.extend(refs.tolist())
            else:
                stack.extend((child, level - 1) for child in refs.tolist())
        assert sorted(seen_items) == list(range(300))
        assert counted_nodes == tree.node_count

    def test_a_record_is_the_node_payload_size(self):
        """``16 + n (16 d + 8)`` bytes: the header, ``n`` float64 boxes and
        ``n`` int64 refs."""
        tree = RTree(max_entries=8)
        tree.bulk_load(make_items(8, seed=6))
        assert tree.node_count == 1
        assert tree.memory_bytes() == 16 + 8 * (16 * 3 + 8)


class TestQueriesMatchOracle:
    def test_range_after_bulk_load(self, items_3d, queries_3d):
        tree = RTree(max_entries=12)
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

    @pytest.mark.parametrize("cls", [RTree, RStarTree, DiskRTree, CRTree])
    @pytest.mark.parametrize(
        "new_box",
        [AABB((5.0, float("nan"), 5.0), (6.0, 6.0, 6.0)), AABB((5.0, 5.0), (6.0, 6.0))],
        ids=["nan", "2d"],
    )
    def test_update_refuses_a_bad_box_before_deleting(self, cls, new_box):
        items = [(i, AABB((i, i, i), (i + 1.0, i + 1.0, i + 1.0))) for i in range(20)]
        tree = cls(max_entries=8)
        tree.bulk_load(items)
        with pytest.raises(ValueError):
            tree.update(5, items[5][1], new_box)
        assert len(tree) == 20
        assert sorted(tree.range_query(AABB((0.0,) * 3, (30.0,) * 3))) == list(range(20))

    @pytest.mark.parametrize(
        "make",
        [RTree, RStarTree, DiskRTree, lambda **kw: DiskRTree(mapped=True, **kw), CRTree],
        ids=["rtree", "rstar", "disk_memory", "disk_file", "crtree"],
    )
    def test_insert_refuses_an_id_the_tree_holds(self, make):
        # Held after a bulk load, after an insert, and free again after its
        # delete; a refused insert writes nothing, and the walk that first
        # collects a loaded tree's ids charges no read.
        items = [(i, AABB((i, i, i), (i + 1.0, i + 1.0, i + 1.0))) for i in range(20)]
        far = AABB((50.0,) * 3, (51.0,) * 3)
        everything = AABB((-1.0,) * 3, (60.0,) * 3)
        tree = make(max_entries=8)
        try:
            tree.bulk_load(items)
            loaded = tree.counters.snapshot()
            with pytest.raises(ValueError, match="^element 7 already present$"):
                tree.insert(7, far)
            assert tree.counters.diff(loaded) == Counters()
            tree.insert(30, AABB((30.0,) * 3, (31.0,) * 3))
            before = (len(tree), tree.node_count, sorted(tree.range_query(everything)))
            for eid in (1, 30):
                with pytest.raises(ValueError, match=f"^element {eid} already present$"):
                    tree.insert(eid, far)
                assert (len(tree), tree.node_count, sorted(tree.range_query(everything))) == before
            assert tree.range_query(far) == []
            tree.delete(*items[1])
            tree.insert(1, far)
            assert tree.range_query(far) == [1] and len(tree) == 21
            tree.check_invariants()
        finally:
            if isinstance(tree, DiskRTree):
                tree.close()

    @pytest.mark.parametrize(
        "make",
        [RTree, RStarTree, DiskRTree, lambda **kw: DiskRTree(mapped=True, **kw), CRTree],
        ids=["rtree", "rstar", "disk_memory", "disk_file", "crtree"],
    )
    @pytest.mark.parametrize(
        "max_entries, n, victim",
        # Packed layouts: 56 sits in a leaf of three (min_entries 3), and 18
        # in a leaf whose parent then falls below min_entries 2 and dissolves.
        [(8, 70, 56), (4, 82, 18)],
        ids=["leaf", "inner"],
    )
    def test_a_first_delete_that_condenses_keeps_every_id_held(
        self, make, max_entries, n, victim
    ):
        # The first write after a bulk load is a delete whose condensation
        # orphans entries; each orphaned id must still be refused.
        items = [(i, AABB((i, i, i), (i + 1.0, i + 1.0, i + 1.0))) for i in range(n)]
        far = AABB((500.0,) * 3, (501.0,) * 3)
        tree = make(max_entries=max_entries)
        try:
            tree.bulk_load(items)
            tree.delete(*items[victim])
            for eid in range(n):
                if eid != victim:
                    with pytest.raises(ValueError, match=f"^element {eid} already present$"):
                        tree.insert(eid, far)
            assert len(tree) == n - 1 and tree.range_query(far) == []
            tree.check_invariants()
        finally:
            if isinstance(tree, DiskRTree):
                tree.close()

    @pytest.mark.parametrize(
        "make",
        [RTree, RStarTree, DiskRTree, lambda **kw: DiskRTree(mapped=True, **kw), CRTree],
        ids=["rtree", "rstar", "disk_memory", "disk_file", "crtree"],
    )
    def test_an_orphan_above_the_shrunk_root_is_reinserted_by_element(self, make):
        # 17 intervals at capacity 4 tile into leaves 4, 4, 4, 4, 1 under a
        # root with children A (four leaves) and B (one leaf).  Deleting from
        # the left dissolves A's leaves and then A, whose last leaf is
        # orphaned at level 1 while the root shrinks to B's leaf (height 1).
        items = [(i, AABB((float(i),), (i + 0.5,))) for i in range(17)]
        tree = make(max_entries=4)
        try:
            tree.bulk_load(items)
            assert tree.height == 3
            live = dict(items)
            heights = []
            for eid, box in items[:14]:
                tree.delete(eid, box)
                live.pop(eid)
                heights.append(tree.height)
                assert len(tree) == len(live)
                assert sorted(tree.range_query(AABB((-1.0,), (20.0,)))) == sorted(live)
                assert tree.node_count == reachable_nodes(tree)
            assert heights[9:11] == [3, 2]  # the delete of 10 dropped A
            tree.check_invariants()
        finally:
            if isinstance(tree, DiskRTree):
                tree.close()

    def test_node_count_tracks_structure(self):
        items = make_items(200, seed=21)
        tree = RTree(max_entries=8)
        for eid, box in items:
            tree.insert(eid, box)
        assert tree.node_count >= len(items) // 8


def _scalar_quadratic_split(entries, min_entries):
    """Guttman's quadratic split over ``(AABB, ref)`` entries — the object
    rule the array split must equal group for group, member for member."""
    worst, seeds = -1.0, (0, 1)
    for i in range(len(entries)):
        for j in range(i + 1, len(entries)):
            box_i, box_j = entries[i][0], entries[j][0]
            dead = box_i.union(box_j).volume() - box_i.volume() - box_j.volume()
            if dead > worst:
                worst, seeds = dead, (i, j)
    remaining = list(entries)
    group_a = [remaining.pop(max(seeds))]
    group_b = [remaining.pop(min(seeds))]
    box_a, box_b = group_a[0][0], group_b[0][0]
    while remaining:
        if len(group_a) + len(remaining) <= min_entries:
            group_a.extend(remaining)
            break
        if len(group_b) + len(remaining) <= min_entries:
            group_b.extend(remaining)
            break
        best, best_diff, prefer_a = 0, -1.0, True
        for i, (box, _) in enumerate(remaining):
            grow_a, grow_b = box_a.enlargement(box), box_b.enlargement(box)
            if abs(grow_a - grow_b) > best_diff:
                best, best_diff = i, abs(grow_a - grow_b)
                if grow_a != grow_b:
                    prefer_a = grow_a < grow_b
                elif box_a.volume() != box_b.volume():
                    prefer_a = box_a.volume() < box_b.volume()
                else:
                    prefer_a = len(group_a) <= len(group_b)
        entry = remaining.pop(best)
        if prefer_a:
            group_a.append(entry)
            box_a = box_a.union(entry[0])
        else:
            group_b.append(entry)
            box_b = box_b.union(entry[0])
    return [ref for _, ref in group_a], [ref for _, ref in group_b]


def _scalar_rstar_split(entries, min_entries):
    """The R* split over ``(AABB, ref)`` entries: axis by least margin sum,
    distribution by least overlap, then least volume."""
    best_margin, best_orders = float("inf"), []
    cuts = range(min_entries, len(entries) - min_entries + 1)
    for axis in range(entries[0][0].dims):
        orders = [
            sorted(entries, key=lambda e: (e[0].lo[axis], e[0].hi[axis])),
            sorted(entries, key=lambda e: (e[0].hi[axis], e[0].lo[axis])),
        ]
        margin = 0.0
        for order in orders:
            for cut in cuts:
                left = union_all(box for box, _ in order[:cut])
                right = union_all(box for box, _ in order[cut:])
                margin += left.margin() + right.margin()
        if margin < best_margin:
            best_margin, best_orders = margin, orders
    best_key, best = None, None
    for order in best_orders:
        for cut in cuts:
            left = union_all(box for box, _ in order[:cut])
            right = union_all(box for box, _ in order[cut:])
            key = (left.overlap_volume(right), left.volume() + right.volume())
            if best_key is None or key < best_key:
                best_key, best = key, order
                best_cut = cut
    return [ref for _, ref in best[:best_cut]], [ref for _, ref in best[best_cut:]]


def _box_array(entries):
    return np.array([[box.lo, box.hi] for box, _ in entries], dtype=np.float64)


class TestSplits:
    """The array splits run the scalar rules on a node's ``(n, 2, d)`` box
    array: same groups, same members, same order — ties included."""

    def _entries(self, n, seed):
        return [(box, eid) for eid, box in make_items(n, seed=seed)]

    def test_split_partitions_entries(self):
        entries = self._entries(17, seed=2)
        group_a, group_b = _quadratic_split(_box_array(entries), min_entries=4)
        assert len(group_a) + len(group_b) == 17
        assert len(group_a) >= 4
        assert len(group_b) >= 4
        assert sorted(group_a.tolist() + group_b.tolist()) == list(range(17))

    @settings(max_examples=60, deadline=None)
    @given(
        n=st.integers(5, 17),
        dims=st.integers(1, 3),
        coords=st.integers(1, 6),
        seed=st.integers(0, 10_000),
    )
    def test_array_splits_equal_the_scalar_rules(self, n, dims, coords, seed):
        # A handful of integer coordinates forces tied dead space,
        # enlargements, volumes and margins, and duplicate boxes.
        rng = np.random.default_rng(seed)
        lo = rng.integers(0, coords, size=(n, dims)).astype(np.float64)
        hi = lo + rng.integers(0, 3, size=(n, dims))
        entries = [(AABB(l, h), i) for i, (l, h) in enumerate(zip(lo.tolist(), hi.tolist()))]
        boxes = np.stack([lo, hi], axis=1)
        min_entries = max(2, (n - 1) * 2 // 5)
        got = _quadratic_split(boxes, min_entries)
        assert [g.tolist() for g in got] == list(_scalar_quadratic_split(entries, min_entries))
        got = _rstar_split(boxes, min_entries)
        assert [g.tolist() for g in got] == list(_scalar_rstar_split(entries, min_entries))


#: Frozen from the ``Node``-object trees these record trees replaced, on
#: ``_grown_history``: (len, height, node_count), (node_tests, inserts,
#: deletes) after the history, then per query group the in-order answer
#: digest and (node_tests, elem_tests, pointer_follows, heap_ops,
#: bytes_touched) of the scalar calls.  Batch answers equal the scalar ones.
PARENT_TREES = {
    ("RTree", 6): ((326, 4, 109), (1703, 193, 167),
                   ("e204fbedad576768", (693, 227, 177, 0, 54832)),
                   ("1c0fd6c5f144ed65", (651, 475, 0, 1530, 67280))),
    ("RTree", 8): ((310, 4, 74), (1629, 185, 175),
                   ("1b773dc5147a1691", (474, 220, 115, 0, 41184)),
                   ("81d4805626685b1d", (616, 522, 0, 1494, 67184))),
    ("RTree", 16): ((334, 3, 37), (1519, 197, 163),
                    ("1fc1f4355e3e317b", (591, 634, 97, 0, 70632)),
                    ("f8956e2a92b44560", (449, 995, 0, 1726, 83136))),
    ("RStarTree", 6): ((326, 4, 104), (1800, 193, 167),
                       ("dd3e133a1e9951cd", (672, 227, 162, 0, 53416)),
                       ("1c0fd6c5f144ed65", (682, 552, 0, 1652, 73552))),
    ("RStarTree", 8): ((310, 4, 74), (1521, 185, 175),
                       ("c44fd442a5620ce3", (474, 269, 121, 0, 44024)),
                       ("81d4805626685b1d", (587, 542, 0, 1485, 66680))),
    ("RStarTree", 16): ((334, 3, 35), (1994, 197, 163),
                        ("232250a97513f70e", (684, 620, 107, 0, 75216)),
                        ("f8956e2a92b44560", (490, 882, 0, 1650, 79040))),
}

#: (in_place_updates, structural_updates, answer digest) of
#: ``_bottom_up_history``, frozen from the object tree's leaf map.
PARENT_BOTTOM_UP = {
    6: (778, 1222, "8ec90e4d986f56b1"),
    8: (1007, 993, "e62bc96ccee43852"),
    16: (1362, 638, "5b869e91fad997c2"),
}

_FIVE = ("node_tests", "elem_tests", "pointer_follows", "heap_ops", "bytes_touched")


def _grown_history(tree, seed):
    """STR bulk load, then 360 seeded inserts and deletes."""
    rng = random.Random(seed)
    items = make_items(300, seed=seed, max_extent=6.0)
    tree.bulk_load(items)
    tree.check_invariants()
    live = dict(items)
    next_id = len(items)
    for _ in range(360):
        if live and rng.random() < 0.45:
            eid = rng.choice(sorted(live))
            tree.delete(eid, live.pop(eid))
        else:
            lo = [rng.uniform(0, 95) for _ in range(3)]
            box = AABB(lo, [c + rng.uniform(0, rng.choice((1.0, 5.0))) for c in lo])
            tree.insert(next_id, box)
            live[next_id] = box
            next_id += 1


def _charged(tree, calls):
    before = tree.counters.snapshot()
    answers = [call() for call in calls]
    delta = tree.counters.diff(before)
    return answer_digest(answers), tuple(getattr(delta, name) for name in _FIVE)


class TestParentParity:
    """The record trees grow the object trees' exact shapes: same splits,
    same condensation, same entry order, so the same answers in the same
    order at the same counter charges.  ``DiskRTree`` on either store is
    that same ``RTree``."""

    @pytest.mark.parametrize("max_entries", [6, 8, 16])
    @pytest.mark.parametrize(
        "make",
        [
            pytest.param(lambda m: ("RTree", RTree(max_entries=m)), id="rtree"),
            pytest.param(lambda m: ("RStarTree", RStarTree(max_entries=m)), id="rstar"),
            pytest.param(lambda m: ("RTree", DiskRTree(max_entries=m)), id="disk-memory"),
            pytest.param(
                lambda m: ("RTree", DiskRTree(max_entries=m, mapped=True)), id="disk-file"
            ),
        ],
    )
    def test_seeded_history_matches_the_object_tree(self, make, max_entries):
        name, tree = make(max_entries)
        shape, maintenance, range_charge, knn_charge = PARENT_TREES[(name, max_entries)]
        seed = 100 + max_entries
        try:
            _grown_history(tree, seed)
            tree.check_invariants()
            counters = tree.counters
            assert (len(tree), tree.height, tree.node_count) == shape
            assert (counters.node_tests, counters.inserts, counters.deletes) == maintenance
            queries = make_queries(30, seed=seed + 1, extent=12.0)
            points = [tuple(q.lo) for q in make_queries(20, seed=seed + 2)]
            assert _charged(tree, [lambda q=q: tree.range_query(q) for q in queries]) == (
                range_charge
            )
            assert _charged(tree, [lambda p=p: tree.knn(p, 7) for p in points]) == knn_charge
            assert answer_digest(tree.batch_range_query(queries)) == range_charge[0]
            assert answer_digest(tree.batch_knn(points, 7)) == knn_charge[0]
        finally:
            if isinstance(tree, DiskRTree):
                tree.close()

    @pytest.mark.parametrize("max_entries", [6, 8, 16])
    def test_crtree_grows_the_rtree_shapes(self, max_entries):
        """CRTree is RTree's maintenance on longer records: the same shape,
        maintenance charges and answers in order; kNN reads the exact boxes
        at the same charge but for the modeled bytes of a quantized node."""
        shape, maintenance, range_charge, knn_charge = PARENT_TREES[("RTree", max_entries)]
        seed = 100 + max_entries
        tree = CRTree(max_entries=max_entries)
        _grown_history(tree, seed)
        tree.check_invariants()
        counters = tree.counters
        assert (len(tree), tree.height, tree.node_count) == shape
        assert (counters.node_tests, counters.inserts, counters.deletes) == maintenance
        queries = make_queries(30, seed=seed + 1, extent=12.0)
        points = [tuple(q.lo) for q in make_queries(20, seed=seed + 2)]
        assert _charged(tree, [lambda q=q: tree.range_query(q) for q in queries])[0] == (
            range_charge[0]
        )
        digest, charge = _charged(tree, [lambda p=p: tree.knn(p, 7) for p in points])
        assert (digest, charge[:-1]) == (knn_charge[0], knn_charge[1][:-1])
        assert charge[-1] < knn_charge[1][-1]
        assert answer_digest(tree.batch_range_query(queries)) == range_charge[0]
        assert answer_digest(tree.batch_knn(points, 7)) == knn_charge[0]

    @pytest.mark.parametrize("max_entries", [6, 8, 16])
    def test_bottom_up_leaf_map_matches_the_object_tree(self, max_entries):
        seed = 200 + max_entries
        rng = random.Random(seed)
        items = make_items(500, seed=seed)
        tree = BottomUpRTree(max_entries=max_entries)
        tree.bulk_load(items)
        tree._tree.check_invariants()
        boxes = dict(items)
        for _ in range(4):
            for eid in sorted(boxes):
                old = boxes[eid]
                step = rng.choice((0.2, 0.2, 0.2, 3.0))
                delta = [rng.uniform(-step, step) for _ in range(3)]
                new = AABB(
                    [a + d for a, d in zip(old.lo, delta)], [b + d for b, d in zip(old.hi, delta)]
                )
                tree.update(eid, old, new)
                boxes[eid] = new
        queries = make_queries(20, seed=seed + 1, extent=12.0)
        assert (
            tree.in_place_updates,
            tree.structural_updates,
            answer_digest([sorted(tree.range_query(q)) for q in queries]),
        ) == PARENT_BOTTOM_UP[max_entries]


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
