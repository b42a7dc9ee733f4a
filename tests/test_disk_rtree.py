"""Disk-resident R-tree: correctness plus page-transfer accounting."""

import math

import pytest

from repro.geometry.aabb import AABB
from repro.indexes.disk_rtree import DiskRTree

from conftest import (
    answer_digest,
    assert_same_knn,
    assert_same_range_results,
    make_items,
    make_queries,
    reachable_nodes,
)

#: The counters a query charges, in the order the frozen tuples list them.
COUNTERS = ("node_tests", "elem_tests", "pointer_follows", "pages_read", "heap_ops")


def charged(tree, calls):
    """Run ``calls`` in order on ``tree``: ``(answer digest, COUNTERS
    charges, pool (hits, misses))`` of the run."""
    before = tree.counters.snapshot()
    hits, misses = tree.pool.hits, tree.pool.misses
    answers = [call(tree) for call in calls]
    delta = tree.counters.diff(before)
    return (
        answer_digest(answers),
        tuple(getattr(delta, name) for name in COUNTERS),
        (tree.pool.hits - hits, tree.pool.misses - misses),
    )


class TestCorrectness:
    def test_range_matches_oracle(self, items_3d, queries_3d):
        tree = DiskRTree(max_entries=16)
        tree.bulk_load(items_3d)
        assert_same_range_results(tree, items_3d, queries_3d)

    def test_knn_matches_oracle(self, items_3d):
        tree = DiskRTree(max_entries=16)
        tree.bulk_load(items_3d)
        assert_same_knn(tree, items_3d, [(30, 60, 10), (80, 80, 80)], k=6)

    def test_dynamic_workload(self, queries_3d):
        items = make_items(300, seed=6)
        tree = DiskRTree(max_entries=8)
        live = {}
        for eid, box in items:
            tree.insert(eid, box)
            live[eid] = box
        for eid in list(live)[::3]:
            tree.delete(eid, live.pop(eid))
        assert len(tree) == len(live)
        assert_same_range_results(tree, list(live.items()), queries_3d)

    def test_delete_missing(self):
        tree = DiskRTree()
        with pytest.raises(KeyError):
            tree.delete(1, AABB((0, 0, 0), (1, 1, 1)))

    def test_empty_queries(self):
        tree = DiskRTree()
        assert tree.range_query(AABB((0, 0, 0), (1, 1, 1))) == []
        assert tree.knn((0, 0, 0), 4) == []


class TestPageAccounting:
    def test_cold_queries_read_pages(self):
        items = make_items(2000, seed=2)
        tree = DiskRTree(max_entries=32, buffer_pages=16)
        tree.bulk_load(items)
        before = tree.counters.snapshot()
        tree.clear_cache()
        tree.range_query(AABB((20, 20, 20), (40, 40, 40)))
        delta = tree.counters.diff(before)
        assert delta.pages_read > 0

    def test_warm_cache_reads_fewer_pages(self):
        items = make_items(2000, seed=2)
        query = AABB((20, 20, 20), (40, 40, 40))
        tree = DiskRTree(max_entries=32, buffer_pages=512)
        tree.bulk_load(items)
        tree.clear_cache()
        before = tree.counters.snapshot()
        tree.range_query(query)
        cold = tree.counters.diff(before).pages_read
        before = tree.counters.snapshot()
        tree.range_query(query)  # same query, warm pool
        warm = tree.counters.diff(before).pages_read
        assert warm < cold

    def test_clear_cache_restores_cold_behaviour(self):
        items = make_items(1000, seed=3)
        query = AABB((10, 10, 10), (30, 30, 30))
        tree = DiskRTree(max_entries=32, buffer_pages=512)
        tree.bulk_load(items)
        tree.clear_cache()
        before = tree.counters.snapshot()
        tree.range_query(query)
        first = tree.counters.diff(before).pages_read
        tree.clear_cache()
        before = tree.counters.snapshot()
        tree.range_query(query)
        second = tree.counters.diff(before).pages_read
        assert second == first

    def test_page_count_grows_with_data(self):
        small = DiskRTree(max_entries=16)
        small.bulk_load(make_items(100, seed=1))
        large = DiskRTree(max_entries=16)
        large.bulk_load(make_items(2000, seed=1))
        assert large.page_count() > small.page_count()


class TestMappedMode:
    """``mapped`` picks only where the node records live: ``bytes`` in the
    in-memory store, or a real file behind
    :class:`~repro.storage.pagestore.MappedPageStore` served as zero-copy
    views through the buffer pool.  Both stores must agree with each other
    and with constants frozen on the same seeded calls: bulk-load constants
    from the object-payload tree this one node format replaced, dynamic ones
    from the ``RTree`` this tree now is (its answers, tree counters, height
    and node count; the page reads and pool traffic are this tree's)."""

    # (answer digest, COUNTERS charges, pool (hits, misses)) per call group.
    FROZEN_QUERIES = {
        "range": ("d3959134d0bd0ad8", (253, 370, 41, 18, 0), (35, 18)),
        "batch_range": ("de26956d0d26f3a4", (253, 370, 17, 0, 0), (18, 0)),
        "batch_knn": ("1f3567fba78ff939", (89, 132, 10, 3, 87), (7, 3)),
        "knn": ("c2d45343a87ace6c", (29, 64, 0, 0, 106), (7, 0)),
    }

    def _pair(self, items, **kwargs):
        plain = DiskRTree(**kwargs)
        plain.bulk_load(items)
        mapped = DiskRTree(mapped=True, **kwargs)
        mapped.bulk_load(items)
        return plain, mapped

    def test_query_parity_across_stores(self, items_3d, queries_3d):
        points = [(30.0, 60.0, 10.0), (80.0, 80.0, 80.0)]
        groups = {
            "range": [lambda tree, q=q: tree.range_query(q) for q in queries_3d],
            "batch_range": [lambda tree: tree.batch_range_query(queries_3d)],
            "batch_knn": [lambda tree: tree.batch_knn(points, 6)],
            "knn": [lambda tree: tree.knn(points[0], 6)],
        }
        for tree in self._pair(items_3d, max_entries=16):
            try:
                assert (tree.height, tree.page_count()) == (3, 30)
                for name, calls in groups.items():
                    assert charged(tree, calls) == self.FROZEN_QUERIES[name], name
            finally:
                tree.close()

    def test_dynamic_workload_parity(self):
        items = make_items(300, seed=9)
        plain = DiskRTree(max_entries=8)
        mapped = DiskRTree(max_entries=8, mapped=True)
        live = {}
        for eid, box in items:
            plain.insert(eid, box)
            mapped.insert(eid, box)
            live[eid] = box
        for eid in list(live)[::3]:
            box = live.pop(eid)
            plain.delete(eid, box)
            mapped.delete(eid, box)
        queries = make_queries(30, seed=10)
        calls = [lambda tree, q=q: tree.range_query(q) for q in queries]
        try:
            for tree in (plain, mapped):
                assert len(tree) == len(live) == 200
                assert (tree.height, tree.page_count()) == (4, 56)
                assert tree.counters.node_tests == 893
                # Writes are write-through and drop the page's frame, so the
                # pool holds no page the history rewrote: 7 misses in 175
                # reads.
                assert charged(tree, calls) == (
                    "7c99df3d17db90bb", (547, 262, 145, 7, 0), (168, 7)
                )
            assert_same_range_results(mapped, list(live.items()), queries)
        finally:
            mapped.close()

    def test_zero_copy_reads_keep_pool_residency_bounded(self):
        items = make_items(2000, seed=11)
        tree = DiskRTree(max_entries=16, buffer_pages=8, mapped=True)
        tree.bulk_load(items)
        try:
            tree.clear_cache()
            before = tree.counters.snapshot()
            tree.batch_range_query(make_queries(40, seed=12))
            delta = tree.counters.diff(before)
            # Every pool miss was served as a mapped view, not a copy...
            assert delta.zero_copy_reads > 0
            assert delta.mapped_bytes > 0
            assert delta.pages_read == delta.zero_copy_reads
            # ...and the view frames still obey the pool's capacity bound.
            assert len(tree.pool) <= tree.pool.capacity
            assert tree.pool.misses > 0
        finally:
            tree.close()

    def test_warm_pool_skips_mapped_reads(self):
        items = make_items(1000, seed=13)
        query = AABB((10, 10, 10), (30, 30, 30))
        tree = DiskRTree(max_entries=32, buffer_pages=512, mapped=True)
        tree.bulk_load(items)
        try:
            tree.clear_cache()
            before = tree.counters.snapshot()
            tree.range_query(query)
            cold = tree.counters.diff(before).zero_copy_reads
            before = tree.counters.snapshot()
            tree.range_query(query)
            assert tree.counters.diff(before).zero_copy_reads == 0  # all hits
            assert cold > 0
        finally:
            tree.close()

    def test_close_unlinks_the_backing_file(self):
        import os

        tree = DiskRTree(max_entries=16, mapped=True)
        tree.bulk_load(make_items(200, seed=14))
        path = tree.store.path
        assert os.path.exists(path)
        tree.close()
        assert not os.path.exists(path)

    def test_rebuild_replaces_the_backing_file(self):
        import os

        tree = DiskRTree(max_entries=16, mapped=True)
        tree.bulk_load(make_items(200, seed=15))
        first = tree.store.path
        tree.bulk_load(make_items(300, seed=16))
        assert tree.store.path != first
        assert not os.path.exists(first)
        tree.close()

    def test_oversized_node_raises_before_write(self):
        # 100 3-d entries need 16 + 100*(48+8) bytes > 4096: the codec must
        # refuse rather than truncate.
        tree = DiskRTree(max_entries=100, mapped=True)
        with pytest.raises(ValueError, match="mapped mode"):
            tree.bulk_load(make_items(500, seed=17))
        tree.close()

    def test_in_memory_records_are_not_capped_by_page_size(self):
        # A 4-d node of 64 entries needs 16 + 64*(64+8) bytes > 4096: a file
        # page cannot hold it, a simulated in-memory page can.
        universe = AABB((0.0,) * 4, (100.0,) * 4)
        items = make_items(500, universe=universe, seed=18)
        tree = DiskRTree(max_entries=64)
        tree.bulk_load(items)
        assert_same_range_results(tree, items, make_queries(10, universe=universe))


class TestMappedScalarReadParity:
    """Scalar queries test whole node views and never build an ``AABB``; on
    a tree grown by bulk load plus a random update history, both stores must
    give the in-memory ``RTree``'s frozen answers *in the same order* and
    tree counters on that history, and the same page and pool traffic, cold
    and warm."""

    # (answer digest, COUNTERS charges, pool (hits, misses)); with six
    # frames the warm pass charges exactly what the cold one does.
    FROZEN_RANGE = ("3571cfe3f42b32f2", (1223, 497, 273, 280, 0), (33, 280))
    FROZEN_KNN = ("ddf9f51bd36a4d92", (1193, 966, 0, 385, 2772), (3, 385))

    @pytest.fixture(scope="class")
    def pair(self):
        import random

        rng = random.Random(15)
        items = make_items(600, seed=21)
        plain = DiskRTree(max_entries=8, buffer_pages=6)
        mapped = DiskRTree(max_entries=8, buffer_pages=6, mapped=True)
        plain.bulk_load(items)
        mapped.bulk_load(items)
        live = list(items)
        for eid in range(600, 900):
            lo = [rng.uniform(0, 96) for _ in range(3)]
            box = AABB(lo, [c + rng.uniform(0, 4) for c in lo])
            plain.insert(eid, box)
            mapped.insert(eid, box)
            live.append((eid, box))
            if rng.random() < 0.5:
                gone_id, gone = live.pop(rng.randrange(len(live)))
                plain.delete(gone_id, gone)
                mapped.delete(gone_id, gone)
        yield plain, mapped
        mapped.close()

    def _assert_parity(self, pair, calls, frozen):
        for tree in pair:
            tree.clear_cache()
            assert charged(tree, calls) == frozen  # cold
            assert charged(tree, calls) == frozen  # warm

    def test_grown_tree_matches_frozen_shape(self, pair):
        for tree in pair:
            assert (len(tree), tree.height, tree.page_count()) == (731, 4, 169)
            counters = tree.counters
            assert (counters.inserts, counters.deletes) == (300, 169)

    def test_range_query_parity_cold_and_warm(self, pair):
        queries = make_queries(40, seed=22, extent=12.0)
        self._assert_parity(
            pair, [lambda tree, q=q: tree.range_query(q) for q in queries],
            self.FROZEN_RANGE,
        )

    def test_knn_parity_cold_and_warm(self, pair):
        points = [tuple(q.lo) for q in make_queries(25, seed=23)]
        self._assert_parity(
            pair, [lambda tree, p=p: tree.knn(p, 9) for p in points],
            self.FROZEN_KNN,
        )

    def test_batch_range_query_order_matches_scalar_traversal(self, pair):
        _, mapped = pair
        queries = make_queries(30, seed=24, extent=12.0)
        batched = mapped.batch_range_query(queries)
        assert [sorted(r) for r in batched] == [
            sorted(mapped.range_query(q)) for q in queries
        ]


class TestPagesFollowNodes:
    """A node that dissolves, and a root that shrinks away, free their page:
    ``page_count()`` is the reachable nodes after any history, and a
    file-backed tree reuses the freed slots instead of growing."""

    @pytest.mark.parametrize("mapped", [False, True], ids=["memory", "file"])
    def test_page_count_is_the_reachable_nodes_after_every_round(self, mapped):
        import random

        rng = random.Random(31)
        items = make_items(2000, seed=31)
        tree = DiskRTree(max_entries=8, mapped=mapped)
        try:
            tree.bulk_load(items)
            assert tree.page_count() == reachable_nodes(tree)
            live = dict(items)
            next_id = len(items)
            for _ in range(3):
                for eid in rng.sample(sorted(live), 600):
                    tree.delete(eid, live.pop(eid))
                for _ in range(600):
                    lo = [rng.uniform(0, 96) for _ in range(3)]
                    box = AABB(lo, [c + rng.uniform(0, 4) for c in lo])
                    tree.insert(next_id, box)
                    live[next_id] = box
                    next_id += 1
                assert tree.page_count() == reachable_nodes(tree)
            if mapped:
                assert tree.store.fragmentation() == 0.0
            assert_same_range_results(tree, list(live.items()), make_queries(10, seed=32))
        finally:
            tree.close()

    def test_deleting_everything_frees_every_page(self):
        items = make_items(300, seed=33)
        tree = DiskRTree(max_entries=8, mapped=True)
        try:
            tree.bulk_load(items)
            for eid, box in items:
                tree.delete(eid, box)
            assert (len(tree), tree.height, tree.page_count()) == (0, 0, 0)
        finally:
            tree.close()


class TestRefusesBadBoxes:
    """A NaN carried into a parent MBR by ``minimum``/``maximum`` cut whole
    subtrees off from queries, and a 2-d box in a 3-d tree was accepted or
    broke on a NumPy broadcast.  Both stores refuse either before any page
    is written, with the grid's messages, and keep every element."""

    UNIVERSE = AABB((0.0, 0.0, 0.0), (100.0, 100.0, 100.0))
    BAD = {
        "nan": AABB((1.0, math.nan, 1.0), (2.0, 2.0, 2.0)),
        "inf": AABB((1.0, 1.0, 1.0), (2.0, math.inf, 2.0)),
        "-inf": AABB((-math.inf, 1.0, 1.0), (2.0, 2.0, 2.0)),
    }

    @pytest.fixture(params=[False, True], ids=["memory", "file"])
    def tree(self, request):
        tree = DiskRTree(max_entries=8, mapped=request.param)
        tree.bulk_load(make_items(400, seed=26))
        yield tree
        tree.close()

    def _assert_untouched(self, tree, written):
        assert tree.counters.pages_written == written
        assert len(tree) == 400
        assert sorted(tree.range_query(self.UNIVERSE)) == list(range(400))
        assert sorted(tree.batch_range_query([self.UNIVERSE])[0]) == list(range(400))

    @pytest.mark.parametrize("kind", list(BAD))
    def test_bulk_load_refuses_non_finite_box(self, tree, kind):
        items = make_items(400, seed=27)
        items[123] = (123, self.BAD[kind])
        written = tree.counters.pages_written
        with pytest.raises(ValueError, match="box coordinates must be finite"):
            tree.bulk_load(items)
        self._assert_untouched(tree, written)

    @pytest.mark.parametrize("kind", list(BAD))
    def test_insert_refuses_non_finite_box(self, tree, kind):
        written = tree.counters.pages_written
        with pytest.raises(ValueError, match="box coordinates must be finite"):
            tree.insert(400, self.BAD[kind])
        self._assert_untouched(tree, written)

    def test_insert_refuses_wrong_dims(self, tree):
        written = tree.counters.pages_written
        with pytest.raises(ValueError, match="box has 2 dims, index has 3"):
            tree.insert(400, AABB((1.0, 1.0), (2.0, 2.0)))
        self._assert_untouched(tree, written)

    def test_delete_of_wrong_dims_box_is_not_found(self, tree):
        written = tree.counters.pages_written
        with pytest.raises(KeyError, match="not in index"):
            tree.delete(5, AABB((1.0, 1.0), (2.0, 2.0)))
        self._assert_untouched(tree, written)

    @pytest.mark.parametrize("mapped", [False, True], ids=["memory", "file"])
    def test_an_emptied_tree_takes_any_dims(self, mapped):
        tree = DiskRTree(max_entries=8, mapped=mapped)
        box = AABB((1.0, 1.0, 1.0), (2.0, 2.0, 2.0))
        tree.insert(1, box)
        tree.delete(1, box)
        tree.insert(2, AABB((1.0, 1.0), (2.0, 2.0)))
        assert tree.range_query(AABB((0.0, 0.0), (3.0, 3.0))) == [2]
        tree.close()


class TestScalarDimsMismatch:
    """Scalar queries reject a query of the wrong dimensionality exactly as
    the batch paths do, on either store, instead of broadcasting."""

    @pytest.fixture(params=[False, True], ids=["object", "mapped"])
    def tree(self, request):
        tree = DiskRTree(max_entries=8, mapped=request.param)
        tree.bulk_load(make_items(100, seed=25))
        yield tree
        tree.close()

    @pytest.mark.parametrize("dims", [1, 2, 4])
    def test_range_query_raises(self, tree, dims):
        with pytest.raises(ValueError, match=f"{dims} dims, index has 3"):
            tree.range_query(AABB((0.0,) * dims, (50.0,) * dims))

    @pytest.mark.parametrize("dims", [1, 2, 4])
    def test_knn_raises(self, tree, dims):
        with pytest.raises(ValueError, match=f"{dims} dims, index has 3"):
            tree.knn((10.0,) * dims, 3)

    def test_batch_paths_raise_the_same_error(self, tree):
        with pytest.raises(ValueError, match="2 dims, index has 3"):
            tree.batch_range_query([AABB((0.0, 0.0), (1.0, 1.0))])
        with pytest.raises(ValueError, match="2 dims, index has 3"):
            tree.batch_knn([(0.0, 0.0)], 3)

    def test_empty_tree_still_answers_empty(self):
        tree = DiskRTree(mapped=True)
        try:
            assert tree.range_query(AABB((0.0, 0.0), (1.0, 1.0))) == []
            assert tree.knn((0.0,), 3) == []
        finally:
            tree.close()
