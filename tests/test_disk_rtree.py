"""Disk-resident R-tree: correctness plus page-transfer accounting."""

import pytest

from repro.geometry.aabb import AABB
from repro.indexes.disk_rtree import DiskRTree

from conftest import assert_same_knn, assert_same_range_results, make_items, make_queries


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
    """ISSUE 9: ``mapped=True`` stores nodes as binary pages in a real file
    (:class:`~repro.storage.pagestore.MappedPageStore`) and the read path
    serves zero-copy views through the buffer pool — answers, maintenance
    and residency accounting must match the object store exactly."""

    def _pair(self, items, **kwargs):
        plain = DiskRTree(**kwargs)
        plain.bulk_load(items)
        mapped = DiskRTree(mapped=True, **kwargs)
        mapped.bulk_load(items)
        return plain, mapped

    def test_query_parity_with_object_store(self, items_3d, queries_3d):
        plain, mapped = self._pair(items_3d, max_entries=16)
        try:
            for query in queries_3d:
                assert sorted(mapped.range_query(query)) == sorted(
                    plain.range_query(query)
                )
            batched_plain = plain.batch_range_query(queries_3d)
            batched_mapped = mapped.batch_range_query(queries_3d)
            assert [sorted(r) for r in batched_mapped] == [
                sorted(r) for r in batched_plain
            ]
            points = [(30.0, 60.0, 10.0), (80.0, 80.0, 80.0)]
            assert mapped.batch_knn(points, 6) == plain.batch_knn(points, 6)
            assert mapped.knn(points[0], 6) == plain.knn(points[0], 6)
        finally:
            mapped.close()

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
        try:
            assert len(mapped) == len(plain) == len(live)
            for query in make_queries(30, seed=10):
                assert sorted(mapped.range_query(query)) == sorted(
                    plain.range_query(query)
                )
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

    def test_warm_pool_skips_mapped_reads_like_object_mode(self):
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


class TestMappedScalarReadParity:
    """ISSUE 15: mapped scalar queries test whole node views and never build
    an ``AABB``; they must stay indistinguishable from the object-mode entry
    loop — same answers *in the same order*, same counter charges, same pool
    traffic — on a tree grown by bulk load plus a random update history."""

    COUNTERS = ("node_tests", "elem_tests", "pointer_follows", "pages_read", "heap_ops")

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

    def _run(self, tree, calls):
        before = tree.counters.snapshot()
        hits, misses = tree.pool.hits, tree.pool.misses
        answers = [call(tree) for call in calls]
        delta = tree.counters.diff(before)
        charges = {name: getattr(delta, name) for name in self.COUNTERS}
        return answers, charges, (tree.pool.hits - hits, tree.pool.misses - misses)

    def _assert_parity(self, pair, calls):
        plain, mapped = pair
        for warm in (False, True):
            if not warm:
                plain.clear_cache()
                mapped.clear_cache()
            got, expected = self._run(mapped, calls), self._run(plain, calls)
            assert got[0] == expected[0]  # ordered lists, not sets
            assert got[1] == expected[1]
            assert got[2] == expected[2]
            assert any(got[0]) and got[1]["pages_read"] > 0

    def test_range_query_parity_cold_and_warm(self, pair):
        queries = make_queries(40, seed=22, extent=12.0)
        self._assert_parity(
            pair, [lambda tree, q=q: tree.range_query(q) for q in queries]
        )

    def test_knn_parity_cold_and_warm(self, pair):
        points = [tuple(q.lo) for q in make_queries(25, seed=23)]
        self._assert_parity(
            pair, [lambda tree, p=p: tree.knn(p, 9) for p in points]
        )

    def test_batch_range_query_order_matches_scalar_traversal(self, pair):
        _, mapped = pair
        queries = make_queries(30, seed=24, extent=12.0)
        batched = mapped.batch_range_query(queries)
        assert [sorted(r) for r in batched] == [
            sorted(mapped.range_query(q)) for q in queries
        ]


class TestScalarDimsMismatch:
    """Scalar queries reject a query of the wrong dimensionality exactly as
    the batch paths do, instead of truncating through ``zip`` (object mode)
    or broadcasting (mapped mode)."""

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
