"""Page store, buffer pool — and the spill substrate."""

import os

import numpy as np
import pytest

from repro.instrumentation.counters import Counters
from repro.storage.buffer_pool import BufferPool
from repro.storage.pagestore import MappedPageStore, PageStore


@pytest.fixture(params=["memory", "file"])
def make_store(request, tmp_path):
    """A store factory per implementation: the in-memory simulated disk and
    the file store promise one page protocol and one transfer accounting."""
    stores = []

    def make(page_size=4096, counters=None):
        if request.param == "memory":
            store = PageStore(page_size=page_size, counters=counters)
        else:
            path = str(tmp_path / f"pages{len(stores)}.bin")
            store = MappedPageStore(path, page_size=page_size, counters=counters)
        stores.append(store)
        return store

    yield make
    for store in stores:
        if isinstance(store, MappedPageStore):
            store.close()


class TestMappedPageStore:
    """ISSUE 9 tentpole: zero-copy mmap views over the file page store."""

    def test_read_view_roundtrip_and_counters(self, tmp_path):
        counters = Counters()
        store = MappedPageStore(
            str(tmp_path / "pages.bin"), page_size=64, counters=counters
        )
        pid = store.allocate(b"hello mapped world")
        view = store.read_view(pid)
        assert bytes(view) == b"hello mapped world"
        assert not view.flags.owndata  # a view over the mmap
        assert not view.flags.writeable
        assert counters.pages_read == 1
        assert counters.zero_copy_reads == 1
        assert counters.mapped_bytes == len(b"hello mapped world")
        assert store.read(pid) == b"hello mapped world"  # byte path still works
        store.close()

    def test_views_see_later_writes_through_page_cache(self, tmp_path):
        store = MappedPageStore(str(tmp_path / "pages.bin"), page_size=16)
        pid = store.allocate(b"aaaaaaaa")
        assert bytes(store.read_view(pid)) == b"aaaaaaaa"
        store.write(pid, b"bbbbbbbb")
        # A fresh view reflects the write: file writes and the read-only
        # mapping are coherent through the kernel's unified page cache.
        assert bytes(store.read_view(pid)) == b"bbbbbbbb"
        store.close()

    def test_growth_remaps_without_invalidating_old_views(self, tmp_path):
        store = MappedPageStore(str(tmp_path / "pages.bin"), page_size=16)
        first = store.allocate(b"0123456789abcdef")
        early_view = store.read_view(first)
        for i in range(8):  # grow the file well past the first mapping
            store.allocate(bytes([i]) * 16)
        late_view = store.read_view(8)
        assert bytes(late_view) == bytes([7]) * 16
        # The early view's buffer (the retired mapping) is still alive.
        assert bytes(early_view) == b"0123456789abcdef"
        store.close()  # BufferError-safe: live views keep retired maps open

    def test_run_view_spans_pages(self, tmp_path):
        counters = Counters()
        store = MappedPageStore(
            str(tmp_path / "pages.bin"), page_size=16, counters=counters
        )
        payload = bytes(range(48))
        for start in range(0, 48, 16):
            store.allocate(payload[start : start + 16])
        run = store.run_view(0, 40, offset=4)
        assert bytes(run) == payload[4:44]
        assert counters.zero_copy_reads == 1
        assert counters.pages_read == 3  # the covering pages are charged
        with pytest.raises(ValueError):
            store.run_view(2, 32)  # reaches past the allocated slots
        store.close()

    def test_buffer_pool_read_view_keeps_residency_accounting(self, tmp_path):
        store = MappedPageStore(str(tmp_path / "pages.bin"), page_size=16)
        pids = [store.allocate(bytes([i]) * 8) for i in range(4)]
        pool = BufferPool(store, capacity=2)
        for pid in pids:
            view = pool.read_view(pid)
            assert bytes(view) == store.peek(pid)
        assert len(pool) <= 2
        assert pool.misses == 4
        pool.read_view(pids[-1])
        assert pool.hits == 1  # warm frames serve the cached view
        store.close()

    @pytest.mark.parametrize("state", ["never_allocated", "freed"])
    def test_views_of_dead_pages_raise_like_read(self, tmp_path, state):
        counters = Counters()
        store = MappedPageStore(str(tmp_path / "pages.bin"), page_size=16, counters=counters)
        pid = 0
        if state == "freed":
            pid = store.allocate(b"gone")
            store.free(pid)
        for read in (store.read, store.read_view):
            with pytest.raises(KeyError):
                read(pid)
        assert counters.pages_read == counters.zero_copy_reads == 0  # nothing charged
        store.close()


class TestPageStore:
    """The page protocol, held to the same assertions on both stores."""

    def test_allocate_read_write(self, make_store):
        counters = Counters()
        store = make_store(counters=counters)
        pid = store.allocate(b"payload")
        assert counters.pages_written == 1
        assert store.read(pid) == b"payload"
        assert counters.pages_read == 1
        store.write(pid, b"new")
        assert counters.pages_written == 2
        assert store.peek(pid) == b"new"
        assert counters.pages_read == 1  # peek is free

    def test_allocate_empty_is_free(self, make_store):
        counters = Counters()
        store = make_store(counters=counters)
        store.allocate()
        assert counters.pages_written == 0

    def test_free_and_errors(self, make_store):
        store = make_store()
        pid = store.allocate(b"x")
        store.free(pid)
        with pytest.raises(KeyError):
            store.read(pid)
        with pytest.raises(KeyError):
            store.write(pid, b"y")
        with pytest.raises(KeyError):
            store.free(pid)

    def test_len_and_page_ids_track_live_pages(self, make_store):
        store = make_store()
        pids = [store.allocate(bytes([i])) for i in range(4)]
        store.free(pids[1])
        assert len(store) == 3
        assert sorted(store.page_ids()) == [pids[0], pids[2], pids[3]]
        pid = store.allocate()  # an empty page is live too
        assert len(store) == 4 and pid in store.page_ids()

    def test_invalid_page_size(self, make_store):
        with pytest.raises(ValueError):
            make_store(page_size=0)


class TestBufferPool:
    """The pool composes with either store unchanged."""

    def test_hit_avoids_disk_read(self, make_store):
        counters = Counters()
        store = make_store(counters=counters)
        pid = store.allocate(b"v")
        pool = BufferPool(store, capacity=4)
        pool.read(pid)
        pool.read(pid)
        assert counters.pages_read == 1
        assert pool.hits == 1
        assert pool.misses == 1
        assert pool.hit_rate() == 0.5

    def test_lru_eviction(self, make_store):
        counters = Counters()
        store = make_store(counters=counters)
        pids = [store.allocate(bytes([i])) for i in range(3)]
        pool = BufferPool(store, capacity=2)
        pool.read(pids[0])
        pool.read(pids[1])
        pool.read(pids[2])  # evicts pids[0]
        pool.read(pids[0])  # miss again
        assert counters.pages_read == 4

    def test_writeback_on_eviction(self, make_store):
        counters = Counters()
        store = make_store(counters=counters)
        pids = [store.allocate(bytes([i])) for i in range(2)]
        pool = BufferPool(store, capacity=1)
        pool.write(pids[0], b"dirty")
        pool.read(pids[1])  # evicts the dirty frame
        assert store.peek(pids[0]) == b"dirty"

    def test_clear_flushes(self, make_store):
        store = make_store()
        pid = store.allocate(b"orig")
        pool = BufferPool(store, capacity=4)
        pool.write(pid, b"changed")
        pool.clear()
        assert store.peek(pid) == b"changed"
        pool.read(pid)
        assert pool.misses == 1  # cold after clear

    def test_zero_capacity(self, make_store):
        counters = Counters()
        store = make_store(counters=counters)
        pid = store.allocate(b"v")
        pool = BufferPool(store, capacity=0)
        pool.read(pid)
        pool.read(pid)
        assert counters.pages_read == 2  # nothing cached


class TestMappedPageStoreSlots:
    """What the file store adds to the page protocol: a real file, slot
    reuse, a size cap and a fragmentation gauge."""

    def test_payloads_persist_in_real_file(self, tmp_path):
        path = tmp_path / "pages.bin"
        store = MappedPageStore(str(path), page_size=16)
        store.allocate(b"0123456789abcdef")
        store._file.flush()
        assert path.stat().st_size >= 16
        store.close()
        assert not path.exists()  # close unlinks by default

    def test_free_slots_are_reused(self, tmp_path):
        store = MappedPageStore(str(tmp_path / "pages.bin"), page_size=16)
        first = store.allocate(b"aa")
        store.allocate(b"bb")
        store.free(first)
        reused = store.allocate(b"cc")
        assert reused == first
        assert store.file_bytes == 2 * 16  # the file did not grow
        with pytest.raises(KeyError):
            store.read(999)
        store.close()

    def test_free_slots_reused_lowest_first(self, tmp_path):
        # The free list is a heap, not a LIFO stack: after freeing slots
        # out of order, allocations return them ascending — so a multi-page
        # allocation that follows a multi-page free lands contiguous again.
        store = MappedPageStore(str(tmp_path / "pages.bin"), page_size=16)
        pids = [store.allocate(bytes([i]) * 4) for i in range(6)]
        for pid in (pids[4], pids[1], pids[3], pids[2]):
            store.free(pid)
        assert [store.allocate(b"x") for _ in range(4)] == [1, 2, 3, 4]
        store.close()

    def test_fragmentation_gauge(self, tmp_path):
        store = MappedPageStore(str(tmp_path / "pages.bin"), page_size=16)
        assert store.fragmentation() == 0.0  # empty store: no holes
        pids = [store.allocate(b"p") for i in range(4)]
        assert store.fragmentation() == 0.0  # fully packed
        store.free(pids[0])
        store.free(pids[2])
        assert store.fragmentation() == pytest.approx(0.5)
        store.allocate(b"q")  # refills slot 0
        assert store.fragmentation() == pytest.approx(0.25)
        store.close()

    def test_oversized_payload_rejected(self, tmp_path):
        store = MappedPageStore(str(tmp_path / "pages.bin"), page_size=4)
        with pytest.raises(ValueError):
            store.allocate(b"too large")
        store.close()


class TestSpillLifecycle:
    """ISSUE 5 satellite: no orphan spill files, bounded pool residency."""

    def _boxes(self, n, seed, offset=0):
        rng = np.random.default_rng(seed)
        from repro.geometry.aabb import AABB

        lo = rng.uniform(0.0, 49.0, size=(n, 3))
        hi = np.minimum(lo + rng.uniform(0.1, 1.5, size=(n, 3)), 50.0)
        return [(offset + eid, AABB(l, h)) for eid, (l, h) in enumerate(zip(lo, hi))]

    def test_session_close_removes_every_spill_file(self, tmp_path):
        from repro.joins import JoinSession, PairJoinSpec

        spill_dir = tmp_path / "spills"
        session = JoinSession(budget=120_000, spill_dir=str(spill_dir))
        session.run(PairJoinSpec(self._boxes(1200, 1), self._boxes(1200, 2, offset=10_000)))
        assert session.stats.tiles_spilled > 0
        assert os.listdir(spill_dir) != []
        session.close()
        assert os.listdir(spill_dir) == []  # caller-owned dir survives, empty
        session.close()  # idempotent

    def test_strategy_error_removes_every_spill_file(self, tmp_path, monkeypatch):
        from repro.exec.external_join import SpillPBSMJoin
        from repro.joins import kernels

        def explode(*args, **kwargs):
            raise RuntimeError("merge kernel down")

        monkeypatch.setattr(kernels, "replica_tile_pairs", explode)
        strategy = SpillPBSMJoin(budget=120_000, spill_dir=str(tmp_path))
        with pytest.raises(RuntimeError):
            strategy.join(
                self._boxes(1200, 3), self._boxes(1200, 4, offset=10_000), Counters()
            )
        assert os.listdir(tmp_path) == []

    def test_contiguous_reads_are_zero_copy_views(self, tmp_path):
        from repro.exec.spill import SpillManager

        counters = Counters()
        with SpillManager(
            dir=str(tmp_path), page_size=1024, counters=counters
        ) as spill:
            data = np.random.default_rng(7).uniform(size=2048)  # 16 pages
            handle = spill.spill(data)
            assert handle.contiguous
            whole = spill.read(handle)
            np.testing.assert_array_equal(whole, data)
            assert not whole.flags.owndata  # a view over the mmap, not a copy
            assert not whole.flags.writeable
            window = spill.read_rows(handle, 100, 1900)
            np.testing.assert_array_equal(window, data[100:1900])
            assert not window.flags.owndata
            assert counters.zero_copy_reads == 2
            assert counters.mapped_bytes == (2048 + 1800) * 8
            assert spill.pool.misses == 0  # the pool never saw these reads

    def test_pool_residency_bounded_under_spill_pressure(self, tmp_path):
        # Fragmented handles (pages on non-consecutive slots) cannot be
        # served as one mapped view; they fall back to the bounded pool.
        from repro.exec.spill import SpillManager

        pool_pages = 4
        with SpillManager(
            dir=str(tmp_path), page_size=1024, pool_pages=pool_pages
        ) as spill:
            early = spill.spill(np.random.default_rng(0).uniform(size=1024))  # slots 0-7
            spill.spill(np.random.default_rng(1).uniform(size=1024))  # slots 8-15
            spill.free(early)
            handles = [
                # The first reuses freed slots 0-7 then extends past the
                # keeper at 8-15: pages land on two disjoint slot ranges.
                spill.spill(np.random.default_rng(2 + i).uniform(size=2048))
                for i in range(4)
            ]
            assert any(not handle.contiguous for handle in handles)
            for handle in handles:
                spill.read(handle)
                assert len(spill.pool) <= pool_pages
            # Partial re-reads churn the pool without exceeding the budget.
            for handle in handles:
                spill.read_rows(handle, 100, 1900)
                assert len(spill.pool) <= pool_pages
            assert spill.pool.misses > 0

