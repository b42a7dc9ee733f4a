"""Concurrent-session safety: threads and tasks sharing one session.

The sessions promise a small but real concurrency contract (ISSUE 6):
``submit()`` and flush-on-read may interleave freely across threads, every
submitted query executes exactly once, handles keep their values, qids stay
unique, and the stats tallies add up.  These tests drive one
:class:`QuerySession` and one :class:`JoinSession` from many threads at
once and check the books afterwards.  The serving-tier stress at the end
does the same for the async front door: frame clients, bulk clients whose
arrays flush on their own (ISSUE 18) and the worker pool, all at once.

``_fork_is_safe`` — the predicate behind ``WorkerPool``'s fork-or-spawn
choice — gets direct unit coverage here for both platform branches
(Linux/fork sanctioned, macOS/spawn refused unless fork is explicitly
configured), and the pool is held to the choice it makes.
"""

from __future__ import annotations

import asyncio
import multiprocessing
import sys
import threading

import numpy as np
import pytest

from conftest import knn_pairs, make_items
from repro import (
    AABB,
    FlushPolicy,
    JoinSession,
    KNNQuery,
    QuerySession,
    RangeQuery,
    SelfJoinSpec,
    ServingSession,
    UniformGrid,
    WorkerPool,
    shutdown_default_pool,
)
from repro.indexes.linear_scan import LinearScan
from repro.serving.pool import _fork_is_safe
from repro.serving.shm import live_segment_names

pytestmark = pytest.mark.serving

UNIVERSE = AABB((0.0, 0.0, 0.0), (100.0, 100.0, 100.0))

THREADS = 8
PER_THREAD = 25


def thread_boxes(tid: int) -> list[AABB]:
    import random

    rng = random.Random(7_000 + tid)
    boxes = []
    for _ in range(PER_THREAD):
        lo = [rng.uniform(0.0, 92.0) for _ in range(3)]
        hi = [c + rng.uniform(1.0, 7.0) for c in lo]
        boxes.append(AABB(lo, hi))
    return boxes


@pytest.fixture
def loaded():
    items = make_items(500, seed=17)
    grid = UniformGrid(universe=UNIVERSE, cell_size=5.0)
    grid.bulk_load(items)
    oracle = LinearScan()
    oracle.bulk_load(items)
    return grid, oracle


class TestConcurrentQuerySession:
    def test_interleaved_submit_and_read_match_oracle(self, loaded):
        grid, oracle = loaded
        session = QuerySession(grid)
        errors: list[str] = []
        barrier = threading.Barrier(THREADS)

        def client(tid: int) -> None:
            barrier.wait()
            for box in thread_boxes(tid):
                handle = session.submit(RangeQuery(box))
                got = sorted(handle.result())  # flush-on-read storms
                expected = sorted(oracle.range_query(box))
                if got != expected:
                    errors.append(f"thread {tid}: {got} != {expected}")

        threads = [threading.Thread(target=client, args=(tid,)) for tid in range(THREADS)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()

        assert errors == []
        assert session.pending == 0
        # Exactly-once accounting: every submission executed in some flush,
        # none twice, none lost.
        assert session.stats.submitted == THREADS * PER_THREAD
        assert session.stats.batch.queries == THREADS * PER_THREAD
        assert 1 <= session.stats.flushes <= THREADS * PER_THREAD
        assert 1 <= session.stats.queue_high_water <= THREADS * PER_THREAD

    def test_threaded_submissions_keep_qids_unique_and_handles_ordered(self, loaded):
        grid, oracle = loaded
        session = QuerySession(grid)
        per_thread_handles: dict[int, list] = {}
        barrier = threading.Barrier(THREADS)

        def submitter(tid: int) -> None:
            barrier.wait()
            handles = []
            for i, box in enumerate(thread_boxes(tid)):
                if i % 2:
                    handles.append(session.submit(KNNQuery(tuple(box.lo), k=3)))
                else:
                    handles.append(session.submit(RangeQuery(box)))
            per_thread_handles[tid] = handles

        threads = [threading.Thread(target=submitter, args=(tid,)) for tid in range(THREADS)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()

        qids = [
            handle.query.qid
            for handles in per_thread_handles.values()
            for handle in handles
        ]
        assert len(set(qids)) == THREADS * PER_THREAD  # qid stability
        assert session.stats.queue_high_water == THREADS * PER_THREAD

        session.flush()  # one flush settles every thread's handles
        for tid, handles in per_thread_handles.items():
            for handle, box in zip(handles, thread_boxes(tid)):
                if isinstance(handle.query, KNNQuery):
                    assert knn_pairs(handle.result()) == knn_pairs(
                        oracle.knn(tuple(box.lo), 3)
                    )
                else:
                    assert sorted(handle.result()) == sorted(oracle.range_query(box))
        assert session.stats.flushes == 1

    def test_stats_stay_monotonic_under_interleaving(self, loaded):
        grid, _ = loaded
        session = QuerySession(grid)
        observed: list[tuple[int, int]] = []
        stop = threading.Event()

        def sampler() -> None:
            while not stop.is_set():
                observed.append((session.stats.submitted, session.stats.flushes))

        def client(tid: int) -> None:
            for box in thread_boxes(tid):
                session.submit(RangeQuery(box)).result()

        watcher = threading.Thread(target=sampler)
        watcher.start()
        clients = [threading.Thread(target=client, args=(tid,)) for tid in range(4)]
        for thread in clients:
            thread.start()
        for thread in clients:
            thread.join()
        stop.set()
        watcher.join()

        for series in (
            [submitted for submitted, _ in observed],
            [flushes for _, flushes in observed],
        ):
            assert series == sorted(series)  # counters never run backwards


class TestConcurrentJoinSession:
    def test_interleaved_join_clients_match_oracle(self):
        datasets = {tid: make_items(40, seed=900 + tid) for tid in range(THREADS)}
        expected = {
            tid: sorted(JoinSession().run(SelfJoinSpec(items)))
            for tid, items in datasets.items()
        }
        session = JoinSession()
        errors: list[str] = []
        barrier = threading.Barrier(THREADS)

        def client(tid: int) -> None:
            barrier.wait()
            for _ in range(5):
                got = sorted(session.submit(SelfJoinSpec(datasets[tid])).result())
                if got != expected[tid]:
                    errors.append(f"thread {tid} diverged")

        threads = [threading.Thread(target=client, args=(tid,)) for tid in range(THREADS)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()

        assert errors == []
        assert session.pending == 0
        assert session.stats.joins == THREADS * 5
        assert session.stats.queue_high_water >= 1


class TestServingUnderMixedLoad:
    DASH_TASKS = 8
    FRAMES = 20
    FRAME_RANGES = 4
    BULK_TASKS = 2
    BULK_ROUNDS = 5
    MAX_BATCH = 64

    def test_frames_and_own_flushes_keep_the_books(self, loaded):
        """8 dash tasks x 20 frames beside 2 bulk tasks whose arrays flush
        on their own, on a shortened switch interval: every answer equals
        the oracle's, every request is counted once, no bulk array ever
        sat in the queue, and the pool leaves no segment behind."""
        grid, oracle = loaded
        shutdown_default_pool()
        rows = self.MAX_BATCH

        async def dash(serving, tid):
            rng = np.random.default_rng(9_000 + tid)
            for _ in range(self.FRAMES):
                lo = rng.uniform(0.0, 92.0, size=(self.FRAME_RANGES, 3))
                boxes = [AABB(l, h) for l, h in zip(lo.tolist(), (lo + 6.0).tolist())]
                point = tuple(rng.uniform(0.0, 100.0, size=3).tolist())
                *ranges, nearest = await asyncio.gather(
                    *(serving.range_query(box) for box in boxes), serving.knn(point, 3)
                )
                for box, ids in zip(boxes, ranges):
                    assert sorted(ids) == sorted(oracle.range_query(box))
                assert knn_pairs(nearest) == knn_pairs(oracle.knn(point, 3))

        async def bulk(serving, tid):
            rng = np.random.default_rng(9_500 + tid)
            for _ in range(self.BULK_ROUNDS):
                lo = rng.uniform(0.0, 92.0, size=(rows, 3))
                windows = np.stack([lo, lo + 6.0], axis=1)
                handle = await serving.query_executor.submit_ranges(windows)
                answer = await handle
                assert [sorted(r) for r in answer] == [
                    sorted(r) for r in oracle.batch_range_query(windows)
                ]
                await asyncio.sleep(0)

        async def main(pool):
            policy = FlushPolicy(max_batch=self.MAX_BATCH)
            async with ServingSession(
                grid, pool=pool, policy=policy, workers=2, min_shard=16
            ) as serving:
                await asyncio.wait_for(
                    asyncio.gather(
                        *(dash(serving, tid) for tid in range(self.DASH_TASKS)),
                        *(bulk(serving, tid) for tid in range(self.BULK_TASKS)),
                    ),
                    timeout=120.0,
                )
                assert serving.query_executor.pending == 0
                return serving.queries.stats

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with WorkerPool(workers=2) as pool:
                stats = asyncio.run(main(pool))
                assert pool.exports == 1
        finally:
            sys.setswitchinterval(interval)
        frame_requests = self.DASH_TASKS * self.FRAMES * (self.FRAME_RANGES + 1)
        bulk_requests = self.BULK_TASKS * self.BULK_ROUNDS * rows
        assert stats.submitted == frame_requests + bulk_requests
        assert stats.batch.queries == stats.submitted
        # 8 tasks x 5 requests can share the queue; a 64-row array never does.
        assert stats.queue_high_water < self.MAX_BATCH
        assert stats.flush_triggers["full"] == self.BULK_TASKS * self.BULK_ROUNDS
        assert sum(stats.flush_triggers.values()) == stats.flushes
        assert live_segment_names() == []


class TestForkIsSafe:
    def test_unsafe_when_fork_is_unavailable(self, monkeypatch):
        monkeypatch.setattr(multiprocessing, "get_all_start_methods", lambda: ["spawn"])
        assert _fork_is_safe() is False

    def test_linux_with_fork_is_safe(self, monkeypatch):
        monkeypatch.setattr(
            multiprocessing, "get_all_start_methods", lambda: ["fork", "spawn"]
        )
        monkeypatch.setattr(sys, "platform", "linux")
        assert _fork_is_safe() is True

    def test_macos_defaults_to_unsafe(self, monkeypatch):
        monkeypatch.setattr(
            multiprocessing,
            "get_all_start_methods",
            lambda: ["spawn", "fork", "forkserver"],
        )
        monkeypatch.setattr(sys, "platform", "darwin")
        monkeypatch.setattr(
            multiprocessing, "get_start_method", lambda allow_none=False: None
        )
        assert _fork_is_safe() is False

    def test_macos_with_explicit_fork_opts_in(self, monkeypatch):
        monkeypatch.setattr(
            multiprocessing,
            "get_all_start_methods",
            lambda: ["spawn", "fork", "forkserver"],
        )
        monkeypatch.setattr(sys, "platform", "darwin")
        monkeypatch.setattr(
            multiprocessing, "get_start_method", lambda allow_none=False: "fork"
        )
        assert _fork_is_safe() is True

    @pytest.mark.parametrize("safe, context", [(True, "fork"), (False, "spawn")])
    def test_worker_pool_starts_as_the_predicate_says(self, monkeypatch, safe, context):
        monkeypatch.setattr("repro.serving.pool._fork_is_safe", lambda: safe)
        assert WorkerPool(workers=1)._context == context
        # An explicit start method wins over the predicate.
        assert WorkerPool(workers=1, context="forkserver")._context == "forkserver"
