"""The serving tier: shared-memory worker pool + event-loop executors.

These tests pin the contracts ISSUE 6 introduces:

* **shared-memory lifecycle** — every ``SegmentGroup`` the pool publishes
  is unlinked by ``close()`` / ``with``-exit, including after a worker
  crash (``live_segment_names`` audits ``/dev/shm`` directly);
* **zero re-pickle** — an index crosses the process boundary exactly once
  per (index, pool) as a snapshot; a poisoned ``__reduce__`` proves no
  pickle fallback, and ``pool.exports`` stays at one across many flushes
  until the index actually mutates;
* **oracle equivalence under concurrency** — a sustained mixed
  range/kNN/point/join workload from N async clients answers exactly what
  the inline LinearScan / nested-loop oracles answer, query for query;
* **flush policy** — the event-loop flusher attributes every flush to
  ``full`` / ``deadline`` / ``idle`` and feeds the serving telemetry line;
* **frame path** — a request through ``ServingSession`` is the future of
  its answer (no task per request), and an uncontended frame's flush runs
  on the loop thread.  Structural checks only, no clock;
* **own flush** (ISSUE 18) — a batch-sized array bound for the worker pool
  flushes on its own: no small request waits behind it, in-process kernels
  still never overlap, and its handle blocks, fails and closes like any
  other.  Every ordering claim is gated on events, never on wall clock;
* **spill hygiene** — a join that dies mid-merge releases the session's
  spill tmpdir immediately (the cleanup-on-error fix), and the session
  stays usable; a spill file cut short from outside raises instead of
  reading back as zeros.
"""

from __future__ import annotations

import asyncio
import gc
import multiprocessing
import os
import random
import signal
import threading
import time

import numpy as np
import pytest

import repro.serving.pool

from conftest import knn_pairs, make_items
from repro import (
    AABB,
    FlushPolicy,
    JoinSession,
    KNNQuery,
    PointQuery,
    QuerySession,
    RangeQuery,
    RTree,
    SelfJoinSpec,
    ServingSession,
    ShardedExecutor,
    UniformGrid,
    WorkerPool,
    default_pool,
    make_index,
    shutdown_default_pool,
)
from repro.engine.session import BatchExecutor, InlineExecutor
from repro.exec import SpillManager
from repro.exec.external_join import SpillPlan
from repro.indexes.linear_scan import LinearScan
from repro.joins import CallableJoin, DistanceJoinSpec, PairJoinSpec, make_join_strategy
from repro.serving.async_executor import AsyncExecutor
from repro.serving.shm import AttachedArrays, SegmentGroup, live_segment_names
from repro.serving.snapshots import export_index_payload

pytestmark = pytest.mark.serving

UNIVERSE = AABB((0.0, 0.0, 0.0), (100.0, 100.0, 100.0))


@pytest.fixture(autouse=True)
def clean_shared_pool():
    """The /dev/shm audits need a clean slate: earlier test files may have
    routed sharded batches through the process-wide default pool, whose
    cached exports legitimately stay live until interpreter exit."""
    shutdown_default_pool()
    yield


def build_grid(items):
    grid = UniformGrid(universe=UNIVERSE, cell_size=5.0)
    grid.bulk_load(items)
    return grid


def make_boxes(count: int, seed: int, extent: float = 6.0) -> list[AABB]:
    rng = random.Random(seed)
    boxes = []
    for _ in range(count):
        lo = [rng.uniform(0.0, 95.0) for _ in range(3)]
        hi = [c + rng.uniform(1.0, extent) for c in lo]
        boxes.append(AABB(lo, hi))
    return boxes


@pytest.fixture
def loaded():
    items = make_items(600, seed=31)
    oracle = LinearScan()
    oracle.bulk_load(items)
    return items, build_grid(items), oracle


@pytest.fixture(params=["fork", "spawn"])
def pool(request):
    """One WorkerPool per supported start method: the shm attach/unlink
    lifecycle must survive spawn (no inherited memory) exactly as it does
    fork.  Skips only where the platform lacks the method."""
    if request.param not in multiprocessing.get_all_start_methods():
        pytest.skip(f"platform lacks the {request.param!r} start method")
    p = WorkerPool(workers=2, context=request.param)
    yield p
    p.close()


# -- shared-memory segments ----------------------------------------------------


class TestSegments:
    def test_roundtrip_and_unlink(self):
        arrays = {
            "eids": np.arange(32, dtype=np.int64),
            "boxes": np.random.default_rng(0).uniform(size=(32, 2, 3)),
            "empty": np.empty((0, 3), dtype=np.float64),
        }
        group = SegmentGroup(arrays)
        assert len(live_segment_names()) == 3
        attached = AttachedArrays(group.meta)
        for field, array in arrays.items():
            np.testing.assert_array_equal(attached.arrays[field], array)
        attached.release()
        group.close()
        assert live_segment_names() == []

    def test_close_is_idempotent(self):
        group = SegmentGroup({"a": np.ones(4)})
        group.close()
        group.close()
        assert group.closed
        assert live_segment_names() == []

    def test_failed_construction_reclaims_partial_segments(self, monkeypatch):
        import repro.serving.shm as shm

        name = f"{shm.SEGMENT_PREFIX}-collide"
        monkeypatch.setattr(shm, "_segment_name", lambda field: name)
        with pytest.raises(FileExistsError):
            SegmentGroup({"a": np.ones(4), "b": np.ones(4)})
        assert live_segment_names() == []


# -- the worker pool -----------------------------------------------------------


class PickleBombGrid(UniformGrid):
    """An index whose pickling is an error: proof the pool ships snapshots."""

    def __reduce__(self):
        raise AssertionError("index crossed the process boundary via pickle")


class TestWorkerPool:
    def run_batch(self, session, oracle, seed, count=200):
        boxes = make_boxes(count, seed)
        handles = [session.submit(RangeQuery(box)) for box in boxes]
        rng = random.Random(seed + 1)
        points = [tuple(rng.uniform(0.0, 100.0) for _ in range(3)) for _ in range(count)]
        khandles = [session.submit(KNNQuery(p, k=4)) for p in points]
        session.flush()
        for box, handle in zip(boxes, handles):
            assert sorted(handle.result()) == sorted(oracle.range_query(box))
        for p, handle in zip(points, khandles):
            assert knn_pairs(handle.result()) == knn_pairs(oracle.knn(p, 4))

    @pytest.mark.parametrize("build", ["grid", "rtree", "linear_scan", "multires_grid", "rstar"])
    def test_pooled_shards_match_oracle(self, loaded, pool, build):
        items, grid, oracle = loaded
        if build == "grid":
            index = grid
        else:
            index = RTree(max_entries=16) if build == "rtree" else make_index(build)
            index.bulk_load(items)
        session = QuerySession(
            index, executor=ShardedExecutor(workers=2, min_shard=32, pool=pool)
        )
        self.run_batch(session, oracle, seed=11)
        # One flush, two kind-groups (range + kNN) — two sharded runs.
        assert session.stats.executor_runs == {"sharded": 2}
        if build == "grid":
            assert pool.exports == 1
            assert pool.shards_run > 0
        else:
            # The pool serves grids only: every other index answers in-process.
            assert pool.exports == 0
            assert pool.shards_run == 0

    def test_index_exported_exactly_once_across_flushes(self, pool):
        items = make_items(600, seed=31)
        index = PickleBombGrid(universe=UNIVERSE, cell_size=5.0)
        index.bulk_load(items)
        oracle = LinearScan()
        oracle.bulk_load(items)
        session = QuerySession(
            index, executor=ShardedExecutor(workers=2, min_shard=16, pool=pool)
        )
        for flush in range(10):
            self.run_batch(session, oracle, seed=100 + flush, count=64)
        assert session.stats.flushes == 10
        # The zero-re-pickle pin: ten flushes, one snapshot export — and the
        # poisoned __reduce__ proves no flush fell back to pickling.
        assert pool.exports == 1

    def test_mutation_triggers_a_fresh_export(self, loaded, pool):
        items, grid, oracle = loaded
        session = QuerySession(
            grid, executor=ShardedExecutor(workers=2, min_shard=16, pool=pool)
        )
        self.run_batch(session, oracle, seed=21, count=64)
        assert pool.exports == 1
        new_item = (10_000, AABB((1.0, 1.0, 1.0), (2.0, 2.0, 2.0)))
        grid.insert(*new_item)
        oracle.insert(*new_item)
        self.run_batch(session, oracle, seed=22, count=64)
        assert pool.exports == 2

    def test_worker_crash_recovers_and_segments_survive(self, loaded, pool):
        items, grid, oracle = loaded
        session = QuerySession(
            grid, executor=ShardedExecutor(workers=2, min_shard=16, pool=pool)
        )
        self.run_batch(session, oracle, seed=31, count=64)
        live_before = live_segment_names()
        assert live_before
        for process in list(pool._executor._processes.values()):
            os.kill(process.pid, signal.SIGKILL)
        time.sleep(0.1)
        # The retry path recreates the executor; the parent-owned segments
        # were never at risk, so the rerun reuses the one export.
        self.run_batch(session, oracle, seed=32, count=64)
        assert pool.exports == 1
        assert live_segment_names() == live_before
        pool.close()
        assert live_segment_names() == []

    def test_with_block_unlinks_every_segment(self, loaded):
        items, grid, oracle = loaded
        with WorkerPool(workers=2) as scoped:
            session = QuerySession(
                grid, executor=ShardedExecutor(workers=2, min_shard=16, pool=scoped)
            )
            self.run_batch(session, oracle, seed=41, count=64)
            assert scoped.segment_bytes > 0
            assert live_segment_names()
        assert live_segment_names() == []
        assert scoped.closed

    @pytest.mark.parametrize(
        "build",
        [
            lambda: WorkerPool(workers=0),
            lambda: ShardedExecutor(workers=0),
            lambda: ShardedExecutor(min_shard=0),
        ],
        ids=["pool_workers", "query_workers", "query_min_shard"],
    )
    def test_rejects_sizes_below_one(self, build):
        with pytest.raises(ValueError, match="must be >= 1"):
            build()

    def test_default_pool_is_a_resettable_singleton(self):
        first = default_pool()
        assert default_pool() is first
        shutdown_default_pool()
        assert first.closed
        second = default_pool()
        assert second is not first
        shutdown_default_pool()

    def test_unexportable_index_falls_back_without_pooling(self, pool):
        # The pool serves grids only; the sharded executor must still
        # answer (in-process) and the pool must not register anything.
        from repro import KDTree

        items = make_items(300, seed=5, points=True)
        index = KDTree()
        index.bulk_load(items)
        oracle = LinearScan()
        oracle.bulk_load(items)
        session = QuerySession(
            index, executor=ShardedExecutor(workers=2, min_shard=16, pool=pool)
        )
        boxes = make_boxes(80, seed=6)
        handles = [session.submit(RangeQuery(box)) for box in boxes]
        session.flush()
        for box, handle in zip(boxes, handles):
            assert sorted(handle.result()) == sorted(oracle.range_query(box))
        assert pool.exports == 0


class TestOnlyThePoolStartsProcesses:
    """``WorkerPool`` is the one place the library starts processes.  With
    ``multiprocessing``'s ``Pool`` refused outright, what the pool cannot
    take — an index with no shared-memory export, a batch on a pool whose
    infrastructure failed — is answered in-process, with the in-process
    executors' answers and tallies; and joins, even with a strategy that
    cannot be pickled, never start a pool at all."""

    #: Registry indexes with no shared-memory export: every one but the grid.
    UNEXPORTABLE = [
        "crtree", "disk_rtree", "linear_scan", "loose_octree", "multires_grid",
        "octree", "rplus", "rstar", "rtree", "spill_tree",
    ]
    #: Registry indexes the pool would take, were it up.
    EXPORTABLE = ["uniform_grid"]

    @pytest.fixture(autouse=True)
    def refuse_other_pools(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("a process pool was started outside WorkerPool")

        monkeypatch.setattr(multiprocessing.context.BaseContext, "Pool", refuse)

    @staticmethod
    def ask(index, executor):
        """Range and kNN answers, the batch stats and the index's counter
        movement of one session over ``index``."""
        boxes = make_boxes(80, seed=6)
        boxes += boxes[:10]  # duplicates exercise the dedup tallies
        points = np.random.default_rng(7).uniform(0.0, 100.0, size=(70, 3))
        points = np.concatenate([points, points[:6]])
        session = QuerySession(index, executor=executor)
        before = index.counters.snapshot()
        answers = session.range_query(boxes), session.knn(points, 4)
        return answers, session.stats.batch, index.counters.diff(before)

    def assert_answered_in_process(self, index, pool):
        self.ask(index, BatchExecutor())  # warm whatever the index builds lazily
        sharded = self.ask(index, ShardedExecutor(workers=2, min_shard=16, pool=pool))
        assert sharded == self.ask(index, BatchExecutor())
        assert pool.exports == 0 and pool.shards_run == 0

    def test_unexportable_index(self):
        from repro import KDTree

        index = KDTree()
        index.bulk_load(make_items(300, seed=5, points=True))
        assert export_index_payload(index) is None
        with WorkerPool(workers=2) as pool:
            self.assert_answered_in_process(index, pool)

    @pytest.mark.parametrize("name", UNEXPORTABLE)
    def test_unexportable_box_index(self, name):
        index = make_index(name)
        # The spill tree is a point access method.
        index.bulk_load(make_items(300, seed=5, points=name == "spill_tree"))
        assert export_index_payload(index) is None
        with WorkerPool(workers=2) as pool:
            self.assert_answered_in_process(index, pool)

    @pytest.mark.parametrize(
        "name", ["linear_scan", "multires_grid", "rstar", "rtree", "uniform_grid"]
    )
    def test_failed_pool_answers_queries_in_process(self, name, closed_pool):
        index = make_index(name)
        index.bulk_load(make_items(300, seed=5))
        assert (export_index_payload(index) is not None) == (name in self.EXPORTABLE)
        self.assert_answered_in_process(index, closed_pool)

    @pytest.mark.parametrize("kind", ["self", "pair", "distance_self", "distance_pair"])
    def test_unpicklable_strategy(self, kind):
        block_nested = make_join_strategy("block_nested")

        def closure_join(items_a, items_b, counters):  # a local: pickle refuses it
            return block_nested.join(items_a, items_b, counters)

        items = make_items(300, seed=8)
        others = [(eid + 10_000, box) for eid, box in make_items(250, seed=9)]
        spec = {
            "self": lambda: SelfJoinSpec(items),
            "pair": lambda: PairJoinSpec(items, others),
            "distance_self": lambda: DistanceJoinSpec(items, None, 1.5),
            "distance_pair": lambda: DistanceJoinSpec(items, others, 1.5),
        }[kind]()

        def run(strategy):
            with JoinSession(strategy=strategy) as session:
                pairs = session.run(spec)
                stats = session.stats
                tallies = (stats.candidates, stats.pairs, stats.comparisons, stats.refined)
                return pairs, session.counters, tallies

        got = run(CallableJoin(closure_join))
        expected = run(block_nested)
        assert expected[0]
        assert got == expected
        assert repro.serving.pool._DEFAULT is None  # no pool was ever asked for


class TestMappedSpillRuns:
    """Spilled segments read back as zero-copy views of the spill file's
    mapping.  A file cut short from outside must fail loudly — on a direct
    read and inside a budgeted join — never map back as zeros."""

    ROWS = 20_000  # 160 000 bytes over 16 KiB pages: the last page is partial

    @pytest.mark.parametrize("cut", [0, 4096, 8 * ROWS - 1], ids=["empty", "one-page", "one-byte"])
    def test_mapped_attach_rejects_truncated_files(self, cut):
        with SpillManager(page_size=1 << 14) as spill:
            handle = spill.spill(np.arange(self.ROWS))
            os.truncate(spill.path, cut)
            with pytest.raises(ValueError, match="truncated"):
                spill.read(handle)
            with pytest.raises(ValueError, match="truncated"):  # the copying read too
                spill.store.read(handle.pages[-1])

    def test_partial_last_page_still_maps(self):
        # The legitimate round-up: a file short of its slot boundary only by
        # the unwritten tail of its last page maps and reads back whole.
        with SpillManager(page_size=1 << 14) as spill:
            handle = spill.spill(np.arange(self.ROWS))
            assert os.path.getsize(spill.path) < len(handle.pages) * (1 << 14)
            assert np.array_equal(spill.read(handle), np.arange(self.ROWS))
            assert spill.counters.zero_copy_reads > 0

    def test_budgeted_join_rejects_a_file_cut_between_passes(self, monkeypatch):
        # The same cut between a budgeted join's partition and merge passes.
        merge = SpillPlan.merge_inline

        def truncate_then_merge(plan, run, counters):
            if run == 0:
                os.truncate(plan.spill.path, 4096)
            return merge(plan, run, counters)

        monkeypatch.setattr(SpillPlan, "merge_inline", truncate_then_merge)
        session = JoinSession(budget=100_000)
        with pytest.raises(ValueError, match="truncated"):
            session.run(SelfJoinSpec(make_items(1400, seed=85)))
        assert session._spill is None  # the failed flush released the file


# -- the async serving tier ----------------------------------------------------


class TestAsyncServing:
    def test_mixed_workload_matches_oracle(self, loaded, pool):
        items, grid, oracle = loaded
        join_oracle = JoinSession(strategy="nested_loop").run(SelfJoinSpec(tuple(items)))
        shared_items = tuple(items)

        async def client(serving, cid):
            rng = random.Random(1000 + cid)
            for _ in range(5):
                lo = [rng.uniform(0.0, 95.0) for _ in range(3)]
                hi = [c + rng.uniform(1.0, 6.0) for c in lo]
                box = AABB(lo, hi)
                assert sorted(await serving.range_query(box)) == sorted(
                    oracle.range_query(box)
                )
                point = tuple(rng.uniform(0.0, 100.0) for _ in range(3))
                assert knn_pairs(await serving.knn(point, 4)) == knn_pairs(
                    oracle.knn(point, 4)
                )
                stab = tuple(rng.uniform(0.0, 100.0) for _ in range(3))
                assert sorted(await serving.point_query(stab)) == sorted(
                    oracle.range_query(AABB(stab, stab))
                )
            assert sorted(await serving.join(SelfJoinSpec(shared_items))) == join_oracle

        async def main():
            async with ServingSession(grid, pool=pool, workers=2, min_shard=4) as serving:
                await asyncio.gather(*(client(serving, cid) for cid in range(8)))
                return serving.queries.stats, serving.joins.stats

        qstats, jstats = asyncio.run(main())
        assert qstats.submitted == 8 * 5 * 3
        assert qstats.batch.queries == qstats.submitted
        # Concurrent clients coalesced: far fewer flushes than requests,
        # and the queue demonstrably held several clients at once.
        assert qstats.flushes <= qstats.submitted // 2
        assert qstats.queue_high_water >= 2
        assert sum(qstats.flush_triggers.values()) == qstats.flushes
        assert jstats.joins == 8
        assert jstats.queue_high_water >= 1

    @pytest.mark.parametrize("kind", ["self", "pair", "distance_self", "distance_pair"])
    def test_joins_answer_in_process_and_leave_the_pool_alone(self, loaded, kind):
        items, grid, _ = loaded
        side_a, side_b = tuple(items[:300]), tuple((eid + 10_000, box) for eid, box in items[300:])
        spec = {
            "self": SelfJoinSpec(side_a),
            "pair": PairJoinSpec(side_a, side_b),
            "distance_self": DistanceJoinSpec(side_a, None, 0.5),
            "distance_pair": DistanceJoinSpec(side_a, side_b, 0.5),
        }[kind]
        expected = JoinSession(strategy="block_nested").run(spec)
        assert expected

        async def main(pool):
            async with ServingSession(grid, pool=pool, workers=2) as serving:
                return await serving.join(spec), serving.joins.stats

        with WorkerPool(workers=2, context="fork") as pool:
            pairs, stats = asyncio.run(main(pool))
            assert pool.shards_run == 0 and pool.exports == 0
        assert pairs == expected
        assert stats.joins == 1 and stats.pairs == len(expected)

    def test_flush_trigger_full(self, loaded):
        _, grid, oracle = loaded
        session = QuerySession(grid, executor=BatchExecutor())
        policy = FlushPolicy(max_batch=4, max_delay=0.5, idle_flush=False)
        boxes = make_boxes(4, seed=51)

        async def main():
            async with AsyncExecutor(session, policy) as executor:
                handles = await asyncio.gather(
                    *(executor.submit(RangeQuery(box)) for box in boxes)
                )
                return [await handle for handle in handles]

        results = asyncio.run(main())
        for box, ids in zip(boxes, results):
            assert sorted(ids) == sorted(oracle.range_query(box))
        assert session.stats.flush_triggers.get("full", 0) >= 1
        assert "idle" not in session.stats.flush_triggers

    def test_flush_trigger_deadline(self, loaded):
        _, grid, _ = loaded
        session = QuerySession(grid, executor=BatchExecutor())
        policy = FlushPolicy(max_batch=10_000, max_delay=0.05, idle_flush=False)

        async def main():
            async with AsyncExecutor(session, policy) as executor:
                handle = await executor.submit(RangeQuery(AABB((0, 0, 0), (5, 5, 5))))
                return await handle

        asyncio.run(main())
        assert session.stats.flush_triggers == {"deadline": 1}
        assert session.stats.flush_seconds > 0.0

    def test_flush_trigger_idle(self, loaded):
        _, grid, _ = loaded
        session = QuerySession(grid, executor=BatchExecutor())

        async def main():
            async with AsyncExecutor(session, FlushPolicy(max_delay=1.0)) as executor:
                handles = await asyncio.gather(
                    *(executor.submit(RangeQuery(box)) for box in make_boxes(3, seed=52))
                )
                for handle in handles:
                    await handle

        asyncio.run(main())
        assert session.stats.flush_triggers == {"idle": 1}

    def test_policy_validation(self):
        with pytest.raises(ValueError):
            FlushPolicy(max_batch=0)
        with pytest.raises(ValueError):
            FlushPolicy(max_delay=-0.1)

    def test_error_propagates_to_the_awaiting_client(self, loaded):
        _, grid, oracle = loaded
        session = QuerySession(grid, executor=BatchExecutor())

        async def main():
            async with AsyncExecutor(session) as executor:
                bad = await executor.submit(RangeQuery(AABB((0.0, 0.0), (1.0, 1.0))))
                good = await executor.submit(KNNQuery((10.0, 10.0, 10.0), k=3))
                with pytest.raises(ValueError):
                    await bad
                return await good

        result = asyncio.run(main())
        assert knn_pairs(result) == knn_pairs(oracle.knn((10.0, 10.0, 10.0), 3))

    def test_aclose_flushes_stragglers(self, loaded):
        _, grid, oracle = loaded
        session = QuerySession(grid, executor=BatchExecutor())
        box = make_boxes(1, seed=53)[0]

        async def main():
            executor = AsyncExecutor(session, FlushPolicy(max_batch=100, max_delay=30.0, idle_flush=False))
            handle = await executor.submit(RangeQuery(box))
            await executor.aclose()
            assert executor.latency_summary()["flushes"] >= 1
            return handle

        handle = asyncio.run(main())
        # Settled by the close-time flush — reading it must not re-flush.
        assert sorted(handle.result()) == sorted(oracle.range_query(box))
        assert session.pending == 0

    def test_serving_session_routes_specs_and_queries(self, loaded, pool):
        items, grid, _ = loaded
        from repro.analysis.session_report import session_report

        async def main():
            async with ServingSession(grid, pool=pool, workers=2) as serving:
                query_handle = await serving.submit(RangeQuery(AABB((0, 0, 0), (9, 9, 9))))
                join_handle = await serving.submit(SelfJoinSpec(tuple(items[:50])))
                await query_handle
                await join_handle
                return session_report(serving.queries), session_report(serving.joins)

        query_report, join_report_text = asyncio.run(main())
        assert "serving:" in query_report
        assert "serving:" in join_report_text


class TestFramePath:
    """A dashboard frame — 32 windows and 8 kNN probes gathered at once —
    through ``ServingSession``."""

    @pytest.fixture
    def lazy_pool(self):
        # A frame is too small to shard: it never starts a worker.
        with WorkerPool(workers=2) as pool:
            yield pool

    @staticmethod
    def frame(serving, boxes, points):
        return asyncio.gather(
            *(serving.range_query(box) for box in boxes), *(serving.knn(p, 4) for p in points)
        )

    @staticmethod
    def assert_frame_matches(answers, oracle, boxes, points) -> None:
        assert [sorted(ids) for ids in answers[: len(boxes)]] == [
            sorted(oracle.range_query(box)) for box in boxes
        ]
        assert [knn_pairs(nn) for nn in answers[len(boxes) :]] == [
            knn_pairs(oracle.knn(p, 4)) for p in points
        ]

    def test_a_frame_schedules_no_task_per_request(self, loaded, lazy_pool):
        _, grid, oracle = loaded
        boxes, points = make_boxes(32, seed=70), [tuple(b.center()) for b in make_boxes(8, seed=71)]
        created = []

        async def main():
            loop = asyncio.get_running_loop()
            async with ServingSession(grid, pool=lazy_pool, workers=2) as serving:
                await serving.range_query(boxes[0])  # the flusher task starts here
                create_task = loop.create_task

                def spied_create_task(coro, **kwargs):
                    created.append(coro)
                    return create_task(coro, **kwargs)

                loop.create_task = spied_create_task
                try:
                    return await self.frame(serving, boxes, points)
                finally:
                    del loop.create_task

        answers = asyncio.run(main())
        assert created == []
        self.assert_frame_matches(answers, oracle, boxes, points)

    def test_an_uncontended_frame_flushes_once_on_the_loop_thread(
        self, loaded, lazy_pool, monkeypatch
    ):
        _, grid, oracle = loaded
        boxes, points = make_boxes(32, seed=72), [tuple(b.center()) for b in make_boxes(8, seed=73)]
        threads = []
        for name in ("batch_range_query", "batch_knn"):

            def spied_kernel(*args, _kernel=getattr(grid, name), **kwargs):
                threads.append(threading.get_ident())
                return _kernel(*args, **kwargs)

            monkeypatch.setattr(grid, name, spied_kernel)

        async def main():
            async with ServingSession(grid, pool=lazy_pool, workers=2) as serving:
                answers = await self.frame(serving, boxes, points)
                return threading.get_ident(), answers, serving.queries.stats

        loop_thread, answers, stats = asyncio.run(main())
        assert threads == [loop_thread, loop_thread]  # one range, one kNN kernel call
        assert stats.flush_triggers == {"idle": 1}
        assert stats.flushes == 1
        self.assert_frame_matches(answers, oracle, boxes, points)

    def test_a_queue_the_session_shards_waits_on_the_pool_off_the_loop(self, monkeypatch):
        """1 024 single windows at ``ServingSession``'s defaults (``max_batch``
        1 024 = 2 × ``min_shard``): the queue's one flush shards, so it waits
        on the worker pool from a thread hop, never from the loop thread."""
        items = make_items(2000, seed=77)
        grid, oracle = build_grid(items), LinearScan()
        oracle.bulk_load(items)
        boxes = make_boxes(1024, seed=78)
        threads = []
        run_query_shards = WorkerPool.run_query_shards

        def spied(pool, *args, **kwargs):
            threads.append(threading.get_ident())
            return run_query_shards(pool, *args, **kwargs)

        monkeypatch.setattr(WorkerPool, "run_query_shards", spied)

        async def main(pool):
            async with ServingSession(grid, pool=pool, workers=2) as serving:
                answers = await asyncio.gather(*(serving.range_query(box) for box in boxes))
                return threading.get_ident(), answers, serving.queries.stats

        with WorkerPool(workers=2) as pool:
            loop_thread, answers, stats = asyncio.run(main(pool))
        assert live_segment_names() == []
        assert stats.executor_runs == {"sharded": 1}
        assert len(threads) == 1 and threads[0] != loop_thread
        assert [sorted(ids) for ids in answers] == [
            sorted(ids) for ids in oracle.batch_range_query(boxes)
        ]

    def test_every_way_of_awaiting_a_request_answers(self, loaded, lazy_pool):
        _, grid, oracle = loaded
        box = make_boxes(1, seed=74)[0]
        point = (40.0, 45.0, 50.0)

        async def main():
            async with ServingSession(grid, pool=lazy_pool, workers=2) as serving:
                request = serving.range_query(box)
                assert isinstance(request, asyncio.Future)
                scheduled = asyncio.ensure_future(serving.range_query(box))
                nn = await serving.knn(point, 4)
                handle = await serving.submit(RangeQuery(box))
                stab = await serving.point_query(box.lo)
                return await request, await scheduled, nn, await handle, stab

        ids, scheduled, nn, handled, stab = asyncio.run(main())
        assert sorted(ids) == sorted(scheduled) == sorted(handled) == sorted(oracle.range_query(box))
        assert knn_pairs(nn) == knn_pairs(oracle.knn(point, 4))
        assert sorted(stab) == sorted(oracle.range_query(AABB(box.lo, box.lo)))

    def test_a_failed_request_raises_its_own_error(self, loaded, lazy_pool):
        _, grid, oracle = loaded
        box = make_boxes(1, seed=75)[0]

        async def main():
            async with ServingSession(grid, pool=lazy_pool, workers=2) as serving:
                return await asyncio.gather(
                    serving.range_query(AABB((0.0, 0.0), (1.0, 1.0))),  # its group fails
                    serving.knn((np.nan, 1.0, 1.0), 4),  # refused at submission
                    serving.range_query(box),
                    return_exceptions=True,
                )

        flat, refused, ids = asyncio.run(main())
        assert isinstance(flat, ValueError) and "dims" in str(flat)
        assert isinstance(refused, ValueError) and "finite" in str(refused)
        assert sorted(ids) == sorted(oracle.range_query(box))

    def test_a_failed_handle_read_with_result_logs_nothing(self, loaded, lazy_pool):
        """The handle and its future share the error: reading it through
        ``result()`` must not leave the future to log it as unretrieved."""
        _, grid, _ = loaded

        async def main():
            logged = []
            asyncio.get_running_loop().set_exception_handler(
                lambda _, context: logged.append(context["message"])
            )
            async with ServingSession(grid, pool=lazy_pool, workers=2) as serving:
                handle = await serving.submit(RangeQuery(AABB((0.0, 0.0), (1.0, 1.0))))
                await serving.range_query(make_boxes(1, seed=76)[0])  # settled by the same flush
                with pytest.raises(ValueError):
                    handle.result()
                del handle
                gc.collect()
            return logged

        assert asyncio.run(main()) == []


# -- batch-sized submissions flush on their own ---------------------------------

MAX_BATCH = 64
WAIT = 30.0  # failure bound for event waits; no assertion depends on its size


def window_array(count: int, seed: int) -> np.ndarray:
    lo = np.random.default_rng(seed).uniform(0.0, 94.0, size=(count, 3))
    return np.stack([lo, lo + 5.0], axis=1)


def assert_windows_match(answer, oracle, windows) -> None:
    expected = oracle.batch_range_query(windows)
    assert [sorted(ids) for ids in answer] == [sorted(ids) for ids in expected]


class PoolGate:
    """Parks every ``WorkerPool.run_query_shards`` call until released (or
    makes it raise): the test decides what happens while a batch is "in the
    pool"."""

    def __init__(self, monkeypatch, fail: bool = False) -> None:
        self.entered = threading.Event()
        self.release = threading.Event()
        original = WorkerPool.run_query_shards

        def gated(pool, *args, **kwargs):
            self.entered.set()
            assert self.release.wait(WAIT), "gate never released"
            if fail:
                raise RuntimeError("pool infrastructure down")
            return original(pool, *args, **kwargs)

        monkeypatch.setattr(WorkerPool, "run_query_shards", gated)


class TestOwnFlush:
    @pytest.fixture
    def scoped_pool(self):
        with WorkerPool(workers=2) as pool:
            yield pool
        assert live_segment_names() == []

    def serving(self, grid, pool):
        # 64 rows over min_shard=16 on two workers: a batch-sized array shards.
        return ServingSession(
            grid, pool=pool, policy=FlushPolicy(max_batch=MAX_BATCH), workers=2, min_shard=16
        )

    def test_single_request_is_answered_while_the_batch_is_in_the_pool(
        self, loaded, scoped_pool, monkeypatch
    ):
        _, grid, oracle = loaded
        windows = window_array(MAX_BATCH, seed=61)
        box = make_boxes(1, seed=62)[0]
        gate = PoolGate(monkeypatch)

        async def main():
            async with self.serving(grid, scoped_pool) as serving:
                bulk = await serving.query_executor.submit_ranges(windows)
                assert await asyncio.to_thread(gate.entered.wait, WAIT)
                # The head-of-line pin: on the parent this request shares the
                # bulk's flush (or queues on its lock) and times out here.
                ids = await asyncio.wait_for(serving.range_query(box), WAIT)
                assert not bulk.resolved
                assert serving.query_executor.pending == 1
                gate.release.set()
                return ids, await bulk, serving.queries.stats

        ids, bulk_answer, stats = asyncio.run(main())
        assert sorted(ids) == sorted(oracle.range_query(box))
        assert_windows_match(bulk_answer, oracle, windows)
        assert stats.submitted == MAX_BATCH + 1
        assert stats.queue_high_water == 1  # the array never entered the queue
        assert stats.flush_triggers == {"full": 1, "idle": 1}
        assert stats.flushes == 2
        assert scoped_pool.exports == 1

    @pytest.mark.parametrize("kind", ["range", "knn", "point"])
    def test_every_array_kind_flushes_alone(self, loaded, scoped_pool, kind):
        _, grid, oracle = loaded
        points = np.random.default_rng(63).uniform(0.0, 100.0, size=(MAX_BATCH, 3))

        async def main():
            async with self.serving(grid, scoped_pool) as serving:
                executor = serving.query_executor
                if kind == "range":
                    handle = await executor.submit_ranges(window_array(MAX_BATCH, seed=63))
                elif kind == "knn":
                    handle = await executor.submit_knns(points, 4)
                else:
                    handle = await executor.submit_points(points)
                return await handle, serving.queries.stats

        answer, stats = asyncio.run(main())
        if kind == "range":
            assert_windows_match(answer, oracle, window_array(MAX_BATCH, seed=63))
        elif kind == "knn":
            assert [knn_pairs(r) for r in answer] == [
                knn_pairs(r) for r in oracle.batch_knn(points, 4)
            ]
        else:
            assert_windows_match(answer, oracle, np.stack([points, points], axis=1))
        assert stats.queue_high_water == 0
        assert stats.flush_triggers == {"full": 1}
        assert stats.executor_runs == {"sharded": 1}

    @pytest.mark.parametrize(
        "case", ["one_row_short", "busy_cold", "unexportable", "failed_pool", "inline_pinned"]
    )
    def test_everything_else_rides_the_queue(self, loaded, scoped_pool, closed_pool, case):
        items, grid, oracle = loaded
        rows = MAX_BATCH - 1 if case == "one_row_short" else MAX_BATCH
        windows = window_array(rows, seed=64)
        index = grid
        executor = ShardedExecutor(workers=2, min_shard=16, pool=scoped_pool)
        if case == "failed_pool":
            executor = ShardedExecutor(workers=2, min_shard=16, pool=closed_pool)
        elif case == "unexportable":
            from repro import KDTree

            items = make_items(300, seed=5, points=True)
            index = KDTree()
            oracle = LinearScan()
            index.bulk_load(items)
            oracle.bulk_load(items)
        elif case == "inline_pinned":
            executor = InlineExecutor()
        if case in ("one_row_short", "inline_pinned"):
            scoped_pool.ensure_index(index)  # a live export alone does not qualify
        session = QuerySession(index, executor=executor)
        if case == "busy_cold":
            # No export yet and a flush in progress: publishing one now would
            # build the snapshot beside that flush's kernels.
            session._flush_lock.acquire()

        async def main():
            async with AsyncExecutor(session, FlushPolicy(max_batch=MAX_BATCH)) as executor:
                handle = await executor.submit_ranges(windows)
                assert not executor._own_flushes
                if case == "busy_cold":
                    assert scoped_pool.exports == 0
                    session._flush_lock.release()
                return await handle

        answer = asyncio.run(main())
        assert_windows_match(answer, oracle, windows)
        assert session.stats.queue_high_water == rows
        assert session.stats.submitted == rows
        assert session.stats.flush_triggers == (
            {"idle": 1} if case == "one_row_short" else {"full": 1}
        )
        assert session.stats.flushes == 1

    def test_pool_failure_falls_back_under_the_flush_lock(
        self, loaded, scoped_pool, monkeypatch
    ):
        """The own flush's in-process fallback must exclude the queue's
        kernels: park the bulk *inside* its fallback kernel, let a frame
        flush start, and require that the frame's kernel has not begun."""
        _, grid, oracle = loaded
        windows = window_array(MAX_BATCH, seed=65)
        box = make_boxes(1, seed=66)[0]
        gate = PoolGate(monkeypatch, fail=True)
        gate.release.set()  # fail at once

        in_kernel = threading.Event()
        resume = threading.Event()
        frame_flush_started = threading.Event()
        frame_kernel_started = threading.Event()
        active: list[int] = []
        overlaps: list[int] = []
        kernel = grid.batch_range_query

        def spied_kernel(queries):
            active.append(len(queries))
            if len(active) > 1:
                overlaps.append(len(queries))
            try:
                if len(queries) == MAX_BATCH:
                    in_kernel.set()
                    assert resume.wait(WAIT)
                else:
                    frame_kernel_started.set()
                return kernel(queries)
            finally:
                active.pop()

        monkeypatch.setattr(grid, "batch_range_query", spied_kernel)

        async def main():
            async with self.serving(grid, scoped_pool) as serving:
                flush = serving.queries.flush

                def spied_flush(blocking=True):
                    frame_flush_started.set()
                    return flush(blocking)

                monkeypatch.setattr(serving.queries, "flush", spied_flush)
                bulk = await serving.query_executor.submit_ranges(windows)
                assert await asyncio.to_thread(in_kernel.wait, WAIT)
                frame = asyncio.ensure_future(serving.range_query(box))
                assert await asyncio.to_thread(frame_flush_started.wait, WAIT)
                # The frame's flush is running and must be parked on the lock.
                # (A wait that must time out: a slow host can only make it
                # pass, never fail.)
                assert not await asyncio.to_thread(frame_kernel_started.wait, 0.2)
                resume.set()
                return await bulk, await frame

        bulk_answer, ids = asyncio.run(main())
        assert overlaps == []
        assert frame_kernel_started.is_set()
        assert_windows_match(bulk_answer, oracle, windows)
        assert sorted(ids) == sorted(oracle.range_query(box))
        assert scoped_pool.exports == 1

    def test_query_error_settles_only_its_own_handle(self, loaded, scoped_pool):
        _, grid, oracle = loaded
        flat = np.random.default_rng(67).uniform(0.0, 90.0, size=(MAX_BATCH, 2))
        bad_windows = np.stack([flat, flat + 5.0], axis=1)  # 2-d windows, 3-d index
        box = make_boxes(1, seed=68)[0]

        async def main():
            async with self.serving(grid, scoped_pool) as serving:
                bad = await serving.query_executor.submit_ranges(bad_windows)
                good = asyncio.ensure_future(serving.range_query(box))
                with pytest.raises(ValueError):
                    await bad
                first = await good
                return first, await serving.range_query(box)

        first, second = asyncio.run(main())
        assert sorted(first) == sorted(second) == sorted(oracle.range_query(box))

    def test_sync_read_of_an_in_flight_handle_blocks_until_settled(
        self, loaded, scoped_pool, monkeypatch
    ):
        _, grid, oracle = loaded
        windows = window_array(MAX_BATCH, seed=69)
        gate = PoolGate(monkeypatch)
        read: list = []

        async def main():
            async with self.serving(grid, scoped_pool) as serving:
                handle = await serving.query_executor.submit_ranges(windows)
                reader = threading.Thread(target=lambda: read.append(handle.result()))
                reader.start()
                assert await asyncio.to_thread(gate.entered.wait, WAIT)
                # On the parent the read flushes an empty buffer and raises
                # "flush did not settle this handle".
                assert reader.is_alive() and not read
                gate.release.set()
                await asyncio.to_thread(reader.join, WAIT)
                assert not reader.is_alive()
                return await handle

        answer = asyncio.run(main())
        assert read == [answer]
        assert_windows_match(answer, oracle, windows)

    def test_aclose_waits_for_an_in_flight_own_flush(self, loaded, scoped_pool, monkeypatch):
        _, grid, oracle = loaded
        windows = window_array(MAX_BATCH, seed=70)
        gate = PoolGate(monkeypatch)

        async def main():
            serving = self.serving(grid, scoped_pool)
            executor = serving.query_executor
            handle = await executor.submit_ranges(windows)
            assert await asyncio.to_thread(gate.entered.wait, WAIT)
            closing = asyncio.ensure_future(serving.aclose())
            for _ in range(5):
                await asyncio.sleep(0)
            assert not closing.done() and not handle.resolved
            gate.release.set()
            await closing
            assert handle.resolved and executor.pending == 0
            with pytest.raises(RuntimeError, match="closed"):
                await executor.submit_ranges(windows)
            return handle.result()

        answer = asyncio.run(main())
        assert_windows_match(answer, oracle, windows)

    def test_every_flush_is_attributed_exactly_once(self, loaded, scoped_pool):
        """The phantom-flush pin: requests a flush drained after its hop
        began are woken by *that* flush, so no later pass pays an empty
        thread hop and every trigger has a session flush to show for it."""
        _, grid, oracle = loaded
        frames = [make_boxes(12, seed=200 + i) for i in range(25)]
        bulk_windows = window_array(MAX_BATCH, seed=71)

        async def dash(serving):
            for boxes in frames:
                answers = await asyncio.gather(*(serving.range_query(b) for b in boxes))
                for box, ids in zip(boxes, answers):
                    assert sorted(ids) == sorted(oracle.range_query(box))

        async def bulk(serving, rounds):
            for _ in range(rounds):
                handle = await serving.query_executor.submit_ranges(bulk_windows)
                assert len(await handle) == MAX_BATCH
                await asyncio.sleep(0)

        async def main():
            async with self.serving(grid, scoped_pool) as serving:
                await asyncio.gather(dash(serving), bulk(serving, 6))
                return serving.queries.stats, serving.query_executor

        stats, executor = asyncio.run(main())
        assert stats.submitted == 25 * 12 + 6 * MAX_BATCH
        assert stats.flush_triggers["full"] == 6
        assert sum(stats.flush_triggers.values()) == stats.flushes
        assert executor.latency_summary()["flushes"] == stats.flushes
        assert stats.queue_high_water < MAX_BATCH


# -- spill cleanup on flush error (the tmpdir-leak fix) ------------------------


class TestSpillCleanupOnError:
    def test_failed_merge_releases_the_spill_tmpdir(self, monkeypatch):
        items = make_items(200, seed=3)
        session = JoinSession(budget=2048)  # tiny: every real spec spills
        manager = session.spill_manager()
        spill_dir = manager.dir
        assert os.path.isdir(spill_dir)

        def boom(*args, **kwargs):
            raise RuntimeError("merge died")

        monkeypatch.setattr("repro.joins.kernels.tile_layout", boom)
        with pytest.raises(RuntimeError, match="merge died"):
            session.run(SelfJoinSpec(items))
        # The fix under test: the error path released the spill files
        # immediately instead of parking them until session close.
        assert not os.path.exists(spill_dir)
        assert session._spill is None

        monkeypatch.undo()
        expected = sorted(JoinSession().run(SelfJoinSpec(items)))
        assert sorted(session.run(SelfJoinSpec(items))) == expected  # fresh manager
        session.close()
        assert not os.path.exists(session._spill_dir or spill_dir)

    def test_clean_flush_keeps_the_manager_open(self):
        items = make_items(200, seed=4)
        session = JoinSession(budget=2048)
        expected = sorted(JoinSession().run(SelfJoinSpec(items)))
        assert sorted(session.run(SelfJoinSpec(items))) == expected
        assert session.stats.strategy_runs.get("pbsm_spill") == 1
        assert session._spill is not None and not session._spill.closed
        session.close()
