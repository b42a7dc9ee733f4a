"""The observability layer: spans, cross-process metrics, live exposition.

These tests pin the contracts ISSUE 10 introduces:

* **metrics registry** — counters/gauges/fixed-bucket histograms with
  sample-free percentiles, snapshot/merge/delta algebra (the pool's
  worker→parent merge path), and the process-global registry;
* **span tracer** — context-manager nesting, counter-delta attachment,
  Chrome ``trace_event`` export, and a sub-microsecond disabled path;
* **cross-process propagation** — a sharded query flush under a live
  WorkerPool (fork AND spawn) renders as ONE connected span tree, with
  every ``worker.*`` span a descendant of the parent's ``query.flush``
  span;
* **exactly-once pool retry** — results that landed before a worker
  crash are kept, only the dead tasks rerun (the stats double-count
  regression), and a query session's ``BatchStats`` stay exact across a
  crash;
* **serving exposition** — ``ServingSession.dump_metrics`` merges the
  query/join/global registries into one snapshot, served as Prometheus
  text and JSON over HTTP;
* **mapped scalar maintenance** — ``DiskRTree(mapped=True)`` insert and
  delete never decode object payloads and stay bit-parity with the
  object-payload mode (ROADMAP zero-copy item (b)).
"""

from __future__ import annotations

import asyncio
import dataclasses
import json
import multiprocessing
import os
import random
import signal
import time

import pytest

from conftest import make_items
import numpy as np

from repro import (
    AABB,
    QuerySession,
    SelfJoinSpec,
    ServingSession,
    ShardedExecutor,
    UniformGrid,
    WorkerPool,
    shutdown_default_pool,
)
from repro.approx import SpillTree
from repro.geometry.aabb import AABB as _AABB
from repro.indexes.disk_rtree import DiskRTree
from repro.obs import (
    MetricsRegistry,
    Span,
    capture_worker,
    disable_tracing,
    enable_tracing,
    get_tracer,
    global_registry,
    ingest_telemetry,
    propagation_context,
    snapshot_delta,
    span,
    tracing_enabled,
)

UNIVERSE = AABB((0.0, 0.0, 0.0), (100.0, 100.0, 100.0))


@pytest.fixture(autouse=True)
def clean_obs_state():
    """Every test starts with a quiet tracer and a clear global registry."""
    tracer = get_tracer()
    was_enabled = tracer.enabled
    tracer.clear()
    global_registry().clear()
    yield
    tracer.enabled = was_enabled
    tracer.clear()
    global_registry().clear()


def build_grid(items):
    grid = UniformGrid(universe=UNIVERSE, cell_size=5.0)
    grid.bulk_load(items)
    return grid


# -- the metrics registry ------------------------------------------------------


class TestMetrics:
    def test_counter_gauge_basics(self):
        registry = MetricsRegistry()
        counter = registry.counter("x.count")
        counter.inc()
        counter.inc(4)
        assert registry.value("x.count") == 5
        gauge = registry.gauge("x.depth")
        gauge.track_max(3)
        gauge.track_max(1)
        assert registry.value("x.depth") == 3
        # get-or-create returns the same object
        assert registry.counter("x.count") is counter

    def test_histogram_percentiles_without_samples(self):
        registry = MetricsRegistry()
        hist = registry.histogram("x.seconds")
        for value in (0.001, 0.002, 0.004, 0.008, 0.1):
            hist.observe(value)
        assert hist.count == 5
        assert hist.total == pytest.approx(0.115)
        digest = hist.summary()
        assert digest["min"] == pytest.approx(0.001)
        assert digest["max"] == pytest.approx(0.1)
        # Interpolated from buckets, clamped to the observed range.
        assert digest["min"] <= digest["p50"] <= digest["p99"] <= digest["max"]

    def test_merge_snapshot_adds_and_gauges_fold_max(self):
        a = MetricsRegistry()
        a.counter("c").inc(3)
        a.gauge("g").set(7)
        a.histogram("h").observe(0.5)
        b = MetricsRegistry()
        b.counter("c").inc(2)
        b.gauge("g").set(4)
        b.histogram("h").observe(1.5)
        b.merge_snapshot(a.snapshot())
        assert b.value("c") == 5
        assert b.value("g") == 7  # max-fold
        assert b.get("h").count == 2

    def test_snapshot_delta_drops_unchanged(self):
        registry = MetricsRegistry()
        registry.counter("stable").inc(10)
        before = registry.snapshot()
        registry.counter("moved").inc(2)
        delta = snapshot_delta(registry.snapshot(), before)
        assert "moved" in delta
        assert "stable" not in delta
        assert delta["moved"]["value"] == 2


# -- the span tracer -----------------------------------------------------------


class TestTracer:
    def test_nesting_and_counter_deltas(self):
        from repro.instrumentation.counters import Counters

        tracer = enable_tracing()
        counters = Counters()
        with span("outer", kind="test") as outer:
            with span("inner", counters=counters):
                counters.node_tests += 7
        spans = {s.name: s for s in tracer.spans()}
        assert spans["inner"].parent_id == spans["outer"].span_id
        assert spans["inner"].trace_id == spans["outer"].trace_id
        assert spans["inner"].attrs["counters.node_tests"] == 7
        assert spans["outer"].attrs["kind"] == "test"
        assert spans["outer"].end_ns >= spans["outer"].start_ns

    def test_disabled_tracer_records_nothing(self):
        disable_tracing()
        assert not tracing_enabled()
        with span("ghost") as ghost:
            ghost.set_attr("ignored", 1)  # no-op handle
        assert get_tracer().spans() == []
        assert propagation_context() is None

    def test_disabled_spans_cost_under_two_percent_of_a_flush(self):
        """The disabled fast path, bounded structurally: the cost of one
        disabled ``span()`` times the spans a traced flush records must stay
        under 2 % of the untraced flush.  A wall-clock A/B at 2 % would
        drown in scheduler noise; the per-span cost is stable to
        nanoseconds.  (The traced <= 1.15x bar is CI's traced tier-1 pass.)"""
        session = QuerySession(build_grid(make_items(10_000, seed=41)))
        windows = _windows(1_000, seed=42)
        session.range_query(windows)  # pack the snapshot once
        disable_tracing()
        untraced = float("inf")
        for _ in range(5):
            start = time.perf_counter()
            session.range_query(windows)
            untraced = min(untraced, time.perf_counter() - start)
        iters = 200_000
        start = time.perf_counter()
        for _ in range(iters):
            with span("noop"):
                pass
        with_spans = time.perf_counter() - start
        start = time.perf_counter()
        for _ in range(iters):
            pass
        per_span = max(with_spans - (time.perf_counter() - start), 0.0) / iters
        tracer = enable_tracing()
        session.range_query(windows)
        spans_per_flush = len(tracer.spans())
        assert spans_per_flush >= 1
        assert per_span * spans_per_flush < 0.02 * untraced, (
            f"{per_span * 1e9:.0f} ns x {spans_per_flush} spans vs a "
            f"{untraced * 1e3:.1f} ms flush"
        )

    def test_chrome_export_roundtrip(self, tmp_path):
        enable_tracing()
        with span("parent"):
            with span("child"):
                pass
        path = tmp_path / "trace.json"
        events = get_tracer().export_chrome(str(path))
        assert len(events) == 2
        loaded = json.loads(path.read_text())
        assert {e["name"] for e in loaded["traceEvents"]} == {"parent", "child"}
        for event in loaded["traceEvents"]:
            assert event["ph"] == "X"
            assert event["dur"] >= 0

    def test_capture_worker_roundtrip(self):
        # Parent side: open a span, capture its context.
        tracer = enable_tracing()
        with span("flush") as flush_span:
            ctx = propagation_context()
        assert ctx is not None
        tracer.clear()

        # "Worker" side: adopt the context, do metered work.
        disable_tracing()
        with capture_worker("shard", ctx, mode="test") as cap:
            global_registry().counter("worker.widgets").inc(2)
            cap.set_attr("chunk", 5)
        assert not tracing_enabled()  # restored
        telemetry = cap.telemetry
        assert telemetry is not None
        assert telemetry["metrics"]["worker.widgets"]["value"] == 2
        (worker_span,) = telemetry["spans"]
        assert worker_span["name"] == "worker.shard"
        assert worker_span["parent_id"] == flush_span.span_id
        assert worker_span["attrs"]["chunk"] == 5

        # Parent side again: fold it back.  (Clear first: in-process the
        # "worker" charged this same registry; a real worker charges its
        # own process's registry and only the delta crosses back.)
        global_registry().clear()
        enable_tracing()
        ingest_telemetry(telemetry)
        assert global_registry().value("worker.widgets") == 2
        (ingested,) = get_tracer().spans()
        assert ingested.parent_id == flush_span.span_id

    def test_capture_worker_ships_only_post_fork_spans(self):
        # A forked worker inherits the parent's span list; the bracket must
        # ship only spans recorded inside it, or ingest duplicates them.
        tracer = enable_tracing()
        with span("pre.fork"):
            pass
        with span("flush"):
            ctx = propagation_context()
        assert len(tracer.spans()) == 2
        with capture_worker("shard", ctx) as cap:
            pass
        shipped = [s["name"] for s in cap.telemetry["spans"]]
        assert shipped == ["worker.shard"]
        # the parent-side spans are still exactly where they were
        local = [s.name for s in tracer.spans()]
        assert local.count("pre.fork") == 1
        assert local.count("flush") == 1
        assert "worker.shard" not in local


# -- cross-process span trees --------------------------------------------------


@pytest.fixture(params=["fork", "spawn"])
def pool(request):
    if request.param not in multiprocessing.get_all_start_methods():
        pytest.skip(f"platform lacks the {request.param!r} start method")
    shutdown_default_pool()
    p = WorkerPool(workers=2, context=request.param)
    yield p
    p.close()


def _windows(count: int, seed: int) -> np.ndarray:
    lo = np.random.default_rng(seed).uniform(0.0, 94.0, size=(count, 3))
    return np.stack([lo, lo + 6.0], axis=1)


class TestPropagation:
    def test_sharded_query_flush_is_one_span_tree(self, pool):
        """The acceptance scenario: a sharded query flush under a live pool
        produces ONE connected trace with every worker span a descendant of
        the query.flush span."""
        grid = build_grid(make_items(600, seed=31))
        session = QuerySession(
            grid, executor=ShardedExecutor(workers=2, min_shard=16, pool=pool)
        )
        tracer = enable_tracing()
        tracer.clear()
        try:
            session.range_query(_windows(200, seed=83))
            spans = tracer.spans()
        finally:
            disable_tracing()
        assert session.stats.executor_runs == {"sharded": 1}
        assert pool.shards_run == 2

        assert spans, "tracing produced no spans"
        trace_ids = {s.trace_id for s in spans}
        assert len(trace_ids) == 1, f"disconnected traces: {trace_ids}"

        by_id = {s.span_id: s for s in spans}
        flush_spans = [s for s in spans if s.name == "query.flush"]
        assert len(flush_spans) == 1
        flush = flush_spans[0]

        worker_spans = [s for s in spans if s.name.startswith("worker.")]
        assert [s.name for s in worker_spans] == ["worker.query_shard"] * 2
        assert {s.pid for s in worker_spans} != {os.getpid()}

        def ancestor_ids(node: Span) -> set[str]:
            seen = set()
            while node.parent_id is not None:
                assert node.parent_id in by_id, (
                    f"span {node.name} has dangling parent {node.parent_id}"
                )
                node = by_id[node.parent_id]
                seen.add(node.span_id)
            return seen

        for worker_span in worker_spans:
            assert flush.span_id in ancestor_ids(worker_span)


# -- exactly-once retry --------------------------------------------------------


def _bomb_task(log_path: str, flag_path: str, index: int, bomb_index: int):
    with open(log_path, "a") as fh:
        fh.write(f"{index}\n")
        fh.flush()
        os.fsync(fh.fileno())
    if index == bomb_index:
        deadline = time.monotonic() + 30.0
        # Wait for every other task's log line so their results are safely
        # delivered before the crash, then die without creating a corpse
        # note twice: the flag file arms exactly one detonation.
        while time.monotonic() < deadline:
            with open(log_path) as check:
                lines = {line.strip() for line in check}
            if lines >= {"0", "1"}:
                break
            time.sleep(0.01)
        if not os.path.exists(flag_path):
            with open(flag_path, "w"):
                pass
            time.sleep(0.5)  # let the finished results drain to the parent
            os.kill(os.getpid(), signal.SIGKILL)
    return index * 10


class TestExactlyOnceRetry:
    def test_completed_tasks_are_not_rerun_after_crash(self, tmp_path):
        """The stats double-count regression: results that landed before
        the pool broke are kept; only the dead task reruns."""
        log_path = str(tmp_path / "executions.log")
        flag_path = str(tmp_path / "armed.flag")
        open(log_path, "w").close()
        with WorkerPool(workers=2, context="fork") as pool:
            tasks = [(log_path, flag_path, i, 2) for i in range(3)]
            results = pool._map(_bomb_task, tasks)
        assert results == [0, 10, 20]
        with open(log_path) as fh:
            executed = [int(line) for line in fh if line.strip()]
        # 0 and 1 completed before the crash: executed exactly once each.
        assert executed.count(0) == 1
        assert executed.count(1) == 1
        # the bomb task ran, died, and was retried exactly once
        assert executed.count(2) == 2

    def test_query_stats_exact_after_worker_crash(self):
        """End-to-end: a crash-retried sharded query flush reports the same
        answers and batch tallies as the flush before the crash (no shard
        merged twice)."""
        grid = build_grid(make_items(600, seed=31))
        windows = _windows(200, seed=84)
        with WorkerPool(workers=2, context="fork") as pool:
            session = QuerySession(
                grid, executor=ShardedExecutor(workers=2, min_shard=16, pool=pool)
            )
            expected = session.range_query(windows)
            first = dataclasses.replace(session.stats.batch)
            assert first.queries == len(windows) and first.batches == 1
            for process in list(pool._executor._processes.values()):
                os.kill(process.pid, signal.SIGKILL)
            time.sleep(0.1)
            assert session.range_query(windows) == expected
            stats = session.stats.batch
            assert stats.queries == 2 * first.queries
            assert stats.batches == 2 * first.batches
            assert stats.deduplicated == 2 * first.deduplicated
            assert session.stats.executor_runs == {"sharded": 2}


# -- serving exposition --------------------------------------------------------


class TestServingExposition:
    def _run_workload(self, serving_kwargs=None):
        items = make_items(600, seed=31)
        grid = build_grid(items)

        async def workload():
            async with ServingSession(grid, **(serving_kwargs or {})) as serving:
                rng = random.Random(5)
                for _ in range(3):
                    lo = [rng.uniform(0.0, 95.0) for _ in range(3)]
                    hi = [c + rng.uniform(1.0, 6.0) for c in lo]
                    await serving.range_query(AABB(lo, hi))
                    await serving.knn(
                        tuple(rng.uniform(0.0, 100.0) for _ in range(3)), 4
                    )
                await serving.join(SelfJoinSpec(tuple(items)))
                snapshot = serving.dump_metrics()
                text = serving.metrics_text()
                payload = json.loads(serving.metrics_json())
                return snapshot, text, payload

        return asyncio.run(workload())

    def test_dump_metrics_merges_all_registries(self, pool):
        tracer = enable_tracing()
        snapshot, text, payload = self._run_workload({"pool": pool, "workers": 2})
        # every async flush is one span and one timed sample
        assert any(s.name == "serving.flush" for s in tracer.spans())
        assert snapshot["serving.flush.seconds"]["count"] >= 1
        # session registries
        assert snapshot["query.flushes"]["value"] >= 1
        assert snapshot["join.flushes"]["value"] >= 1
        assert snapshot["query.flush.seconds"]["count"] >= 1
        # the async tier attributed every flush to a cause
        triggers = [k for k in snapshot if k.startswith("serving.flush.trigger.")]
        assert triggers
        # Prometheus text: sanitized names, histogram suffixes
        assert "query_flushes" in text
        assert 'query_flush_seconds_bucket{le="+Inf"}' in text
        assert "query_flush_seconds_count" in text
        # JSON keeps the digest, drops the bucket vectors
        assert "p99" in payload["query.flush.seconds"]
        assert "buckets" not in payload["query.flush.seconds"]

    def test_pool_merges_worker_metrics_into_parent_registry(self, pool):
        """2+ workers, one merged snapshot: the defeatist descents the
        workers charge to their own registries surface in the parent's
        global registry via the telemetry merge, each exactly once."""
        items = make_items(600, seed=33, points=True)
        tree = SpillTree(tau=0.25, leaf_size=32)
        tree.bulk_load(items)
        points = np.random.default_rng(7).uniform(0.0, 100.0, size=(400, 3))
        session = QuerySession(
            tree, executor=ShardedExecutor(workers=2, min_shard=32, pool=pool)
        )
        session.knn(points, 4, accuracy=0.5)  # the parent calibrates recall once
        global_registry().clear()
        session.knn(points, 4, accuracy=0.5)
        assert pool.shards_run == 4
        assert global_registry().value("approx.descents") == len(points)
        assert global_registry().value("approx.leaves_scanned") > 0


# -- mapped scalar maintenance (ROADMAP zero-copy item (b)) --------------------


class TestMappedScalarMaintenance:
    @staticmethod
    def _rand_box(rng):
        lo = [rng.uniform(0, 100) for _ in range(3)]
        hi = [l + rng.uniform(0, 5) for l in lo]
        return _AABB(tuple(lo), tuple(hi))

    def test_mapped_mode_never_constructs_an_aabb(self, monkeypatch):
        """Build, scalar queries and maintenance stay arrays end to end: the
        only ``AABB`` objects alive are the caller's own arguments."""
        rng = random.Random(11)
        items = [(i, self._rand_box(rng)) for i in range(2500)]
        fresh = [(2500 + i, self._rand_box(rng)) for i in range(300)]
        queries = [self._rand_box(rng).expanded(8.0) for _ in range(20)]
        built = []
        original = _AABB.__init__

        def spy(self, lo, hi):
            built.append(1)
            original(self, lo, hi)

        monkeypatch.setattr(_AABB, "__init__", spy)
        tree = DiskRTree(max_entries=8, mapped=True)
        try:
            tree.bulk_load(items)
            tree.bulk_load_external(iter(items))
            tree.bulk_load_external(iter(items), budget=70_000)
            assert tree.counters.spill_bytes_written > 0
            live = list(items)
            for eid, box in fresh:
                tree.insert(eid, box)
                live.append((eid, box))
                if rng.random() < 0.4:
                    gone_id, gone = live.pop(rng.randrange(len(live)))
                    tree.delete(gone_id, gone)
            hits = [tree.range_query(query) for query in queries]
            near = [tree.knn(query.lo, 5) for query in queries]
            tree.batch_range_query(queries)
        finally:
            tree.close()
        assert any(hits) and all(len(result) == 5 for result in near)
        assert built == [], "mapped DiskRTree constructed AABB objects"

    def test_mapped_scalar_parity_with_object_mode(self):
        rng = random.Random(7)
        plain = DiskRTree(max_entries=8)
        mapped = DiskRTree(max_entries=8, mapped=True)
        live = []
        for i in range(400):
            box = self._rand_box(rng)
            plain.insert(i, box)
            mapped.insert(i, box)
            live.append((i, box))
            if len(live) > 50 and rng.random() < 0.4:
                eid, gone = live.pop(rng.randrange(len(live)))
                plain.delete(eid, gone)
                mapped.delete(eid, gone)
        try:
            assert len(plain) == len(mapped)
            assert plain.height == mapped.height
            assert plain.page_count() == mapped.page_count()
            query = _AABB((10.0, 10.0, 10.0), (60.0, 60.0, 60.0))
            assert sorted(plain.range_query(query)) == sorted(
                mapped.range_query(query)
            )
            assert plain.knn((30.0, 30.0, 30.0), 10) == mapped.knn(
                (30.0, 30.0, 30.0), 10
            )
            # The tree-walk charges match structure for structure.
            assert plain.counters.node_tests == mapped.counters.node_tests
            assert plain.counters.inserts == mapped.counters.inserts
            assert plain.counters.deletes == mapped.counters.deletes
        finally:
            mapped.close()

    def test_delete_raises_for_missing_element(self):
        tree = DiskRTree(max_entries=8, mapped=True)
        box = _AABB((0.0, 0.0, 0.0), (1.0, 1.0, 1.0))
        tree.insert(1, box)
        with pytest.raises(KeyError):
            tree.delete(2, box)
        with pytest.raises(KeyError):
            tree.delete(1, _AABB((5.0, 5.0, 5.0), (6.0, 6.0, 6.0)))
        tree.delete(1, box)
        assert len(tree) == 0
        with pytest.raises(KeyError):
            tree.delete(1, box)
        tree.close()


# -- report rendering over the registry ----------------------------------------


class TestReportsOverRegistry:
    def test_serving_line_renders_from_registry(self):
        from repro.analysis.session_report import query_session_report

        items = make_items(300, seed=13)
        grid = build_grid(items)

        async def workload():
            async with ServingSession(grid) as serving:
                for _ in range(2):
                    await serving.range_query(
                        AABB((0.0, 0.0, 0.0), (50.0, 50.0, 50.0))
                    )
                return query_session_report(serving.queries)

        report = asyncio.run(workload())
        assert "serving: triggers=" in report
        assert "queue-high-water=" in report
        assert "flush-wall=" in report
        # registry and stats agree on the rendered values
        line = [l for l in report.splitlines() if l.startswith("serving:")][0]
        stats_triggers = sum(
            int(part.split(":")[1])
            for part in line.split("triggers=")[1].split(" ")[0].split(",")
        )
        assert stats_triggers >= 1
