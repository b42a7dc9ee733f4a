"""Session semantics: deferred handles, buffering, executors, public API.

The QuerySession is the single public query surface (ISSUE 3); these tests
pin its contract:

* handles resolve in submission order, and reading ANY pending handle
  flushes the whole buffer (flush-on-read);
* mixed range / kNN / point submissions coexist in one buffer and flush as
  grouped batches;
* every executor is interchangeable — InlineExecutor and BatchExecutor
  agree with the LinearScan oracle on every index, and the
  ShardedExecutor's merged results and dedup stats match single-process
  execution;
* executors only answer: the session hands each run the distinct rows of
  its batch, and inline, batch and sharded runs of one workload report
  identical ``stats.batch``;
* the curated public API (`repro.__all__`, the index registry) exposes the
  session surface without deep module imports.
"""

from __future__ import annotations

import asyncio
import dataclasses
import multiprocessing

import numpy as np
import pytest

from conftest import UNIVERSE_2D, knn_pairs, make_items, make_queries
from repro import (
    AABB,
    INDEX_REGISTRY,
    BatchExecutor,
    InlineExecutor,
    KNNQuery,
    PointQuery,
    QuerySession,
    RangeQuery,
    ServingSession,
    ShardedExecutor,
    WorkerPool,
    available_indexes,
    make_index,
)
from repro.indexes.linear_scan import LinearScan
from repro.serving.snapshots import SnapshotGridIndex

UNIVERSE = AABB((0.0, 0.0, 0.0), (100.0, 100.0, 100.0))

HAVE_FORK = "fork" in multiprocessing.get_all_start_methods()

# Every exact box-capable index, built the way the property suite builds
# them — the session must behave identically over all of them.
SESSION_INDEXES = [
    "linear_scan",
    "rtree",
    "rstar",
    "rplus",
    "disk_rtree",
    "crtree",
    "octree",
    "loose_octree",
    "uniform_grid",
    "multires_grid",
]


def build_index(name: str):
    kwargs = {}
    if name in ("rplus", "octree", "loose_octree", "uniform_grid", "multires_grid"):
        kwargs["universe"] = UNIVERSE
    index = make_index(name, **kwargs)
    return index


@pytest.fixture(scope="module")
def loaded():
    items = make_items(220, seed=31)
    oracle = LinearScan()
    oracle.bulk_load(items)
    return items, oracle


class TestQueryValues:
    def test_qids_are_unique_and_tags_carried(self):
        a = RangeQuery(AABB((0, 0, 0), (1, 1, 1)), tag="vis")
        b = KNNQuery((1.0, 2.0, 3.0), k=4, tag=("probe", 7))
        c = PointQuery((5.0, 5.0, 5.0))
        assert len({a.qid, b.qid, c.qid}) == 3
        assert a.tag == "vis" and b.tag == ("probe", 7) and c.tag is None
        assert b.point == (1.0, 2.0, 3.0)

    def test_queries_are_immutable_values(self):
        q = RangeQuery(AABB((0, 0), (1, 1)))
        with pytest.raises(AttributeError):
            q.tag = "other"
        assert KNNQuery((0.0,), k=1).k == 1
        assert KNNQuery((0.0,), k=0).k == 0  # legal: answers []
        with pytest.raises(ValueError):
            KNNQuery((0.0,), k=-1)

    def test_k_zero_matches_kernel(self, loaded):
        """Drop-in parity: k=0 answers empty lists, as the kernel does."""
        items, _ = loaded
        index = build_index("uniform_grid")
        index.bulk_load(items)
        points = np.array([[10.0, 10.0, 10.0], [50.0, 50.0, 50.0]])
        session = QuerySession(index)
        assert session.knn(points, 0) == index.batch_knn(points, 0) == [[], []]
        assert session.submit(KNNQuery((10.0, 10.0, 10.0), k=0)).result() == []

    def test_kind_markers(self):
        assert RangeQuery(AABB((0, 0), (1, 1))).kind == "range"
        assert KNNQuery((0.0, 0.0), k=1).kind == "knn"
        assert PointQuery((0.0, 0.0)).kind == "point"


class TestHandlesAndBuffer:
    def test_submissions_defer_until_flush(self, loaded):
        items, _ = loaded
        index = build_index("uniform_grid")
        index.bulk_load(items)
        session = QuerySession(index)
        handles = [session.submit(RangeQuery(q)) for q in make_queries(6, seed=32)]
        assert session.pending == 6
        assert not any(h.resolved for h in handles)
        session.flush()
        assert session.pending == 0
        assert all(h.resolved for h in handles)
        assert session.stats.flushes == 1

    def test_flush_on_read_resolves_every_pending_handle(self, loaded):
        items, oracle = loaded
        index = build_index("uniform_grid")
        index.bulk_load(items)
        session = QuerySession(index)
        queries = make_queries(5, seed=33)
        handles = [session.submit(RangeQuery(q)) for q in queries]
        # Reading the LAST handle first must flush (and resolve) them all.
        last = handles[-1].result()
        assert sorted(last) == sorted(oracle.range_query(queries[-1]))
        assert all(h.resolved for h in handles)
        assert session.stats.flushes == 1  # one flush served every read
        for handle, query in zip(handles, queries):
            assert sorted(handle.result()) == sorted(oracle.range_query(query))
        assert session.stats.flushes == 1  # reads after resolution are free

    def test_resolution_follows_submission_order(self, loaded):
        """Interleaved scalar and vector submissions land on the right
        handles: each result equals the oracle's answer for ITS query."""
        items, oracle = loaded
        index = build_index("rtree")
        index.bulk_load(items)
        session = QuerySession(index)
        queries = make_queries(7, seed=34)
        h_first = session.submit(RangeQuery(queries[0]))
        h_vector = session.submit_ranges(queries[1:6], tag="window-sweep")
        h_last = session.submit(RangeQuery(queries[6]))
        session.flush()
        assert sorted(h_first.result()) == sorted(oracle.range_query(queries[0]))
        assert sorted(h_last.result()) == sorted(oracle.range_query(queries[6]))
        vector = h_vector.result()
        assert h_vector.tag == "window-sweep"
        assert len(vector) == 5
        for got, query in zip(vector, queries[1:6]):
            assert sorted(got) == sorted(oracle.range_query(query))

    def test_mixed_kinds_share_one_buffer_and_flush(self, loaded):
        items, oracle = loaded
        index = build_index("uniform_grid")
        index.bulk_load(items)
        session = QuerySession(index)
        box = make_queries(1, seed=35)[0]
        point = (40.0, 45.0, 50.0)
        stab = items[17][1].center()
        h_range = session.submit(RangeQuery(box))
        h_knn = session.submit(KNNQuery(point, k=5))
        h_point = session.submit(PointQuery(stab))
        h_knn9 = session.submit(KNNQuery(point, k=9))  # distinct k → own batch
        assert session.pending == 4
        session.flush()
        assert session.stats.flushes == 1
        # Grouped into four executor runs: range, point, and two kNN ks.
        assert session.stats.batch.batches == 4
        assert sorted(h_range.result()) == sorted(oracle.range_query(box))
        assert knn_pairs(h_knn.result()) == knn_pairs(oracle.knn(point, 5))
        assert knn_pairs(h_knn9.result()) == knn_pairs(oracle.knn(point, 9))
        assert sorted(h_point.result()) == sorted(
            oracle.range_query(AABB(stab, stab))
        )

    def test_failed_group_settles_handles_and_spares_the_rest(self, loaded):
        """An executor error must not orphan handles: the failed group's
        handles re-raise the error from result(), other groups still run."""
        items, oracle = loaded
        index = build_index("uniform_grid")
        index.bulk_load(items)
        session = QuerySession(index)
        good_box = make_queries(1, seed=45)[0]
        h_good = session.submit(KNNQuery((10.0, 10.0, 10.0), k=3))
        h_bad = session.submit(RangeQuery(AABB((0.0, 0.0), (1.0, 1.0))))  # 2-d vs 3-d
        h_good2 = session.submit(RangeQuery(good_box))  # 3-d: a group of its own
        with pytest.raises(ValueError):
            session.flush()
        assert session.pending == 0
        assert h_bad.resolved and h_good2.resolved
        with pytest.raises(ValueError):
            h_bad.result()
        # Dims are part of the group key: the 3-d window and the kNN group
        # were independent of the 2-d one and still answered.
        assert sorted(h_good2.result()) == sorted(oracle.range_query(good_box))
        assert knn_pairs(h_good.result()) == knn_pairs(oracle.knn((10.0, 10.0, 10.0), 3))
        # The session stays usable afterwards.
        assert sorted(session.range_query([good_box])[0]) == sorted(
            oracle.range_query(good_box)
        )

    def test_deferred_read_confines_errors_to_its_own_group(self, loaded):
        """Reading a handle whose own query succeeded never raises another
        group's error — and the read is idempotent.  Explicit flush() is
        where cross-group errors surface."""
        items, oracle = loaded
        index = build_index("uniform_grid")
        index.bulk_load(items)
        session = QuerySession(index)
        session.submit(RangeQuery(AABB((0.0, 0.0), (1.0, 1.0))))  # 2-d
        session.submit_ranges(make_queries(3, seed=47))  # 3-d: answered
        h_good = session.submit(KNNQuery((10.0, 10.0, 10.0), k=2))
        expected = knn_pairs(oracle.knn((10.0, 10.0, 10.0), 2))
        assert knn_pairs(h_good.result()) == expected  # first read: no raise
        assert knn_pairs(h_good.result()) == expected  # and idempotent

    def test_failed_handle_reports_its_own_groups_error(self, loaded):
        """When two groups fail in one flush, each handle re-raises the
        error that consumed ITS submission — never the other group's."""
        items, _ = loaded
        index = build_index("uniform_grid")
        index.bulk_load(items)

        class Boom(Exception):
            pass

        class KnnBomb(InlineExecutor):
            def run(self, index, batch):
                if batch.kind == "knn":
                    raise Boom("knn-broken")
                return super().run(index, batch)

        session = QuerySession(index, executor=KnnBomb())
        h_range = session.submit(RangeQuery(AABB((0.0, 0.0), (1.0, 1.0))))  # 2-d
        h_range2 = session.submit_ranges(make_queries(2, UNIVERSE_2D, seed=48))  # same group
        h_knn = session.submit(KNNQuery((10.0, 10.0, 10.0), k=2))  # executor fails
        with pytest.raises((ValueError, Boom)):
            session.flush()  # first group's error, whichever ran first
        with pytest.raises(ValueError):
            h_range.result()
        with pytest.raises(ValueError):
            h_range2.result()
        with pytest.raises(Boom):
            h_knn.result()

    def test_immediate_call_survives_unrelated_buffered_failure(self, loaded):
        """A convenience call whose own batch succeeded returns its results
        even when a previously buffered group fails in the shared flush;
        the failed group's own handle still re-raises on read."""
        items, oracle = loaded
        index = build_index("uniform_grid")
        index.bulk_load(items)
        session = QuerySession(index)
        h_bad = session.submit(RangeQuery(AABB((0.0, 0.0), (1.0, 1.0))))  # 2-d
        h_bad2 = session.submit_ranges(make_queries(3, UNIVERSE_2D, seed=46))  # same group
        points = np.array([[10.0, 10.0, 10.0], [70.0, 20.0, 30.0]])
        got = session.knn(points, 4)  # flush fails on the range group
        assert [knn_pairs(r) for r in got] == [
            knn_pairs(oracle.knn(tuple(p), 4)) for p in points
        ]
        with pytest.raises(ValueError):
            h_bad.result()
        with pytest.raises(ValueError):
            h_bad2.result()

    def test_empty_submissions_resolve_empty(self, loaded):
        items, _ = loaded
        index = build_index("uniform_grid")
        index.bulk_load(items)
        session = QuerySession(index)
        handle = session.submit_ranges([])
        assert handle.result() == []
        assert session.knn(np.empty((0, 3)), 3) == []


class TestExecutorEquivalence:
    @pytest.mark.parametrize("name", SESSION_INDEXES)
    def test_inline_equals_batch_equals_oracle(self, name, loaded):
        """The heuristic may route any batch to any executor, so inline and
        batch answers must agree (and match the oracle) on every index."""
        items, oracle = loaded
        index = build_index(name)
        index.bulk_load(items)
        queries = make_queries(6, seed=36)
        points = np.array([[20.0, 30.0, 40.0], [77.0, 12.0, 55.0], [5.0, 5.0, 5.0]])

        inline = QuerySession(index, executor=InlineExecutor())
        batch = QuerySession(index, executor=BatchExecutor())

        inline_range = inline.range_query(queries)
        batch_range = batch.range_query(queries)
        for got_i, got_b, query in zip(inline_range, batch_range, queries):
            expected = sorted(oracle.range_query(query))
            assert sorted(got_i) == expected
            assert sorted(got_b) == expected

        inline_knn = inline.knn(points, 6)
        batch_knn = batch.knn(points, 6)
        for got_i, got_b, point in zip(inline_knn, batch_knn, points):
            expected = knn_pairs(oracle.knn(tuple(point), 6))
            assert knn_pairs(got_i) == expected
            assert knn_pairs(got_b) == expected

        # Stabbing parity: include element-boundary points, where a kernel
        # treating degenerate boxes as half-open would diverge.
        stabs = np.asarray([items[5][1].lo, items[9][1].hi, (50.0, 50.0, 50.0)])
        inline_pt = inline.point_query(stabs)
        batch_pt = batch.point_query(stabs)
        for got_i, got_b, p in zip(inline_pt, batch_pt, stabs):
            expected = sorted(oracle.range_query(AABB(tuple(p), tuple(p))))
            assert sorted(got_i) == expected
            assert sorted(got_b) == expected

        assert inline.stats.executor_runs == {"inline": 3}
        assert batch.stats.executor_runs == {"batch": 3}

    #: Hostile input for the inline/batch parity check: (kind, payload, k).
    HOSTILE = {
        "inverted_window": ("range", [[[5.0, 5.0, 5.0], [1.0, 1.0, 1.0]]], None),
        "inf_window": ("range", [[[-np.inf] * 3, [np.inf] * 3]], None),
        "inf_slab": ("range", [[[5.0, -np.inf, 5.0], [9.0, np.inf, 9.0]]], None),
        "nan_window": ("range", [[[np.nan, 1.0, 1.0], [2.0, 2.0, 2.0]]], None),
        "window_2d": ("range", [[[1.0, 1.0], [50.0, 50.0]]], None),
        "inf_point": ("point", [[np.inf, 1.0, 1.0]], None),
        "nan_point": ("point", [[np.nan, 1.0, 1.0]], None),
        "point_2d": ("point", [[10.0, 10.0]], None),
        "inf_probe": ("knn", [[np.inf, 1.0, 1.0]], 3),
        "minus_inf_probe": ("knn", [[-np.inf, 1.0, 1.0]], 3),
        "nan_probe": ("knn", [[np.nan, 1.0, 1.0]], 3),
        "probe_2d": ("knn", [[10.0, 10.0]], 3),
        "k_zero": ("knn", [[10.0, 10.0, 10.0]], 0),
        "k_past_n": ("knn", [[10.0, 10.0, 10.0]], 500),
        "empty_range": ("range", np.empty((0, 2, 3)), None),
        "empty_knn": ("knn", np.empty((0, 3)), 3),
    }

    @pytest.mark.parametrize("case", list(HOSTILE))
    @pytest.mark.parametrize(
        "name",
        [
            "uniform_grid", "linear_scan", "multires_grid", "snapshot_grid",
            "rtree", "crtree", "octree", "rplus", "loose_octree",
        ],
    )
    def test_inline_and_batch_agree_on_hostile_input(self, loaded, name, case):
        """The heuristic may send any batch inline, so the scalar path must
        answer what the kernels answer, or raise the same exception type:
        inverted windows are empty intersections, ±inf window corners clamp
        to the universe, NaN, ±inf kNN points and wrong-dimension queries are
        refused.  ``snapshot_grid`` is a read-only grid rehydrated from a
        live grid's ``snapshot_export()``, whose scalar path is its batch
        kernel on one row."""
        items, _ = loaded
        if name == "snapshot_grid":
            grid = build_index("uniform_grid")
            grid.bulk_load(items)
            index = SnapshotGridIndex(*grid.snapshot_export())
        else:
            index = build_index(name)
            index.bulk_load(items)
        kind, payload, k = self.HOSTILE[case]
        payload = np.asarray(payload, dtype=np.float64)

        def ask(executor):
            session = QuerySession(index, executor=executor)
            try:
                if kind == "knn":
                    return _answers(session.knn(payload, k))
                if kind == "point":
                    return _answers(session.point_query(payload))
                return _answers(session.range_query(payload))
            except Exception as error:  # the type is the contract, not the text
                return type(error)

        inline, batch = ask(InlineExecutor()), ask(BatchExecutor())
        assert inline == batch
        if "nan" in case or "2d" in case or "inf_probe" in case:
            assert batch is ValueError
        if case == "inverted_window":
            assert batch == [[]]
        if case == "inf_window":
            assert batch == [sorted(index.batch_range_query(np.array([[[0.0] * 3, [100.0] * 3]]))[0])]

    #: The hostile cases every executor refuses with ValueError.
    REFUSED = [case for case in HOSTILE if "nan" in case or "2d" in case or "inf_probe" in case]

    @pytest.mark.parametrize("form", ["query", "array"])
    @pytest.mark.parametrize("case", REFUSED)
    def test_a_refused_request_fails_only_itself(self, loaded, case, form):
        """One hostile request among five good ones of its kind: the good
        ones answer what the oracle answers and only the bad one raises.  A
        NaN, or a kNN probe that is not finite, is refused at submission; a
        wrong-dimension query runs in a group of its own."""
        items, oracle = loaded
        index = build_index("uniform_grid")
        index.bulk_load(items)
        kind, bad, k = self.HOSTILE[case]
        bad = np.asarray(bad, dtype=np.float64)
        good = _good_rows(kind, items)
        session = QuerySession(index)
        if form == "query":
            handles = [session.submit(_query(kind, row, k)) for row in [*good[:2], bad[0], *good[2:]]]
            bad_handle = handles.pop(2)
            got = [handle.result() for handle in handles]
        else:
            first = _submit_array(session, kind, good[:2], k)
            bad_handle = _submit_array(session, kind, bad, k)
            got = first.result() + _submit_array(session, kind, good[2:], k).result()
        with pytest.raises(ValueError):
            bad_handle.result()
        assert _answers(got) == _answers(_oracle_rows(oracle, kind, good, k))

    @pytest.mark.serving
    @pytest.mark.parametrize("case", REFUSED)
    def test_a_refused_request_fails_only_itself_in_a_serving_frame(self, loaded, case):
        items, oracle = loaded
        index = build_index("uniform_grid")
        index.bulk_load(items)
        kind, bad, k = self.HOSTILE[case]
        good = _good_rows(kind, items)
        rows = [*good[:2], np.asarray(bad, dtype=np.float64)[0], *good[2:]]

        async def main():
            # Six rows never shard: the pool starts no process.
            with WorkerPool(workers=2) as pool:
                async with ServingSession(index, pool=pool, workers=2) as serving:
                    ask = {
                        "range": lambda row: serving.range_query(AABB(row[0], row[1])),
                        "point": serving.point_query,
                        "knn": lambda row: serving.knn(row, k),
                    }[kind]
                    return await asyncio.gather(*map(ask, rows), return_exceptions=True)

        answers = asyncio.run(main())
        assert isinstance(answers.pop(2), ValueError)
        assert _answers(answers) == _answers(_oracle_rows(oracle, kind, good, k))

    def test_default_heuristic_routes_by_size_and_capability(self, loaded):
        items, _ = loaded
        grid = build_index("uniform_grid")
        grid.bulk_load(items)
        session = QuerySession(grid)
        session.range_query(make_queries(2, seed=37))   # tiny → inline
        session.range_query(make_queries(30, seed=38))  # large → batch kernel
        assert session.stats.executor_runs == {"inline": 1, "batch": 1}

        loop_only = build_index("octree")  # no vectorized kernels
        loop_only.bulk_load(items)
        assert not loop_only.supports_batch_kind("range")
        session = QuerySession(loop_only)
        session.range_query(make_queries(30, seed=38))
        assert session.stats.executor_runs == {"inline": 1}

    def test_supports_batch_kind_probes(self, loaded):
        items, _ = loaded
        grid = build_index("uniform_grid")
        assert grid.supports_batch_kind("range")
        assert grid.supports_batch_kind("point")
        assert grid.supports_batch_kind("knn")
        with pytest.raises(ValueError):
            grid.supports_batch_kind("join")


class _RowSpy(BatchExecutor):
    """The batch executor, recording every row it is handed."""

    def __init__(self) -> None:
        self.rows: list[tuple[float, ...]] = []

    def run(self, index, batch):
        self.rows.extend(tuple(row) for row in batch.payload.reshape(batch.size, -1).tolist())
        return super().run(index, batch)


def _one_point_per_leaf(tree, candidates: np.ndarray, want: int) -> np.ndarray:
    """``want`` probes that a defeatist descent lands in ``want`` different
    leaves, so every executor scans one leaf per distinct probe."""
    chosen: list[np.ndarray] = []
    for point in candidates:
        before = tree.counters.leaves_scanned
        tree.approx_batch_knn(np.array(chosen + [point]), 6)
        if tree.counters.leaves_scanned - before == len(chosen) + 1:
            chosen.append(point)
            if len(chosen) == want:
                return np.array(chosen)
    raise AssertionError("too few leaves for the probe set")


def _good_rows(kind: str, items) -> np.ndarray:
    """Five well-formed 3-d rows of ``kind``: windows, or points."""
    if kind == "range":
        return np.array([[box.lo, box.hi] for box in make_queries(5, seed=49)])
    return np.array([items[i][1].center() for i in (3, 11, 29, 57, 101)])


def _query(kind: str, row: np.ndarray, k: int | None):
    if kind == "range":
        return RangeQuery(AABB(row[0], row[1]))
    return KNNQuery(row, k=k) if kind == "knn" else PointQuery(row)


def _submit_array(session: QuerySession, kind: str, rows: np.ndarray, k: int | None):
    if kind == "range":
        return session.submit_ranges(rows)
    return session.submit_knns(rows, k) if kind == "knn" else session.submit_points(rows)


def _oracle_rows(oracle: LinearScan, kind: str, rows: np.ndarray, k: int | None) -> list:
    if kind == "knn":
        return oracle.batch_knn(rows, k)
    return oracle.batch_range_query(rows if kind == "range" else np.stack([rows, rows], axis=1))


def _answers(results) -> list:
    """Range/point answers as sorted id lists, kNN answers via knn_pairs."""
    if results and results[0] and isinstance(results[0][0], tuple):
        return [knn_pairs(r) for r in results]
    return [sorted(r) for r in results]


class TestSessionDedupsAndCounts:
    """Executors answer, the session counts: one collapse of duplicate rows
    and one work diff per executor run, whatever the executor."""

    @pytest.mark.parametrize("kind", ["range", "point", "knn"])
    def test_executor_sees_each_distinct_row_once(self, loaded, kind):
        items, oracle = loaded
        grid = build_index("uniform_grid")
        grid.bulk_load(items)
        points = np.random.default_rng(45).uniform(5.0, 90.0, size=(6, 3))
        points[1, 0] = 0.0
        twin = points[1].copy()
        twin[0] = -0.0  # equal to row 1 by value, not by bytes
        payload = np.concatenate([points, points[::-1], [twin], points[:2]])
        spy = _RowSpy()
        session = QuerySession(grid, executor=spy)
        if kind == "range":
            payload = np.stack([payload, payload + 7.0], axis=1)
            got = session.range_query(payload)
            expected = [oracle.range_query(AABB(*row)) for row in payload]
        elif kind == "point":
            got = session.point_query(payload)
            expected = [oracle.range_query(AABB.from_point(row)) for row in payload]
        else:
            got = session.knn(payload, 3)
            expected = [oracle.knn(tuple(row), 3) for row in payload]
        assert len(spy.rows) == len(set(spy.rows)) == 6
        assert _answers(got) == _answers(expected)
        assert session.stats.batch.queries == len(payload)
        assert session.stats.batch.deduplicated == len(payload) - 6
        # Fanned-out answers are independent copies.
        got[0].append(-1)
        assert -1 not in got[11] and -1 not in got[13]  # rows 11 and 13 repeat row 0

    @pytest.mark.skipif(not HAVE_FORK, reason="needs the fork start method")
    def test_every_executor_reports_the_same_work(self, loaded):
        """Inline, batch and pooled sharded runs of one workload: identical
        answers and identical ``stats.batch``."""
        from repro.approx import SpillTree
        from repro.serving import WorkerPool

        items, _ = loaded
        grid = build_index("uniform_grid")
        grid.bulk_load(items)
        tree = SpillTree(tau=0.25, leaf_size=48)
        tree.bulk_load(make_items(600, seed=42, points=True))
        rng = np.random.default_rng(46)
        base = rng.uniform(5.0, 90.0, size=(12, 3))
        spanning = np.concatenate([base, base])  # each shard holds every row
        windows = np.stack([spanning, spanning + 6.0], axis=1)
        chunked = np.concatenate([windows, windows[:12] + 3.0])  # 16-row budget chunks
        probes = _one_point_per_leaf(tree, rng.uniform(0.0, 100.0, size=(400, 3)), 8)
        probes = np.concatenate([probes, probes[:4]])

        def run(executor):
            sessions = [QuerySession(grid, executor=executor),
                        QuerySession(grid, executor=executor, budget=12 * 1024),
                        QuerySession(tree, executor=executor)]
            queries, budgeted, spill = sessions
            answers = [
                queries.range_query(windows),
                queries.point_query(spanning),
                queries.knn(spanning, 4),
                budgeted.range_query(chunked),
                spill.knn(probes, 6, accuracy=0.5),
                spill.knn(probes, 6),
            ]
            return [_answers(a) for a in answers], [dataclasses.asdict(s.stats.batch) for s in sessions]

        with WorkerPool(workers=2) as pool:
            sharded = run(ShardedExecutor(workers=2, min_shard=4, pool=pool))
            assert pool.shards_run > 0
        inline, batch = run(InlineExecutor()), run(BatchExecutor())
        assert inline == batch == sharded
        stats = batch[1]
        assert stats[0]["deduplicated"] == 3 * 12
        # Dedup is per run: only the first chunk repeats rows (base[:4]).
        assert stats[1]["budget_chunks"] == 3 and stats[1]["deduplicated"] == 4
        assert stats[2]["approx_descents"] == stats[2]["leaves_scanned"] == 8
        assert stats[2]["deduplicated"] == 2 * 4 and stats[2]["recall_estimate"] < 1.0


@pytest.mark.skipif(not HAVE_FORK, reason="needs the fork start method")
class TestShardedExecutor:
    def test_sharded_matches_single_process_and_oracle(self, loaded):
        items, oracle = loaded
        grid = build_index("uniform_grid")
        grid.bulk_load(items)
        queries = make_queries(64, seed=40)
        points = np.asarray([q.lo for q in queries])

        sharded = QuerySession(grid, executor=ShardedExecutor(workers=2, min_shard=8))
        single = QuerySession(grid, executor=BatchExecutor())
        got_range = sharded.range_query(queries)
        assert [sorted(r) for r in got_range] == [
            sorted(r) for r in single.range_query(queries)
        ]
        for got, query in zip(got_range, queries):
            assert sorted(got) == sorted(oracle.range_query(query))
        assert [knn_pairs(r) for r in sharded.knn(points, 4)] == [
            knn_pairs(oracle.knn(tuple(p), 4)) for p in points
        ]
        assert sharded.stats.executor_runs == {"sharded": 2}

    def test_dedup_stats_propagate_from_shards(self, loaded):
        """Duplicate queries are answered once and counted in the session's
        tallies when the batch is sharded."""
        items, oracle = loaded
        grid = build_index("uniform_grid")
        grid.bulk_load(items)
        base = make_queries(8, seed=41)
        queries = [q for q in base for _ in range(4)]  # heavy duplication
        session = QuerySession(grid, executor=ShardedExecutor(workers=2, min_shard=4))
        results = session.range_query(queries)
        assert session.stats.batch.queries == len(queries)
        assert session.stats.batch.deduplicated > 0
        assert session.stats.batch.batches == 1  # one logical batch
        for got, query in zip(results, queries):
            assert sorted(got) == sorted(oracle.range_query(query))

    def test_cross_shard_dedup_executes_duplicates_once(self, loaded):
        """Duplicates that land in DIFFERENT shards must still collapse.

        The batch interleaves two copies of the same 8 queries so a
        contiguous 2-way split gives each shard 8 distinct queries —
        per-shard dedup alone would report 0.  Global (pre-partition) dedup
        must count all 8 duplicates and fan the unique results back out.
        """
        items, oracle = loaded
        grid = build_index("uniform_grid")
        grid.bulk_load(items)
        base = make_queries(8, seed=43)
        queries = base + base  # first shard = base, second shard = base again
        session = QuerySession(grid, executor=ShardedExecutor(workers=2, min_shard=4))
        results = session.range_query(queries)
        assert session.stats.batch.queries == len(queries)
        assert session.stats.batch.deduplicated >= len(base)
        for got, query in zip(results, queries):
            assert sorted(got) == sorted(oracle.range_query(query))
        # Fan-out must hand back independent copies.
        results[0].append(-1)
        assert -1 not in results[len(base)]

    @pytest.mark.parametrize("kind", ["range", "knn", "point"])
    @pytest.mark.parametrize("duplicates", [0, 5])
    @pytest.mark.parametrize("size", [15, 16, 40])  # min_shard=8: 16 rows shard
    def test_dedup_tallies_on_both_sides_of_the_shard_threshold(
        self, loaded, monkeypatch, size, duplicates, kind
    ):
        """Every executor run is deduplicated once, by the session, whether
        the batch shards or not; the tallies and every answer equal the
        single-process executor's."""
        import repro.engine.session as session_module

        items, _ = loaded
        grid = build_index("uniform_grid")
        grid.bulk_load(items)
        points = np.random.default_rng(44).uniform(5.0, 90.0, size=(size, 3))
        if duplicates:
            points[-duplicates:] = points[:duplicates]
        boxes = np.stack([points, points + 6.0], axis=1)
        collapses: list[int] = []
        collapse = session_module._distinct_rows

        def counting(payload):
            collapses.append(payload.shape[0])
            return collapse(payload)

        monkeypatch.setattr(session_module, "_distinct_rows", counting)

        def ask(session):
            if kind == "range":
                return session.range_query(boxes)
            if kind == "knn":
                return session.knn(points, 4)
            return session.point_query(points)

        sharded = QuerySession(grid, executor=ShardedExecutor(workers=2, min_shard=8))
        single = QuerySession(grid, executor=BatchExecutor())
        assert ask(sharded) == ask(single)
        assert sharded.stats.batch.queries == single.stats.batch.queries == size
        assert sharded.stats.batch.deduplicated == single.stats.batch.deduplicated == duplicates
        assert sharded.stats.batch.batches == 1
        assert collapses == [size, size]  # one run each, sharded then single

    def test_small_batches_fall_back_to_single_process(self, loaded):
        items, _ = loaded
        grid = build_index("uniform_grid")
        grid.bulk_load(items)
        executor = ShardedExecutor(workers=2, min_shard=10_000)
        session = QuerySession(grid, executor=executor)
        session.range_query(make_queries(12, seed=42))
        # Too small to shard: the executor ran its in-process fallback.
        assert session.stats.batch.batches == 1


class TestPublicApi:
    def test_curated_exports(self):
        import repro

        for name in (
            "QuerySession",
            "RangeQuery",
            "KNNQuery",
            "PointQuery",
            "ResultHandle",
            "InlineExecutor",
            "BatchExecutor",
            "ShardedExecutor",
            "INDEX_REGISTRY",
            "make_index",
            "available_indexes",
        ):
            assert name in repro.__all__, name
            assert hasattr(repro, name)

    def test_registry_builds_every_index(self):
        from repro.indexes.base import SpatialIndex

        for name in available_indexes():
            index = make_index(name)  # every entry constructs with defaults
            assert isinstance(index, INDEX_REGISTRY[name])
            assert isinstance(index, SpatialIndex)
        with pytest.raises(KeyError):
            make_index("no-such-index")


class TestSessionMatchesKernels:
    """The acceptance bar: session answers are byte-identical to the index's
    own batch kernels, point queries being zero-extent range queries."""

    @pytest.mark.parametrize("name", ["uniform_grid", "rtree", "multires_grid"])
    def test_range_and_knn_identical_to_kernels(self, name, loaded):
        items, _ = loaded
        index = build_index(name)
        index.bulk_load(items)
        queries = np.stack(
            [
                np.asarray([q.lo for q in make_queries(40, seed=44)]),
                np.asarray([q.hi for q in make_queries(40, seed=44)]),
            ],
            axis=1,
        )
        points = queries[:, 0, :]
        session = QuerySession(index)
        assert session.range_query(queries) == index.batch_range_query(queries)
        assert session.knn(points, 5) == index.batch_knn(points, 5)
        stabs = np.stack([points, points], axis=1)
        assert session.point_query(points) == index.batch_range_query(stabs)
