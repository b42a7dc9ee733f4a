"""The contract the query and join sessions share, pinned once for both.

``QuerySession`` and ``JoinSession`` differ in what a group is (queries of
one kind, ``k`` and accuracy; one join spec) and in how a group runs.
Everything around that is one contract, and every test here runs against
both sessions:

* reading any pending handle flushes the whole buffer (flush-on-read);
* a group that raises settles only its own handles, with its own error;
  the others resolve, and an explicit ``flush()`` re-raises the first error;
* a ``BaseException`` raised mid-flush propagates at once, and a handle the
  flush never settled raises ``RuntimeError`` on read instead of hanging;
* a settled handle drops its session; ``await`` without a waiter is the
  synchronous read;
* ``queue_high_water``, ``flush_seconds`` and the ``{query,join}.flushes`` /
  ``.flush.seconds`` / ``.queue.high_water`` metrics move as documented.

Faults are injected through the pins the sessions keep: a query session's
``executor=`` and a join spec's ``strategy=``.

:class:`TestTelemetryGolden` pins every session kind's ``stats`` (continuous
included) as a read-only view over the session's registry, against values
and report text frozen before the stats became views.
"""

from __future__ import annotations

import asyncio
import dataclasses
import itertools
import random
import types

import numpy as np
import pytest

from conftest import knn_pairs, make_items
from repro import (
    AABB,
    AsyncExecutor,
    BatchExecutor,
    ContinuousJoinSpec,
    ContinuousKNNQuery,
    ContinuousRangeQuery,
    ContinuousSession,
    DistanceJoinSpec,
    FlushPolicy,
    KNNQuery,
    PairJoinSpec,
    QuerySession,
    RangeQuery,
    UniformGrid,
)
from repro.analysis.session_report import session_report
from repro.approx import SpillTree
from repro.engine import BatchStats
from repro.indexes.linear_scan import LinearScan
from repro.instrumentation.counters import Counters
from repro.joins import CallableJoin, JoinSession, SelfJoinSpec
from repro.joins.strategies import NestedLoopJoin


class Boom(Exception):
    pass


class _FaultyExecutor(BatchExecutor):
    """The batch engine, except that a kNN batch whose ``k`` is in
    ``faults`` raises that error."""

    name = "faulty"

    def __init__(self, faults: dict) -> None:
        self.faults = faults

    def run(self, index, batch):
        if batch.k in self.faults:
            raise self.faults[batch.k]
        return super().run(index, batch)


class QueryRig:
    """Good requests are ``k=3`` kNN queries (one group); each failing
    request is a kNN query with a fresh ``k``, so it is a group of its own."""

    prefix = "query"

    def __init__(self) -> None:
        items = make_items(120, seed=91)
        self.grid = UniformGrid()
        self.grid.bulk_load(items)
        self.oracle = LinearScan()
        self.oracle.bulk_load(items)
        self.faults: dict = {}
        self._ks = itertools.count(4)

    def session(self) -> QuerySession:
        return QuerySession(self.grid, executor=_FaultyExecutor(self.faults))

    def submit(self, session, i: int):
        point = (10.0 + 7 * i, 20.0 + 3 * i, 30.0 + 5 * i)
        return session.submit(KNNQuery(point, k=3)), knn_pairs(self.oracle.knn(point, 3))

    def answer(self, value):
        return knn_pairs(value)

    def submit_failing(self, session, error: BaseException):
        k = next(self._ks)
        self.faults[k] = error
        return session.submit(KNNQuery((50.0, 50.0, 50.0), k=k))


class JoinRig:
    """Every spec is a group; a failing spec is pinned to a strategy that
    raises."""

    prefix = "join"

    def __init__(self) -> None:
        self.inputs = [make_items(40, seed=92 + i) for i in range(4)]

    def session(self) -> JoinSession:
        return JoinSession()

    def submit(self, session, i: int):
        items = self.inputs[i % len(self.inputs)]
        return session.submit(SelfJoinSpec(items)), sorted(
            NestedLoopJoin().self_join(items, Counters())
        )

    def answer(self, value):
        return value

    def submit_failing(self, session, error: BaseException):
        def explode(items_a, items_b, counters):
            raise error

        return session.submit(SelfJoinSpec(self.inputs[0]), strategy=CallableJoin(explode))


@pytest.fixture(params=[QueryRig, JoinRig], ids=["query", "join"])
def rig(request):
    return request.param()


class TestSessionCoreContract:
    def test_flush_on_read_settles_the_whole_buffer(self, rig):
        session = rig.session()
        submitted = [rig.submit(session, i) for i in range(3)]
        assert session.pending == 3
        assert not any(handle.resolved for handle, _ in submitted)
        last, expected = submitted[-1]
        assert rig.answer(last.result()) == expected  # read the last one first
        assert session.pending == 0
        assert all(handle.resolved for handle, _ in submitted)
        for handle, expected in submitted:
            assert rig.answer(handle.result()) == expected
        assert session.metrics.counter(f"{rig.prefix}.flushes").value == 1

    def test_a_failing_group_settles_only_its_own_handles(self, rig):
        session = rig.session()
        good, expected = rig.submit(session, 0)
        first, second = Boom("first"), Boom("second")
        bad_first = rig.submit_failing(session, first)
        bad_second = rig.submit_failing(session, second)
        good_later, expected_later = rig.submit(session, 1)
        with pytest.raises(Boom) as raised:
            session.flush()
        assert raised.value is first  # the first error, once all settled
        assert session.pending == 0
        for handle, error in ((bad_first, first), (bad_second, second)):
            assert handle.resolved
            with pytest.raises(Boom) as own:
                handle.result()
            assert own.value is error
        assert rig.answer(good.result()) == expected
        assert rig.answer(good_later.result()) == expected_later

    def test_a_read_reports_only_its_own_outcome(self, rig):
        session = rig.session()
        rig.submit_failing(session, Boom("elsewhere"))
        good, expected = rig.submit(session, 0)
        assert rig.answer(good.result()) == expected  # the flush raised; the read does not
        assert rig.answer(good.result()) == expected

    def test_base_exception_propagates_and_unreached_handles_raise(self, rig):
        session = rig.session()
        good, expected = rig.submit(session, 0)
        interrupted = rig.submit_failing(session, KeyboardInterrupt())
        unreached = rig.submit_failing(session, Boom("never runs"))
        with pytest.raises(KeyboardInterrupt):
            session.flush()
        assert rig.answer(good.result()) == expected
        for handle in (interrupted, unreached):
            assert not handle.resolved
            with pytest.raises(RuntimeError, match="flush did not settle this handle"):
                handle.result()
        assert session.metrics.counter(f"{rig.prefix}.flushes").value == 1
        # The session stays usable.
        again, expected_again = rig.submit(session, 1)
        assert rig.answer(again.result()) == expected_again

    def test_settled_handles_drop_their_session(self, rig):
        session = rig.session()
        good, _ = rig.submit(session, 0)
        bad = rig.submit_failing(session, Boom("bad"))
        assert good._session is session and bad._session is session
        with pytest.raises(Boom):
            session.flush()
        assert good._session is None and bad._session is None

    def test_await_without_a_waiter_is_the_synchronous_read(self, rig):
        session = rig.session()
        handle, expected = rig.submit(session, 0)

        async def read():
            return await handle

        assert rig.answer(asyncio.run(read())) == expected
        assert handle.resolved and session.pending == 0

    def test_queue_and_flush_telemetry(self, rig):
        session = rig.session()
        metrics, stats = session.metrics, session.stats
        flushes = metrics.counter(f"{rig.prefix}.flushes")
        seconds = metrics.histogram(f"{rig.prefix}.flush.seconds")
        high_water = metrics.gauge(f"{rig.prefix}.queue.high_water")
        session.flush()  # nothing buffered: not a flush
        assert flushes.value == 0 and seconds.count == 0 and stats.flush_seconds == 0.0
        for i in range(3):
            rig.submit(session, i)
        assert stats.queue_high_water == high_water.value == 3
        session.flush()
        assert flushes.value == 1 and seconds.count == 1
        assert stats.flush_seconds > 0.0
        spent = stats.flush_seconds
        rig.submit(session, 0)
        session.flush()
        assert flushes.value == 2 and seconds.count == 2
        assert stats.flush_seconds > spent
        assert stats.queue_high_water == high_water.value == 3  # a gauge of the deepest
        bad = rig.submit_failing(session, Boom("telemetry"))
        with pytest.raises(Boom):
            session.flush()
        assert bad.resolved and flushes.value == 3 and seconds.count == 3


# -- the telemetry golden --------------------------------------------------------
#
# One scripted, seeded workload over every session kind.  Its stats and its
# session_report text were captured on the commit before the stats became
# views over the registry and are frozen below: the view must read the same
# values, of the same types, with dicts in the same key order, and render the
# same report byte for byte.  Flush wall clock is made deterministic by a fake
# clock (every perf_counter call advances it by 1/8 s), so ``flush_seconds``
# and the serving line's ``flush-wall`` are frozen too.

QUERY_FIELDS = (
    "flushes", "queue_high_water", "flush_triggers", "flush_seconds",
    "submitted", "executor_runs",
)
JOIN_FIELDS = (
    "flushes", "queue_high_water", "flush_triggers", "flush_seconds",
    "joins", "candidates", "pairs", "refined", "comparisons",
    "tiles_spilled", "spill_bytes_written", "spill_bytes_read",
    "zero_copy_reads", "mapped_bytes", "budget_high_water", "strategy_runs",
)
CONTINUOUS_FIELDS = (
    "ticks", "updates", "deltas", "empty_deltas", "results_added",
    "results_removed", "pairs_added", "pairs_removed", "resyncs", "faults",
    "policy_routes",
)


class _FakeClock:
    def __init__(self) -> None:
        self._ticks = itertools.count()

    def perf_counter(self) -> float:
        return next(self._ticks) / 8


def _windows(rng: np.random.Generator, count: int, side: float) -> np.ndarray:
    lo = rng.uniform(0.0, 100.0 - side, size=(count, 3))
    return np.stack([lo, lo + side], axis=1)


def _continuous_session(rng: random.Random) -> ContinuousSession:
    """Range, kNN and join subscriptions, one pinned to recompute; the
    third tick faults the join (its refine raises), the fourth resyncs it."""
    explode = {"on": False}

    def refine(a: int, b: int) -> bool:
        if explode["on"]:
            raise Boom("refine")
        return True

    session = ContinuousSession(make_items(80, seed=31), AABB((0.0,) * 3, (100.0,) * 3),
                                policy="incremental")
    session.subscribe(ContinuousJoinSpec(epsilon=1.5, refine=refine))
    session.subscribe(ContinuousRangeQuery(AABB((10, 10, 10), (60, 60, 60))))
    session.subscribe(ContinuousKNNQuery((40.0, 40.0, 40.0), k=5), policy="recompute")
    for tick in range(5):
        state = dict(session.state_items())
        updates = []
        for eid in rng.sample(sorted(state), k=8):
            old = state[eid]
            lo = [50.0 + rng.uniform(-1.0, 1.0) for _ in range(3)]
            updates.append((eid, old, AABB(lo, [c + h - l for c, l, h in zip(lo, old.lo, old.hi)])))
        explode["on"] = tick == 2
        try:
            session.tick(updates)
        except Boom:
            assert tick == 2
    return session


async def _serve(queries: QuerySession, joins: JoinSession, grid_items) -> None:
    rng = np.random.default_rng(44)
    async with AsyncExecutor(queries, FlushPolicy(max_batch=8)) as front:
        for burst in (3, 12, 1):  # flushed as: idle, full, idle
            boxes = _windows(rng, burst, 8.0)
            handles = [await front.submit(RangeQuery(AABB(b[0], b[1]))) for b in boxes]
            for handle in handles:
                await handle
        handle = await front.submit_ranges(_windows(rng, 20, 6.0))  # full
        await handle
    async with AsyncExecutor(joins, FlushPolicy(max_batch=2)) as front:
        handles = [await front.submit(SelfJoinSpec(grid_items[:50])) for _ in range(3)]
        for handle in handles:
            await handle


def telemetry_workload() -> dict:
    """Every session the golden covers, after its scripted run."""
    rng = np.random.default_rng(7)
    items = make_items(400, seed=41)
    grid = UniformGrid()
    grid.bulk_load(items)

    # Inline and batched groups, deduplicated and budget-chunked.
    queries = QuerySession(grid, budget=16 * 1024)
    handles = [queries.submit(RangeQuery(AABB(b[0], b[1]))) for b in _windows(rng, 3, 10.0)]
    for handle in handles:
        handle.result()
    windows = _windows(rng, 40, 12.0)
    queries.range_query(np.concatenate([windows, windows[:24]]))
    points = rng.uniform(0.0, 100.0, size=(30, 3))
    queries.knn(np.concatenate([points, points[:10]]), 4)
    queries.point_query(points[:3])

    # An approximate-kNN route on a spill tree (recall_estimate moves).
    tree = SpillTree(tau=0.25, leaf_size=48)
    tree.bulk_load(make_items(600, seed=42, points=True))
    approx = QuerySession(tree)
    approx.knn(rng.uniform(0.0, 100.0, size=(40, 3)), 6, accuracy=0.5)
    approx.knn(rng.uniform(0.0, 100.0, size=(10, 3)), 6)

    # A spilled pair join beside in-memory self and distance joins.
    joins = JoinSession(budget=64 * 1024)
    joins.run(PairJoinSpec(make_items(500, seed=43), make_items(500, seed=44)))
    joins.run(SelfJoinSpec(items[:40]))
    with JoinSession() as distance:
        distance.run(DistanceJoinSpec(items[:200], items[200:], 1.0))
        distance.run(SelfJoinSpec(items[:30]))
    joins.close()

    continuous = _continuous_session(random.Random(2))

    serving_queries, serving_joins = QuerySession(grid), JoinSession()
    asyncio.run(_serve(serving_queries, serving_joins, items))

    return {
        "queries": queries, "approx": approx, "joins": joins, "distance": distance,
        "continuous": continuous, "serving_queries": serving_queries,
        "serving_joins": serving_joins,
    }


def _fields(session) -> tuple[str, ...]:
    if isinstance(session, JoinSession):
        return JOIN_FIELDS
    if isinstance(session, ContinuousSession):
        return CONTINUOUS_FIELDS
    return QUERY_FIELDS


def telemetry_capture(sessions: dict) -> dict:
    """Each session's stats attributes (``batch`` as a field dict) and its
    ``session_report`` text."""
    out = {}
    for name, session in sessions.items():
        stats = session.stats
        values = {field: getattr(stats, field) for field in _fields(session)}
        if isinstance(session, QuerySession):
            values["batch"] = dataclasses.asdict(stats.batch)
        out[name] = (values, session_report(session))
    return out


#: The capture, frozen: each session's stats attributes (``batch`` as its
#: field dict), in attribute order.
GOLDEN_STATS = {
    "queries": {
        "flushes": 4,
        "queue_high_water": 64,
        "flush_triggers": {},
        "flush_seconds": 0.5,
        "submitted": 110,
        "executor_runs": {"inline": 2, "batch": 2},
        "batch": {
            "batches": 4,
            "queries": 110,
            "deduplicated": 10,
            "budget_chunks": 4,
            "tiles_spilled": 0,
            "spill_bytes_written": 0,
            "spill_bytes_read": 0,
            "zero_copy_reads": 0,
            "mapped_bytes": 0,
            "budget_high_water": 16128,
            "approx_descents": 0,
            "leaves_scanned": 0,
            "recall_estimate": 1.0,
        },
    },
    "approx": {
        "flushes": 2,
        "queue_high_water": 40,
        "flush_triggers": {},
        "flush_seconds": 0.25,
        "submitted": 50,
        "executor_runs": {"batch": 2},
        "batch": {
            "batches": 2,
            "queries": 50,
            "deduplicated": 0,
            "budget_chunks": 0,
            "tiles_spilled": 0,
            "spill_bytes_written": 0,
            "spill_bytes_read": 0,
            "zero_copy_reads": 0,
            "mapped_bytes": 0,
            "budget_high_water": 0,
            "approx_descents": 40,
            "leaves_scanned": 26,
            "recall_estimate": 0.9752604166666666,
        },
    },
    "joins": {
        "flushes": 2,
        "queue_high_water": 1,
        "flush_triggers": {},
        "flush_seconds": 0.25,
        "joins": 2,
        "candidates": 12,
        "pairs": 12,
        "refined": 0,
        "comparisons": 2828,
        "tiles_spilled": 12,
        "spill_bytes_written": 84928,
        "spill_bytes_read": 84928,
        "zero_copy_reads": 12,
        "mapped_bytes": 84928,
        "budget_high_water": 65728,
        "strategy_runs": {"pbsm_spill": 1, "nested_loop": 1},
    },
    "distance": {
        "flushes": 2,
        "queue_high_water": 1,
        "flush_triggers": {},
        "flush_seconds": 0.25,
        "joins": 2,
        "candidates": 3,
        "pairs": 3,
        "refined": 3,
        "comparisons": 1158,
        "tiles_spilled": 0,
        "spill_bytes_written": 0,
        "spill_bytes_read": 0,
        "zero_copy_reads": 0,
        "mapped_bytes": 0,
        "budget_high_water": 0,
        "strategy_runs": {"grid": 1, "nested_loop": 1},
    },
    "continuous": {
        "ticks": 5,
        "updates": 40,
        "deltas": 14,
        "empty_deltas": 0,
        "results_added": 41,
        "results_removed": 10,
        "pairs_added": 547,
        "pairs_removed": 6,
        "resyncs": 1,
        "faults": 1,
        "policy_routes": {"incremental": 8, "recompute": 5, "resync": 1},
    },
    "serving_queries": {
        "flushes": 4,
        "queue_high_water": 20,
        "flush_triggers": {"idle": 2, "full": 2},
        "flush_seconds": 0.5,
        "submitted": 36,
        "executor_runs": {"inline": 2, "batch": 2},
        "batch": {
            "batches": 4,
            "queries": 36,
            "deduplicated": 0,
            "budget_chunks": 0,
            "tiles_spilled": 0,
            "spill_bytes_written": 0,
            "spill_bytes_read": 0,
            "zero_copy_reads": 0,
            "mapped_bytes": 0,
            "budget_high_water": 0,
            "approx_descents": 0,
            "leaves_scanned": 0,
            "recall_estimate": 1.0,
        },
    },
    "serving_joins": {
        "flushes": 1,
        "queue_high_water": 3,
        "flush_triggers": {"full": 1},
        "flush_seconds": 0.125,
        "joins": 3,
        "candidates": 0,
        "pairs": 0,
        "refined": 0,
        "comparisons": 3675,
        "tiles_spilled": 0,
        "spill_bytes_written": 0,
        "spill_bytes_read": 0,
        "zero_copy_reads": 0,
        "mapped_bytes": 0,
        "budget_high_water": 0,
        "strategy_runs": {"nested_loop": 3},
    },
}

#: Each session's ``session_report`` text, frozen.
GOLDEN_REPORTS = {
    "queries": (
        "queries=110 submitted=110 flushes=4 batches=4 dedup=10 (9.1%)\n"
        "spill: tiles=0 written=0B read=0B budget-high-water=16,128B chunks=4\n"
        "serving: triggers=- queue-high-water=64 flush-wall=0.500s\n"
        "executor  batches  share %  routing\n"
        "--------  -------  -------  --------------------\n"
        "inline          2       50  ##########..........\n"
        "batch           2       50  ##########.........."
    ),
    "approx": (
        "queries=50 submitted=50 flushes=2 batches=2 dedup=0 (0.0%)\n"
        "approx: descents=40 leaves-scanned=26 (0.65/query) recall-est>=0.975\n"
        "serving: triggers=- queue-high-water=40 flush-wall=0.250s\n"
        "executor  batches  share %  routing\n"
        "--------  -------  -------  --------------------\n"
        "batch           2      100  ####################"
    ),
    "joins": (
        "joins=2 candidates=12 refined=0 pairs=12 comparisons=2,828\n"
        "spill: tiles=12 written=84,928B read=84,928B budget-high-water=65,728B\n"
        "mapped: views=12 bytes=84,928B\n"
        "serving: triggers=- queue-high-water=1 flush-wall=0.250s\n"
        "strategy     joins  share %  routing\n"
        "-----------  -----  -------  --------------------\n"
        "pbsm_spill       1       50  ##########..........\n"
        "nested_loop      1       50  ##########.........."
    ),
    "distance": (
        "joins=2 candidates=3 refined=3 pairs=3 comparisons=1,158\n"
        "serving: triggers=- queue-high-water=1 flush-wall=0.250s\n"
        "strategy     joins  share %  routing\n"
        "-----------  -----  -------  --------------------\n"
        "grid             1       50  ##########..........\n"
        "nested_loop      1       50  ##########.........."
    ),
    "continuous": (
        "ticks=5 subscriptions=3 updates=40 deltas=14 (empty=0)\n"
        "delta volume: results +41/-10 pairs +547/-6\n"
        "safe regions: hits=0 invalidations=8 (0.0% held)\n"
        "faults=1 resyncs=1\n"
        "policy       evaluations  share %  routing\n"
        "-----------  -----------  -------  --------------------\n"
        "incremental            8    57.14  ###########.........\n"
        "recompute              5    35.71  #######.............\n"
        "resync                 1    7.143  #..................."
    ),
    "serving_queries": (
        "queries=36 submitted=36 flushes=4 batches=4 dedup=0 (0.0%)\n"
        "serving: triggers=full:2,idle:2 queue-high-water=20 flush-wall=0.500s\n"
        "executor  batches  share %  routing\n"
        "--------  -------  -------  --------------------\n"
        "inline          2       50  ##########..........\n"
        "batch           2       50  ##########.........."
    ),
    "serving_joins": (
        "joins=3 candidates=0 refined=0 pairs=0 comparisons=3,675\n"
        "serving: triggers=full:1 queue-high-water=3 flush-wall=0.125s\n"
        "strategy     joins  share %  routing\n"
        "-----------  -----  -------  --------------------\n"
        "nested_loop      3      100  ####################"
    ),
}


@pytest.fixture(scope="module")
def golden_sessions():
    with pytest.MonkeyPatch.context() as patch:
        for module in ("repro.engine.core", "repro.serving.async_executor"):
            patch.setattr(f"{module}.time", types.SimpleNamespace(perf_counter=_FakeClock().perf_counter))
        return telemetry_workload()


def _tally(metrics, head: str) -> dict[str, int]:
    return {
        name[len(head):]: data["value"]
        for name, data in metrics.snapshot().items()
        if name.startswith(head)
    }


def _registry_reads(session) -> dict:
    """What each stats attribute must equal, read off the session's registry
    (``batch`` as a field dict)."""
    m = session.metrics
    if isinstance(session, ContinuousSession):
        routes = _tally(m, "continuous.route.")
        plain = ("ticks", "updates", "empty_deltas", "results_added",
                 "results_removed", "pairs_added", "pairs_removed", "faults")
        reads = {field: m.value(f"continuous.{field}") for field in plain}
        reads.update(policy_routes=routes, deltas=sum(routes.values()),
                     resyncs=routes.get("resync", 0))
        return reads
    prefix = "join" if isinstance(session, JoinSession) else "query"
    reads = {
        "flushes": m.value(f"{prefix}.flushes"),
        "queue_high_water": m.value(f"{prefix}.queue.high_water"),
        "flush_seconds": m.histogram(f"{prefix}.flush.seconds").total,
        "flush_triggers": _tally(m, "serving.flush.trigger."),
    }
    if isinstance(session, JoinSession):
        for field in JOIN_FIELDS[4:-1]:
            reads[field] = m.value(f"join.{field}")
        reads.update(joins=m.value("join.specs"), strategy_runs=_tally(m, "join.strategy."))
        return reads
    batch = {field.name: m.value(f"query.batch.{field.name}")
             for field in dataclasses.fields(BatchStats)}
    batch["recall_estimate"] = m.value("query.batch.recall_estimate", 1.0)
    reads.update(submitted=m.value("query.submitted"),
                 executor_runs=_tally(m, "query.executor."), batch=batch)
    return reads


class TestTelemetryGolden:
    def test_stats_and_reports_match_the_frozen_capture(self, golden_sessions):
        captured = telemetry_capture(golden_sessions)
        assert list(captured) == list(GOLDEN_STATS)
        for name, (values, report) in captured.items():
            frozen = GOLDEN_STATS[name]
            assert list(values) == list(frozen)
            for field, value in values.items():
                want = frozen[field]
                assert type(value) is type(want), (name, field)
                assert value == want, (name, field)
                if isinstance(want, dict):  # first-use key order
                    assert list(value.items()) == list(want.items()), (name, field)
            if isinstance(golden_sessions[name], QuerySession):
                assert type(golden_sessions[name].stats.batch) is BatchStats
            assert report == GOLDEN_REPORTS[name], name

    def test_each_attribute_reads_its_registry_metric(self, golden_sessions):
        for name, session in golden_sessions.items():
            values, _ = telemetry_capture({name: session})[name]
            assert values == _registry_reads(session), name

    def test_stats_are_read_only(self, golden_sessions):
        for name, session in golden_sessions.items():
            stats = session.stats
            for field in _fields(session) + (("batch",) if isinstance(session, QuerySession) else ()):
                with pytest.raises(AttributeError):
                    setattr(stats, field, getattr(stats, field))
