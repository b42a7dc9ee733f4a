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
"""

from __future__ import annotations

import asyncio
import itertools

import pytest

from conftest import knn_pairs, make_items
from repro import BatchExecutor, KNNQuery, QuerySession, UniformGrid
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

    def run(self, index, batch, *, dedup):
        if batch.k in self.faults:
            raise self.faults[batch.k]
        return super().run(index, batch, dedup=dedup)


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
