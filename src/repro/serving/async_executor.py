"""Event-loop executors: asyncio front ends over the session layer.

A session batches best when many requests land between flushes; an event
loop interleaves many client tasks naturally.  :class:`AsyncExecutor`
connects the two with a *flush policy*:

* **batch under load** — submissions buffer in the session exactly as in
  synchronous use; concurrent client tasks coalesce into one flush;
* **flush on idle** — when the event loop goes quiet (a scheduling pass
  adds no new submissions), pending work flushes immediately instead of
  waiting out a timer;
* **latency budget** — no request waits longer than
  :attr:`FlushPolicy.max_delay` for stragglers, and a queue reaching
  :attr:`FlushPolicy.max_batch` flushes at once;
* **a batch by itself is its own flush** — an array submission whose row
  count alone reaches :attr:`FlushPolicy.max_batch`, and which the session
  would answer from the worker pool, never enters the queue: it runs as a
  one-submission flush (cause ``"full"``) on its own thread hop, beside the
  queue's flushes, and nobody queues behind it.  Coalescing exists to turn
  many small requests into one batch and has nothing to offer a request
  that is one; sharing a flush with it would make every small request wait
  out its execution while this process, the only one that can answer them,
  idles on a pipe.  An array the session would execute in-process rides
  the queue like everything else — in-process kernels never overlap.

A submission buffers at call time and gets an asyncio future, settled by
its flush with the value or the error: ``await handle`` parks on it, and
:class:`ServingSession`'s request methods return it, so a frame costs no
task per request.  A query queue no deeper than
:attr:`FlushPolicy.max_batch` whose flush lock is free flushes on the loop
thread: its work is bounded by one batch, and a hop's two wake-ups would
cost a small frame a tenth of its time.  Every other flush hops to a
worker thread while the loop keeps accepting submissions: one that would
wait for the lock (the loop never blocks on it), a join (one spec's work
has no bound), a deeper queue, and an own flush.  No order is promised
across handles — an own-flush array may settle after requests submitted
later — and every answer reflects the index as it was when its flush
executed.  Each flush's cause and wall clock are counted once, in the session's
registry (``serving.flush.trigger.<cause>``, ``serving.flush.seconds``),
which the session's ``stats`` and
:func:`repro.analysis.session_report.session_report` read.
"""

from __future__ import annotations

import asyncio
import time
from dataclasses import dataclass
from typing import Any, Sequence

from repro.engine.session import KNNQuery, PointQuery, Query, QuerySession, RangeQuery, ResultHandle
from repro.geometry.aabb import AABB
from repro.indexes.base import KNNResult, SpatialIndex
from repro.joins.session import JoinHandle, JoinSession
from repro.joins.spec import JoinSpec
from repro.obs import get_tracer, global_registry, render_json, render_prometheus
from repro.obs import span as _span


@dataclass(frozen=True)
class FlushPolicy:
    """When the event-loop flusher commits the buffered queue.

    ``max_batch`` bounds queue depth (reaching it flushes with cause
    ``"full"``); ``max_delay`` is the latency budget in seconds (cause
    ``"deadline"``); ``idle_flush`` flushes as soon as a scheduling pass
    adds nothing new (cause ``"idle"`` — the flush-on-submit-when-idle
    behaviour).  Disable ``idle_flush`` to maximize batch size under a
    pure latency budget.

    The fourth rule follows from ``max_batch`` and takes no setting: a
    submission that fills a batch by itself is its own flush and nobody
    queues behind it (see the module docstring for when that applies).
    """

    max_batch: int = 1024
    max_delay: float = 0.002
    idle_flush: bool = True

    def __post_init__(self) -> None:
        if self.max_batch < 1:
            raise ValueError(f"max_batch must be >= 1, got {self.max_batch}")
        if self.max_delay < 0:
            raise ValueError(f"max_delay must be >= 0, got {self.max_delay}")


class AsyncExecutor:
    """Drives one session's flushes from the event loop.

    Wraps a :class:`~repro.engine.session.QuerySession` or
    :class:`~repro.joins.session.JoinSession`; ``submit*`` mirrors the
    session's surface but returns handles that are safe to ``await``.  One
    flusher task owns the queue's flush timing; submissions never flush
    inline, so a client task's latency is (time to next flush) + (its share
    of one batched execution) rather than one full execution per request.
    Batch-sized arrays bound for the worker pool each get a task of their
    own instead (:meth:`_submit_array`).
    """

    def __init__(self, session: QuerySession | JoinSession, policy: FlushPolicy | None = None) -> None:
        self.session = session
        self.policy = policy if policy is not None else FlushPolicy()
        self._pending: list[Any] = []  # queued handles whose waiters we complete
        self._own_flushes: set[asyncio.Task] = set()  # in flight, one handle each
        self._seq = 0
        self._wake: asyncio.Event | None = None
        self._flusher: asyncio.Task | None = None
        self._closed = False

    # -- submission ------------------------------------------------------------

    def _register(self, handle):
        loop = asyncio.get_running_loop()
        if self._wake is None:
            self._wake = asyncio.Event()
        if self._flusher is None or self._flusher.done():
            if self._closed:
                raise RuntimeError("AsyncExecutor is closed")
            self._flusher = loop.create_task(self._run_flusher())
        handle._waiter = loop.create_future()
        if handle.resolved:  # refused at submission: settled, never queued
            self._wake_client(handle)
            return handle
        self._pending.append(handle)
        self._seq += 1
        self._wake.set()
        return handle

    def request(self, request: Query | JoinSpec, *args: Any) -> asyncio.Future:
        """Buffer one query value or join spec now; returns the future its
        flush settles with the answer or the error."""
        return self._register(self.session.submit(request, *args))._waiter

    async def submit(self, request: Query | JoinSpec, *args: Any, **kwargs: Any):
        """Buffer one query value or join spec; returns an awaitable handle."""
        return self._register(self.session.submit(request, *args, **kwargs))

    async def submit_ranges(self, boxes, tag: Any = None) -> ResultHandle:
        return self._submit_array(self.session.array_submission("range", boxes, tag=tag))

    async def submit_knns(self, points, k: int, tag: Any = None) -> ResultHandle:
        return self._submit_array(self.session.array_submission("knn", points, k=k, tag=tag))

    async def submit_points(self, points, tag: Any = None) -> ResultHandle:
        return self._submit_array(self.session.array_submission("point", points, tag=tag))

    def _submit_array(self, submission) -> ResultHandle:
        """Queue an array submission — unless it is a batch by itself that
        the session will run off-process: that one flushes on its own."""
        if self._closed:
            raise RuntimeError("AsyncExecutor is closed")
        fills_a_batch = submission.payload.shape[0] >= self.policy.max_batch
        if not (fills_a_batch and self.session.claim_alone(submission)):
            return self._register(self.session.enqueue(submission))
        loop = asyncio.get_running_loop()
        submission.handle._waiter = loop.create_future()
        task = loop.create_task(self._flush_alone(submission))
        self._own_flushes.add(task)
        task.add_done_callback(self._own_flushes.discard)
        return submission.handle

    @property
    def pending(self) -> int:
        """Requests submitted through this executor and not yet settled."""
        return len(self._pending) + len(self._own_flushes)

    # -- the flusher -----------------------------------------------------------

    async def _run_flusher(self) -> None:
        assert self._wake is not None
        loop = asyncio.get_running_loop()
        while not self._closed:
            await self._wake.wait()
            self._wake.clear()
            if self._closed:
                break
            if not self._pending:
                continue
            deadline = loop.time() + self.policy.max_delay
            trigger = "deadline"
            while True:
                if self.session.pending >= self.policy.max_batch:
                    trigger = "full"
                    break
                seq_before = self._seq
                # One scheduling pass: every runnable client task gets to
                # submit.  If none did, the loop is idle — flush now.
                await asyncio.sleep(0)
                if self.policy.idle_flush and self._seq == seq_before:
                    trigger = "idle"
                    break
                remaining = deadline - loop.time()
                if remaining <= 0:
                    trigger = "deadline"
                    break
                if self._seq == seq_before:
                    # Not idle-flushing: nothing new this pass, so yield for
                    # a real slice of the budget instead of spinning.
                    await asyncio.sleep(min(remaining, self.policy.max_delay / 4))
            await self._flush_once(trigger)

    async def _flush_once(self, trigger: str) -> None:
        # Flush only for work: something buffered, or a registered handle a
        # flush on another thread drained and has yet to settle (session.flush
        # waits that flush out).
        if self.session.pending or not all(handle.resolved for handle in self._pending):
            queries = isinstance(self.session, QuerySession)  # a join's work has no bound
            here = queries and self.session.pending <= self.policy.max_batch
            await self._flush(trigger, len(self._pending), self.session.flush, here=here)
        # A flush on a thread hop drains the buffer when it starts, so it also
        # executed whatever was submitted after the hop began: wake every
        # settled handle, not only those registered before it.
        waiting = []
        for handle in self._pending:
            if handle.resolved:
                self._wake_client(handle)
            else:
                waiting.append(handle)
        self._pending = waiting

    async def _flush_alone(self, submission) -> None:
        # Off the flusher and off the session's flush lock: the queue keeps
        # flushing frames while the pool works on this batch.
        await self._flush("full", 1, self.session.flush_alone, submission)
        self._wake_client(submission.handle)

    async def _flush(self, trigger: str, requests: int, flush, *args, here: bool = False) -> None:
        """One flush, timed, traced and attributed: on the loop thread if
        ``here`` and the flush lock is free, else on a thread hop."""
        start = time.perf_counter()
        try:
            with _span("serving.flush", trigger=trigger, requests=requests):
                if not (here and flush(*args, blocking=False)):
                    await asyncio.to_thread(flush, *args)
        except Exception:
            # The session already settled each affected handle with its
            # error; per-request `await handle` re-raises it.  The flush-
            # level exception has no other consumer here.
            pass
        elapsed = time.perf_counter() - start
        metrics = self.session.metrics
        metrics.counter(f"serving.flush.trigger.{trigger}").inc()
        metrics.histogram("serving.flush.seconds").observe(elapsed)

    @staticmethod
    def _wake_client(handle) -> None:
        """Settle the request's future with its handle's value or error."""
        waiter = handle._waiter
        if waiter is None or waiter.done():
            return
        if handle._error is None:
            waiter.set_result(handle._value)
        else:
            waiter.set_exception(handle._error)
            waiter.exception()  # retrieved: a result() read must not leave it to log

    # -- telemetry -------------------------------------------------------------

    def latency_summary(self) -> dict[str, float]:
        """Flush count and p50/p99/max wall-clock latency in seconds, from
        the session's ``serving.flush.seconds`` histogram.  ``max`` is
        exact; p50 and p99 are interpolated inside their bucket, so they are
        within one bucket (under a factor of two) of the true value."""
        digest = self.session.metrics.histogram("serving.flush.seconds").summary()
        return {"flushes": digest["count"], **{q: digest[q] for q in ("p50", "p99", "max")}}

    # -- lifecycle -------------------------------------------------------------

    async def aclose(self) -> None:
        """Flush stragglers, wait out in-flight own-flushes and stop the
        flusher (idempotent)."""
        closing = not self._closed
        self._closed = True
        if self._wake is not None:
            self._wake.set()
        if self._flusher is not None:
            await self._flusher
            self._flusher = None
        if closing:
            await self._flush_once("close")
        if self._own_flushes:
            await asyncio.gather(*self._own_flushes)

    async def __aenter__(self) -> "AsyncExecutor":
        return self

    async def __aexit__(self, *exc_info: object) -> None:
        await self.aclose()


class ServingSession:
    """The "heavy traffic" front door: async queries + joins.

    Bundles a :class:`~repro.engine.session.QuerySession` — its shards
    routed through one persistent :class:`~repro.serving.pool.WorkerPool` —
    and a plain :class:`~repro.joins.session.JoinSession`, whose flushes run
    in-process on a worker thread.  Each request method submits when called
    and returns its answer's future (no task per request); N clients share
    the two flushers, so concurrent requests batch into few executor runs
    while each client just awaits its own answer::

        async with ServingSession(index) as serving:
            ids = await serving.range_query(box)
            nn = await serving.knn((1.0, 2.0, 3.0), k=8)
            pairs = await serving.join(SelfJoinSpec(items))
            frame = await asyncio.gather(*(serving.range_query(b) for b in boxes))

    The pool is shared (the process-wide default unless one is passed) and
    is therefore *not* closed with the session.
    """

    def __init__(
        self,
        index: SpatialIndex,
        *,
        pool=None,
        policy: FlushPolicy | None = None,
        workers: int | None = None,
        min_shard: int = 512,
    ) -> None:
        from repro.engine.session import ShardedExecutor
        from repro.serving.pool import default_pool

        self.pool = pool if pool is not None else default_pool()
        self.index = index
        # Shard as wide as the pool actually is — not as wide as the CPU
        # count the executor would otherwise assume.
        workers = workers if workers is not None else self.pool.workers
        self.queries = QuerySession(
            index, executor=ShardedExecutor(workers=workers, min_shard=min_shard, pool=self.pool)
        )
        self.joins = JoinSession()
        self.query_executor = AsyncExecutor(self.queries, policy)
        self.join_executor = AsyncExecutor(self.joins, policy)

    # -- request surface: each call submits and returns its answer's future --

    def range_query(self, box: AABB) -> "asyncio.Future[list[int]]":
        return self.query_executor.request(RangeQuery(box))

    def knn(self, point: Sequence[float], k: int) -> "asyncio.Future[KNNResult]":
        return self.query_executor.request(KNNQuery(point, k=k))

    def point_query(self, point: Sequence[float]) -> "asyncio.Future[list[int]]":
        return self.query_executor.request(PointQuery(point))

    def join(self, spec: JoinSpec, strategy: Any = None) -> asyncio.Future:
        return self.join_executor.request(spec, strategy)

    async def submit(self, request: Query | JoinSpec) -> ResultHandle | JoinHandle:
        """Route a query value or join spec to the right executor."""
        if isinstance(request, (RangeQuery, KNNQuery, PointQuery)):
            return await self.query_executor.submit(request)
        return await self.join_executor.submit(request)

    # -- observability ---------------------------------------------------------

    def dump_metrics(self) -> dict[str, dict]:
        """One merged snapshot of everything this session can see: the
        query session's registry, the join session's registry, and the
        process-global registry (storage/spill/approx layers plus the
        worker-side deltas the pool merged back).  Counters and histogram
        buckets add; gauges keep their max."""
        from repro.obs import MetricsRegistry

        merged = MetricsRegistry()
        merged.merge_snapshot(self.queries.metrics.snapshot())
        merged.merge_snapshot(self.joins.metrics.snapshot())
        merged.merge_snapshot(global_registry().snapshot())
        return merged.snapshot()

    def metrics_text(self) -> str:
        """The merged snapshot in Prometheus text exposition format."""
        return render_prometheus(self.dump_metrics())

    def metrics_json(self, indent: int | None = None) -> str:
        """The merged snapshot as JSON (histograms keep p50/p95/p99)."""
        return render_json(self.dump_metrics(), indent=indent)

    def export_trace(self, path: str | None = None) -> list[dict]:
        """This process's collected spans as Chrome ``trace_event`` JSON
        (worker spans arrive here via the pool's telemetry merge)."""
        return get_tracer().export_chrome(path)

    # -- lifecycle -------------------------------------------------------------

    async def aclose(self) -> None:
        await self.query_executor.aclose()
        await self.join_executor.aclose()
        self.joins.close()  # spill files; the shared pool stays up

    async def __aenter__(self) -> "ServingSession":
        return self

    async def __aexit__(self, *exc_info: object) -> None:
        await self.aclose()
