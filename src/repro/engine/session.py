"""QuerySession: the declarative front door for every spatial query.

The paper's analysis phases fire "thousands of range queries ... at locations
that cannot be anticipated" (§2.2) between simulation steps; every one of
them goes through this session:

* Queries are **first-class values** — :class:`RangeQuery`,
  :class:`KNNQuery` and :class:`PointQuery` dataclasses carrying a unique
  ``qid`` and an optional caller ``tag``.
* ``session.submit(query)`` returns a lightweight **deferred**
  :class:`ResultHandle`; nothing executes until the session flushes.
* Submissions accumulate in a :class:`QueryBuffer` which, on
  :meth:`QuerySession.flush` (or transparently on the first
  ``handle.result()`` — flush-on-read), groups them into homogeneous batches
  and hands each to a pluggable **executor**:

  - :class:`InlineExecutor` — the scalar per-query path, cheapest for tiny
    batches and for indexes without vectorized kernels;
  - :class:`BatchExecutor` — wraps the existing
    :class:`~repro.engine.batch.BatchQueryEngine` (the kernel layer);
  - :class:`ShardedExecutor` — partitions the query array across the
    persistent :class:`~repro.serving.pool.WorkerPool` and merges the
    per-shard results and :class:`~repro.engine.batch.BatchStats`; a batch
    the pool cannot take runs in-process through :class:`BatchExecutor`.

  The executor is chosen per batch by a small cost heuristic
  (batch size × index capability, see :meth:`QuerySession.choose_executor`)
  unless the session pins one with ``executor=...``.  The heuristic itself
  never picks the sharded executor.

The handle, the buffer and the flush loop are the session core
(:mod:`repro.engine.core`), shared with
:class:`~repro.joins.session.JoinSession`; this module supplies what a query
group is and how it runs.  Every executor answers every batch with the same
id sets (range/point) and the identical ``(distance, id)`` lists (kNN) — the
ordering contract of :mod:`repro.indexes.base` — so the heuristic may switch
freely.
"""

from __future__ import annotations

import itertools
import multiprocessing
import threading
from abc import ABC, abstractmethod
from dataclasses import dataclass, field, fields
from typing import Any, Sequence, Union

import numpy as np

from repro.engine.batch import BatchQueryEngine, BatchStats
from repro.engine.core import Buffer, Handle, SessionCore
from repro.exec.budget import MemoryBudget
from repro.geometry.aabb import AABB, as_box_array, as_point_array
from repro.indexes.base import KNNResult, SpatialIndex
from repro.obs import span as _span
from repro.obs.metrics import MetricsView, Read, Seconds, Tally

_QIDS = itertools.count()


def _next_qid() -> int:
    return next(_QIDS)


# -- queries as values ---------------------------------------------------------


@dataclass(frozen=True)
class RangeQuery:
    """All elements whose box intersects ``box``."""

    box: AABB
    tag: Any = None
    qid: int = field(default_factory=_next_qid, compare=False)

    kind = "range"


@dataclass(frozen=True)
class KNNQuery:
    """The ``k`` elements nearest to ``point`` by box distance.

    ``accuracy`` is the recall target the answer must meet: ``"exact"``
    (default) demands the oracle answer through the exact kernels, while a
    float in ``(0, 1]`` permits the planner to route the query through an
    approximate defeatist kernel (:mod:`repro.approx`) **when** the backing
    index offers one whose measured recall meets the target — otherwise the
    query silently runs exactly.  The result shape and ``(distance, id)``
    ordering are identical either way; only the answer *set* may differ
    under approximate routing.
    """

    point: tuple[float, ...]
    k: int
    tag: Any = None
    qid: int = field(default_factory=_next_qid, compare=False)
    accuracy: float | str = "exact"

    kind = "knn"

    def __post_init__(self) -> None:
        # k == 0 is legal (and answers []), matching the kernel engine and
        # every index's scalar knn — the session is a drop-in surface.
        if self.k < 0:
            raise ValueError(f"k must be >= 0, got {self.k}")
        object.__setattr__(self, "point", tuple(float(c) for c in self.point))
        object.__setattr__(self, "accuracy", _validate_accuracy(self.accuracy))


def _validate_accuracy(accuracy: float | str) -> float | str:
    """Normalize an accuracy knob: ``"exact"`` or a recall target in (0, 1]."""
    if accuracy == "exact":
        return "exact"
    try:
        target = float(accuracy)
    except (TypeError, ValueError):
        raise ValueError(
            f"accuracy must be 'exact' or a recall target in (0, 1], got {accuracy!r}"
        ) from None
    if not 0.0 < target <= 1.0:
        raise ValueError(
            f"accuracy must be 'exact' or a recall target in (0, 1], got {accuracy!r}"
        )
    return target


@dataclass(frozen=True)
class PointQuery:
    """Stabbing query: all elements whose box covers ``point``."""

    point: tuple[float, ...]
    tag: Any = None
    qid: int = field(default_factory=_next_qid, compare=False)

    kind = "point"

    def __post_init__(self) -> None:
        object.__setattr__(self, "point", tuple(float(c) for c in self.point))


Query = Union[RangeQuery, KNNQuery, PointQuery]


# -- deferred results ----------------------------------------------------------


class ResultHandle(Handle):
    """A deferred query result (the session core's :class:`Handle`).

    For single-query submissions the value is that query's result
    (``list[int]`` or :data:`~repro.indexes.base.KNNResult`); for array
    submissions it is the per-query list of results, in submission order.
    """

    __slots__ = ("query",)

    def __init__(self, session: "QuerySession", query: Query | None, tag: Any = None) -> None:
        super().__init__(session, tag if query is None else query.tag)
        self.query = query


# -- executors -----------------------------------------------------------------


@dataclass(frozen=True)
class QueryBatch:
    """One homogeneous, normalized batch handed to an executor.

    ``payload`` is ``(m, 2, d)`` for range batches and ``(m, d)`` for kNN /
    point batches; ``k`` is set for kNN only.  ``accuracy`` is the
    session's *resolved* routing decision for a kNN batch: ``None`` means
    exact, a float means the planner verified the index's approximate
    kernel meets that recall target and the executor should use it.
    """

    kind: str
    payload: np.ndarray
    k: int | None = None
    accuracy: float | None = None

    @property
    def size(self) -> int:
        return int(self.payload.shape[0])


class Executor(ABC):
    """Executes one :class:`QueryBatch` against one index.

    Implementations must be interchangeable: same id sets per range/point
    query, identical ``(distance, id)`` lists per kNN query.  They return
    the per-query results plus the :class:`BatchStats` of the work done, so
    the session can account uniformly across strategies.
    """

    name: str = "executor"

    @abstractmethod
    def run(
        self, index: SpatialIndex, batch: QueryBatch, *, dedup: bool
    ) -> tuple[list, BatchStats]:
        """Execute ``batch``; returns ``(results, stats)``."""


class InlineExecutor(Executor):
    """The scalar path: one index method call per query.

    For tiny batches the array normalization and kernel set-up of the batch
    engine cost more than they save; the inline path keeps exactly the
    per-query behaviour (and counter accounting) of calling the index
    directly, while still honouring duplicate-query memoization so dedup
    stats stay comparable across executors.
    """

    name = "inline"

    def run(
        self, index: SpatialIndex, batch: QueryBatch, *, dedup: bool
    ) -> tuple[list, BatchStats]:
        if batch.kind == "range":
            def answer(row):
                # The kernel contract (as_box_array) admits inverted windows
                # and answers them with an empty intersection; the scalar
                # AABB constructor would reject them, so short-circuit to
                # keep the executors interchangeable.
                if np.any(row[0] > row[1]):
                    return []
                return index.range_query(AABB(row[0], row[1]))
        elif batch.kind == "point":
            answer = lambda row: index.range_query(AABB.from_point(row.tolist()))
        elif batch.kind == "knn":
            assert batch.k is not None
            k = batch.k
            approx = (
                getattr(index, "approx_knn", None)
                if batch.accuracy is not None
                else None
            )
            if approx is not None:
                answer = lambda row: approx(tuple(row.tolist()), k)
            else:
                answer = lambda row: index.knn(tuple(row.tolist()), k)
        else:  # pragma: no cover - QueryBuffer only emits the three kinds
            raise ValueError(f"unknown batch kind: {batch.kind!r}")

        stats = BatchStats(batches=1, queries=batch.size)
        counters = index.counters
        descents0 = counters.approx_descents
        leaves0 = counters.leaves_scanned
        results: list = []
        memo: dict[bytes, Any] = {}
        for row in batch.payload:
            key = row.tobytes() if dedup else None
            if key is not None and key in memo:
                stats.deduplicated += 1
                results.append(list(memo[key]))
                continue
            hits = answer(row)
            if key is not None:
                memo[key] = hits
            results.append(hits)
        stats.approx_descents = counters.approx_descents - descents0
        stats.leaves_scanned = counters.leaves_scanned - leaves0
        return results, stats


class BatchExecutor(Executor):
    """Vectorized single-process execution through the kernel-layer engine."""

    name = "batch"

    def run(
        self, index: SpatialIndex, batch: QueryBatch, *, dedup: bool
    ) -> tuple[list, BatchStats]:
        engine = BatchQueryEngine(index, dedup=dedup)
        results = _run_on_engine(engine, batch)
        return results, engine.stats


def _run_on_engine(engine: BatchQueryEngine, batch: QueryBatch) -> list:
    if batch.kind == "range":
        return engine.range_query(batch.payload)
    if batch.kind == "point":
        return engine.point_query(batch.payload)
    if batch.kind == "knn":
        assert batch.k is not None
        return engine.knn(batch.payload, batch.k, accuracy=batch.accuracy)
    raise ValueError(f"unknown batch kind: {batch.kind!r}")


def _collapse_duplicates(
    batch: QueryBatch, dedup: bool
) -> tuple[QueryBatch, np.ndarray | None, int]:
    """Cross-shard dedup: collapse duplicates over the WHOLE batch before it
    is partitioned.  Per-shard dedup (the engine's own) would execute a
    duplicate once per shard it lands in; collapsing first executes it
    exactly once, and :meth:`ShardedExecutor._fan_out` scatters the result
    back.  Returns ``(batch of unique rows, inverse, rows dropped)`` —
    ``(batch, None, 0)`` when there is nothing to collapse."""
    if not dedup or batch.size <= 1:
        return batch, None, 0
    flat = np.ascontiguousarray(batch.payload.reshape(batch.size, -1))
    unique, inverse = np.unique(flat, axis=0, return_inverse=True)
    dropped = batch.size - unique.shape[0]
    if not dropped:
        return batch, None, 0
    collapsed = QueryBatch(
        kind=batch.kind,
        payload=unique.reshape(unique.shape[0], *batch.payload.shape[1:]),
        k=batch.k,
        accuracy=batch.accuracy,
    )
    return collapsed, inverse, dropped


class ShardedExecutor(Executor):
    """Partitions the query array across a persistent worker pool.

    The batch engine is stateless over results, so the query axis shards
    trivially: each worker answers a contiguous chunk and ships back
    ``(results, BatchStats)``; the parent concatenates results in
    submission order and merges the stats.

    The work runs on a :class:`~repro.serving.pool.WorkerPool`: the index
    crosses the process boundary once, as a shared-memory snapshot, and
    each flush ships only probe arrays and result ids.  A batch the pool
    cannot take — the index has no shared-memory representation
    (``export_index_payload`` returns ``None``), or the pool's
    infrastructure failed — runs in-process through :class:`BatchExecutor`
    with the same answers and tallies.

    Parameters
    ----------
    workers:
        Shard count cap (default: CPU count, capped at 8).
    min_shard:
        Smallest worthwhile per-worker chunk; batches smaller than
        ``2 * min_shard`` fall back to single-process :class:`BatchExecutor`
        execution.
    pool:
        ``None`` (default) — route through the process-wide
        :func:`~repro.serving.pool.default_pool`; a
        :class:`~repro.serving.pool.WorkerPool` — route through that pool.

    Notes
    -----
    Worker-side :class:`~repro.instrumentation.counters.Counters` charges die
    with the workers — only the returned ``BatchStats`` merge back.
    Dedup is global: duplicate queries are collapsed in the parent *before*
    the array is partitioned, so duplicates landing in different shards are
    still executed exactly once and fanned back out on merge.
    """

    name = "sharded"

    def __init__(
        self,
        workers: int | None = None,
        min_shard: int = 512,
        pool: Any = None,
    ) -> None:
        if workers is not None and workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        if min_shard < 1:
            raise ValueError(f"min_shard must be >= 1, got {min_shard}")
        cpus = multiprocessing.cpu_count()
        self.workers = workers if workers is not None else min(cpus, 8)
        self.min_shard = min_shard
        self.pool = pool
        self._fallback = BatchExecutor()

    def _resolve_pool(self):
        if self.pool is not None:
            return self.pool
        from repro.serving.pool import default_pool

        return default_pool()

    def run(
        self, index: SpatialIndex, batch: QueryBatch, *, dedup: bool
    ) -> tuple[list, BatchStats]:
        # Too small to shard on its face: the engine's own dedup is the
        # only one the batch needs.
        if self._shards(batch.size) < 2:
            return self._fallback.run(index, batch, dedup=dedup)
        unique, inverse, dropped = _collapse_duplicates(batch, dedup)
        answered = self._run_pooled(index, unique, dedup, export=True)
        if answered is None:
            answered = self._fallback.run(index, unique, dedup=dedup)
        return self._fan_out(*answered, inverse, dropped)

    def run_pooled(
        self, index: SpatialIndex, batch: QueryBatch, *, dedup: bool
    ) -> tuple[list, BatchStats] | None:
        """:meth:`run`, if the worker pool can answer right now without
        anything happening in this process: ``None`` when the batch is not
        for the pool as things stand (:meth:`pooled_entry`, looking only) or
        the pool's infrastructure failed.  Touches neither the index's
        kernels nor its counters, so — unlike :meth:`run` — it needs no
        exclusion from other executor runs on the same index."""
        unique, inverse, dropped = _collapse_duplicates(batch, dedup)
        answered = self._run_pooled(index, unique, dedup, export=False)
        return None if answered is None else self._fan_out(*answered, inverse, dropped)

    def _shards(self, rows: int) -> int:
        return min(self.workers, rows // self.min_shard)

    def pooled_entry(self, index: SpatialIndex, rows: int, *, export: bool):
        """``(pool, export entry)`` when a ``rows``-row batch on ``index``
        would be answered by the worker pool, else ``None``: the batch
        shards and the index has a shared-memory export.  ``export=False``
        only looks — it accepts nothing but a published export that is
        still fresh.  Publishing one may build the index's lazy snapshot,
        which is in-process work on the index that a caller outside the
        session's flush lock must not start."""
        if self._shards(rows) < 2:
            return None
        pool = self._resolve_pool()
        entry = pool.ensure_index(index) if export else pool.current_index(index)
        return None if entry is None else (pool, entry)

    def _run_pooled(
        self, index: SpatialIndex, batch: QueryBatch, dedup: bool, *, export: bool
    ) -> tuple[list, BatchStats] | None:
        """Try the pool with an already-collapsed batch."""
        try:
            target = self.pooled_entry(index, batch.size, export=export)
            if target is None:
                return None
            pool, entry = target
            return pool.run_query_shards(
                entry,
                batch.kind,
                batch.payload,
                batch.k,
                dedup,
                self._shards(batch.size),
                accuracy=batch.accuracy,
            )
        except Exception:
            # Pool-infrastructure failure: the in-process path reproduces
            # any genuine query error on the same inputs.
            return None

    @staticmethod
    def _fan_out(
        results: list, stats: BatchStats, inverse: np.ndarray | None, dropped: int
    ) -> tuple[list, BatchStats]:
        """Scatter unique-query results back to the original batch order."""
        if inverse is None:
            return results, stats
        stats.queries += dropped
        stats.deduplicated += dropped
        # Independent copies, matching the engine's dedup fan-out contract.
        return [list(results[i]) for i in inverse], stats


# -- the buffer ----------------------------------------------------------------


@dataclass
class _Submission:
    """One submit() call's worth of pending work: a payload slice plus the
    handle(s) awaiting it.  ``vector`` submissions resolve their single
    handle with the whole result list; scalar ones resolve one handle with
    one result."""

    kind: str
    payload: np.ndarray  # (n, 2, d) for range, (n, d) for knn/point
    k: int | None
    handle: ResultHandle
    vector: bool
    accuracy: float | None = None  # kNN recall target; None = exact


class QueryBuffer(Buffer):
    """Submissions awaiting a flush, depth in query rows, drained as one
    group per (kind, k, accuracy) in first-seen order.  Submission order
    inside a group is the contract handles rely on; accuracy is in the key
    so exact and approximate kNN at one ``k`` never share a kernel run."""

    def _group(self, entries: list[_Submission]) -> list[list[_Submission]]:
        groups: dict[tuple[str, int | None, float | None], list[_Submission]] = {}
        for sub in entries:
            groups.setdefault((sub.kind, sub.k, sub.accuracy), []).append(sub)
        return list(groups.values())


# -- session stats -------------------------------------------------------------

#: :class:`BatchStats` fields each run adds to counter ``query.batch.<field>``
#: (``budget_high_water`` is a max-gauge, ``recall_estimate`` a min-gauge).
_BATCH_COUNTS = tuple(
    f.name for f in fields(BatchStats) if f.name not in ("budget_high_water", "recall_estimate")
)
_RECALL = "query.batch.recall_estimate"


class SessionStats(MetricsView):
    """A query session's telemetry, read off its registry.

    ``batch`` adds up the :class:`BatchStats` of every executor run;
    ``executor_runs`` counts batches per executor name, the telemetry the
    cost heuristic is judged by (:func:`repro.analysis.session_report`);
    ``flush_triggers`` counts flushes per cause (the async executor's).
    ``flush_seconds`` covers :meth:`QuerySession.flush_alone` too."""

    flushes = Read("query.flushes")
    queue_high_water = Read("query.queue.high_water")
    flush_seconds = Seconds("query.flush.seconds")
    flush_triggers = Tally("serving.flush.trigger.")
    submitted = Read("query.submitted")
    executor_runs = Tally("query.executor.")

    @property
    def batch(self) -> BatchStats:
        value = self._registry.value
        return BatchStats(
            **{attr: int(value(f"query.batch.{attr}")) for attr in _BATCH_COUNTS},
            budget_high_water=int(value("query.batch.budget_high_water")),
            recall_estimate=value(_RECALL, 1.0),
        )


# -- the session ---------------------------------------------------------------

#: Batches at or below this size run inline by default: the per-query Python
#: dispatch is cheaper than array normalization + kernel set-up.
INLINE_CUTOFF = 4


class QuerySession(SessionCore):
    """The single public entry point for queries against any index.

    Parameters
    ----------
    index:
        Any :class:`~repro.indexes.base.SpatialIndex`.
    executor:
        Pin every batch to one executor, bypassing the cost heuristic
        (e.g. ``ShardedExecutor(workers=4)`` for large analysis phases).
    dedup:
        Collapse duplicate queries inside each batch (default True, as in
        the kernel engine).
    inline_cutoff:
        Largest batch the default heuristic routes to the scalar path.
    budget:
        A :class:`~repro.exec.budget.MemoryBudget` (or raw byte limit)
        bounding each executor run's working set.  Flushed groups whose
        estimated kernel working set exceeds the limit are executed in
        budget-sized row chunks (results are identical — queries are
        independent); ``stats.batch.budget_chunks`` counts the splits and
        ``stats.batch.budget_high_water`` the reserved peak.

    Two usage styles, freely mixable:

    Deferred — submit query values, read handles later (the buffer flushes
    as one batch on the first read)::

        session = QuerySession(index)
        handles = [session.submit(RangeQuery(box)) for box in boxes]
        counts = [len(h.result()) for h in handles]     # one flush

    Immediate — array-in / array-out, the drop-in replacement for the old
    ``BatchQueryEngine`` surface::

        hits      = session.range_query(boxes)           # (m, 2, d) or AABBs
        neighbours = session.knn(points, k=8)            # (m, d)
        stabs     = session.point_query(points)
    """

    _PREFIX = "query"
    _GROUPS = "groups"

    def __init__(
        self,
        index: SpatialIndex,
        *,
        executor: Executor | None = None,
        dedup: bool = True,
        inline_cutoff: int = INLINE_CUTOFF,
        budget: MemoryBudget | int | None = None,
    ) -> None:
        super().__init__(QueryBuffer(), SessionStats)
        self.index = index
        self.dedup = dedup
        self.inline_cutoff = inline_cutoff
        self.budget = MemoryBudget.coerce(budget)
        self._pinned = executor
        self._inline = InlineExecutor()
        self._batch = BatchExecutor()
        self._m_submitted = self.metrics.counter("query.submitted")
        self._m_batch = [(a, self.metrics.counter(f"query.batch.{a}")) for a in _BATCH_COUNTS]
        self._m_budget_high_water = self.metrics.gauge("query.batch.budget_high_water")
        # The flush lock is also the in-process execution lock: no two
        # kernels ever run on the index at once, so its counters and lazy
        # snapshot stay single-writer.  `flush_alone` runs outside it only
        # while its batch is in the worker pool.

    # -- executor choice ------------------------------------------------------

    def choose_executor(self, batch: QueryBatch) -> Executor:
        """The cost heuristic: batch size × index capability.

        Tiny batches (≤ ``inline_cutoff``) and indexes without a vectorized
        kernel for the batch's kind (see
        :meth:`~repro.indexes.base.SpatialIndex.supports_batch_kind`) run
        inline — the kernel set-up would outweigh the work.  Everything
        else runs through the batch engine.  A pinned ``executor``
        overrides this entirely.
        """
        if self._pinned is not None:
            return self._pinned
        capability = (
            "approx_knn"
            if batch.kind == "knn" and batch.accuracy is not None
            else batch.kind
        )
        if batch.size <= self.inline_cutoff or not self.index.supports_batch_kind(capability):
            return self._inline
        return self._batch

    def _resolve_accuracy(self, k: int | None, accuracy: float | None) -> float | None:
        """Route the accuracy knob for one kNN group.

        A recall target may only be honoured approximately when the index
        offers a defeatist kernel (``supports_batch_kind("approx_knn")``)
        *and* its self-calibrated :meth:`estimated_recall` meets the target;
        otherwise the group falls back to the exact kernels — accuracy is a
        floor, never a licence to degrade.  The calibrated recall of every
        approximately-routed group flows into
        ``stats.batch.recall_estimate`` (a min-gauge)."""
        if accuracy is None or k is None or k <= 0:
            return None
        if not self.index.supports_batch_kind("approx_knn"):
            return None
        estimate = getattr(self.index, "estimated_recall", None)
        if estimate is None:
            return None
        measured = estimate(k)
        if measured < accuracy:
            return None
        with self._lock:
            lowest = min(self.metrics.value(_RECALL, 1.0), measured)
            self.metrics.gauge(_RECALL).set(lowest)
        return accuracy

    # -- submission (deferred) ------------------------------------------------

    def enqueue(self, submission: _Submission) -> ResultHandle:
        """Queue ``submission`` for the next flush; returns its handle."""
        count = submission.payload.shape[0]
        with self._lock:
            self._enqueue(submission, count)
            self._m_submitted.inc(count)
        return submission.handle

    def submit(self, query: Query) -> ResultHandle:
        """Buffer one query value; returns its deferred handle."""
        handle = ResultHandle(self, query)
        accuracy = None
        if isinstance(query, RangeQuery):
            payload = as_box_array([query.box])
            kind, k = "range", None
        elif isinstance(query, KNNQuery):
            payload = as_point_array([query.point])
            kind, k = "knn", query.k
            accuracy = None if query.accuracy == "exact" else query.accuracy
        elif isinstance(query, PointQuery):
            payload = as_point_array([query.point])
            kind, k = "point", None
        else:
            raise TypeError(f"not a query value: {query!r}")
        return self.enqueue(_Submission(kind, payload, k, handle, vector=False, accuracy=accuracy))

    def array_submission(
        self,
        kind: str,
        array: np.ndarray | Sequence,
        *,
        k: int | None = None,
        tag: Any = None,
        accuracy: float | str = "exact",
    ) -> _Submission:
        """One whole query array as a submission with a fresh handle, not
        yet queued: :meth:`enqueue` it (what ``submit_ranges`` /
        ``submit_knns`` / ``submit_points`` do), or — the serving tier, for
        an array that is a batch by itself — :meth:`claim_alone` it."""
        target = None
        if kind == "knn":
            if k < 0:
                raise ValueError(f"k must be >= 0, got {k}")
            target = _validate_accuracy(accuracy)
            target = None if target == "exact" else target
        payload = as_box_array(array) if kind == "range" else as_point_array(array)
        handle = ResultHandle(self, None, tag)
        return _Submission(kind, payload, k, handle, vector=True, accuracy=target)

    def submit_ranges(
        self, boxes: np.ndarray | Sequence[AABB], tag: Any = None
    ) -> ResultHandle:
        """Buffer a whole range-query array; one handle for all results.

        The array path skips per-query value construction, so analysis
        loops keep kernel-speed submission; the handle resolves to the
        per-query list of id lists.
        """
        return self.enqueue(self.array_submission("range", boxes, tag=tag))

    def submit_knns(
        self,
        points: np.ndarray | Sequence[Sequence[float]],
        k: int,
        tag: Any = None,
        accuracy: float | str = "exact",
    ) -> ResultHandle:
        """Buffer a kNN point array; the handle resolves to one
        ``(distance, id)`` list per point (empty when ``k == 0``).

        ``accuracy`` follows the :class:`KNNQuery` knob: ``"exact"``
        (default) or a recall target in ``(0, 1]`` the planner may honour
        with an approximate kernel."""
        return self.enqueue(
            self.array_submission("knn", points, k=k, tag=tag, accuracy=accuracy)
        )

    def submit_points(
        self, points: np.ndarray | Sequence[Sequence[float]], tag: Any = None
    ) -> ResultHandle:
        """Buffer a stabbing-query point array."""
        return self.enqueue(self.array_submission("point", points, tag=tag))

    # -- flushing (``flush()`` is the core's) ---------------------------------

    def claim_alone(self, submission: _Submission) -> bool:
        """Take ``submission`` for a flush of its own — if it would run
        off-process.

        True when the executor this session picks for it is a
        :class:`ShardedExecutor` that will answer it from the worker pool
        (:meth:`ShardedExecutor.pooled_entry`): the submission is then
        counted as submitted, its handle's ``result()`` blocks until
        settled, and the caller owes one :meth:`flush_alone`.  False leaves
        it untouched, for :meth:`enqueue`.

        An index the pool holds no fresh export of is published here, on
        the calling thread, provided no flush is running: exporting builds
        the index's lazy snapshot, which is in-process work like any kernel.
        While one is running the submission is left to the queue, whose
        flush publishes."""
        if submission.accuracy is not None:
            # Routing a recall target calibrates on the index: in-process
            # work, so it belongs under the flush lock.
            return False
        batch = QueryBatch(submission.kind, submission.payload, submission.k)
        executor = self.choose_executor(batch)
        if not isinstance(executor, ShardedExecutor):
            return False
        rows = self._chunk_rows(batch)
        if executor.pooled_entry(self.index, rows, export=False) is None:
            if not self._flush_lock.acquire(blocking=False):
                return False
            try:
                if executor.pooled_entry(self.index, rows, export=True) is None:
                    return False
            except Exception:
                # Closed pool, no room for the segments: the queue path owns
                # the fallbacks for a pool that cannot be used.
                return False
            finally:
                self._flush_lock.release()
        count = submission.payload.shape[0]
        with self._lock:
            self._m_submitted.inc(count)
        submission.handle._settled = threading.Event()
        return True

    def flush_alone(self, submission: _Submission) -> None:
        """Run one claimed submission as a flush of its own, beside the
        queue's flushes.

        Coalescing turns many small requests into one batch; a submission
        that already *is* one gains nothing from the queue, and everything
        sharing its flush would wait out its execution.  This is
        :meth:`flush` for exactly one submission: one group, one executor
        run, counted in ``stats.flushes``, its error settling its own
        handle and re-raised here.  While the batch is in the worker pool
        the flush lock is not held; any part of it that has to run
        in-process (the pool failed, the export went stale) takes the lock
        first, like any other flush."""
        try:
            self._flush_groups([[submission]], alone=True)
        finally:
            if not submission.handle.resolved:  # torn down mid-run: unblock readers
                submission.handle._fail(RuntimeError("flush did not settle this handle"))

    def _run_group(self, submissions: list[_Submission], alone: bool) -> None:
        """One contiguous payload through the chosen executor, its results
        scattered back to the handles in submission order."""
        first = submissions[0]
        kind, k = first.kind, first.k
        # Zero-row payloads contribute nothing (and may carry a placeholder
        # dim of 0 that would poison concatenation).
        parts = [sub.payload for sub in submissions if sub.payload.shape[0]]
        if not parts:
            for sub in submissions:
                sub.handle._resolve([] if sub.vector else None)
            return
        payload = parts[0] if len(parts) == 1 else np.concatenate(parts)
        batch = QueryBatch(
            kind=kind, payload=payload, k=k, accuracy=self._resolve_accuracy(k, first.accuracy)
        )
        executor = self.choose_executor(batch)
        with _span(
            "query.group",
            # Off the flush lock the index's counters are another flush's to
            # charge; the delta this span would record is not this group's.
            counters=None if alone else getattr(self.index, "counters", None),
            kind=kind,
            size=batch.size,
            executor=executor.name,
        ):
            results, stats = self._run_batch(executor, batch, alone)
        with self._lock:
            self.metrics.counter(f"query.executor.{executor.name}").inc()
            for attr, counter in self._m_batch:
                counter.inc(getattr(stats, attr))
            self._m_budget_high_water.track_max(stats.budget_high_water)
        offset = 0
        for sub in submissions:
            n = sub.payload.shape[0]
            chunk = results[offset : offset + n]
            offset += n
            sub.handle._resolve(chunk if sub.vector else chunk[0])

    #: Kernel working-set bytes per payload byte: overlap masks, gather
    #: indices and per-query result lists dominate the raw query array.
    _KERNEL_OVERHEAD = 16

    def _chunk_rows(self, batch: QueryBatch) -> int:
        """Rows per executor run: all of them, or as many as the budget
        admits at a time."""
        limit = self.budget.limit
        estimate = batch.payload.nbytes * self._KERNEL_OVERHEAD
        if limit is None or estimate <= limit or batch.size <= 1:
            return batch.size
        row_bytes = max(estimate // batch.size, 1)
        return max(int(limit // row_bytes), 1)

    def _run_batch(
        self, executor: Executor, batch: QueryBatch, alone: bool
    ) -> tuple[list, BatchStats]:
        """Run one batch, split into budget-sized row chunks when governed.

        Queries are independent, so chunking never changes results — it
        only bounds the kernels' transient working set (dedup scope shrinks
        to the chunk, which alters ``deduplicated`` tallies, not answers).
        """
        chunk_rows = self._chunk_rows(batch)
        if chunk_rows >= batch.size:
            return self._execute(executor, batch, alone)
        results: list = []
        stats = BatchStats()
        for start in range(0, batch.size, chunk_rows):
            chunk = QueryBatch(
                kind=batch.kind,
                payload=batch.payload[start : start + chunk_rows],
                k=batch.k,
                accuracy=batch.accuracy,
            )
            with self.budget.reserving(chunk.payload.nbytes * self._KERNEL_OVERHEAD, force=True):
                part, part_stats = self._execute(executor, chunk, alone)
            results.extend(part)
            stats.merge(part_stats)
            stats.budget_chunks += 1
        # The chunks answered one logical batch between them.
        stats.batches = 1
        stats.budget_high_water = max(stats.budget_high_water, self.budget.high_water)
        return results, stats

    def _execute(
        self, executor: Executor, batch: QueryBatch, alone: bool
    ) -> tuple[list, BatchStats]:
        """One executor run.  ``alone`` means the caller does not hold the
        flush lock: only the worker pool may answer without it."""
        if alone:
            if isinstance(executor, ShardedExecutor):
                answered = executor.run_pooled(self.index, batch, dedup=self.dedup)
                if answered is not None:
                    return answered
            with self._flush_lock:
                return self._execute(executor, batch, False)
        # Zero-copy storage telemetry lives on the index's counters (the
        # mapped page store charges them); diff around the run so views
        # served for *these* queries land in this batch's stats.
        counters = getattr(self.index, "counters", None)
        before = counters.snapshot() if counters is not None else None
        results, stats = executor.run(self.index, batch, dedup=self.dedup)
        if before is not None:
            delta = counters.diff(before)
            stats.zero_copy_reads += delta.zero_copy_reads
            stats.mapped_bytes += delta.mapped_bytes
        return results, stats

    # -- immediate convenience surface ---------------------------------------
    #
    # The drop-in replacement for the old public BatchQueryEngine methods:
    # same signatures, same results, one flush per call (plus whatever was
    # already buffered — submissions never reorder across a flush).

    def range_query(self, boxes: np.ndarray | Sequence[AABB]) -> list[list[int]]:
        """Submit + flush + read: one id list per query box."""
        return self.submit_ranges(boxes).result()

    def knn(
        self,
        points: np.ndarray | Sequence[Sequence[float]],
        k: int,
        accuracy: float | str = "exact",
    ) -> list[KNNResult]:
        """Submit + flush + read: one ``(distance, id)`` list per point."""
        return self.submit_knns(points, k, accuracy=accuracy).result()

    def point_query(
        self, points: np.ndarray | Sequence[Sequence[float]]
    ) -> list[list[int]]:
        """Submit + flush + read: covering-element ids per point."""
        return self.submit_points(points).result()
