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
  - :class:`BatchExecutor` — one call of the index's vectorized batch
    kernel;
  - :class:`ShardedExecutor` — partitions the query array across the
    persistent :class:`~repro.serving.pool.WorkerPool` and concatenates the
    per-shard results; a batch the pool cannot take runs in-process, as
    :class:`BatchExecutor` runs it.

  The executor is chosen per batch by a small cost heuristic
  (batch size × index capability, see :meth:`QuerySession.choose_executor`)
  unless the session pins one with ``executor=...``.  The heuristic itself
  never picks the sharded executor.

The handle, the buffer and the flush loop are the session core
(:mod:`repro.engine.core`), shared with
:class:`~repro.joins.session.JoinSession`; this module supplies what a query
group is and how it runs.  Executors only answer: the session collapses
duplicate rows before each run and counts the work after it, in one place
(:meth:`QuerySession._execute`).  Every executor answers every batch with
the same id sets (range/point) and the identical ``(distance, id)`` lists
(kNN) — the ordering contract of :mod:`repro.indexes.base` — so the
heuristic may switch freely.
"""

from __future__ import annotations

import itertools
import math
import multiprocessing
import threading
from abc import ABC, abstractmethod
from contextlib import nullcontext
from dataclasses import dataclass, field, fields, replace
from typing import Any, Sequence, Union

import numpy as np

from repro.engine.core import Buffer, Handle, SessionCore
from repro.exec.budget import MemoryBudget
from repro.geometry.aabb import AABB, as_box_array, as_point_array
from repro.indexes.base import KNNResult, SpatialIndex
from repro.instrumentation.counters import Counters
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
    """Answers one :class:`QueryBatch` against one index, in this process.

    Implementations must be interchangeable: same id sets per range/point
    query, identical ``(distance, id)`` lists per kNN query.  An executor
    returns answers only; the session collapses duplicate rows before the
    run, fans the answers back out after it and reads the work off the
    index's counters (:meth:`QuerySession._execute`), so every executor is
    accounted the same way.
    """

    name: str = "executor"

    @abstractmethod
    def run(self, index: SpatialIndex, batch: QueryBatch) -> list:
        """The per-row results of ``batch``, in row order."""


class InlineExecutor(Executor):
    """The scalar path: one index method call per query.

    For tiny batches the array set-up of the batch kernels costs more than
    it saves; the inline path keeps exactly the per-query behaviour (and
    counter accounting) of calling the index directly.
    """

    name = "inline"

    def run(self, index: SpatialIndex, batch: QueryBatch) -> list:
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
        return [answer(row) for row in batch.payload]


class BatchExecutor(Executor):
    """Vectorized execution: the whole batch in one call of the index's
    batch kernel — ``batch_range_query`` for range queries and, on
    zero-extent boxes, for point queries; ``batch_knn``, or
    ``approx_batch_knn`` when the session routed the batch to an index's
    approximate kernel, for kNN.  Indexes without a vectorized kernel
    answer through the base class's per-query loop."""

    name = "batch"

    def run(self, index: SpatialIndex, batch: QueryBatch) -> list:
        if batch.kind == "range":
            return index.batch_range_query(batch.payload)
        if batch.kind == "point":
            return index.batch_range_query(np.stack([batch.payload, batch.payload], axis=1))
        if batch.kind == "knn":
            assert batch.k is not None
            kernel = index.batch_knn
            if batch.accuracy is not None:
                kernel = getattr(index, "approx_batch_knn", kernel)
            return kernel(batch.payload, batch.k)
        raise ValueError(f"unknown batch kind: {batch.kind!r}")


class ShardedExecutor(BatchExecutor):
    """Partitions the query array across a persistent worker pool.

    Queries are independent, so the query axis shards trivially: each
    worker answers a contiguous chunk against its snapshot of the index and
    ships back the results and the :class:`~repro.instrumentation.counters.Counters`
    the snapshot was charged; the parent concatenates the results in
    submission order and sums the charges (:meth:`run_pooled`).

    The work runs on a :class:`~repro.serving.pool.WorkerPool`: the index
    crosses the process boundary once, as a shared-memory snapshot, and
    each flush ships only probe arrays and result ids.  The session offers
    every batch to :meth:`run_pooled` first.  A batch the pool cannot take
    — too small to shard, the index has no shared-memory representation
    (``export_index_payload`` returns ``None``), or the pool's
    infrastructure failed — runs in-process through :meth:`run`, the
    inherited :class:`BatchExecutor` kernel call, with the same answers and
    tallies.

    Parameters
    ----------
    workers:
        Shard count cap (default: CPU count, capped at 8).
    min_shard:
        Smallest worthwhile per-worker chunk; batches smaller than
        ``2 * min_shard`` run in-process.
    pool:
        ``None`` (default) — route through the process-wide
        :func:`~repro.serving.pool.default_pool`; a
        :class:`~repro.serving.pool.WorkerPool` — route through that pool.

    Notes
    -----
    The pool answers the rows it is handed: the session has already
    collapsed duplicate queries over the whole batch, so duplicates that
    would land in different shards still execute exactly once.
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

    def _resolve_pool(self):
        if self.pool is not None:
            return self.pool
        from repro.serving.pool import default_pool

        return default_pool()

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

    def run_pooled(
        self, index: SpatialIndex, batch: QueryBatch, *, export: bool
    ) -> tuple[list, Counters] | None:
        """The batch's results and the work the workers were charged, if the
        worker pool answers it: ``None`` when the batch is not for the pool
        (:meth:`pooled_entry`) or the pool's infrastructure failed.  With
        ``export=False`` it touches neither the index's kernels nor its
        counters, so it needs no exclusion from other executor runs on the
        same index."""
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
                self._shards(batch.size),
                accuracy=batch.accuracy,
            )
        except Exception:
            # Pool-infrastructure failure: the in-process path reproduces
            # any genuine query error on the same inputs.
            return None


def _distinct_rows(payload: np.ndarray) -> tuple[np.ndarray, np.ndarray | None]:
    """The distinct rows of ``payload`` in first-seen order (an executor
    runs them in submission order), and the inverse that rebuilds
    ``payload`` from them — or ``(payload, None)`` when no row repeats.

    Rows compare by value, each viewed as one opaque byte string once
    ``-0.0`` is mapped to ``+0.0`` (so equal coordinates share their
    bytes): one 1-d ``np.unique`` instead of a lexicographic row sort."""
    m = payload.shape[0]
    if m <= 1 or not payload.size:  # zero-width rows: left for the kernels to refuse
        return payload, None
    flat = payload.reshape(m, -1) + 0.0  # a fresh C-contiguous copy; -0.0 + 0.0 is +0.0
    keys = flat.view(np.dtype((np.void, flat.itemsize * flat.shape[1]))).ravel()
    _, first, inverse = np.unique(keys, return_index=True, return_inverse=True)
    if first.shape[0] == m:
        return payload, None
    order = np.argsort(first)
    rank = np.empty_like(order)
    rank[order] = np.arange(order.shape[0])
    return payload[first[order]], rank[inverse.ravel()]


#: What a refused query's handle raises — the kernels' own words for it.
_NOT_FINITE = "query coordinates must be finite"


def _refused(kind: str, coords: np.ndarray | tuple[float, ...]) -> bool:
    """Whether a query is refused at submission, never joining a group it
    would fail: a NaN anywhere, or a kNN probe that is not finite (±inf
    window corners clamp to the universe)."""
    if isinstance(coords, np.ndarray):
        return not np.isfinite(coords).all() and (kind == "knn" or bool(np.isnan(coords).any()))
    return not all(map(math.isfinite, coords)) and (kind == "knn" or any(map(math.isnan, coords)))


# -- the buffer ----------------------------------------------------------------


@dataclass
class _Submission:
    """One submit() call's worth of pending work: a payload plus the
    handle awaiting it.  ``vector`` submissions resolve their single handle
    with the whole result list; scalar ones, one flat row (``lo + hi`` for a
    window) packed with their group at flush time, with one result."""

    kind: str
    payload: Any  # vector: (n, 2, d) for range, (n, d) for knn/point
    k: int | None
    handle: ResultHandle
    vector: bool
    dims: int
    accuracy: float | None = None  # kNN recall target; None = exact


class QueryBuffer(Buffer):
    """Submissions awaiting a flush, depth in query rows, drained as one
    group per (kind, k, accuracy, dims) in first-seen order.  Submission
    order inside a group is the contract handles rely on; exact and
    approximate kNN, and queries of other dims, never share a kernel run."""

    def _group(self, entries: list[_Submission]) -> list[list[_Submission]]:
        groups: dict[tuple[str, int | None, float | None, int], list[_Submission]] = {}
        for sub in entries:
            groups.setdefault((sub.kind, sub.k, sub.accuracy, sub.dims), []).append(sub)
        return list(groups.values())


# -- session stats -------------------------------------------------------------


@dataclass
class BatchStats:
    """A query session's executor work, as ``session.stats.batch`` reads it
    off the session's ``query.batch.*`` metrics.

    ``batches`` counts executor-run groups and ``queries`` their rows;
    ``deduplicated`` the rows answered by copying another row's result.
    The out-of-core fields mirror :class:`~repro.joins.spec.JoinStats`:
    ``budget_chunks`` counts row chunks the session split batches into to
    honour its :class:`~repro.exec.budget.MemoryBudget`, ``tiles_spilled`` /
    ``spill_bytes_written`` / ``spill_bytes_read`` any spill traffic charged
    while serving batches, ``zero_copy_reads`` / ``mapped_bytes`` the
    zero-copy storage telemetry (reads served as mmap views), and
    ``budget_high_water`` is the reserved peak.

    The approximate-kNN fields (:mod:`repro.approx`) follow the same split:
    ``approx_descents`` / ``leaves_scanned`` count defeatist work, and
    ``recall_estimate`` is the *lowest* calibrated recall any approximate
    batch was routed with (1.0 while every answer is exact).
    """

    batches: int = 0
    queries: int = 0
    deduplicated: int = 0
    budget_chunks: int = 0
    tiles_spilled: int = 0
    spill_bytes_written: int = 0
    spill_bytes_read: int = 0
    zero_copy_reads: int = 0
    mapped_bytes: int = 0
    budget_high_water: int = 0
    approx_descents: int = 0
    leaves_scanned: int = 0
    recall_estimate: float = 1.0


#: :class:`BatchStats` fields that are counter ``query.batch.<field>``
#: (``budget_high_water`` is a max-gauge, ``recall_estimate`` a min-gauge).
_BATCH_COUNTS = tuple(
    f.name for f in fields(BatchStats) if f.name not in ("budget_high_water", "recall_estimate")
)
_RECALL = "query.batch.recall_estimate"


class SessionStats(MetricsView):
    """A query session's telemetry, read off its registry.

    ``batch`` is the executor work of every group the session ran;
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

    Immediate — array-in / array-out, one flush per call::

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
        inline_cutoff: int = INLINE_CUTOFF,
        budget: MemoryBudget | int | None = None,
    ) -> None:
        super().__init__(QueryBuffer(), SessionStats)
        self.index = index
        self.inline_cutoff = inline_cutoff
        self.budget = MemoryBudget.coerce(budget)
        self._pinned = executor
        self._inline = InlineExecutor()
        self._batch = BatchExecutor()
        self._m_submitted = self.metrics.counter("query.submitted")
        self._m_batch = {a: self.metrics.counter(f"query.batch.{a}") for a in _BATCH_COUNTS}
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
        """Queue ``submission`` for the next flush, unless it was refused
        (settled) when made; returns its handle."""
        handle = submission.handle
        if handle.resolved:
            return handle
        count = submission.payload.shape[0] if submission.vector else 1
        with self._lock:
            self._enqueue(submission, count)
            self._m_submitted.inc(count)
        return handle

    def submit(self, query: Query) -> ResultHandle:
        """Buffer one query value; returns its deferred handle, failed at
        once if the query is refused (:func:`_refused`)."""
        accuracy = None
        if isinstance(query, RangeQuery):
            kind, k, row = "range", None, query.box.lo + query.box.hi
        elif isinstance(query, KNNQuery):
            kind, k, row = "knn", query.k, query.point
            accuracy = None if query.accuracy == "exact" else query.accuracy
        elif isinstance(query, PointQuery):
            kind, k, row = "point", None, query.point
        else:
            raise TypeError(f"not a query value: {query!r}")
        handle = ResultHandle(self, query)
        dims = len(row) // 2 if kind == "range" else len(row)
        if _refused(kind, row):
            handle._fail(ValueError(_NOT_FINITE))
        return self.enqueue(
            _Submission(kind, row, k, handle, vector=False, dims=dims, accuracy=accuracy)
        )

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
        an array that is a batch by itself — :meth:`claim_alone` it.  A
        refused array comes back with its handle failed."""
        target = None
        if kind == "knn":
            if k < 0:
                raise ValueError(f"k must be >= 0, got {k}")
            target = _validate_accuracy(accuracy)
            target = None if target == "exact" else target
        payload = as_box_array(array) if kind == "range" else as_point_array(array)
        handle = ResultHandle(self, None, tag)
        if _refused(kind, payload):
            handle._fail(ValueError(_NOT_FINITE))
        return _Submission(
            kind, payload, k, handle, vector=True, dims=payload.shape[-1], accuracy=target
        )

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

    def _sharding(self, batch: QueryBatch) -> ShardedExecutor | None:
        """The executor this session picks for ``batch`` if it is a
        :class:`ShardedExecutor` that splits the batch's runs into shards
        for the worker pool, else ``None``."""
        executor = self.choose_executor(batch)
        if isinstance(executor, ShardedExecutor) and executor._shards(self._chunk_rows(batch)) >= 2:
            return executor
        return None

    def flushes_in_process(self) -> bool:
        """Whether a flush of the queue as it stands would run every group
        in this process: no group goes to the worker pool by the test
        :meth:`claim_alone` makes (:meth:`_sharding`).  Sizing a group
        needs only its row count, so no payload is packed."""
        with self._lock:
            groups = self._buffer.groups()
        for group in groups:
            first = group[0]
            rows = sum(sub.payload.shape[0] if sub.vector else 1 for sub in group)
            shape = (rows, 2, first.dims) if first.kind == "range" else (rows, first.dims)
            if self._sharding(QueryBatch(first.kind, np.broadcast_to(0.0, shape), first.k)) is not None:
                return False
        return True

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
        if submission.accuracy is not None or submission.handle.resolved:
            # Routing a recall target calibrates on the index: in-process
            # work, so it belongs under the flush lock.  Refused: no work.
            return False
        batch = QueryBatch(submission.kind, submission.payload, submission.k)
        executor = self._sharding(batch)
        if executor is None:
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
        # Each run of scalar rows packs into one array; zero-row arrays
        # contribute nothing.
        parts = []
        for vector, run in itertools.groupby(submissions, key=lambda sub: sub.vector):
            if vector:
                parts.extend(sub.payload for sub in run if sub.payload.shape[0])
            else:
                rows = np.array([sub.payload for sub in run], dtype=np.float64)
                parts.append(rows.reshape(len(rows), 2, -1) if kind == "range" else rows)
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
            results = self._execute(executor, batch, alone)
        offset = 0
        for sub in submissions:
            n = sub.payload.shape[0] if sub.vector else 1
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

    def _execute(self, executor: Executor, batch: QueryBatch, alone: bool) -> list:
        """Run one batch and count it: the one place duplicate rows collapse
        and executor work is read.

        A governed session splits a batch whose kernel working set exceeds
        its budget into row chunks; queries are independent, so that bounds
        the working set without changing an answer.  Each executor run —
        the whole batch or one chunk — gets the distinct rows of its part
        (:func:`_distinct_rows`), and their answers are fanned back out as
        independent copies.  Its work is the index's counter diff around an
        in-process run, or what the worker pool reports it charged.  The
        group is folded into ``query.batch.*`` once every run answered: a
        batch that raises counts nothing."""
        rows = self._chunk_rows(batch)
        chunked = rows < batch.size
        runs = range(0, batch.size, rows)
        results: list = []
        charges: list[Counters] = []
        dropped = 0
        for start in runs:
            part = batch.payload[start : start + rows]
            unique, inverse = _distinct_rows(part)
            reserve = (
                self.budget.reserving(part.nbytes * self._KERNEL_OVERHEAD, force=True)
                if chunked
                else nullcontext()
            )
            with reserve:
                answers, charged = self._answer(
                    executor,
                    batch if unique.shape[0] == batch.size else replace(batch, payload=unique),
                    alone,
                )
            charges.append(charged)
            if inverse is None:
                results.extend(answers)
            else:
                dropped += part.shape[0] - unique.shape[0]
                results.extend([list(answers[i]) for i in inverse.tolist()])
        work = sum(charges[1:], charges[0])  # one run (the usual case): no new object
        # Every other count is a Counters field: the work the runs charged.
        counts = {"batches": 1, "queries": batch.size, "deduplicated": dropped,
                  "budget_chunks": len(runs) if chunked else 0}
        with self._lock:
            self.metrics.counter(f"query.executor.{executor.name}").inc()
            for name, counter in self._m_batch.items():
                counter.inc(counts[name] if name in counts else getattr(work, name))
            if chunked:
                self._m_budget_high_water.track_max(self.budget.high_water)
        return results

    def _answer(
        self, executor: Executor, batch: QueryBatch, alone: bool
    ) -> tuple[list, Counters]:
        """One executor run: its results and the work it charged.  ``alone``
        means the caller does not hold the flush lock: only the worker pool
        may answer without it."""
        if isinstance(executor, ShardedExecutor):
            answered = executor.run_pooled(self.index, batch, export=not alone)
            if answered is not None:
                return answered
        if alone:
            with self._flush_lock:
                return self._answer(executor, batch, False)
        counters = self.index.counters
        before = counters.snapshot()
        return executor.run(self.index, batch), counters.diff(before)

    # -- immediate convenience surface ---------------------------------------
    #
    # Array in, array out: one flush per call (plus whatever was already
    # buffered — submissions never reorder across a flush).

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
