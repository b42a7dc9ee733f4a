"""The long-lived worker pool behind the sharded query executor.

A :class:`WorkerPool` is the one place this package starts processes: its
``ProcessPoolExecutor`` workers persist across flushes, so no flush pays
process start-up, and a :class:`~repro.core.uniform_grid.UniformGrid`
crosses the process boundary **once** per (grid, pool) as a shared-memory
snapshot (:mod:`repro.serving.snapshots`).  Steady-state flushes ship probe
arrays out and result arrays back — nothing else.  Only query shards on a
grid travel here (``ShardedExecutor`` runs what the pool cannot take
in-process); joins and external builds run in the calling process.

Registration is keyed by object identity with a mutation fingerprint: when
a grid mutates, the next flush re-exports a fresh snapshot (and retires
the old segments); when it doesn't, the export count stays put — the
zero-re-pickle property the serving tests pin.

The pool is crash-tolerant: a task batch that dies with the worker
(``BrokenProcessPool``) recreates the executor and retries once; the shared
segments survive because the *parent* owns them.  :meth:`close` (or ``with``
exit, or the ``atexit`` hook of the :func:`default_pool` singleton) unlinks
every segment.
"""

from __future__ import annotations

import atexit
import itertools
import multiprocessing
import sys
import threading
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from typing import Any

import numpy as np

from repro.indexes.base import SpatialIndex
from repro.instrumentation.counters import Counters
from repro.obs import ingest_telemetry, propagation_context
from repro.serving import worker as _worker
from repro.serving.shm import SegmentGroup
from repro.serving.snapshots import export_index_payload, index_fingerprint

_TOKENS = itertools.count()


def _fork_is_safe() -> bool:
    """Forking workers is only sound where fork is the sanctioned model.

    macOS lists ``fork`` as available but its system frameworks are not
    fork-safe (spawn is the platform default for exactly that reason), so
    require either Linux or an explicit user-set fork start method.
    """
    if "fork" not in multiprocessing.get_all_start_methods():
        return False
    return sys.platform.startswith("linux") or (
        multiprocessing.get_start_method(allow_none=True) == "fork"
    )


@dataclass(slots=True)
class _Export:
    """Parent-side record of one published payload."""

    source: Any  # strong ref: keeps id() keys valid
    token: str
    cell: float
    group: SegmentGroup
    fingerprint: tuple


class WorkerPool:
    """A persistent process pool serving shared-memory grid snapshots.

    Parameters
    ----------
    workers:
        Worker count (default: CPU count, capped at 8).
    context:
        ``multiprocessing`` start-method name; default ``"fork"`` where
        :func:`_fork_is_safe` allows it, else ``"spawn"``.  Spawn is
        serviceable: workers start once and never pickle an index.

    Thread-safe: concurrent sessions may register and run through one pool.
    """

    def __init__(self, workers: int | None = None, context: str | None = None) -> None:
        if workers is not None and workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        cpus = multiprocessing.cpu_count()
        self.workers = workers if workers is not None else min(cpus, 8)
        if context is None:
            context = "fork" if _fork_is_safe() else "spawn"
        self._context = context
        self._executor: ProcessPoolExecutor | None = None
        self._lock = threading.RLock()
        self._index_exports: dict[int, _Export] = {}
        #: Lifetime count of grid snapshot exports — the telemetry the
        #: export-exactly-once tests assert on.
        self.exports = 0
        self.shards_run = 0
        self.closed = False

    # -- lifecycle ------------------------------------------------------------

    def _ensure_executor(self) -> ProcessPoolExecutor:
        if self.closed:
            raise RuntimeError("WorkerPool is closed")
        if self._executor is None:
            ctx = multiprocessing.get_context(self._context)
            self._executor = ProcessPoolExecutor(max_workers=self.workers, mp_context=ctx)
        return self._executor

    def _recreate_executor(self) -> ProcessPoolExecutor:
        if self._executor is not None:
            self._executor.shutdown(wait=False, cancel_futures=True)
            self._executor = None
        return self._ensure_executor()

    def close(self) -> None:
        """Shut the workers down and unlink every shared segment.

        Idempotent, and unconditional about reclamation: segments are
        unlinked even when workers already crashed.
        """
        with self._lock:
            if self._executor is not None:
                self._executor.shutdown(wait=True, cancel_futures=True)
                self._executor = None
            for entry in self._index_exports.values():
                entry.group.close()
            self._index_exports.clear()
            self.closed = True

    def __enter__(self) -> "WorkerPool":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    @property
    def segment_bytes(self) -> int:
        """Total bytes currently published through shared memory."""
        with self._lock:
            return sum(entry.group.nbytes for entry in self._index_exports.values())

    # -- registration ----------------------------------------------------------

    def current_index(self, index: SpatialIndex) -> _Export | None:
        """The live export of ``index`` if one is published and still
        fresh, else ``None``.  Only looks: never exports, never touches the
        index beyond reading its fingerprint."""
        with self._lock:
            entry = self._index_exports.get(id(index))
            if (
                entry is not None
                and entry.source is index
                and entry.fingerprint == index_fingerprint(index)
            ):
                return entry
            return None

    def ensure_index(self, index: SpatialIndex) -> _Export | None:
        """The live export of ``index``, (re)publishing if absent or stale.

        Returns ``None`` when the index has no shared-memory representation
        — it is not a grid, or the grid is empty or unlinearizable — and
        callers fall back to single-process execution.
        """
        with self._lock:
            if self.closed:
                raise RuntimeError("WorkerPool is closed")
            entry = self.current_index(index)
            if entry is not None:
                return entry
            key = id(index)
            entry = self._index_exports.get(key)  # stale, if any
            payload = export_index_payload(index)
            if payload is None:
                if entry is not None:
                    entry.group.close()
                    del self._index_exports[key]
                return None
            arrays, cell = payload
            group = SegmentGroup(arrays)
            if entry is not None:
                entry.group.close()
            entry = _Export(
                source=index,
                token=f"idx-{key}-{next(_TOKENS)}",
                cell=cell,
                group=group,
                # Stamped *after* export: exporting may itself (re)build the
                # index's snapshot, which is part of the fingerprint.
                fingerprint=index_fingerprint(index),
            )
            self._index_exports[key] = entry
            self.exports += 1
            return entry

    # -- execution -------------------------------------------------------------

    def _map(self, fn, tasks: list[tuple]) -> list[Any]:
        """Run ``fn(*task)`` for every task, retrying once on a dead pool.

        Exactly-once per completed task: results that landed before the
        pool broke are kept, and only the tasks that died are resubmitted
        to the recreated executor.  (The old retry-everything path re-ran
        completed shards, double-counting their charged work.)  A second
        ``BrokenProcessPool`` propagates.
        """
        with self._lock:
            executor = self._ensure_executor()
        results: list[Any] = [None] * len(tasks)
        done = [False] * len(tasks)
        futures: list = []
        try:
            for task in tasks:
                futures.append(executor.submit(fn, *task))
        except BrokenProcessPool:
            pass  # unsubmitted tasks join the retry set below
        for index, future in enumerate(futures):
            try:
                results[index] = future.result()
                done[index] = True
            except BrokenProcessPool:
                pass
        failed = [index for index, ok in enumerate(done) if not ok]
        if not failed:
            return results
        with self._lock:
            executor = self._recreate_executor()
        futures = {index: executor.submit(fn, *tasks[index]) for index in failed}
        for index, future in futures.items():
            results[index] = future.result()
        return results

    def _map_telemetry(self, fn, tasks: list[tuple]) -> list[tuple]:
        """:meth:`_map` for obs-aware worker tasks: appends the propagated
        trace context to every task, strips the trailing spans element from
        every part and folds it into this process's tracer (exactly once —
        retried tasks report only their surviving run)."""
        ctx = propagation_context()
        parts = self._map(fn, [(*task, ctx) for task in tasks])
        stripped = []
        for part in parts:
            ingest_telemetry(part[-1])
            stripped.append(part[:-1])
        return stripped

    def run_query_shards(
        self,
        entry: _Export,
        batch_kind: str,
        payload: np.ndarray,
        k: int | None,
        shards: int,
    ) -> tuple[list, Counters]:
        """Partition ``payload`` row-wise across the workers; returns the
        results in row order and the :class:`Counters` the shards' snapshot
        grids were charged, summed."""
        bounds = np.linspace(0, payload.shape[0], shards + 1).astype(int)
        tasks = [
            (
                entry.token,
                entry.group.meta,
                entry.cell,
                batch_kind,
                payload[a:b],
                k,
            )
            for a, b in zip(bounds[:-1], bounds[1:])
            if b > a
        ]
        parts = self._map_telemetry(_worker.query_shard_task, tasks)
        results: list = []
        for shard_results, _ in parts:
            results.extend(shard_results)
        with self._lock:  # a session's own-flush may run beside its queue flush
            self.shards_run += len(tasks)
        return results, sum((charged for _, charged in parts), Counters())


# -- the shared default pool ---------------------------------------------------

_DEFAULT: WorkerPool | None = None
_DEFAULT_LOCK = threading.Lock()


def default_pool() -> WorkerPool:
    """The process-wide shared pool (created on first use).

    Sessions that don't pass an explicit pool land here, so every grid in
    the process shares one set of workers — the serving-tier analogue of a
    database's one background worker fleet.
    """
    global _DEFAULT
    with _DEFAULT_LOCK:
        if _DEFAULT is None or _DEFAULT.closed:
            _DEFAULT = WorkerPool()
        return _DEFAULT


def shutdown_default_pool() -> None:
    """Close the shared pool (idempotent; also runs at interpreter exit)."""
    global _DEFAULT
    with _DEFAULT_LOCK:
        if _DEFAULT is not None:
            _DEFAULT.close()
            _DEFAULT = None


atexit.register(shutdown_default_pool)
