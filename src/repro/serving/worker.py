"""Worker-process entry points of the serving pool.

Everything here runs inside pool workers.  A worker receives a *task*: the
shared-memory metadata of a published grid snapshot plus the probe slice
to execute.  The snapshot is attached and rehydrated **once per worker**
and cached under the parent-issued token — subsequent tasks against the
same token skip straight to the kernels, so steady-state traffic ships
only probe arrays in and result arrays out.

The parent issues a fresh token whenever the grid mutates, so a token is an
immutable name for one exported snapshot; the small LRU here releases the
mappings of superseded tokens.  The one task is a query shard
(:func:`query_shard_task`).
"""

from __future__ import annotations

from collections import OrderedDict

import numpy as np

from repro.instrumentation.counters import Counters
from repro.obs import capture_worker
from repro.serving.shm import AttachedArrays
from repro.serving.snapshots import SnapshotGridIndex

#: Superseded payloads kept attached per worker before eviction.  Small: a
#: steady-state serving worker uses one or two live payloads; anything past
#: the cap is a stale snapshot whose mappings should be released.
_CACHE_CAP = 8

Meta = dict[str, tuple[str, str, tuple[int, ...]]]


class _CacheEntry:
    __slots__ = ("attached", "index")

    def __init__(self, attached: AttachedArrays) -> None:
        self.attached = attached
        self.index: SnapshotGridIndex | None = None


_CACHE: OrderedDict[str, _CacheEntry] = OrderedDict()


def _entry_for(token: str, meta: Meta) -> _CacheEntry:
    entry = _CACHE.get(token)
    if entry is None:
        entry = _CacheEntry(AttachedArrays(meta))
        _CACHE[token] = entry
        while len(_CACHE) > _CACHE_CAP:
            _, evicted = _CACHE.popitem(last=False)
            evicted.attached.release()
    _CACHE.move_to_end(token)
    return entry


def query_shard_task(
    token: str,
    meta: Meta,
    cell: float,
    batch_kind: str,
    chunk: np.ndarray,
    k: int | None,
    obs_ctx: tuple[str, str] | None = None,
) -> tuple[list, Counters, list[dict] | None]:
    """Answer one probe chunk against a rehydrated grid snapshot; returns
    the results, the :class:`Counters` the snapshot was charged and the
    spans the task recorded (``None`` untraced)."""
    from repro.engine.session import BatchExecutor, QueryBatch

    with capture_worker("query_shard", obs_ctx, kind=batch_kind) as cap:
        entry = _entry_for(token, meta)
        if entry.index is None:
            entry.index = SnapshotGridIndex(entry.attached.arrays, cell)
        counters = entry.index.counters
        before = counters.snapshot()
        results = BatchExecutor().run(
            entry.index, QueryBatch(kind=batch_kind, payload=chunk, k=k)
        )
        cap.set_attr("queries", int(chunk.shape[0]))
    return results, counters.diff(before), cap.telemetry
