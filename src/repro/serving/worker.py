"""Worker-process entry points of the serving pool.

Everything here runs inside pool workers.  A worker receives a *task*: the
shared-memory metadata of a registered payload plus the probe slice to
execute.  The payload is attached and rehydrated **once per worker** and
cached under the parent-issued token — subsequent tasks against the same
token skip straight to the kernels, so steady-state traffic ships only
probe arrays in and result arrays out.

The parent issues a fresh token whenever an index mutates, so a token is an
immutable name for one exported snapshot; the small LRU here releases the
mappings of superseded tokens.

Spilled data takes the same shape with files instead of shm: the parent
ships picklable :class:`~repro.exec.spill.MappedRun` descriptors, and the
worker maps the spill file read-only **once per file** (cached by path, like
the token cache) and serves every segment as a zero-copy view.  Workers
never hold a writable descriptor to the spill file — the parent owns its
lifetime — so a worker crash leaks nothing and a pool retry just remaps.
"""

from __future__ import annotations

import mmap
import os
from collections import OrderedDict

import numpy as np

from repro.engine.batch import BatchQueryEngine, BatchStats
from repro.geometry.table import BoxTable
from repro.indexes.base import SpatialIndex
from repro.instrumentation.counters import Counters
from repro.obs import capture_worker, global_registry
from repro.serving.shm import AttachedArrays
from repro.serving.snapshots import build_worker_index, items_from_arrays

#: Superseded payloads kept attached per worker before eviction.  Small: a
#: steady-state serving worker uses one or two live payloads; anything past
#: the cap is a stale snapshot whose mappings should be released.
_CACHE_CAP = 8

Meta = dict[str, tuple[str, str, tuple[int, ...]]]


class _CacheEntry:
    __slots__ = ("attached", "index", "items")

    def __init__(self, attached: AttachedArrays) -> None:
        self.attached = attached
        self.index: SpatialIndex | None = None
        self.items: BoxTable | None = None


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


# -- mapped spill files --------------------------------------------------------

#: Read-only mappings of parent spill files, one live mapping per path.
_MAPS: dict[str, tuple[mmap.mmap, int]] = {}
#: Superseded mappings that zero-copy views may still pin (a closed-on-GC
#: mapping mirrors MappedPageStore's retire-don't-close policy).
_RETIRED_MAPS: list[mmap.mmap] = []


def _mapping_for(path: str, min_size: int) -> mmap.mmap:
    """The worker's read-only mapping of one spill file.

    Cached per path; when the file has grown past the cached mapping, a
    larger mapping replaces it and the old one is retired (views served
    earlier keep their buffer).  The parent flushed its writes before
    describing the runs, so the bytes are visible here through the kernel's
    page cache.
    """
    entry = _MAPS.get(path)
    if entry is not None and entry[1] >= min_size:
        return entry[0]
    with open(path, "rb") as handle:
        size = os.fstat(handle.fileno()).st_size
        if size < min_size:
            raise ValueError(
                f"spill file {path!r} is {size} bytes; task needs {min_size}"
            )
        mapping = mmap.mmap(handle.fileno(), size, access=mmap.ACCESS_READ)
    if entry is not None:
        _RETIRED_MAPS.append(entry[0])
    _MAPS[path] = (mapping, size)
    return mapping


def _run_extent(run) -> int:
    """Last byte offset (exclusive) a :class:`MappedRun`'s pages reach."""
    page_size = run.page_size
    return max(
        page * page_size + min(page_size, run.nbytes - index * page_size)
        for index, page in enumerate(run.pages)
    )


def merge_run_task(layout, segments_a, segments_b, obs_ctx=None):
    """Merge one spilled PBSM tile run into result id pairs.

    The sharded executor's ``tile_runs`` protocol: ``segments_a`` /
    ``segments_b`` are lists of ``(eids, boxes, keys)``
    :class:`~repro.exec.spill.MappedRun` triples in the parent's gather
    order, so concatenation — and therefore the stable key sort and the
    kernel's pair order — is bit-identical to the inline merge loop.
    """
    from repro.exec.external_join import concat_segments, merge_run_arrays

    counters = Counters()
    with capture_worker("merge_run", obs_ctx, counters=counters) as cap:
        sides = []
        for segments in (segments_a, segments_b):
            parts = [
                tuple(_attach_slice(run, 0, run.rows, counters) for run in seg) for seg in segments
            ]
            sides.append(concat_segments(parts, layout.dims))
        ids_a, ids_b = merge_run_arrays(layout, sides[0], sides[1], counters)
        cap.set_attr("pairs", int(ids_a.shape[0]))
    return ids_a, ids_b, counters, cap.telemetry


def str_slab_task(max_entries: int, segments, obs_ctx=None):
    """Tile one STR slab of an external build into leaves.

    ``segments`` is ``[(eids_run, boxes_run, lo, hi), ...]`` in run order —
    the same gather order as the inline slab loop, and the same
    :func:`~repro.exec.external_build.tile_slab` finishes it, so the leaves
    are identical.  The slab stays arrays from the mapped spill file to the
    result: returns ``((boxes, eids, bounds), counters)`` with the rows
    permuted into packing order and leaf ``g`` at ``bounds[g]:bounds[g+1]``
    (three arrays to pickle, however many leaves).
    """
    from repro.exec.external_build import tile_slab

    counters = Counters()
    with capture_worker("str_slab", obs_ctx, counters=counters) as cap:
        box_parts, eid_parts = [], []
        for eids_run, boxes_run, lo, hi in segments:
            box_parts.append(_attach_slice(boxes_run, lo, hi, counters))
            eid_parts.append(_attach_slice(eids_run, lo, hi, counters))
        tiled = tile_slab(box_parts, eid_parts, max_entries)
        cap.set_attr("entries", int(tiled[1].shape[0]))
    return tiled, counters, cap.telemetry


def _attach_slice(run, lo: int, hi: int, counters: Counters) -> np.ndarray:
    """Rows ``[lo, hi)`` of a mapped run (zero-copy when contiguous)."""
    from repro.exec.spill import mapped_run_rows

    mapping = _mapping_for(run.path, _run_extent(run))
    counters.spill_bytes_read += (hi - lo) * run.row_bytes
    global_registry().counter("spill.bytes_read").inc((hi - lo) * run.row_bytes)
    return mapped_run_rows(mapping, run, lo, hi, counters)


def query_shard_task(
    token: str,
    kind: str,
    meta: Meta,
    scalars: dict[str, float],
    batch_kind: str,
    chunk: np.ndarray,
    k: int | None,
    dedup: bool,
    accuracy: float | None = None,
    obs_ctx: tuple[str, str] | None = None,
) -> tuple[list, BatchStats, dict | None]:
    """Answer one probe chunk against a rehydrated index snapshot.

    ``accuracy`` is the parent planner's resolved routing decision: a float
    routes a kNN chunk through the snapshot's defeatist kernel (spill
    payloads); ``None`` — and any snapshot without an approximate kernel —
    serves exactly."""
    from repro.engine.session import QueryBatch, _run_on_engine

    with capture_worker("query_shard", obs_ctx, kind=batch_kind) as cap:
        entry = _entry_for(token, meta)
        if entry.index is None:
            entry.index = build_worker_index(kind, entry.attached.arrays, scalars)
        engine = BatchQueryEngine(entry.index, dedup=dedup)
        results = _run_on_engine(
            engine, QueryBatch(kind=batch_kind, payload=chunk, k=k, accuracy=accuracy)
        )
        cap.set_attr("queries", int(chunk.shape[0]))
    return results, engine.stats, cap.telemetry


def _items_for(token: str, meta: Meta) -> BoxTable:
    entry = _entry_for(token, meta)
    if entry.items is None:
        arrays = entry.attached.arrays
        entry.items = items_from_arrays(arrays["eids"], arrays["boxes"])
    return entry.items


def join_shard_task(
    strategy,
    mode: str,
    token_a: str,
    meta_a: Meta,
    token_b: str,
    meta_b: Meta,
    bounds: tuple[int, int],
    epsilon: float,
    obs_ctx: tuple[str, str] | None = None,
):
    """Join the build side against one probe chunk with
    :func:`~repro.joins.strategies.shard_pairs`, over the (id-sorted, for
    self modes) shared-memory tables."""
    from repro.joins.strategies import shard_pairs

    counters = Counters()
    with capture_worker("join_shard", obs_ctx, mode=mode, counters=counters) as cap:
        items_a = _items_for(token_a, meta_a)
        probes = items_a if token_b == token_a else _items_for(token_b, meta_b)
        pairs = shard_pairs(strategy, mode, items_a, probes, bounds, epsilon, counters)
        cap.set_attr("pairs", len(pairs))
    return pairs, counters, cap.telemetry
