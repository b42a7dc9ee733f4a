"""Chunked external STR bulk load: sort-spill entry runs, merge into leaves.

In-memory STR packing (:meth:`repro.indexes.rtree.RTree.bulk_load`) sorts
the whole entry set at once — a working set several times the data.  This
module is the out-of-core counterpart for builds larger than the
:class:`~repro.exec.budget.MemoryBudget`:

1. **Run phase** — items are consumed in budget-sized chunks; each chunk is
   packed, sorted by its first-axis center (STR's outer sort key) and
   spilled as a typed ``(keys, eids, boxes)`` run through the
   :class:`~repro.exec.spill.SpillManager`;
2. **Merge phase** — the runs' key arrays (8 bytes/entry — the one thing
   that must be globally visible) are merged into the STR slab order; each
   first-axis slab then gathers its contiguous row range *from every run*
   via page-granular partial reads (:meth:`SpillManager.read_rows`), and the
   in-memory recursive tiler finishes the remaining axes inside the slab —
   which is exactly what STR does after its outer sort.

The pipeline is arrays from spill file to consumer: runs are typed arrays,
slabs are gathered by concatenating row ranges, and one array tiler
(:func:`repro.indexes.bulkload.tile_arrays`) finishes each slab — no
per-entry object exists anywhere in it.  :func:`external_leaf_arrays`
streams the resulting leaves as ``(boxes, eids)`` arrays in packing order,
and :meth:`repro.indexes.rtree.RTree.bulk_load_external` (``RStarTree``
and ``DiskRTree`` inherit it) encodes each one straight into a node record
without ever holding the leaf level in memory; upper levels are built from
one ``(mbr, page)`` entry per leaf — ``max_entries``-fold smaller than the
data, always in-budget.  Every chunk is refused before it is sorted or
spilled when a coordinate is NaN or ±inf, with :meth:`RTree.bulk_load`'s
message.  :func:`external_leaf_groups` is the same stream as
``[(AABB, eid), ...]`` groups.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Iterator

import numpy as np

from repro.exec.budget import MemoryBudget
from repro.exec.spill import SpillHandle, SpillManager
from repro.geometry.aabb import AABB, boxes_to_array
from repro.indexes.base import Item
from repro.indexes.bulkload import split_groups, tile_arrays
from repro.instrumentation.counters import Counters

#: Chunking below this is all overhead (mirrors the external join's floor).
MIN_CHUNK_BYTES = 1 << 16


def _entry_bytes(dims: int) -> int:
    """Spilled bytes per entry: box + eid + sort key."""
    return 2 * dims * 8 + 16


@dataclass
class _Run:
    """One sorted, (usually) spilled entry run."""

    keys: SpillHandle | np.ndarray
    eids: SpillHandle | np.ndarray
    boxes: SpillHandle | np.ndarray
    size: int
    positions: np.ndarray | None = None  # merged-order position of each row


def external_leaf_groups(
    items: Iterable[Item],
    max_entries: int,
    budget: MemoryBudget | int | None = None,
    spill: SpillManager | None = None,
    spill_dir: str | None = None,
    counters: Counters | None = None,
) -> Iterator[list[tuple[AABB, int]]]:
    """:func:`external_leaf_arrays` as entry groups ``[(box, eid), ...]``
    (the performance ledger's ``out_of_core`` replay times this stream; the
    trees read :func:`external_leaf_arrays` directly)."""
    for boxes, eids in external_leaf_arrays(
        items, max_entries, budget, spill=spill, spill_dir=spill_dir, counters=counters
    ):
        yield [
            (AABB(lo, hi), eid)
            for lo, hi, eid in zip(
                boxes[:, 0].tolist(), boxes[:, 1].tolist(), eids.tolist()
            )
        ]


def external_leaf_arrays(
    items: Iterable[Item],
    max_entries: int,
    budget: MemoryBudget | int | None = None,
    spill: SpillManager | None = None,
    spill_dir: str | None = None,
    counters: Counters | None = None,
) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Yield STR leaves as ``(boxes (g, 2, d) float64, eids (g,) int64)``
    array pairs in packing order.

    The build working set (sort arrays, runs, slab gathers) stays within
    the budget; the items iterable itself is consumed streaming and never
    materialized as a whole.
    """
    budget = MemoryBudget.coerce(budget)
    counters = counters if counters is not None else Counters()
    limit = budget.limit
    chunk_budget = max(limit // 4, MIN_CHUNK_BYTES) if limit is not None else None

    owns_spill = spill is None
    if spill is None:
        spill = SpillManager(dir=spill_dir, counters=counters)
    runs: list[_Run] = []
    try:
        dims = _build_runs(items, max_entries, budget, chunk_budget, spill, runs)
        if not runs:
            return
        total = sum(run.size for run in runs)
        _assign_positions(runs, spill, budget)
        slab_size = _slab_rows(total, dims, max_entries, chunk_budget)
        for p0 in range(0, total, slab_size):
            yield from split_groups(
                *_merge_slab(runs, spill, p0, min(p0 + slab_size, total), dims, max_entries, budget)
            )
    finally:
        for run in runs:
            for field in (run.keys, run.eids, run.boxes):
                if isinstance(field, SpillHandle):
                    spill.free(field)
        if owns_spill:
            spill.close()


def _build_runs(
    items: Iterable[Item],
    max_entries: int,
    budget: MemoryBudget,
    chunk_budget: int | None,
    spill: SpillManager,
    runs: list[_Run],
) -> int:
    """Consume items into sorted runs; returns the dimensionality."""
    dims = 0
    chunk_rows = 1 << 30
    buffer: list[Item] = []
    iterator = iter(items)
    seen: set[int] = set()
    spill_runs: bool | None = None if chunk_budget is not None else False

    def flush() -> None:
        nonlocal spill_runs
        if not buffer:
            return
        n = len(buffer)
        eids = np.fromiter((eid for eid, _ in buffer), dtype=np.int64, count=n)
        boxes = boxes_to_array([box for _, box in buffer])
        buffer.clear()
        if not np.isfinite(boxes).all():
            raise ValueError("box coordinates must be finite")
        with budget.reserving(boxes.nbytes + 2 * eids.nbytes, force=True):
            keys = (boxes[:, 0, 0] + boxes[:, 1, 0]) * 0.5
            order = np.argsort(keys, kind="stable")
            keys, eids, boxes = keys[order], eids[order], boxes[order]
            if spill_runs:
                runs.append(
                    _Run(
                        spill.spill(keys, tag="str-keys"),
                        spill.spill(eids, tag="str-eids"),
                        spill.spill(boxes, tag="str-boxes"),
                        n,
                    )
                )
            else:
                runs.append(_Run(keys, eids, boxes, n))

    for item in iterator:
        eid, box = item
        # The streaming counterpart of ``validate_items`` (materializing the
        # iterable for a pre-pass would defeat the bounded build).
        if dims == 0:
            dims = box.dims
            if chunk_budget is not None:
                chunk_rows = max(chunk_budget // _entry_bytes(dims), max_entries)
        elif box.dims != dims:
            raise ValueError(f"element {eid} has {box.dims} dims, expected {dims}")
        if eid in seen:
            raise ValueError(f"duplicate element id {eid}")
        seen.add(eid)
        buffer.append(item)
        if len(buffer) >= chunk_rows:
            if spill_runs is None:
                # More than one chunk's worth of data: this build pays the
                # spill path; a single-chunk build stays resident.
                spill_runs = True
            flush()
    if spill_runs is None:
        spill_runs = False
    flush()
    return dims


def _assign_positions(runs: list[_Run], spill: SpillManager, budget: MemoryBudget) -> None:
    """Compute each run row's position in the merged global key order.

    Only the key arrays (8 bytes/entry) are loaded; a stable argsort makes
    every run's positions ascending, so slab membership per run is a
    contiguous row range found by binary search.
    """
    total = sum(run.size for run in runs)
    with budget.reserving(3 * total * 8, force=True):
        all_keys = np.concatenate(
            [_fetch_rows(spill, run.keys, 0, run.size) for run in runs]
        )
        order = np.argsort(all_keys, kind="stable")
        inverse = np.empty(total, dtype=np.int64)
        inverse[order] = np.arange(total, dtype=np.int64)
        offset = 0
        for run in runs:
            run.positions = inverse[offset : offset + run.size]
            offset += run.size


def _merge_slab(
    runs: list[_Run],
    spill: SpillManager,
    p0: int,
    p1: int,
    dims: int,
    max_entries: int,
    budget: MemoryBudget,
) -> tuple[np.ndarray, np.ndarray, list[int]]:
    """Gather one slab's rows from every run and tile them into leaves.

    The slab is an axis-0 slice of the global sort — exactly STR's state
    after its outer sort — so the tiler finishes from axis 1 (axis 0 again
    for 1-d data).  Returns ``(boxes, eids, bounds)`` with the rows permuted
    into packing order and leaf ``g`` at ``bounds[g]:bounds[g + 1]``; the
    permutation always copies, so nothing returned aliases a spill-file
    view.
    """
    # Held at the peak: the gathered rows plus their permuted copy.
    with budget.reserving(2 * (p1 - p0) * _entry_bytes(dims), force=True):
        box_parts, eid_parts = [], []
        for run in runs:
            assert run.positions is not None
            lo = int(np.searchsorted(run.positions, p0, side="left"))
            hi = int(np.searchsorted(run.positions, p1, side="left"))
            if lo == hi:
                continue
            box_parts.append(_fetch_rows(spill, run.boxes, lo, hi))
            eid_parts.append(_fetch_rows(spill, run.eids, lo, hi))
        boxes = np.concatenate(box_parts)
        eids = np.concatenate(eid_parts)
        order, bounds = tile_arrays(boxes, min(1, dims - 1), max_entries)
        return boxes[order], eids[order], bounds


def _slab_rows(total: int, dims: int, max_entries: int, chunk_budget: int | None) -> int:
    """STR's first-axis slab size, shrunk (never below a leaf) to the budget."""
    pages = math.ceil(total / max_entries)
    slabs = max(1, math.ceil(pages ** (1.0 / dims)))
    slab_size = math.ceil(total / slabs)
    if chunk_budget is not None:
        per_entry = _entry_bytes(dims)
        while slab_size * per_entry > chunk_budget and slab_size > max_entries:
            slabs *= 2
            slab_size = math.ceil(total / slabs)
    return max(slab_size, max_entries)


def _fetch_rows(
    spill: SpillManager, field: SpillHandle | np.ndarray, lo: int, hi: int
) -> np.ndarray:
    if isinstance(field, SpillHandle):
        return spill.read_rows(field, lo, hi)
    return field[lo:hi]


def external_bulk_load(
    index: object,
    items: Iterable[Item],
    budget: MemoryBudget | int | None = None,
    spill_dir: str | None = None,
) -> None:
    """Bulk-load any index exposing ``bulk_load_external`` under a budget.

    :class:`~repro.indexes.rtree.RTree` (and its R* subclass) and
    :class:`~repro.indexes.disk_rtree.DiskRTree` implement the hook; other
    indexes raise ``TypeError``.
    """
    hook = getattr(index, "bulk_load_external", None)
    if hook is None:
        raise TypeError(
            f"{type(index).__name__} has no external bulk load; "
            "RTree, RStarTree and DiskRTree support it"
        )
    hook(items, budget=budget, spill_dir=spill_dir)
