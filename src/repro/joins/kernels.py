"""Vectorized candidate-pair kernels for the join strategies.

Every kernel works on packed box arrays (``(n, 2, d)`` float64 — the
``boxes`` of a :class:`~repro.geometry.table.BoxTable`, the same layout the
query engine's batch kernels use) and returns candidate pairs as parallel
integer row arrays — no Python-level pair loops.  The kernels never pack
items themselves: the join plane hands them the table its spec built once.
Four families:

* :func:`block_pairs` — blocked all-pairs ``batch_intersects``: the
  vectorized nested loop.  O(n·m) comparisons but at kernel speed; the
  memory cap bounds each bool block.
* :func:`pbsm_pairs` — the fully vectorized Partition Based Spatial-Merge,
  built from the uniform grid's own gather kernels
  (:mod:`repro.core.uniform_grid`) applied to tile windows: the grid's
  window expansion replicates boxes into tiles, B's replicas become a cell
  table, and A's replicas walk it under the grid's *first-common-cell* rule,
  which on tiles is exactly PBSM's reference-point dedup (a pair is kept
  only in the tile holding its overlap's low corner).  The walk is cut into
  bounded slabs.  :func:`replica_tile_pairs` is its merge phase alone, over
  pre-gathered replica arrays whose keys carry the first mask in their low
  bits — the kernel the out-of-core PBSM streams spilled partitions
  through; both run :func:`_merge_replicas`.
* :func:`grid_self_pairs` — the grid join's self path: every box goes into
  the cells its window covers, and each cell's entries meet each other once
  (``i < j``), kept under the same first-common-cell rule, so a self-join
  enumerates every unordered pair once — no diagonal, no second
  orientation — in bounded slabs.
* :func:`tree_pairs` — candidate generation over an STR-packed
  :class:`~repro.indexes.rtree.RTree` (:func:`str_tree`, which TOUCH builds
  too) with the *carried-query-set* traversal of
  :mod:`repro.indexes.batch_knn`, reading its node records directly: every
  node is expanded at most once per batch with the subset of probes whose
  per-probe gap bound still reaches it.  With bounds of 0 this is a batched
  intersection join; with bounds of ε it is the distance join's filter, no
  box expansion needed — exactly the "batched joins reusing the kNN
  traversal's seeded bounds" direction the ROADMAP names.

:func:`expand_ranges` is the window-expansion idiom the strategies compose.
"""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np

from repro.core.uniform_grid import (
    _axis_arrays,
    _cell_coords,
    _cell_table,
    _expand_windows,
    _group,
    _linear_strides,
    _walk_cells,
    box_columns,
    grid_axes,
)
from repro.geometry.aabb import AABB, batch_intersects
from repro.geometry.refine import batch_box_gaps
from repro.geometry.table import BoxTable
from repro.indexes.base import Item
from repro.indexes.rtree import RTree
from repro.instrumentation.counters import Counters

# Bool-matrix entries per all-pairs block; 1 << 24 keeps each block around
# 16 MB and measures fastest on the n=100k workload.
_BLOCK_CELLS = 1 << 24

# Candidate entries per slab: the PBSM merge enumerates tile cross products,
# and the grid self-join each cell's entry pairs, in slabs of at most this
# many entries, so adversarial inputs (everything in one tile or cell) degrade
# to bounded-memory batches instead of one giant allocation.
_SLAB_PAIRS = 1 << 22


def expand_ranges(starts: np.ndarray, stops: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Expand per-row index windows ``[starts, stops)`` into pair arrays.

    Returns ``(rows, cols)`` where row ``i`` contributes the column indices
    ``starts[i] .. stops[i]-1``: the vectorized form of the nested
    "for each element, for each index in its window" loop every partitioned
    join bottoms out in.
    """
    counts = np.maximum(stops - starts, 0)
    total = int(counts.sum())
    if total == 0:
        return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64)
    rows = np.repeat(np.arange(starts.shape[0], dtype=np.int64), counts)
    bases = np.concatenate([[0], np.cumsum(counts)[:-1]])
    offsets = np.arange(total, dtype=np.int64) - np.repeat(bases, counts)
    return rows, starts[rows] + offsets


# -- blocked all-pairs ---------------------------------------------------------


def block_pairs(
    boxes_a: np.ndarray,
    boxes_b: np.ndarray,
    counters: Counters,
    block_cells: int = _BLOCK_CELLS,
) -> tuple[np.ndarray, np.ndarray]:
    """All intersecting ``(row_a, row_b)`` pairs by blocked dense overlap.

    The vectorized nested loop: every pair is tested, but d·n·m float
    comparisons run in the kernel instead of n·m Python iterations.
    """
    n, m = boxes_a.shape[0], boxes_b.shape[0]
    if n == 0 or m == 0:
        return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64)
    counters.comparisons += n * m
    rows_per_block = max(1, block_cells // max(m, 1))
    out_a: list[np.ndarray] = []
    out_b: list[np.ndarray] = []
    for start in range(0, n, rows_per_block):
        ai, bi = np.nonzero(batch_intersects(boxes_a[start : start + rows_per_block], boxes_b))
        out_a.append(ai + start)
        out_b.append(bi)
    return np.concatenate(out_a), np.concatenate(out_b)


# -- vectorized PBSM -----------------------------------------------------------


def tile_layout(
    hull_lo: np.ndarray, hull_hi: np.ndarray, tiles_per_axis: int
) -> tuple[np.ndarray, np.ndarray]:
    """``(sides, strides)`` of a uniform tiling of the hull.

    Refuses a tiling whose linear tile keys, shifted past the ``dims`` bits
    of a packed first mask (:func:`pack_first`), would not fit int64 — the
    grid's :func:`~repro.core.uniform_grid._linear_strides` rule plus those
    bits — before anything tile-sized is allocated.
    """
    dims = hull_lo.shape[0]
    strides = _linear_strides(np.full(dims, tiles_per_axis - 1))
    if tiles_per_axis < 1 or strides is None or int(tiles_per_axis) ** dims << dims >= 1 << 62:
        raise ValueError(
            f"cannot tile {dims}-d input with {tiles_per_axis} tiles per axis: "
            "linear tile keys would not fit int64"
        )
    sides = np.maximum((hull_hi - hull_lo) / tiles_per_axis, 1e-12)
    return sides, strides


def tile_replicas(
    boxes: np.ndarray,
    hull_lo: np.ndarray,
    sides: np.ndarray,
    strides: np.ndarray,
    tiles_per_axis: int,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Replicate each box into every tile it overlaps: PBSM's partition phase.

    Returns ``(rows, keys, first)``: the source row of each replica, the
    linear tile key it lands in and its first mask (bit ``a`` set iff the
    tile is the box's low tile on axis ``a``), in row order, tiles in
    row-major order within a row — the grid's own window expansion
    (:func:`~repro.core.uniform_grid._expand_windows`) over tile windows.
    """
    tiles = _tile_windows(boxes, hull_lo, sides, tiles_per_axis)
    return _expand_windows(tiles[0].T, tiles[1].T, strides)


def tile_histogram(
    chunks: Iterable[np.ndarray], hull_lo: np.ndarray, sides: np.ndarray, tiles_per_axis: int
) -> np.ndarray:
    """Replicas per tile key of :func:`tile_replicas` over every chunk of
    boxes, without making them.

    A difference array over one ``(tiles + 1)^d`` grid: each tile window adds
    ±1 at its ``2^d`` corners (a high corner sits one past the window's last
    tile, and the sign flips with each one), one unbuffered ``ufunc.at`` per
    corner, so a chunk costs its rows and never the grid.  After the last
    chunk, one ``cumsum`` per axis turns that into per-tile counts, and the
    leading ``tiles^d`` block in row-major order is indexed by tile key.
    """
    dims, span = hull_lo.shape[0], tiles_per_axis + 1
    weights = (span ** np.arange(dims - 1, -1, -1))[:, None]
    diff = np.zeros(span**dims, dtype=np.int64)
    for boxes in chunks:
        windows = _tile_windows(boxes, hull_lo, sides, tiles_per_axis)
        windows[1] += 1
        windows *= weights
        for corner in range(1 << dims):
            key = windows[corner & 1, 0]
            for axis in range(1, dims):
                key = key + windows[corner >> axis & 1, axis]
            (np.subtract if bin(corner).count("1") % 2 else np.add).at(diff, key, 1)
    grid = diff.reshape((span,) * dims)
    for axis in range(dims):
        np.cumsum(grid, axis=axis, out=grid)
    return grid[(slice(tiles_per_axis),) * dims].ravel()


def _tile_windows(
    boxes: np.ndarray, hull_lo: np.ndarray, sides: np.ndarray, tiles_per_axis: int
) -> np.ndarray:
    """Each box's inclusive tile window: ``(2, d, n)`` int64 tile coordinates
    (low corners, then high), clamped into the tiling."""
    # One contiguous column per corner and axis: ufuncs over the (n, 2, d)
    # rows would run d-long inner loops, several times slower.
    coords = np.subtract(boxes.transpose(1, 2, 0), hull_lo[:, None], order="C")
    coords /= sides[:, None]
    tiles = coords.astype(np.int64)
    np.clip(tiles, 0, tiles_per_axis - 1, out=tiles)
    return tiles


def pack_first(keys: np.ndarray, first: np.ndarray, dims: int) -> np.ndarray:
    """One int64 column per replica: the tile key above ``dims`` first-mask
    bits (:func:`tile_layout` guarantees the room)."""
    return (keys << dims) | first


def _overlapping(
    cols_a: np.ndarray, ai: np.ndarray, cols_b: np.ndarray, bi: np.ndarray
) -> np.ndarray:
    """Positions of the row pairs ``(ai, bi)`` whose boxes intersect: one
    closed-interval test per axis over :func:`box_columns` layouts."""
    hit = np.ones(ai.shape[0], dtype=bool)
    for axis in range(cols_a.shape[1]):
        hit &= cols_a[0, axis].take(ai) <= cols_b[1, axis].take(bi)
        hit &= cols_b[0, axis].take(bi) <= cols_a[1, axis].take(ai)
    return np.flatnonzero(hit)


def _merge_replicas(
    boxes_a: np.ndarray,
    rows_a: np.ndarray,
    keys_a: np.ndarray,
    first_a: np.ndarray,
    boxes_b: np.ndarray,
    rows_b: np.ndarray,
    keys_b: np.ndarray,
    first_b: np.ndarray,
    counters: Counters,
    slab_pairs: int,
) -> tuple[np.ndarray, np.ndarray]:
    """The PBSM merge: B's replicas become a grid cell table that A's walk.

    ``rows_x``/``keys_x``/``first_x`` describe each replica: its row of
    ``boxes_x``, its tile key and its first mask, in any order.  Each A
    replica meets every B replica of its tile (``comparisons`` counts these,
    the cross products over common tiles) and a pair is kept only at the
    first common tile — the grid's rule, which on tile windows *is* PBSM's
    reference-point dedup: the overlap's low corner lies, per axis, in tile
    ``max(lo_a, lo_b)``.  One columnar overlap test follows.  The A side is
    cut into slabs of at most ``slab_pairs`` enumerated entries (a replica
    whose tile alone exceeds that is a slab of its own).  Returns the kept
    pairs as ``boxes_x`` row arrays, in A replica order.
    """
    empty = np.empty(0, dtype=np.int64)
    if keys_a.shape[0] == 0 or keys_b.shape[0] == 0:
        return empty, empty
    table = _cell_table(keys_b, rows_b, first_b)
    tile_keys, _, tile_counts = table[:3]
    uniq, inverse = np.unique(keys_a, return_inverse=True)
    pos = np.minimum(np.searchsorted(tile_keys, uniq), len(tile_keys) - 1)
    per_key = np.where(tile_keys.take(pos) == uniq, tile_counts.take(pos), 0)
    entries = np.cumsum(per_key.take(inverse))
    total = int(entries[-1])
    counters.comparisons += total

    dims = boxes_a.shape[2]
    every_axis = (1 << dims) - 1
    cols_a, cols_b = box_columns(boxes_a), box_columns(boxes_b)
    out_a: list[np.ndarray] = []
    out_b: list[np.ndarray] = []
    start, done = 0, 0
    while done < total:
        stop = max(int(np.searchsorted(entries, done + slab_pairs, side="right")), start + 1)
        ai, bi, _ = _walk_cells(
            table, uniq, inverse[start:stop], rows_a[start:stop], first_a[start:stop], every_axis
        )
        hit = _overlapping(cols_a, ai, cols_b, bi)
        out_a.append(ai.take(hit))
        out_b.append(bi.take(hit))
        start, done = stop, int(entries[stop - 1])
    if not out_a:
        return empty, empty
    return np.concatenate(out_a), np.concatenate(out_b)


def pbsm_pairs(
    boxes_a: np.ndarray,
    boxes_b: np.ndarray,
    hull_lo: np.ndarray,
    hull_hi: np.ndarray,
    tiles_per_axis: int,
    counters: Counters,
    slab_pairs: int = _SLAB_PAIRS,
) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized Partition Based Spatial-Merge: ``(row_a, row_b)`` pairs.

    Partition both sides into tile replicas (:func:`tile_replicas`) and
    merge them (:func:`_merge_replicas`).  Slabs cap peak memory; results
    are deduplicated by construction, never by hashing.
    """
    sides, strides = tile_layout(hull_lo, hull_hi, tiles_per_axis)
    rows_a, keys_a, first_a = tile_replicas(boxes_a, hull_lo, sides, strides, tiles_per_axis)
    rows_b, keys_b, first_b = tile_replicas(boxes_b, hull_lo, sides, strides, tiles_per_axis)
    counters.cells_probed += int(keys_a.shape[0] + keys_b.shape[0])
    return _merge_replicas(
        boxes_a, rows_a, keys_a, first_a, boxes_b, rows_b, keys_b, first_b, counters, slab_pairs
    )


def replica_tile_pairs(
    eids_a: np.ndarray,
    boxes_a: np.ndarray,
    packed_a: np.ndarray,
    eids_b: np.ndarray,
    boxes_b: np.ndarray,
    packed_b: np.ndarray,
    counters: Counters,
    slab_pairs: int = _SLAB_PAIRS,
) -> tuple[np.ndarray, np.ndarray]:
    """The PBSM merge phase over pre-gathered replica arrays.

    Where :func:`pbsm_pairs` partitions *and* merges in one call over the
    full input, this kernel is the merge alone: the caller hands it one
    partition's worth of replicas — per-replica ``(eid, box, packed key)``
    columns, the key packed by :func:`pack_first`, in any order — which is
    exactly what the out-of-core PBSM (:mod:`repro.exec.external_join`)
    reads back from a spill file.  The first-common-tile rule is global, so
    partitions never duplicate output even though boxes are replicated
    across tiles *and* partitions.

    Returns ``(ids_a, ids_b)`` element-id arrays (not row indices — the
    original rows are gone once a partition is spilled).
    """
    dims = boxes_a.shape[2]
    every_axis = (1 << dims) - 1
    ai, bi = _merge_replicas(
        boxes_a, np.arange(packed_a.shape[0]), packed_a >> dims,
        (packed_a & every_axis).astype(np.uint8),
        boxes_b, np.arange(packed_b.shape[0]), packed_b >> dims,
        (packed_b & every_axis).astype(np.uint8),
        counters, slab_pairs,
    )
    return eids_a.take(ai), eids_b.take(bi)


# -- grid self-join --------------------------------------------------------------


def grid_self_pairs(
    boxes: np.ndarray,
    universe: AABB,
    cell: float,
    counters: Counters,
    slab_pairs: int = _SLAB_PAIRS,
) -> tuple[np.ndarray, np.ndarray] | None:
    """Every intersecting unordered pair of ``boxes`` once, as ``(row_i,
    row_j)`` with ``i != j``; ``None`` when the grid's cell keys over
    ``universe`` at ``cell`` would not fit int64.

    Each box goes into every cell its clamped window covers (the grid's
    :func:`~repro.core.uniform_grid._cell_coords` and
    :func:`~repro.core.uniform_grid._expand_windows`) and the entries are
    grouped by cell (:func:`~repro.core.uniform_grid._group`).  Inside a cell
    each entry pair ``i < j`` is enumerated once and kept only where
    ``first_i | first_j`` covers every axis — the first-common-cell rule, so
    of all the cells two windows share exactly one reports them — and one
    columnar overlap test follows.  ``comparisons`` counts the pairs
    tested, ``cells_probed`` the occupied cells.  The enumeration runs in
    slabs of at most ``slab_pairs`` pairs, cut per left entry (one whose cell
    alone exceeds that is a slab of its own), so a pile of identical boxes
    never allocates all its pairs at once.
    """
    origin, tops = _axis_arrays(grid_axes(universe, cell))
    strides = _linear_strides(tops)
    if strides is None:
        return None
    columns = box_columns(boxes)
    rows, keys, first = _expand_windows(
        _cell_coords(columns[0].T, origin, cell, tops),
        _cell_coords(columns[1].T, origin, cell, tops),
        strides,
    )
    order, keys, edge = _group(keys)
    rows, first = rows.take(order), first.take(order)
    starts = np.flatnonzero(edge)
    counters.cells_probed += int(starts.shape[0])
    # Entries after each one in its cell: its partners, in entry order.
    counts = np.diff(starts, append=keys.shape[0])
    after = np.repeat(starts + counts, counts) - np.arange(keys.shape[0]) - 1
    ends = np.cumsum(after)
    total = int(ends[-1]) if ends.shape[0] else 0

    every_axis = (1 << boxes.shape[2]) - 1
    out_i: list[np.ndarray] = [np.empty(0, dtype=np.int64)]
    out_j: list[np.ndarray] = [np.empty(0, dtype=np.int64)]
    start, done = 0, 0
    while done < total:
        stop = max(int(np.searchsorted(ends, done + slab_pairs, side="right")), start + 1)
        width = after[start:stop]
        # Pair k of entry p is (p, p + 1 + k's rank among p's pairs).
        right = np.repeat(np.arange(start + 1, stop + 1) - (np.cumsum(width) - width), width)
        right += np.arange(right.shape[0])
        mask = np.repeat(first[start:stop], width)
        mask |= first.take(right)
        chosen = np.flatnonzero(mask == every_axis)
        ri = np.repeat(rows[start:stop], width).take(chosen)
        rj = rows.take(right.take(chosen))
        counters.comparisons += int(chosen.shape[0])
        hit = _overlapping(columns, ri, columns, rj)
        out_i.append(ri.take(hit))
        out_j.append(rj.take(hit))
        start, done = stop, int(ends[stop - 1])
    return np.concatenate(out_i), np.concatenate(out_j)


# -- STR-tree carried-set traversal --------------------------------------------


def str_tree(items: Sequence[Item] | BoxTable, max_entries: int) -> RTree:
    """An STR-packed :class:`~repro.indexes.rtree.RTree` over one join side
    (the join plane has already refused non-finite boxes and repeated ids)."""
    table = BoxTable.of(items)
    tree = RTree(max_entries=max_entries)
    tree._pack_arrays(table.boxes, table.eids)
    return tree


def tree_pairs(
    items_a: Sequence[Item],
    probe_boxes: np.ndarray,
    bounds: np.ndarray,
    counters: Counters,
    max_entries: int = 16,
) -> tuple[np.ndarray, np.ndarray]:
    """Candidates via one carried-set traversal of an STR tree over A.

    ``bounds`` is the per-probe gap budget: 0 for an intersection join, ε
    for a distance join's filter (the box gap lower-bounds the exact
    geometry distance, so ``gap <= ε`` is a complete and *tighter* filter
    than ε-expanded box intersection).  Every node is visited at most once
    per batch, carrying exactly the probes whose bound still reaches its
    MBR — the same pruning discipline as the seeded best-first kNN
    traversal, with the bound fixed per probe instead of shrinking.

    Returns ``(probe_rows, eids)``: for each candidate, the probe row and
    the id of the A element within its bound.
    """
    m = probe_boxes.shape[0]
    if m == 0 or not items_a:
        return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64)
    tree = str_tree(items_a, max_entries)
    out_probes: list[np.ndarray] = []
    out_eids: list[np.ndarray] = []
    stack: list[tuple[int, np.ndarray]] = [(tree._root, np.arange(m, dtype=np.int64))]
    while stack:
        page, carried = stack.pop()
        is_leaf, entry_boxes, refs = tree._node_arrays(page)
        gaps = batch_box_gaps(probe_boxes[carried, None], entry_boxes[None])
        within = gaps <= bounds[carried][:, None]
        if is_leaf:
            counters.elem_tests += gaps.size
            counters.comparisons += gaps.size
            rows, cols = np.nonzero(within)
            if rows.shape[0]:
                out_probes.append(carried[rows])
                out_eids.append(refs[cols])
        else:
            counters.node_tests += gaps.size
            for entry_i, child in enumerate(refs.tolist()):
                sub = carried[within[:, entry_i]]
                if sub.shape[0]:
                    counters.pointer_follows += 1
                    stack.append((child, sub))
    if not out_probes:
        return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64)
    return np.concatenate(out_probes), np.concatenate(out_eids)
