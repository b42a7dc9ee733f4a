"""Vectorized candidate-pair kernels for the join strategies.

Every kernel works on packed box arrays (``(n, 2, d)`` float64 — the
``boxes`` of a :class:`~repro.geometry.table.BoxTable`, the same layout the
query engine's batch kernels use) and returns candidate pairs as parallel
integer row arrays — no Python-level pair loops.  The kernels never pack
items themselves: the join plane hands them the table its spec built once.
Three families:

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
* :func:`tree_pairs` — candidate generation over an STR-packed R-tree with
  the *carried-query-set* traversal of :mod:`repro.indexes.batch_knn`: every
  node is expanded at most once per batch with the subset of probes whose
  per-probe gap bound still reaches it.  With bounds of 0 this is a batched
  intersection join; with bounds of ε it is the distance join's filter, no
  box expansion needed — exactly the "batched joins reusing the kNN
  traversal's seeded bounds" direction the ROADMAP names.

:func:`expand_ranges` is the window-expansion idiom the strategies compose.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.core.uniform_grid import (
    _cell_table,
    _expand_windows,
    _linear_strides,
    _walk_cells,
    box_columns,
)
from repro.geometry.aabb import batch_intersects, boxes_to_array
from repro.geometry.refine import batch_box_gaps
from repro.indexes.base import Item
from repro.indexes.bulkload import str_pack
from repro.indexes.rtree import Node
from repro.instrumentation.counters import Counters

# Bool-matrix entries per all-pairs block; 1 << 24 keeps each block around
# 16 MB and measures fastest on the n=100k workload.
_BLOCK_CELLS = 1 << 24

# Candidate entries per PBSM slab: the merge enumerates tile cross products
# in slabs of at most this many entries, so adversarial inputs (everything in
# one tile) degrade to bounded-memory batches instead of one giant allocation.
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
    # Tile coordinates as one contiguous column per corner and axis: ufuncs
    # over the (n, 2, d) rows would run d-long inner loops, several times slower.
    coords = np.subtract(boxes.transpose(1, 2, 0), hull_lo[:, None], order="C")
    coords /= sides[:, None]
    tiles = coords.astype(np.int64)
    np.clip(tiles, 0, tiles_per_axis - 1, out=tiles)
    return _expand_windows(tiles[0].T, tiles[1].T, strides)


def pack_first(keys: np.ndarray, first: np.ndarray, dims: int) -> np.ndarray:
    """One int64 column per replica: the tile key above ``dims`` first-mask
    bits (:func:`tile_layout` guarantees the room)."""
    return (keys << dims) | first


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
        hit = np.ones(ai.shape[0], dtype=bool)
        for axis in range(dims):
            hit &= cols_a[0, axis].take(ai) <= cols_b[1, axis].take(bi)
            hit &= cols_b[0, axis].take(bi) <= cols_a[1, axis].take(ai)
        hit = np.flatnonzero(hit)
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


# -- STR-tree carried-set traversal --------------------------------------------


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
    root, _height, _count = str_pack(list(items_a), max_entries, Node)
    root_node: Node = root  # type: ignore[assignment]
    packed: dict[int, tuple[bool, np.ndarray, object]] = {}

    def expand(node: Node) -> tuple[bool, np.ndarray, object]:
        cached = packed.get(id(node))
        if cached is not None:
            return cached
        boxes = boxes_to_array([box for box, _ in node.entries])
        if node.is_leaf:
            refs: object = np.fromiter(
                (ref for _, ref in node.entries), dtype=np.int64, count=len(node.entries)
            )
        else:
            refs = [child for _, child in node.entries]
        packed[id(node)] = (node.is_leaf, boxes, refs)
        return packed[id(node)]

    out_probes: list[np.ndarray] = []
    out_eids: list[np.ndarray] = []
    stack: list[tuple[Node, np.ndarray]] = [(root_node, np.arange(m, dtype=np.int64))]
    while stack:
        node, carried = stack.pop()
        is_leaf, entry_boxes, refs = expand(node)
        if entry_boxes.shape[0] == 0:
            continue
        gaps = batch_box_gaps(probe_boxes[carried, None], entry_boxes[None])
        within = gaps <= bounds[carried][:, None]
        if is_leaf:
            counters.elem_tests += gaps.size
            counters.comparisons += gaps.size
            rows, cols = np.nonzero(within)
            if rows.shape[0]:
                out_probes.append(carried[rows])
                out_eids.append(refs[cols])  # type: ignore[index]
        else:
            counters.node_tests += gaps.size
            for entry_i, child in enumerate(refs):  # type: ignore[arg-type]
                sub = carried[within[:, entry_i]]
                if sub.shape[0]:
                    counters.pointer_follows += 1
                    stack.append((child, sub))
    if not out_probes:
        return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64)
    return np.concatenate(out_probes), np.concatenate(out_eids)
