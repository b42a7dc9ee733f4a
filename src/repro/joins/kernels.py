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
* :func:`pbsm_pairs` — the fully vectorized Partition Based Spatial-Merge:
  tile replication, per-tile cross products, and reference-point dedup are
  all array expressions (one ``repeat``/``cumsum`` expansion instead of a
  dict-of-buckets), processed in bounded slabs.  :func:`replica_tile_pairs`
  is its merge phase alone, over pre-gathered replica arrays — the kernel
  the out-of-core PBSM streams spilled partitions through; both run the one
  slab loop of :func:`_merge_tiles`.
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

from repro.geometry.aabb import batch_intersects, boxes_to_array
from repro.indexes.base import Item
from repro.indexes.bulkload import str_pack
from repro.indexes.rtree import Node
from repro.instrumentation.counters import Counters

# Bool-matrix entries per all-pairs block; 1 << 24 keeps each block around
# 16 MB and measures fastest on the n=100k workload.
_BLOCK_CELLS = 1 << 24

# Candidate pairs per PBSM slab: tile cross products are materialized in
# slabs of at most this many pairs, so adversarial inputs (everything in one
# tile) degrade to bounded-memory batches instead of one giant allocation.
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
    """``(sides, strides)`` of a uniform tiling of the hull."""
    extents = hull_hi - hull_lo
    sides = np.maximum(extents / tiles_per_axis, 1e-12)
    dims = hull_lo.shape[0]
    strides = np.empty(dims, dtype=np.int64)
    strides[-1] = 1
    for axis in range(dims - 2, -1, -1):
        strides[axis] = strides[axis + 1] * tiles_per_axis
    return sides, strides


def _tile_replicas(
    boxes: np.ndarray,
    hull_lo: np.ndarray,
    sides: np.ndarray,
    strides: np.ndarray,
    tiles_per_axis: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Replicate each box into every tile it overlaps.

    Returns ``(rows, keys)``: the source row of each replica and the linear
    tile key it lands in — the array form of PBSM's partition phase.
    """
    lo_idx = np.clip(
        ((boxes[:, 0, :] - hull_lo) / sides).astype(np.int64), 0, tiles_per_axis - 1
    )
    hi_idx = np.clip(
        ((boxes[:, 1, :] - hull_lo) / sides).astype(np.int64), 0, tiles_per_axis - 1
    )
    spans = hi_idx - lo_idx + 1
    counts = spans.prod(axis=1)
    rows, flat = expand_ranges(np.zeros_like(counts), counts)
    keys = np.zeros(rows.shape[0], dtype=np.int64)
    # Decompose the flat within-window offset into per-axis tile coordinates
    # (row-major, last axis fastest), entirely in integer array arithmetic.
    rep_spans = spans[rows]
    rep_lo = lo_idx[rows]
    for axis in range(boxes.shape[2] - 1, -1, -1):
        coord = rep_lo[:, axis] + flat % rep_spans[:, axis]
        flat //= rep_spans[:, axis]
        keys += coord * strides[axis]
    return rows, keys


def _owning_keys(
    overlap_lo: np.ndarray,
    hull_lo: np.ndarray,
    sides: np.ndarray,
    strides: np.ndarray,
    tiles_per_axis: int,
) -> np.ndarray:
    """Linear key of the tile containing each overlap's lower corner — the
    unique reporter of the standard reference-point dedup."""
    idx = np.clip(
        ((overlap_lo - hull_lo) / sides).astype(np.int64), 0, tiles_per_axis - 1
    )
    return idx @ strides


def _merge_tiles(
    boxes_a: np.ndarray,
    rows_a: np.ndarray | None,
    keys_a: np.ndarray,
    boxes_b: np.ndarray,
    rows_b: np.ndarray | None,
    keys_b: np.ndarray,
    hull_lo: np.ndarray,
    sides: np.ndarray,
    strides: np.ndarray,
    tiles_per_axis: int,
    counters: Counters,
    slab_pairs: int,
) -> tuple[np.ndarray, np.ndarray]:
    """The PBSM merge over key-sorted replicas: the one slab loop.

    ``keys_x`` are per-replica tile keys, sorted ascending; ``rows_x`` maps a
    replica to its row of ``boxes_x`` (``None`` when ``boxes_x`` is already
    per replica).  Every common tile's |A_t| × |B_t| cross product is formed
    with one ``repeat``/``cumsum`` expansion, tested for the whole slab at
    once, and a pair is kept only in the tile owning its overlap's lower
    corner.  Returns the kept pairs as ``boxes_x`` row arrays.
    """
    empty = np.empty(0, dtype=np.int64)
    uniq_a, start_a = np.unique(keys_a, return_index=True)
    uniq_b, start_b = np.unique(keys_b, return_index=True)
    count_a = np.diff(np.append(start_a, keys_a.shape[0]))
    count_b = np.diff(np.append(start_b, keys_b.shape[0]))

    common, ia, ib = np.intersect1d(uniq_a, uniq_b, return_indices=True)
    if common.shape[0] == 0:
        return empty, empty
    ca, cb = count_a[ia], count_b[ib]
    sa, sb = start_a[ia], start_b[ib]
    pair_counts = ca * cb

    out_a: list[np.ndarray] = []
    out_b: list[np.ndarray] = []
    # Slab the common tiles so each materialized cross product stays bounded.
    slab_edges = [0]
    running = 0
    for g, p in enumerate(pair_counts):
        running += int(p)
        if running >= slab_pairs:
            slab_edges.append(g + 1)
            running = 0
    if slab_edges[-1] != common.shape[0]:
        slab_edges.append(common.shape[0])

    for lo_g, hi_g in zip(slab_edges[:-1], slab_edges[1:]):
        g_cb = cb[lo_g:hi_g]
        g_pairs = pair_counts[lo_g:hi_g]
        groups, local = expand_ranges(np.zeros_like(g_pairs), g_pairs)
        total = groups.shape[0]
        if total == 0:
            continue
        ai = sa[lo_g:hi_g][groups] + local // g_cb[groups]
        bi = sb[lo_g:hi_g][groups] + local % g_cb[groups]
        if rows_a is not None:
            ai = rows_a[ai]
        if rows_b is not None:
            bi = rows_b[bi]
        counters.comparisons += total

        la, lb = boxes_a[ai], boxes_b[bi]
        overlap_lo = np.maximum(la[:, 0, :], lb[:, 0, :])
        overlap_hi = np.minimum(la[:, 1, :], lb[:, 1, :])
        intersecting = np.all(overlap_lo <= overlap_hi, axis=1)
        owners = _owning_keys(overlap_lo, hull_lo, sides, strides, tiles_per_axis)
        keep = intersecting & (owners == common[lo_g:hi_g][groups])
        out_a.append(ai[keep])
        out_b.append(bi[keep])

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

    Partition (replicate into tiles), sort replicas by tile, and merge them
    (:func:`_merge_tiles`).  Slabs cap peak memory; results are deduplicated
    by construction, never by hashing.
    """
    sides, strides = tile_layout(hull_lo, hull_hi, tiles_per_axis)
    rows_a, keys_a = _tile_replicas(boxes_a, hull_lo, sides, strides, tiles_per_axis)
    rows_b, keys_b = _tile_replicas(boxes_b, hull_lo, sides, strides, tiles_per_axis)
    counters.cells_probed += int(keys_a.shape[0] + keys_b.shape[0])

    order_a = np.argsort(keys_a, kind="stable")
    order_b = np.argsort(keys_b, kind="stable")
    return _merge_tiles(
        boxes_a, rows_a[order_a], keys_a[order_a],
        boxes_b, rows_b[order_b], keys_b[order_b],
        hull_lo, sides, strides, tiles_per_axis, counters, slab_pairs,
    )


def replica_tile_pairs(
    eids_a: np.ndarray,
    boxes_a: np.ndarray,
    keys_a: np.ndarray,
    eids_b: np.ndarray,
    boxes_b: np.ndarray,
    keys_b: np.ndarray,
    hull_lo: np.ndarray,
    sides: np.ndarray,
    strides: np.ndarray,
    tiles_per_axis: int,
    counters: Counters,
    slab_pairs: int = _SLAB_PAIRS,
) -> tuple[np.ndarray, np.ndarray]:
    """The PBSM merge phase over pre-gathered, key-sorted replica arrays.

    Where :func:`pbsm_pairs` partitions *and* merges in one call over the
    full input, this kernel is the merge alone: the caller hands it one
    partition's worth of replicas — per-replica ``(eid, box, tile key)``
    with keys sorted ascending — which is exactly what the out-of-core PBSM
    (:mod:`repro.exec.external_join`) reads back from a spill file.  Pairs
    keep the global reference-point dedup: a pair is reported only by the
    tile owning its overlap's lower corner, so partitions never duplicate
    output even though boxes are replicated across tiles *and* partitions.

    Returns ``(ids_a, ids_b)`` element-id arrays (not row indices — the
    original rows are gone once a partition is spilled).
    """
    ai, bi = _merge_tiles(
        boxes_a, None, keys_a, boxes_b, None, keys_b,
        hull_lo, sides, strides, tiles_per_axis, counters, slab_pairs,
    )
    return eids_a[ai], eids_b[bi]


# -- STR-tree carried-set traversal --------------------------------------------


def _box_gap_matrix(probe_boxes: np.ndarray, entry_boxes: np.ndarray) -> np.ndarray:
    """Euclidean gaps between probe boxes and node entries: ``(probes, entries)``.

    The box-join analogue of the batch-kNN traversal's ``_entry_distances``
    point kernel: per-axis gap is ``max(entry.lo - probe.hi,
    probe.lo - entry.hi, 0)``; zero means intersecting (closed intervals).
    """
    gaps = np.maximum(
        np.maximum(
            entry_boxes[None, :, 0, :] - probe_boxes[:, None, 1, :],
            probe_boxes[:, None, 0, :] - entry_boxes[None, :, 1, :],
        ),
        0.0,
    )
    return np.sqrt(np.einsum("ped,ped->pe", gaps, gaps))


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
        gaps = _box_gap_matrix(probe_boxes[carried], entry_boxes)
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
