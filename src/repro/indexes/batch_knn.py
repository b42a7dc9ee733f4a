"""Shared best-first batch-kNN traversal for the tree indexes.

One traversal answers a whole batch of kNN queries: every node enters the
priority queue at most once per batch, carrying the subset of queries whose
current k-th-distance bound still reaches it, and entry distances are
computed for all carried queries with the one point–box kernel
(:func:`~repro.geometry.aabb.batch_min_distance_to_points`), so they equal
the scalar ``min_distance_to_point`` bit for bit.  The per-query
running top-k lives in dense ``(m, k)`` distance/id arrays, so leaf updates
are a single row-wise merge instead of per-hit Python heap churn.

The R-tree family (:class:`~repro.indexes.rtree.RTree` and subclasses),
:class:`~repro.indexes.disk_rtree.DiskRTree` and
:class:`~repro.indexes.kdtree.KDTree` all funnel through
:func:`best_first_batch_knn`; each supplies an ``expand`` callback that maps
its own node handle to ``(is_leaf, entry_boxes, refs)``.

Two properties the callers rely on:

* **Determinism** — results follow the library-wide kNN contract (sorted
  ascending by ``(distance, id)``; see :mod:`repro.indexes.base`).  Pruning
  keeps nodes at exactly the bound distance, so an element tying the k-th
  distance with a smaller id is always found.
* **Bounded node visits** — a node is pushed once (when its parent expands)
  and popped once; large batches are split into spatially local query chunks
  so the carried-query sets, and with them the per-node matrices, stay small.
"""

from __future__ import annotations

import heapq
from typing import Callable

import numpy as np

from repro.geometry.aabb import batch_min_distance_to_points
from repro.indexes.base import KNNResult
from repro.instrumentation.counters import Counters

# Sentinel id for "no element yet" slots in the running top-k; sorts after
# every real id at equal (infinite) distance.
_ID_SENTINEL = np.iinfo(np.int64).max

# Queries per traversal chunk.  The seeded bounds keep carried-query sets
# tight regardless of chunk size, so the chunk mainly trades per-node Python
# overhead (fewer, larger visits) against peak matrix size; 4096 measures
# fastest on the n=100k/m=10k benchmark workload.
_CHUNK = 4096

# expand(handle) -> (is_leaf, boxes, refs).  ``boxes`` is an (e, 2, d) float64
# array of entry MBRs; ``refs`` is an (e,) int64 array of element ids for a
# leaf, or a sequence of child handles for an inner node.
ExpandFn = Callable[[object], tuple[bool, np.ndarray, object]]


def _spatial_chunks(pts: np.ndarray, chunk: int) -> list[np.ndarray]:
    """Split query indices into chunks of spatially nearby points.

    Bounds within a chunk tighten fastest when its queries are co-located
    (the first leaves visited serve all of them), so queries are ordered by
    coarse grid cell before slicing.  Correctness never depends on the
    grouping — it only controls pruning quality.
    """
    m = pts.shape[0]
    if m <= chunk:
        return [np.arange(m)]
    lo = pts.min(axis=0)
    extent = pts.max(axis=0) - lo
    extent[extent == 0.0] = 1.0
    cells = np.clip((pts - lo) / extent * 16.0, 0.0, 15.0).astype(np.int64)
    key = np.zeros(m, dtype=np.int64)
    for axis in range(pts.shape[1]):
        key = key * 16 + cells[:, axis]
    order = np.argsort(key, kind="stable")
    return [order[start : start + chunk] for start in range(0, m, chunk)]


def _seed_bounds(
    cpts: np.ndarray, kk: int, root: object, expand: ExpandFn, counters: Counters
) -> np.ndarray:
    """Cheap per-query upper bounds on the k-th distance: one greedy descent.

    Every query follows the child with the smallest entry distance down to a
    single leaf; the k-th smallest entry distance there bounds the true k-th
    distance from above.  Queries *partition* among children, so the whole
    phase costs one vectorized distance matrix per visited node — and the
    resulting bounds let the best-first phase prune most of the tree before
    any of its own leaves tighten them.
    """
    bounds = np.full(cpts.shape[0], np.inf)
    stack: list[tuple[object, np.ndarray]] = [(root, np.arange(cpts.shape[0]))]
    while stack:
        handle, rows = stack.pop()
        is_leaf, boxes, refs = expand(handle)
        if boxes.shape[0] == 0:
            continue
        dists = batch_min_distance_to_points(boxes, cpts[rows])
        if is_leaf:
            counters.elem_tests += dists.size
            if boxes.shape[0] >= kk:
                bounds[rows] = np.partition(dists, kk - 1, axis=1)[:, kk - 1]
            continue
        counters.node_tests += dists.size
        choice = np.argmin(dists, axis=1)
        for entry_i, child in enumerate(refs):
            sub = rows[choice == entry_i]
            if sub.shape[0]:
                stack.append((child, sub))
    return bounds


def best_first_batch_knn(
    pts: np.ndarray,
    k: int,
    size: int,
    root: object,
    expand: ExpandFn,
    counters: Counters,
    chunk: int = _CHUNK,
    after_chunk: Callable[[], None] | None = None,
) -> list[KNNResult]:
    """Answer ``k``-NN for every row of ``pts`` with shared traversals.

    ``size`` is the number of indexed elements (caps the result length);
    ``root`` is the index's root handle for ``expand``.  Callers must handle
    the trivial cases (``m == 0``, ``k <= 0``, empty index) themselves.
    ``after_chunk`` fires once per finished query chunk — callers with
    bounded-memory models (DiskRTree) release per-chunk expansion state
    there.
    """
    m = pts.shape[0]
    kk = min(k, size)
    results: list[KNNResult] = [[] for _ in range(m)]
    if kk <= 0:
        return results
    for chunk_idx in _spatial_chunks(pts, chunk):
        cpts = pts[chunk_idx]
        a = chunk_idx.shape[0]
        best_d = np.full((a, kk), np.inf)
        best_e = np.full((a, kk), _ID_SENTINEL, dtype=np.int64)
        # Seeded upper bounds stay valid for the whole chunk (the running
        # k-th distance only replaces them once it drops below).
        bounds = _seed_bounds(cpts, kk, root, expand, counters)
        tiebreak = 0
        # Heap entries: (min entry distance, tiebreak, handle, carried query
        # rows, per-carried-query distances to the node's entry box).
        heap: list[tuple[float, int, object, np.ndarray, np.ndarray]] = [
            (0.0, 0, root, np.arange(a), np.zeros(a))
        ]
        while heap:
            _, _, handle, carried, cdists = heapq.heappop(heap)
            counters.heap_ops += 1
            # Re-filter against bounds that tightened since the push.  ``<=``
            # (not ``<``) keeps tie-distance nodes visitable — an element at
            # exactly the bound with a smaller id must still displace.
            alive = cdists <= bounds[carried]
            if not alive.all():
                carried = carried[alive]
            if carried.shape[0] == 0:
                continue
            is_leaf, boxes, refs = expand(handle)
            if boxes.shape[0] == 0:
                continue
            dists = batch_min_distance_to_points(boxes, cpts[carried])  # (carried, entries)
            if is_leaf:
                counters.elem_tests += dists.size
                # Merge only rows an entry can actually improve (`<=` keeps
                # id-displacing ties eligible).
                improvable = (dists <= bounds[carried][:, None]).any(axis=1)
                if not improvable.all():
                    carried = carried[improvable]
                    dists = dists[improvable]
                if carried.shape[0] == 0:
                    continue
                entry_count = boxes.shape[0]
                cat_d = np.concatenate([best_d[carried], dists], axis=1)
                cat_e = np.concatenate(
                    [best_e[carried], np.broadcast_to(refs, (carried.shape[0], entry_count))],
                    axis=1,
                )
                order = np.lexsort((cat_e, cat_d), axis=1)[:, :kk]
                rows = np.arange(carried.shape[0])[:, None]
                best_d[carried] = cat_d[rows, order]
                best_e[carried] = cat_e[rows, order]
                bounds[carried] = np.minimum(bounds[carried], best_d[carried, kk - 1])
                counters.heap_ops += dists.size
            else:
                counters.node_tests += dists.size
                node_bounds = bounds[carried]
                for entry_i, child in enumerate(refs):
                    entry_d = dists[:, entry_i]
                    keep = entry_d <= node_bounds
                    if not keep.any():
                        continue
                    tiebreak += 1
                    counters.pointer_follows += 1
                    heapq.heappush(
                        heap,
                        (float(entry_d.min()), tiebreak, child, carried[keep], entry_d[keep]),
                    )
        for row in range(a):
            count = int(np.searchsorted(best_d[row], np.inf, side="left"))
            results[int(chunk_idx[row])] = list(
                zip(best_d[row, :count].tolist(), best_e[row, :count].tolist())
            )
        if after_chunk is not None:
            after_chunk()
    return results
