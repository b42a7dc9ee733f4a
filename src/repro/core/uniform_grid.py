"""A single uniform grid — the paper's primary in-memory candidate.

"One direction to develop novel spatial indexes for main memory may be to use
a single uniform grid and therefore to avoid the tree structure needed for
access."  (§3.3)

Design points realized here:

* **No tree traversal.**  A range query computes the overlapped cell window
  arithmetically and tests only the elements in those cells; the counters
  show zero ``node_tests``.
* **Cheap massive updates.**  "the small movement means that only few
  elements switch grid cell in every step, thereby requiring few updates to
  the data structure" (§4.3): :meth:`UniformGrid.update` relocates an element
  only when its cell set changes; otherwise it rewrites the stored box in
  place.  :attr:`cell_switches` counts how often relocation was actually
  needed, which the massive-update benchmarks report.
* **Replication-aware.**  Volumetric elements are registered in every cell
  they overlap; queries deduplicate.  The resolution model
  (:mod:`repro.core.resolution`) balances replication against probe counts.
* **Incrementally maintained batch snapshot.**  The vectorized batch kernels
  query a dense packed view of the buckets (:class:`_GridSnapshot`).
  Mutations *patch* the snapshot instead of discarding it: removals flip a
  per-row ``alive`` bit, insertions append to a small overlay keyed by cell,
  and in-place box rewrites update the packed coordinates directly.  A dirty
  counter triggers deferred compaction (a full repack) only when the overlay
  grows past a fraction of the base, so the first batch after a mutation no
  longer repays the full packing cost.  Invariants: the dict-of-dicts
  buckets remain the ground truth (scalar queries never consult the
  snapshot), and ``base ∖ dead ∪ overlay`` always equals the live element
  set — a patched snapshot answers every batch query identically to a
  from-scratch rebuild (``tests/test_snapshot_maintenance.py`` pins this).
"""

from __future__ import annotations

import heapq
import math
from typing import Iterable, Sequence

import numpy as np

from repro.geometry.aabb import AABB, as_box_array, as_point_array, boxes_to_array, union_all
from repro.indexes.base import Item, KNNResult, SpatialIndex, validate_items
from repro.instrumentation.counters import Counters

_BOX_BYTES_PER_DIM = 16

# Bail out of the vectorized batch kernel when the flattened (query, cell)
# expansion would exceed this many entries; the naive loop handles the rest.
_BATCH_WINDOW_CAP = 1 << 26

# Patches tolerated on a snapshot before deferred compaction repacks it.
# The threshold scales with the base so bigger grids absorb more churn, but
# is capped: overlay cells are matched with a per-cell Python loop in
# `_gather_candidates`, so past a few thousand of them a repack (O(n),
# fully vectorized) is cheaper than dragging the overlay through queries.
_SNAPSHOT_DIRTY_MIN = 64
_SNAPSHOT_DIRTY_MAX = 2048

CellKey = tuple[int, ...]


class _GridSnapshot:
    """Dense, query-ready view of the grid's buckets, patchable in place.

    ``keys`` holds the linearized ids of every occupied cell in sorted order;
    ``starts``/``counts`` delimit each cell's slice of ``entry_rows``
    (replicated elements appear once per covering cell, exactly as in the
    dict-of-dicts).  ``entry_rows`` index into the dense ``eids``/``boxes``
    element tables, so dedup can run on small integers rather than raw ids.
    ``strides`` linearize a cell coordinate tuple, ``tops`` are the per-axis
    maximum cell coordinates.

    The base arrays are frozen at build time; mutations are folded in as an
    overlay (the deferred-compaction dirty list):

    * ``alive`` masks base rows whose element was removed or relocated;
    * appended elements live in ``extra_eids``/``extra_boxes`` and are
      reachable through ``extra_cells`` (linear cell key → overlay rows);
    * in-place box rewrites patch ``boxes`` / ``extra_boxes`` directly.

    Overlay rows are addressed as ``len(eids) + i`` so one flat row space
    covers both tables; :meth:`tables` materializes (and caches) the merged
    id/box/alive views.  ``dirty`` counts patches since the build — the
    owning grid compacts (rebuilds) when it crosses the threshold.
    """

    __slots__ = (
        "keys", "starts", "counts", "entry_rows", "eids", "boxes", "strides",
        "tops", "origin", "cell", "alive", "row_of", "extra_eids",
        "extra_boxes", "extra_alive", "extra_cells", "extra_row_of", "dirty",
        "_tables",
    )

    def __init__(self, keys, starts, counts, entry_rows, eids, boxes, strides, tops, origin, cell) -> None:
        self.keys = keys
        self.starts = starts
        self.counts = counts
        self.entry_rows = entry_rows
        self.eids = eids
        self.boxes = boxes
        self.strides = strides
        self.tops = tops
        self.origin = origin
        self.cell = cell
        self.alive = np.ones(len(eids), dtype=bool)
        self.row_of: dict[int, int] | None = None  # built lazily on first patch
        self.extra_eids: list[int] = []
        self.extra_boxes: list[AABB] = []
        self.extra_alive: list[bool] = []
        self.extra_cells: dict[int, list[int]] = {}
        self.extra_row_of: dict[int, int] = {}
        self.dirty = 0
        self._tables: tuple[np.ndarray, np.ndarray, np.ndarray] | None = None

    # -- merged element tables ------------------------------------------------

    def tables(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(eids, boxes, alive)`` across base rows then overlay rows."""
        if self._tables is None:
            if not self.extra_eids:
                self._tables = (self.eids, self.boxes, self.alive)
            else:
                eids = np.concatenate(
                    [self.eids, np.array(self.extra_eids, dtype=np.int64)]
                )
                boxes = np.concatenate(
                    [self.boxes, boxes_to_array(self.extra_boxes, dims=self.boxes.shape[2])]
                )
                alive = np.concatenate([self.alive, np.array(self.extra_alive, dtype=bool)])
                self._tables = (eids, boxes, alive)
        return self._tables

    def _base_row(self, eid: int) -> int:
        if self.row_of is None:
            self.row_of = {int(e): i for i, e in enumerate(self.eids.tolist())}
        return self.row_of[eid]

    # -- patches (the dirty list) ---------------------------------------------

    def patch_insert(self, eid: int, box: AABB, cells: Sequence[CellKey]) -> None:
        """``cells`` are the grid's covered cell coordinates for ``box`` —
        the owning grid has just computed them for its own buckets."""
        idx = len(self.extra_eids)
        self.extra_eids.append(eid)
        self.extra_boxes.append(box)
        self.extra_alive.append(True)
        self.extra_row_of[eid] = idx
        strides = self.strides.tolist()
        for coords in cells:
            key = sum(c * s for c, s in zip(coords, strides))
            self.extra_cells.setdefault(key, []).append(idx)
        # Queries pay per overlay *cell*, not per patched element, so a
        # box spanning many cells must push toward compaction accordingly.
        self.dirty += max(len(cells), 1)
        self._tables = None

    def patch_remove(self, eid: int) -> None:
        idx = self.extra_row_of.pop(eid, None)
        if idx is not None:
            # Dead overlay rows stay listed in extra_cells; gathering filters
            # them through the alive mask (compaction reclaims the slots).
            self.extra_alive[idx] = False
        else:
            self.alive[self._base_row(eid)] = False
        self.dirty += 1
        self._tables = None

    def patch_set_box(self, eid: int, box: AABB) -> None:
        """In-place rewrite for a move that kept the element's cell set."""
        idx = self.extra_row_of.get(eid)
        if idx is not None:
            self.extra_boxes[idx] = box
        else:
            row = self._base_row(eid)
            self.boxes[row, 0, :] = box.lo
            self.boxes[row, 1, :] = box.hi
        self.dirty += 1
        self._tables = None


def _cell_coords(
    values: np.ndarray, origin: np.ndarray, cell: float, tops: np.ndarray
) -> np.ndarray:
    """Vectorized :meth:`UniformGrid._coord`: clamped integer cell coordinates.

    Clamps in float space *before* the int64 cast — coordinates far outside
    the universe (e.g. 1e30) would otherwise overflow the cast and wrap to
    the wrong edge, where the scalar path's Python ints are exact.
    """
    return np.floor(np.clip((values - origin) / cell, 0.0, tops)).astype(np.int64)


def _expand_windows(
    lo_cells: np.ndarray, hi_cells: np.ndarray, strides: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Flatten per-row inclusive cell windows into (owner_row, linear_key).

    ``lo_cells``/``hi_cells`` are ``(m, d)`` integer corner coordinates; the
    result enumerates every cell of every window in mixed-radix order,
    entirely with ``repeat``/``cumsum`` arithmetic (no per-row Python loop).
    """
    m, dims = lo_cells.shape
    window = hi_cells - lo_cells + 1
    cells_per_row = np.prod(window, axis=1)
    total = int(cells_per_row.sum())
    owner = np.repeat(np.arange(m), cells_per_row)
    rank = np.arange(total, dtype=np.int64) - np.repeat(
        np.cumsum(cells_per_row) - cells_per_row, cells_per_row
    )
    suffix = np.ones((m, dims), dtype=np.int64)
    for axis in range(dims - 2, -1, -1):
        suffix[:, axis] = suffix[:, axis + 1] * window[:, axis + 1]
    keys = np.zeros(total, dtype=np.int64)
    for axis in range(dims):
        coord = lo_cells[owner, axis] + (rank // suffix[owner, axis]) % window[owner, axis]
        keys += coord * strides[axis]
    return owner, keys


class UniformGrid(SpatialIndex):
    """Hash-addressed uniform grid over a fixed universe.

    Parameters
    ----------
    universe:
        The indexed region.  Elements outside are clamped into edge cells
        (queries remain correct; see ``_cell_range``).
    cell_size:
        Cell side length, uniform across axes.  Use
        :func:`repro.core.resolution.optimal_cell_size` to pick it.
    """

    def __init__(
        self,
        universe: AABB | None = None,
        cell_size: float | None = None,
        counters: Counters | None = None,
    ) -> None:
        super().__init__(counters)
        if cell_size is not None and cell_size <= 0:
            raise ValueError(f"cell_size must be positive, got {cell_size}")
        self._universe = universe
        self._cell_size = cell_size
        self._cells: dict[CellKey, dict[int, AABB]] = {}
        self._boxes: dict[int, AABB] = {}
        self._cells_of: dict[int, tuple[CellKey, ...]] = {}
        # Per-axis (origin, top cell coordinate), fixed once universe and
        # cell size are: every scalar write and the snapshot build read it.
        self._axes: tuple[tuple[float, int], ...] | None = None
        self._snapshot: _GridSnapshot | None = None
        self.cell_switches = 0
        self.in_place_updates = 0
        # Lifetime count of full snapshot packs; the snapshot-maintenance
        # regression tests assert mutations patch instead of repack.
        self.snapshot_rebuilds = 0

    # -- configuration -----------------------------------------------------------

    @property
    def universe(self) -> AABB | None:
        return self._universe

    @property
    def cell_size(self) -> float | None:
        return self._cell_size

    def _ensure_configured(self, items: list[Item]) -> None:
        if self._universe is None:
            hull = union_all(box for _, box in items)
            self._universe = hull.expanded(max(hull.margin() * 0.005, 1e-9))
        if self._cell_size is None:
            # Default heuristic: aim for ~2 elements per occupied cell.
            from repro.core.resolution import default_cell_size

            self._cell_size = default_cell_size(len(items), self._universe)
        if self._axes is None:
            cell = self._cell_size
            self._axes = tuple(
                (origin, max(int(math.ceil(extent / cell)) - 1, 0))
                for origin, extent in zip(self._universe.lo, self._universe.extents())
            )

    # -- maintenance ---------------------------------------------------------------

    def bulk_load(self, items: Iterable[Item]) -> None:
        materialized = validate_items(items)
        self._cells = {}
        self._boxes = {}
        self._cells_of = {}
        self._snapshot = None
        self.cell_switches = 0
        self.in_place_updates = 0
        if not materialized:
            return
        self._ensure_configured(materialized)
        for eid, box in materialized:
            self._place(eid, box)

    def insert(self, eid: int, box: AABB) -> None:
        if eid in self._boxes:
            raise ValueError(f"element {eid} already present")
        self._ensure_configured([(eid, box)])
        self._place(eid, box)
        self.counters.inserts += 1

    def delete(self, eid: int, box: AABB) -> None:
        if eid not in self._boxes or self._boxes[eid] != box:
            raise KeyError(f"element {eid} with box {box} not in index")
        self._unplace(eid)
        self.counters.deletes += 1

    def update(self, eid: int, old_box: AABB, new_box: AABB) -> None:
        """Relocate only when the covered cell set changes (the §4.3 win)."""
        if eid not in self._boxes or self._boxes[eid] != old_box:
            raise KeyError(f"element {eid} with box {old_box} not in index")
        new_cells = tuple(self._covered_cells(new_box))
        old_cells = self._cells_of[eid]
        if new_cells == old_cells:
            self._boxes[eid] = new_box
            for key in old_cells:
                self._cells[key][eid] = new_box
            if self._snapshot is not None:
                self._snapshot.patch_set_box(eid, new_box)
                self._maybe_compact()
            self.in_place_updates += 1
        else:
            self._unplace(eid)
            self._place(eid, new_box)
            self.cell_switches += 1
        self.counters.updates += 1

    # -- queries --------------------------------------------------------------------

    def range_query(self, box: AABB) -> list[int]:
        if not self._boxes:
            return []
        counters = self.counters
        dims = box.dims
        seen: set[int] = set()
        results: list[int] = []
        for key in self._cell_range(box):
            counters.cells_probed += 1
            bucket = self._cells.get(key)
            if not bucket:
                continue
            counters.bytes_touched += len(bucket) * (dims * _BOX_BYTES_PER_DIM + 8)
            for eid, elem_box in bucket.items():
                if eid in seen:
                    continue
                counters.elem_tests += 1
                if elem_box.intersects(box):
                    seen.add(eid)
                    results.append(eid)
        return results

    def knn(self, point: Sequence[float], k: int) -> KNNResult:
        """Expanding-window kNN: probe growing cell rings until k confirmed."""
        if k <= 0 or not self._boxes or self._universe is None:
            return []
        assert self._cell_size is not None
        counters = self.counters
        point = tuple(point)
        radius = self._cell_size
        limit = self._universe.max_distance_to_point(point) + self._cell_size
        while True:
            probe = AABB.from_center(point, radius)
            candidates = self.range_query(probe)
            scored = []
            for eid in candidates:
                dist = self._boxes[eid].min_distance_to_point(point)
                scored.append((dist, eid))
                counters.heap_ops += 1
            confirmed = [(d, e) for d, e in scored if d <= radius]
            if len(confirmed) >= k:
                return heapq.nsmallest(k, scored)
            if radius > limit:
                scored.sort()
                return scored[:k]
            radius *= 2.0

    # -- batch queries (vectorized) ---------------------------------------------------

    def _build_snapshot(self) -> _GridSnapshot | None:
        """Pack the buckets into the dense form; ``None`` if unlinearizable.

        The cell membership is *recomputed* from the element boxes with the
        same clamped-window arithmetic as :meth:`_covered_cells`, which lets
        the whole build run vectorized instead of walking the bucket dicts —
        both necessarily describe the identical (cell, element) relation.
        """
        assert self._axes is not None and self._cell_size is not None
        dims = len(self._axes)
        origins, tops_list = zip(*self._axes)
        res = [top + 1 for top in tops_list]
        total_cells = 1
        for r in res:
            total_cells *= r
        if total_cells >= 1 << 62:  # linearized keys would overflow int64
            return None
        strides = [1] * dims
        for axis in range(dims - 2, -1, -1):
            strides[axis] = strides[axis + 1] * res[axis + 1]
        strides_arr = np.array(strides, dtype=np.int64)
        tops = np.array(tops_list, dtype=np.int64)
        origin = np.array(origins, dtype=np.float64)

        n = len(self._boxes)
        eids = np.fromiter(self._boxes.keys(), dtype=np.int64, count=n)
        boxes = boxes_to_array(list(self._boxes.values()), dims=dims)
        cell = self._cell_size
        lo_cells = _cell_coords(boxes[:, 0, :], origin, cell, tops)
        hi_cells = _cell_coords(boxes[:, 1, :], origin, cell, tops)
        rows, keys = _expand_windows(lo_cells, hi_cells, strides_arr)
        order = np.argsort(keys, kind="stable")
        keys_sorted = keys[order]
        uniq_keys, starts, counts = np.unique(
            keys_sorted, return_index=True, return_counts=True
        )
        self.snapshot_rebuilds += 1
        return _GridSnapshot(
            keys=uniq_keys,
            starts=starts,
            counts=counts,
            entry_rows=rows[order],
            eids=eids,
            boxes=boxes,
            strides=strides_arr,
            tops=tops,
            origin=origin,
            cell=cell,
        )

    def _ensure_snapshot(self) -> _GridSnapshot | None:
        if self._snapshot is None:
            self._snapshot = self._build_snapshot()
        return self._snapshot

    def _gather_candidates(
        self, snap: _GridSnapshot, lo_cells: np.ndarray, hi_cells: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Flat ``(query, element-row)`` candidate pairs for cell windows.

        ``lo_cells``/``hi_cells`` are ``(m, d)`` integer window corners.
        Base rows are gathered with the searchsorted/repeat machinery and
        filtered through the ``alive`` mask; overlay rows (patched-in
        inserts, addressed past the base table) are matched per overlay cell
        — the overlay is bounded by the compaction threshold, so that loop
        stays small.  Pairs may repeat per (query, row); callers dedup.
        """
        counters = self.counters
        # Flatten all query windows into (query, cell-id) pairs.
        qidx, flat_keys = _expand_windows(lo_cells, hi_cells, snap.strides)

        # Resolve each distinct cell id once against the occupied-cell table.
        uniq_keys, inverse = np.unique(flat_keys, return_inverse=True)
        counters.cells_probed += len(uniq_keys)
        pos = np.searchsorted(snap.keys, uniq_keys)
        pos_safe = np.minimum(pos, len(snap.keys) - 1)
        occupied = snap.keys[pos_safe] == uniq_keys
        keep = occupied[inverse]
        q_keep = qidx[keep]
        cell_pos = pos_safe[inverse][keep]

        # Gather every (query, bucket entry) candidate pair.
        bucket_counts = snap.counts[cell_pos]
        n_pairs = int(bucket_counts.sum())
        pair_q = np.repeat(q_keep, bucket_counts)
        offset = np.arange(n_pairs, dtype=np.int64) - np.repeat(
            np.cumsum(bucket_counts) - bucket_counts, bucket_counts
        )
        rows = snap.entry_rows[np.repeat(snap.starts[cell_pos], bucket_counts) + offset]
        live = snap.alive[rows]
        if not live.all():
            pair_q = pair_q[live]
            rows = rows[live]

        if snap.extra_cells:
            n_base = snap.eids.shape[0]
            res = snap.tops + 1
            extra_q: list[np.ndarray] = [pair_q]
            extra_rows: list[np.ndarray] = [rows]
            for key, idxs in snap.extra_cells.items():
                alive_idxs = [i for i in idxs if snap.extra_alive[i]]
                if not alive_idxs:
                    continue
                coords = (key // snap.strides) % res
                covered = np.nonzero(
                    np.all((lo_cells <= coords) & (coords <= hi_cells), axis=1)
                )[0]
                if covered.size == 0:
                    continue
                counters.cells_probed += 1
                extra_q.append(np.repeat(covered, len(alive_idxs)))
                extra_rows.append(
                    np.tile(np.array(alive_idxs, dtype=np.int64) + n_base, covered.size)
                )
            if len(extra_q) > 1:
                pair_q = np.concatenate(extra_q)
                rows = np.concatenate(extra_rows)
        return pair_q, rows

    def batch_range_query(self, boxes: np.ndarray | Sequence[AABB]) -> list[list[int]]:
        """All queries in one pass: vectorized cell bucketing + overlap tests.

        Every query's covered cell window is expanded into a flat
        ``(query, cell)`` list; distinct cell ids are resolved against the
        sorted occupied-cell table with one :func:`np.searchsorted`, bucket
        entries are gathered with ``np.repeat`` arithmetic, and a single
        vectorized AABB overlap test plus an :func:`np.unique` dedup (for
        replicated elements) yields per-query id lists.
        """
        queries = as_box_array(boxes)
        m = queries.shape[0]
        if m == 0:
            return []
        if not self._boxes:
            return [[] for _ in range(m)]
        snap = self._ensure_snapshot()
        if snap is None:
            return super().batch_range_query(queries)
        dims = snap.tops.shape[0]
        if queries.shape[2] != dims:
            raise ValueError(f"queries have {queries.shape[2]} dims, index has {dims}")
        counters = self.counters
        assert self._cell_size is not None
        cell = self._cell_size

        lo_cells = _cell_coords(queries[:, 0, :], snap.origin, cell, snap.tops)
        hi_cells = _cell_coords(queries[:, 1, :], snap.origin, cell, snap.tops)
        if int(np.prod(hi_cells - lo_cells + 1, axis=1).sum()) > _BATCH_WINDOW_CAP:
            return super().batch_range_query(queries)

        pair_q, rows = self._gather_candidates(snap, lo_cells, hi_cells)
        n_pairs = pair_q.shape[0]
        if n_pairs == 0:
            return [[] for _ in range(m)]
        eids_all, boxes_all, _ = snap.tables()

        candidates = boxes_all[rows]
        qb = queries[pair_q]
        hit = np.all(
            (qb[:, 0, :] <= candidates[:, 1, :]) & (candidates[:, 0, :] <= qb[:, 1, :]),
            axis=-1,
        )
        counters.elem_tests += n_pairs
        counters.bytes_touched += n_pairs * (dims * _BOX_BYTES_PER_DIM + 8)

        hit_q = pair_q[hit]
        hit_rows = rows[hit]
        if hit_q.size == 0:
            return [[] for _ in range(m)]
        # Dedup replicated elements per query on a single scalar key (query
        # major, element row minor) — sorted output is already grouped by
        # query, so results fall out of one tolist + slicing.
        n_rows = eids_all.shape[0]
        combined = np.unique(hit_q.astype(np.int64) * n_rows + hit_rows)
        all_ids = eids_all[combined % n_rows].tolist()
        bounds = np.searchsorted(combined, np.arange(1, m) * n_rows).tolist()
        bounds = [0, *bounds, len(all_ids)]
        return [all_ids[bounds[i] : bounds[i + 1]] for i in range(m)]

    def batch_knn(
        self, points: np.ndarray | Sequence[Sequence[float]], k: int
    ) -> list[KNNResult]:
        """Vectorized expanding-ring kNN over the dense snapshot.

        All still-unresolved queries share one cell-window sweep per round:
        their probe radius starts at one cell side and doubles until at
        least ``min(k, n)`` candidates are *confirmed* (distance within the
        probe radius, so no unseen element can beat them).  Candidates are
        gathered with the same machinery as :meth:`batch_range_query`;
        per-query results follow the deterministic ``(distance, id)`` order.
        """
        pts = as_point_array(points)
        m = pts.shape[0]
        if m == 0:
            return []
        if k <= 0 or not self._boxes or self._universe is None:
            return [[] for _ in range(m)]
        snap = self._ensure_snapshot()
        if snap is None:
            return super().batch_knn(pts, k)
        dims = snap.tops.shape[0]
        if pts.shape[1] != dims:
            raise ValueError(f"points have {pts.shape[1]} dims, index has {dims}")
        counters = self.counters
        assert self._cell_size is not None
        cell = self._cell_size
        eids_all, boxes_all, _ = snap.tables()
        n_rows = eids_all.shape[0]
        kk = min(k, len(self._boxes))

        # Per-query give-up radius, as in the scalar path: beyond the
        # farthest universe corner the probe provably covers every element.
        lo_u = np.asarray(self._universe.lo)
        hi_u = np.asarray(self._universe.hi)
        corner_gaps = np.maximum(np.abs(pts - lo_u), np.abs(pts - hi_u))
        limits = np.sqrt(np.einsum("md,md->m", corner_gaps, corner_gaps)) + cell

        results: list[KNNResult] = [[] for _ in range(m)]
        active = np.arange(m)
        radius = cell
        while active.size:
            apts = pts[active]
            lo_cells = _cell_coords(apts - radius, snap.origin, cell, snap.tops)
            hi_cells = _cell_coords(apts + radius, snap.origin, cell, snap.tops)
            if int(np.prod(hi_cells - lo_cells + 1, axis=1).sum()) > _BATCH_WINDOW_CAP:
                for q in active.tolist():
                    results[q] = self.knn(tuple(pts[q]), k)
                break
            pair_q, rows = self._gather_candidates(snap, lo_cells, hi_cells)
            if pair_q.size:
                combined = np.unique(pair_q.astype(np.int64) * n_rows + rows)
                cand_q = combined // n_rows
                cand_rows = combined % n_rows
                cand_boxes = boxes_all[cand_rows]
                p = apts[cand_q]
                gaps = np.maximum(
                    np.maximum(cand_boxes[:, 0, :] - p, p - cand_boxes[:, 1, :]), 0.0
                )
                dists = np.sqrt(np.einsum("cd,cd->c", gaps, gaps))
                counters.elem_tests += combined.size
                confirmed = np.bincount(
                    cand_q[dists <= radius], minlength=active.size
                )
            else:
                cand_q = np.empty(0, dtype=np.int64)
                cand_rows = np.empty(0, dtype=np.int64)
                dists = np.empty(0)
                confirmed = np.zeros(active.size, dtype=np.int64)
            done = (confirmed >= kk) | (radius > limits[active])
            for local in np.nonzero(done)[0].tolist():
                start, end = np.searchsorted(cand_q, [local, local + 1])
                slice_d = dists[start:end]
                slice_e = eids_all[cand_rows[start:end]]
                order = np.lexsort((slice_e, slice_d))[:kk]
                results[int(active[local])] = list(
                    zip(slice_d[order].tolist(), slice_e[order].tolist())
                )
                counters.heap_ops += int(order.shape[0])
            active = active[~done]
            radius *= 2.0
        return results

    def __len__(self) -> int:
        return len(self._boxes)

    # -- introspection ---------------------------------------------------------------

    def export_items(self) -> tuple[np.ndarray, np.ndarray] | None:
        dims = self._universe.dims if self._universe else 0
        eids = np.fromiter(self._boxes.keys(), dtype=np.int64, count=len(self._boxes))
        return eids, boxes_to_array(list(self._boxes.values()), dims=dims)

    def snapshot_export(self) -> tuple[dict[str, np.ndarray], float] | None:
        """The compacted snapshot as plain arrays, for shared-memory export.

        Returns ``(arrays, cell_size)`` where ``arrays`` holds every
        :class:`_GridSnapshot` field plus the ``(2, d)`` universe corners,
        or ``None`` when the grid is empty or unlinearizable.  A dirty
        overlay forces a compacting rebuild first so the exported base
        arrays alone describe the full contents — the serving worker pool
        rehydrates them into a read-only grid without replaying patches
        (:mod:`repro.serving.snapshots`).
        """
        if not self._boxes:
            return None
        snap = self._ensure_snapshot()
        if snap is not None and snap.dirty:
            snap = self._build_snapshot()
            self._snapshot = snap
        if snap is None:
            return None
        assert self._universe is not None
        arrays = {
            "keys": snap.keys,
            "starts": snap.starts,
            "counts": snap.counts,
            "entry_rows": snap.entry_rows,
            "eids": snap.eids,
            "boxes": snap.boxes,
            "strides": snap.strides,
            "tops": snap.tops,
            "origin": snap.origin,
            "universe": np.array([self._universe.lo, self._universe.hi], dtype=np.float64),
        }
        return arrays, float(snap.cell)

    @property
    def occupied_cells(self) -> int:
        return sum(1 for bucket in self._cells.values() if bucket)

    @property
    def replication_factor(self) -> float:
        """Stored entries per distinct element (1.0 = each in one cell)."""
        if not self._boxes:
            return 0.0
        stored = sum(len(cells) for cells in self._cells_of.values())
        return stored / len(self._boxes)

    def memory_bytes(self) -> int:
        if not self._boxes:
            return 0
        dims = self._universe.dims if self._universe else 3
        stored = sum(len(cells) for cells in self._cells_of.values())
        return stored * (dims * _BOX_BYTES_PER_DIM + 8) + len(self._cells) * 16

    # -- internals ---------------------------------------------------------------------

    def _coord(self, value: float, axis: int) -> int:
        assert self._axes is not None and self._cell_size is not None
        origin, top = self._axes[axis]
        return max(0, min(int(math.floor((value - origin) / self._cell_size)), top))

    def _covered_cells(self, box: AABB) -> Iterable[CellKey]:
        dims = box.dims
        lo = [self._coord(box.lo[axis], axis) for axis in range(dims)]
        hi = [self._coord(box.hi[axis], axis) for axis in range(dims)]
        return _iter_window(lo, hi)

    def _cell_range(self, box: AABB) -> Iterable[CellKey]:
        return self._covered_cells(box)

    def _place(self, eid: int, box: AABB) -> None:
        keys = tuple(self._covered_cells(box))
        for key in keys:
            self._cells.setdefault(key, {})[eid] = box
        self._boxes[eid] = box
        self._cells_of[eid] = keys
        if self._snapshot is not None:
            self._snapshot.patch_insert(eid, box, keys)
            self._maybe_compact()

    def _unplace(self, eid: int) -> None:
        for key in self._cells_of.pop(eid):
            bucket = self._cells.get(key)
            if bucket is not None:
                bucket.pop(eid, None)
                if not bucket:
                    del self._cells[key]
        del self._boxes[eid]
        if self._snapshot is not None:
            self._snapshot.patch_remove(eid)
            self._maybe_compact()

    def _maybe_compact(self) -> None:
        """Deferred compaction: drop the snapshot once the dirty overlay
        outgrows a fraction of the base (the next batch repacks)."""
        snap = self._snapshot
        if snap is None:
            return
        threshold = max(_SNAPSHOT_DIRTY_MIN, min(len(snap.eids) // 4, _SNAPSHOT_DIRTY_MAX))
        if snap.dirty > threshold:
            self._snapshot = None


def _iter_window(lo: list[int], hi: list[int]) -> Iterable[CellKey]:
    """All integer coordinate tuples in the inclusive window [lo, hi]."""
    if len(lo) == 1:
        for i in range(lo[0], hi[0] + 1):
            yield (i,)
        return
    for i in range(lo[0], hi[0] + 1):
        for tail in _iter_window(lo[1:], hi[1:]):
            yield (i, *tail)
