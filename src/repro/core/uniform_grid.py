"""A single uniform grid — the paper's primary in-memory candidate.

"One direction to develop novel spatial indexes for main memory may be to use
a single uniform grid and therefore to avoid the tree structure needed for
access."  (§3.3)

Design points realized here:

* **No tree traversal.**  A range query computes the overlapped cell window
  arithmetically and tests only the elements in those cells; the counters
  show zero ``node_tests``.
* **Every fact is stored once.**  ``_boxes`` is the only box store and an
  element's cell set is kept as its integer window ``(*lo_cells, *hi_cells)``
  in ``_windows``.  These two dicts are the ground truth, both in order of
  *last placement*: a load, an insert or a cell switch (re-)appends the
  element, an in-place move keeps its seat.
* **Buckets are a view.**  A bucket maps a cell to the *ids* registered
  there, in insertion order — the scalar result order.  Only scalar reads
  look at buckets, so a bulk load builds none: the first ``range_query`` /
  ``knn`` / ``occupied_cells`` / ``memory_bytes`` since builds them all
  (:meth:`UniformGrid._buckets`).  Writes, scalar or batch, maintain them
  where they are built and otherwise only keep the placement order.  A
  bucket's insertion order is its members' placement order, so grouping the
  windows by cell in store order rebuilds every bucket exactly as
  incremental maintenance would have left it.
* **Cheap massive updates.**  "the small movement means that only few
  elements switch grid cell in every step, thereby requiring few updates to
  the data structure" (§4.3): :meth:`UniformGrid.update` compares the new
  box's window with the stored one and on a match writes the box (and the
  snapshot row) and nothing else — cells are enumerated only on a real cell
  switch.  :attr:`cell_switches` counts how often relocation was actually
  needed, which the massive-update benchmarks report.
* **Replication-aware, duplicate-free batch kernels.**  Volumetric elements
  are registered in every cell they overlap, yet the batch kernels gather
  each ``(query, element)`` pair once, before any box is read: a candidate
  ``(query, cell, element)`` survives iff on every axis the cell is the low
  cell of the query's window or of the element's (the *first-common-cell*
  rule).  Proof: two windows share a cell iff they intersect on every axis;
  the minimum corner of the intersection has coordinate ``max(q_lo, e_lo)``
  per axis, so it passes, and any other common cell exceeds both low cells
  on some axis, so it fails.  Out-of-universe coordinates are clamped into
  edge cells for queries and elements alike and the rule compares only the
  clamped windows, so edge cells are no special case.  The batch kernels'
  ``elem_tests``/``bytes_touched`` count the pairs actually tested;
  ``cells_probed`` counts distinct cells looked up.  (The scalar
  ``range_query`` walks the buckets and skips ids already reported.)  The
  resolution model (:mod:`repro.core.resolution`) balances replication
  against probe counts.
* **Arrays in, arrays out.**  The snapshot's one box store is laid out as
  the overlap test reads it — a contiguous column per corner and axis
  (``(2, d, n)``; the familiar ``(n, 2, d)`` form is a view of it, so patches
  written through either land in both) — and the range kernel's product is
  the CSR pair of :meth:`UniformGrid.batch_range_hits`;
  :meth:`~UniformGrid.batch_range_query` is that plus one ``tolist``.
* **Every gather pass runs once, over flat columns.**  Windows unfold an
  axis at a time by ``repeat``; the walk builds its one entry column in
  place, selects by ``flatnonzero`` + ``take`` where a mask would copy, and
  frees it before the next — a fresh entry-sized temporary's page faults cost
  more than its arithmetic (``test_grid_single_store`` bounds bytes per entry).
* **Incrementally maintained batch snapshot.**  The vectorized batch kernels
  query a dense packed view of the buckets (:class:`_GridSnapshot`).
  Mutations *patch* the snapshot instead of discarding it: removals flip a
  per-row ``alive`` bit, in-place box rewrites update the packed coordinates
  directly, and insertions append rows plus their ``(cell, row, first
  mask)`` entries to the overlay — flat columns from which a second sorted
  cell table, laid out like the base one, is derived on the first query
  after a mutation.  The kernels walk both tables with the same arithmetic
  (:func:`_walk_cells`), so re-probing a just-mutated grid costs what
  probing a clean one costs plus one sort of the overlay entries.  A dirty
  counter triggers deferred compaction (a full repack) only when the
  patches outgrow a fraction of the base.  Invariants: the snapshot is a
  view too (scalar queries never consult it, batch queries never the
  buckets), and ``base ∖ dead ∪ overlay`` always equals the live element
  set, in ``_boxes`` order — a patched snapshot answers every batch query
  identically, ids and order, to a from-scratch rebuild
  (``tests/test_snapshot_maintenance.py`` pins this).
* **Whole-step motion in one call.**  :meth:`UniformGrid.apply_moves` takes
  a step's ``(id, old box, new box)`` moves, refuses the batch whole or
  applies it whole, computes every new window in one vectorized pass and
  decides once whether to patch the snapshot or drop it; it leaves exactly
  what the :meth:`~UniformGrid.update` loop leaves, counters included.
"""

from __future__ import annotations

import heapq
import math
from itertools import chain, product
from typing import Iterable, Sequence

import numpy as np

from repro.geometry.aabb import AABB, as_box_array, as_point_array, boxes_to_array, union_all
from repro.indexes.base import (
    Item, KNNResult, Move, SpatialIndex, csr_hits, unique_moves, validate_items,
)
from repro.instrumentation.counters import Counters

_BOX_BYTES_PER_DIM = 16

# Bail out of the vectorized batch kernel when the flattened (query, cell)
# expansion would exceed this many entries; the naive loop handles the rest.
_BATCH_WINDOW_CAP = 1 << 26

# Patches tolerated on a snapshot before deferred compaction repacks it: a
# quarter of the base, but never fewer than this.  There is no upper cap:
# the overlay is probed as a second sorted cell table, so a large one costs
# a sort per mutated batch, not a Python iteration per cell, and carrying
# it stays cheaper than repacking (n = 100k, 1 % of the boxes moved per
# tick and re-probed: 28-38 ms/tick uncapped against 97-100 ms with the
# former cap of 2048 patches; 5 % moved: 170-203 against 234-256 ms).
_SNAPSHOT_DIRTY_MIN = 64

CellKey = tuple[int, ...]
# An element's cell set: the inclusive integer corners (*lo_cells, *hi_cells)
# in one flat tuple — one object to build, compare and keep per element.
Window = tuple[int, ...]
# A sorted cell table: (keys, starts, counts, entry_rows, entry_first) — see
# :class:`_GridSnapshot`, which holds one for the base and derives one for
# the overlay.
CellTable = tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]


class _GridSnapshot:
    """Dense, query-ready view of the grid's buckets, patchable in place.

    ``keys`` holds the linearized ids of every occupied cell in sorted order;
    ``starts``/``counts`` delimit each cell's slice of ``entry_rows``
    (replicated elements appear once per covering cell, exactly as in the
    buckets).  ``entry_rows`` index into the dense ``eids``/``columns`` element
    tables — ``columns`` is the one box store, ``(2, d, n)`` with a contiguous
    column per corner and axis, and ``boxes`` its ``(n, 2, d)`` view;
    ``entry_first`` holds, per entry, the bitmask "this cell is the
    low cell of the element's window on axis a" (bit ``a``) that the
    first-common-cell rule reads.  ``strides`` linearize a cell coordinate
    tuple, ``tops`` are the per-axis maximum cell coordinates.

    The base arrays are frozen at build time; mutations are folded in as an
    overlay (the deferred-compaction dirty list):

    * ``alive`` masks base rows whose element was removed or relocated;
    * appended elements live in the ``extra_eids``/``extra_boxes``/
      ``extra_alive`` rows, and their cell registrations in three flat
      parallel columns, one entry per covered cell: ``extra_keys`` (linear
      cell key), ``extra_rows`` (overlay row) and ``extra_first`` (first
      mask) — the unsorted form of a second cell table;
    * in-place box rewrites patch ``boxes`` / ``extra_boxes`` directly.

    Overlay rows are addressed as ``len(eids) + i`` so one flat row space
    covers both tables; :meth:`tables` materializes (and caches) the merged
    id/box/alive views and :meth:`overlay_table` the sorted cell table of
    the live overlay entries, in the base table's own layout.  ``dirty``
    counts patches since the build — the owning grid compacts (rebuilds)
    when it crosses the threshold.
    """

    __slots__ = (
        "keys", "starts", "counts", "entry_rows", "entry_first", "eids", "columns", "boxes",
        "strides", "tops", "origin", "cell", "alive", "row_of", "extra_eids",
        "extra_boxes", "extra_alive", "extra_row_of", "extra_keys", "extra_rows",
        "extra_first", "dirty", "_tables", "_overlay",
    )
    #: The array fields that, with the cell size, describe a clean snapshot.
    EXPORTED = ("keys", "starts", "counts", "entry_rows", "entry_first", "eids", "columns",
                "strides", "tops", "origin")

    def __init__(
        self, keys, starts, counts, entry_rows, entry_first, eids, columns, strides, tops,
        origin, cell,
    ) -> None:
        self.keys = keys
        self.starts = starts
        self.counts = counts
        self.entry_rows = entry_rows
        self.entry_first = entry_first
        self.eids = eids
        self.columns = columns
        self.boxes = columns.transpose(2, 0, 1)
        self.strides = strides
        self.tops = tops
        self.origin = origin
        self.cell = cell
        self.alive = np.ones(len(eids), dtype=bool)
        self.row_of: dict[int, int] | None = None  # built lazily on first patch
        self.extra_eids: list[int] = []
        self.extra_boxes: list[tuple[Sequence[float], Sequence[float]]] = []  # (lo, hi)
        self.extra_alive: list[bool] = []
        self.extra_row_of: dict[int, int] = {}
        self.extra_keys: list[int] = []
        self.extra_rows: list[int] = []
        self.extra_first: list[int] = []
        self.dirty = 0
        self._tables: tuple[np.ndarray, np.ndarray, np.ndarray] | None = None
        self._overlay: CellTable | None = None

    # -- merged element tables ------------------------------------------------

    def tables(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(eids, boxes, alive)`` across base rows then overlay rows;
        ``boxes`` is the ``(n, 2, d)`` view of a column store either way."""
        if self._tables is None:
            if not self.extra_eids:
                self._tables = (self.eids, self.boxes, self.alive)
            else:
                eids = np.concatenate(
                    [self.eids, np.array(self.extra_eids, dtype=np.int64)]
                )
                extra = np.array(self.extra_boxes, dtype=np.float64)
                columns = np.concatenate([self.columns, extra.transpose(1, 2, 0)], axis=-1)
                alive = np.concatenate([self.alive, np.array(self.extra_alive, dtype=bool)])
                self._tables = (eids, columns.transpose(2, 0, 1), alive)
        return self._tables

    def base_table(self) -> CellTable:
        return self.keys, self.starts, self.counts, self.entry_rows, self.entry_first

    def overlay_table(self) -> CellTable | None:
        """The live overlay entries as a sorted cell table whose rows are
        already offset past the base table; ``None`` while there are none.
        Cached, and invalidated by the same patches as :meth:`tables`."""
        if self._overlay is None and self.extra_rows:
            rows = np.array(self.extra_rows, dtype=np.int64)
            live = np.array(self.extra_alive, dtype=bool)[rows]
            if live.any():
                self._overlay = _cell_table(
                    np.array(self.extra_keys, dtype=np.int64)[live],
                    rows[live] + len(self.eids),
                    np.array(self.extra_first, dtype=np.uint8)[live],
                )
        return self._overlay

    def _base_rows(self) -> dict[int, int]:
        if self.row_of is None:
            self.row_of = dict(zip(self.eids.tolist(), range(len(self.eids))))
        return self.row_of

    def _split_rows(self, eids: Sequence[int]) -> tuple[list[int], list[int], list[int], list[int]]:
        """Positions in ``eids`` and rows of the base-resident elements,
        then positions and overlay rows of the overlay-resident ones."""
        base_at, base_rows, extra_at, extra_rows = [], [], [], []
        row_of, extra_row_of = self._base_rows(), self.extra_row_of
        for at, eid in enumerate(eids):
            idx = extra_row_of.get(eid)
            if idx is None:
                base_at.append(at)
                base_rows.append(row_of[eid])
            else:
                extra_at.append(at)
                extra_rows.append(idx)
        return base_at, base_rows, extra_at, extra_rows

    # -- patches (the dirty list) ---------------------------------------------

    def patch_insert(self, eid: int, box: AABB, cells: Sequence[CellKey], lo: Sequence[int]) -> None:
        """``cells`` are the grid's covered cell coordinates for ``box`` —
        the owning grid has just enumerated them for its own buckets —
        and ``lo`` starts with the low corner of that window."""
        idx = len(self.extra_eids)
        self.extra_eids.append(eid)
        self.extra_boxes.append((box.lo, box.hi))
        self.extra_alive.append(True)
        self.extra_row_of[eid] = idx
        strides = self.strides.tolist()
        keys, firsts = self.extra_keys, self.extra_first
        for coords in cells:
            key = 0
            first = 0
            for axis, coord in enumerate(coords):
                key += coord * strides[axis]
                if coord == lo[axis]:
                    first |= 1 << axis
            keys.append(key)
            firsts.append(first)
        self.extra_rows.extend([idx] * len(cells))
        # Every overlay entry is carried through each derivation of the
        # overlay table, so a box spanning many cells must push toward
        # compaction accordingly.
        self.dirty += max(len(cells), 1)
        self._tables = self._overlay = None

    def patch_remove(self, eid: int) -> None:
        idx = self.extra_row_of.pop(eid, None)
        if idx is not None:
            # Dead overlay rows keep their entry columns; deriving the
            # overlay table filters them out (compaction reclaims the slots).
            self.extra_alive[idx] = False
        else:
            self.alive[self._base_rows()[eid]] = False
        self.dirty += 1
        self._tables = self._overlay = None

    def patch_set_box(self, eid: int, box: AABB) -> None:
        """In-place rewrite for a move that kept the element's cell window."""
        idx = self.extra_row_of.get(eid)
        if idx is not None:
            self.extra_boxes[idx] = (box.lo, box.hi)
        else:
            self.boxes[self._base_rows()[eid]] = (box.lo, box.hi)
        self.dirty += 1
        self._tables = None

    # -- whole-batch patches (:meth:`UniformGrid.apply_moves`) ------------------

    def patch_set_boxes(self, eids: Sequence[int], boxes: np.ndarray) -> None:
        """:meth:`patch_set_box` for every ``(eids[i], boxes[i])`` at once:
        the base rows take one fancy-indexed assignment."""
        base_at, base_rows, extra_at, extra_rows = self._split_rows(eids)
        self.boxes[base_rows] = boxes[base_at]
        for at, idx in zip(extra_at, extra_rows):
            self.extra_boxes[idx] = boxes[at].tolist()
        self.dirty += len(eids)
        self._tables = None

    def patch_relocate(
        self, eids: Sequence[int], boxes: np.ndarray, lo_cells: np.ndarray, hi_cells: np.ndarray
    ) -> None:
        """:meth:`patch_remove` then :meth:`patch_insert` for every element
        at once; the new windows' entries come from one
        :func:`_expand_windows` call, in the order the scalar path appends."""
        _, base_rows, _, extra_rows = self._split_rows(eids)
        self.alive[base_rows] = False
        for idx in extra_rows:
            self.extra_alive[idx] = False
        first_row = len(self.extra_eids)
        self.extra_eids.extend(eids)
        self.extra_boxes.extend(boxes.tolist())
        self.extra_alive.extend([True] * len(eids))
        self.extra_row_of.update(zip(eids, range(first_row, first_row + len(eids))))
        owner, keys, first = _expand_windows(lo_cells, hi_cells, self.strides)
        self.extra_keys.extend(keys.tolist())
        self.extra_rows.extend((owner + first_row).tolist())
        self.extra_first.extend(first.tolist())
        self.dirty += len(eids) + len(keys)  # a window holds at least one cell
        self._tables = self._overlay = None


def _cell_coords(
    values: np.ndarray, origin: np.ndarray, cell: float, tops: np.ndarray
) -> np.ndarray:
    """Vectorized :meth:`UniformGrid._window` arithmetic: clamped integer
    cell coordinates.

    Clamps in float space *before* the int64 cast — coordinates far outside
    the universe (e.g. 1e30) would otherwise overflow the cast and wrap to
    the wrong edge, where the scalar path's Python ints are exact.
    """
    return np.floor(np.clip((values - origin) / cell, 0.0, tops)).astype(np.int64)


def _expand_windows(
    lo_cells: np.ndarray, hi_cells: np.ndarray, strides: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Flatten per-row inclusive cell windows into (owner_row, linear_key, first).

    ``lo_cells``/``hi_cells`` are ``(m, d)`` integer corner coordinates; the
    result enumerates every cell of every window in mixed-radix order, last
    axis fastest.  One entry per row at its low corner is unfolded an axis at
    a time — each entry repeats once per step along the axis, its rank among
    the repeats being the step: ``repeat``/``cumsum``, no division, no loop
    over rows.  ``first`` is the uint8 bitmask per entry whose bit ``a`` says
    the cell is the window's low cell on axis ``a``.
    """
    m, dims = lo_cells.shape
    window = hi_cells - lo_cells + 1
    owner = np.arange(m)
    keys = lo_cells @ strides
    first = np.zeros(m, dtype=np.uint8)
    for axis in range(dims):
        width = window[:, axis].take(owner)
        step = np.arange(int(width.sum()), dtype=np.int64)
        step -= np.repeat(np.cumsum(width) - width, width)
        owner = np.repeat(owner, width)
        first = np.repeat(first, width)
        first |= (step == 0).view(np.uint8) << axis
        keys = np.repeat(keys, width)
        step *= strides[axis]
        keys += step
    return owner, keys, first


def _cell_table(keys: np.ndarray, rows: np.ndarray, first: np.ndarray) -> CellTable:
    """Group flat ``(cell key, element row, first mask)`` entries by cell:
    the distinct keys in sorted order, each cell's slice of the entry
    columns, and the columns in that (stable) order."""
    order = np.argsort(keys, kind="stable")
    keys = keys.take(order)
    edge = np.ones(len(keys), dtype=bool)  # a cell starts where the sorted keys change
    np.not_equal(keys[1:], keys[:-1], out=edge[1:])
    starts = np.flatnonzero(edge)
    counts = np.diff(starts, append=len(keys))
    return keys.take(starts), starts, counts, rows.take(order), first.take(order)


def _walk_cells(
    table: CellTable,
    uniq_keys: np.ndarray,
    inverse: np.ndarray,
    qidx: np.ndarray,
    q_first: np.ndarray,
    every_axis: int,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The candidate walk of one cell table: ``(query, row)`` pairs at the
    first common cell, plus the mask of the distinct query cells it holds.

    ``uniq_keys``/``inverse`` are the distinct cell ids of the flattened
    ``(qidx, cell, q_first)`` query windows and the map back onto them.
    Each distinct id is resolved once against the table's sorted keys; every
    ``(query, bucket entry)`` of the cells found is enumerated with
    ``repeat``/``cumsum`` arithmetic and kept iff on every axis the cell is
    the low cell of the query's window or of the element's.
    """
    keys, starts, counts, entry_rows, entry_first = table
    pos = np.minimum(np.searchsorted(keys, uniq_keys), len(keys) - 1)
    occupied = keys[pos] == uniq_keys
    keep = np.flatnonzero(occupied.take(inverse))
    cell_pos = pos.take(inverse.take(keep))
    bucket_counts = counts.take(cell_pos)
    # Entry j of the enumeration is its cell's start plus j's rank in the cell.
    entry = np.repeat(
        starts.take(cell_pos) - (np.cumsum(bucket_counts) - bucket_counts), bucket_counts
    )
    entry += np.arange(len(entry))
    mask = np.repeat(q_first.take(keep), bucket_counts)
    mask |= entry_first.take(entry)
    chosen = np.flatnonzero(mask == every_axis)
    entry = entry.take(chosen)  # the entry-sized column goes before the next one comes
    return np.repeat(qidx.take(keep), bucket_counts).take(chosen), entry_rows.take(entry), occupied


def grid_axes(universe: AABB, cell: float) -> tuple[tuple[float, int], ...]:
    """Per-axis ``(origin, top cell coordinate)`` of a grid over ``universe``."""
    return tuple(
        (origin, max(int(math.ceil(extent / cell)) - 1, 0))
        for origin, extent in zip(universe.lo, universe.extents())
    )


def _axis_arrays(axes: tuple[tuple[float, int], ...]) -> tuple[np.ndarray, np.ndarray]:
    """``axes`` as the ``(origin, tops)`` arrays :func:`_cell_coords` takes."""
    origins, tops = zip(*axes)
    return np.array(origins, dtype=np.float64), np.array(tops, dtype=np.int64)


def _linear_strides(tops: np.ndarray) -> np.ndarray | None:
    """Row-major strides linearizing a cell coordinate tuple, or ``None``
    when keys would not fit int64 or the per-axis first mask uint8."""
    dims = tops.shape[0]
    res = [top + 1 for top in tops.tolist()]
    if math.prod(res) >= 1 << 62 or dims > 8:
        return None
    strides = [1] * dims
    for axis in range(dims - 2, -1, -1):
        strides[axis] = strides[axis + 1] * res[axis + 1]
    return np.array(strides, dtype=np.int64)


def box_columns(boxes: np.ndarray) -> np.ndarray:
    """``(n, 2, d)`` boxes as ``(2, d, n)``: a contiguous column per corner and axis."""
    return np.ascontiguousarray(boxes.transpose(1, 2, 0))


def pack_snapshot(
    eids: np.ndarray, columns: np.ndarray, origin: np.ndarray, cell: float, tops: np.ndarray
) -> _GridSnapshot | None:
    """The dense form of a grid holding exactly these rows (``columns`` as
    :func:`box_columns` lays them out, adopted as the snapshot's box store);
    ``None`` if unlinearizable.  Cell membership comes from the boxes by the
    clamped-window arithmetic of :meth:`UniformGrid._window`, so the pack runs
    vectorized and needs no bucket dicts — a live grid's buckets and this
    function necessarily describe the identical (cell, element) relation."""
    strides_arr = _linear_strides(tops)
    if strides_arr is None:
        return None
    lo_cells = _cell_coords(columns[0].T, origin, cell, tops)
    hi_cells = _cell_coords(columns[1].T, origin, cell, tops)
    rows, keys, first = _expand_windows(lo_cells, hi_cells, strides_arr)
    return _GridSnapshot(
        *_cell_table(keys, rows, first),
        eids=eids,
        columns=columns,
        strides=strides_arr,
        tops=tops,
        origin=origin,
        cell=cell,
    )


def snapshot_arrays(snap: _GridSnapshot, universe: AABB) -> dict[str, np.ndarray]:
    """A clean snapshot's fields plus the ``(2, d)`` universe corners: the
    plain arrays a :class:`~repro.serving.snapshots.SnapshotGridIndex` adopts."""
    arrays = {name: getattr(snap, name) for name in _GridSnapshot.EXPORTED}
    arrays["universe"] = np.array([universe.lo, universe.hi], dtype=np.float64)
    return arrays


class UniformGrid(SpatialIndex):
    """Hash-addressed uniform grid over a fixed universe.

    Parameters
    ----------
    universe:
        The indexed region.  Elements outside are clamped into edge cells
        (queries remain correct; see ``_window``).
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
        # The ground truth, both in order of last placement.
        self._boxes: dict[int, AABB] = {}
        self._windows: dict[int, Window] = {}
        # cell -> ids registered there; a dict for its insertion order (the
        # scalar result order) and O(1) removal.  ``None`` from a bulk load
        # until a scalar read asks: read it through :meth:`_buckets`.
        self._cells: dict[CellKey, dict[int, None]] | None = {}
        # Per-axis (origin, top cell coordinate), fixed once universe and
        # cell size are, and the same per window corner as (origins, tops):
        # the bulk paths read the first, the scalar ``_window`` the second.
        self._axes: tuple[tuple[float, int], ...] | None = None
        self._corner_axes: tuple[tuple[float, ...], tuple[int, ...]] | None = None
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
        """Fix universe, cell size and axes from the first items seen; items
        of another dimensionality are refused before anything is set."""
        if self._universe is None:
            hull = union_all(box for _, box in items)
            self._universe = hull.expanded(max(hull.margin() * 0.005, 1e-9))
        elif items[0][1].dims != self._universe.dims:
            raise ValueError(
                f"box has {items[0][1].dims} dims, index has {self._universe.dims}"
            )
        if self._cell_size is None:
            # Default heuristic: aim for ~2 elements per occupied cell.
            from repro.core.resolution import default_cell_size

            self._cell_size = default_cell_size(len(items), self._universe)
        if self._axes is None:
            self._axes = grid_axes(self._universe, self._cell_size)
            origins, tops = zip(*self._axes)
            self._corner_axes = (origins * 2, tops * 2)

    # -- maintenance ---------------------------------------------------------------

    def bulk_load(self, items: Iterable[Item]) -> None:
        materialized = validate_items(items)
        # Whatever can refuse the input runs before the reset.
        windows = _corner_tuples(self._bulk_corners(materialized)[1]) if materialized else []
        self._boxes = dict(materialized)
        self._windows = dict(zip(self._boxes, windows))
        self._cells = None if materialized else {}  # nothing to build from nothing
        self._snapshot = None
        self.cell_switches = 0
        self.in_place_updates = 0

    def _bulk_corners(self, items: list[Item]) -> tuple[np.ndarray, np.ndarray]:
        """The items' packed ``(n, 2, d)`` boxes and their ``(n, 2d)`` integer
        window corners, in one vectorized :func:`_cell_coords` pass."""
        boxes = boxes_to_array([box for _, box in items])
        if not np.isfinite(boxes).all():
            raise ValueError("box coordinates must be finite")
        self._ensure_configured(items)
        assert self._cell_size is not None
        assert self._axes is not None
        origin, tops = _axis_arrays(self._axes)
        corners = _cell_coords(boxes.reshape(len(items), -1), np.tile(origin, 2),
                               self._cell_size, np.tile(tops, 2))
        return boxes, corners

    def insert(self, eid: int, box: AABB) -> None:
        if eid in self._boxes:
            raise ValueError(f"element {eid} already present")
        self._ensure_configured([(eid, box)])
        window = self._window(box)
        cells = self._place(eid, box, window)
        if self._snapshot is not None:
            self._snapshot.patch_insert(eid, box, cells, window)
            self._maybe_compact()
        self.counters.inserts += 1

    def delete(self, eid: int, box: AABB) -> None:
        if eid not in self._boxes or self._boxes[eid] != box:
            raise KeyError(f"element {eid} with box {box} not in index")
        self._unplace(eid)
        if self._snapshot is not None:
            self._snapshot.patch_remove(eid)
            self._maybe_compact()
        self.counters.deletes += 1

    def update(self, eid: int, old_box: AABB, new_box: AABB) -> None:
        """Relocate only when the covered cell window changes (the §4.3 win)."""
        stored = self._boxes.get(eid)
        if stored is None or not (stored is old_box or stored == old_box):
            raise KeyError(f"element {eid} with box {old_box} not in index")
        current = self._windows[eid]
        window = self._window(new_box, current)
        snap = self._snapshot
        if window == current:
            self._boxes[eid] = new_box
            if snap is not None:
                snap.patch_set_box(eid, new_box)
                self._maybe_compact()
            self.in_place_updates += 1
        else:
            self._unplace(eid)
            cells = self._place(eid, new_box, window)
            if snap is not None:
                snap.patch_remove(eid)
                snap.patch_insert(eid, new_box, cells, window)
                self._maybe_compact()
            self.cell_switches += 1
        self.counters.updates += 1

    def apply_moves(self, moves: Iterable[Move]) -> None:
        """The whole batch or nothing, and equal to the :meth:`update` loop.

        Everything that can refuse a move — an unknown id, a stale
        ``old_box``, a repeated id, wrong dimensionality, a non-finite
        coordinate — is checked for every move before anything is written.
        The new windows then come from one :func:`_cell_coords` pass;
        in-place movers are one dict write each and one snapshot assignment
        together, cell switchers are re-appended one by one (through their
        buckets, if those are built) and patch the snapshot together.
        Whether the batch's patches would carry the snapshot past the
        compaction threshold is decided once, up front: if so the snapshot
        is dropped and nothing is patched — what the scalar loop arrives at
        after patching its way to the threshold.  Stores, buckets, counters
        and batch answers end up as the loop leaves them.
        """
        moves = unique_moves(moves)
        if not moves:
            return
        boxes, stored = self._boxes, self._windows
        dims = len(self._axes or ())
        for eid, old_box, new_box in moves:
            if eid not in boxes or boxes[eid] != old_box:
                raise KeyError(f"element {eid} with box {old_box} not in index")
            if len(new_box.lo) != dims:
                raise ValueError(f"box has {len(new_box.lo)} dims, index has {dims}")
        targets = [(eid, new_box) for eid, _, new_box in moves]
        packed, corners = self._bulk_corners(targets)
        windows = _corner_tuples(corners)
        stay: list[int] = []
        switch: list[int] = []
        for at, ((eid, _), window) in enumerate(zip(targets, windows)):
            (stay if window == stored[eid] else switch).append(at)

        snap = self._snapshot
        lo_cells, hi_cells = corners[switch, :dims], corners[switch, dims:]
        if snap is not None:
            # The dirt the scalar loop would add: one patch per in-place
            # rewrite, one removal and one entry per covered cell per switch.
            dirt = len(stay) + len(switch) + int(np.prod(hi_cells - lo_cells + 1, axis=1).sum())
            if snap.dirty + dirt > _compaction_threshold(snap):
                self._snapshot = snap = None

        for at in stay:
            eid, box = targets[at]
            boxes[eid] = box
        built = self._cells is not None
        for at in switch:
            eid, box = targets[at]
            if built:
                self._unplace(eid)
                self._place(eid, box, windows[at])
            else:  # placement order, which the buckets will be built from
                del boxes[eid], stored[eid]
                boxes[eid], stored[eid] = box, windows[at]
        if snap is not None:
            if stay:
                snap.patch_set_boxes([targets[at][0] for at in stay], packed[stay])
            if switch:
                snap.patch_relocate(
                    [targets[at][0] for at in switch], packed[switch], lo_cells, hi_cells
                )
        self.in_place_updates += len(stay)
        self.cell_switches += len(switch)
        self.counters.updates += len(moves)

    # -- queries --------------------------------------------------------------------

    def range_query(self, box: AABB) -> list[int]:
        if not self._boxes:
            return []
        counters = self.counters
        dims = box.dims
        boxes = self._boxes
        seen: set[int] = set()
        results: list[int] = []
        buckets = self._buckets()
        for key in _window_cells(self._window(box)):
            counters.cells_probed += 1
            bucket = buckets.get(key)
            if not bucket:
                continue
            counters.bytes_touched += len(bucket) * (dims * _BOX_BYTES_PER_DIM + 8)
            for eid in bucket:
                if eid in seen:
                    continue
                counters.elem_tests += 1
                if boxes[eid].intersects(box):
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
        """Pack the element store into the dense form (:func:`pack_snapshot`);
        ``None`` if unlinearizable."""
        assert self._cell_size is not None and self._axes is not None
        origin, tops = _axis_arrays(self._axes)
        if _linear_strides(tops) is None:  # skip packing the boxes
            return None
        self.snapshot_rebuilds += 1
        eids, boxes = self.export_items()
        columns = box_columns(boxes)
        del boxes  # the row-major copy goes before the cell table's temporaries come
        return pack_snapshot(eids, columns, origin, self._cell_size, tops)

    def _ensure_snapshot(self) -> _GridSnapshot | None:
        if self._snapshot is None:
            self._snapshot = self._build_snapshot()
        return self._snapshot

    def _gather_candidates(
        self, snap: _GridSnapshot, lo_cells: np.ndarray, hi_cells: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Flat ``(query, element-row)`` candidate pairs for cell windows.

        ``lo_cells``/``hi_cells`` are ``(m, d)`` integer window corners.
        The windows are flattened into ``(query, cell)`` pairs once and
        their distinct cells walked through the base cell table and, when
        the snapshot carries patched-in inserts, through the overlay's cell
        table (:func:`_walk_cells` both times; overlay rows are addressed
        past the base table), so probing a patched snapshot costs one more
        pass of the same arithmetic, whatever the number of overlay cells.
        Pairs are kept only at the first cell the two windows share (see
        the module docstring) and filtered through the ``alive`` mask:
        every live ``(query, row)`` whose windows share a cell comes out
        exactly once.  ``cells_probed`` rises by the distinct query cells
        plus the overlay cells among them.
        """
        counters = self.counters
        every_axis = (1 << lo_cells.shape[1]) - 1
        # Flatten all query windows into (query, cell-id) pairs.
        qidx, flat_keys, q_first = _expand_windows(lo_cells, hi_cells, snap.strides)
        uniq_keys, inverse = np.unique(flat_keys, return_inverse=True)
        counters.cells_probed += len(uniq_keys)
        pair_q, rows, _ = _walk_cells(
            snap.base_table(), uniq_keys, inverse, qidx, q_first, every_axis
        )
        overlay = snap.overlay_table()
        if overlay is not None:
            extra_q, extra_rows, found = _walk_cells(
                overlay, uniq_keys, inverse, qidx, q_first, every_axis
            )
            counters.cells_probed += int(np.count_nonzero(found))
            pair_q = np.concatenate([pair_q, extra_q])
            rows = np.concatenate([rows, extra_rows])
        live = snap.tables()[2].take(rows)
        if not live.all():
            live = np.flatnonzero(live)
            pair_q, rows = pair_q.take(live), rows.take(live)
        return pair_q, rows

    def batch_range_hits(
        self, boxes: np.ndarray | Sequence[AABB]
    ) -> tuple[np.ndarray, np.ndarray]:
        """All queries in one pass: vectorized cell bucketing + overlap tests.

        Every query's covered cell window is expanded into a flat
        ``(query, cell)`` list; distinct cell ids are resolved against the
        sorted occupied-cell table with one :func:`np.searchsorted`, each
        ``(query, element)`` pair is gathered once at the first cell the two
        windows share, and one columnar AABB overlap test leaves the hits,
        per query in ascending snapshot-row order.
        """
        queries = as_box_array(boxes)
        if np.isnan(queries).any():  # ±inf corners clamp to the universe; NaN has no cell
            raise ValueError("query coordinates must be finite")
        m = queries.shape[0]
        if m == 0 or not self._boxes:
            return np.zeros(m + 1, dtype=np.int64), np.empty(0, dtype=np.int64)
        snap = self._ensure_snapshot()
        if snap is None:
            return csr_hits(super().batch_range_query(queries))
        dims = snap.tops.shape[0]
        if queries.shape[2] != dims:
            raise ValueError(f"queries have {queries.shape[2]} dims, index has {dims}")
        counters = self.counters
        assert self._cell_size is not None
        cell = self._cell_size

        lo_cells = _cell_coords(queries[:, 0, :], snap.origin, cell, snap.tops)
        hi_cells = _cell_coords(queries[:, 1, :], snap.origin, cell, snap.tops)
        if int(np.prod(hi_cells - lo_cells + 1, axis=1).sum()) > _BATCH_WINDOW_CAP:
            return csr_hits(super().batch_range_query(queries))

        pair_q, rows = self._gather_candidates(snap, lo_cells, hi_cells)
        n_pairs = pair_q.shape[0]
        eids_all, boxes_all, _ = snap.tables()
        # The overlap test reads both sides as per-corner, per-axis columns
        # (the store's own layout; the queries' are copied out once): 2·d flat
        # gathers per side, folded into one mask in place.
        q_cols = box_columns(queries)
        e_cols = boxes_all.transpose(1, 2, 0)
        hit = np.ones(n_pairs, dtype=bool)
        for axis in range(dims):
            hit &= q_cols[0, axis].take(pair_q) <= e_cols[1, axis].take(rows)
            hit &= e_cols[0, axis].take(rows) <= q_cols[1, axis].take(pair_q)
        counters.elem_tests += n_pairs
        counters.bytes_touched += n_pairs * (dims * _BOX_BYTES_PER_DIM + 8)

        # One scalar key per hit (query major, element row minor): the keys
        # are already distinct, so a sort groups them by query.
        n_rows = eids_all.shape[0]
        hit = np.flatnonzero(hit)
        combined = pair_q.take(hit) * n_rows + rows.take(hit)
        combined.sort()
        offsets = np.searchsorted(combined, np.arange(m + 1) * n_rows)
        return offsets, eids_all[combined % n_rows]

    def batch_range_query(self, boxes: np.ndarray | Sequence[AABB]) -> list[list[int]]:
        """:meth:`batch_range_hits` as one id list per query: one ``tolist``
        and slicing."""
        offsets, ids = self.batch_range_hits(boxes)
        all_ids, bounds = ids.tolist(), offsets.tolist()
        return [all_ids[lo:hi] for lo, hi in zip(bounds, bounds[1:])]

    def batch_knn(
        self, points: np.ndarray | Sequence[Sequence[float]], k: int
    ) -> list[KNNResult]:
        """Vectorized expanding-ring kNN over the dense snapshot.

        All still-unresolved queries share one cell-window sweep per round:
        their probe radius starts at one cell side and doubles until at
        least ``min(k, n)`` candidates are *confirmed* (distance within the
        probe radius, so no unseen element can beat them).  Candidates are
        gathered with the same machinery as :meth:`batch_range_hits`; the
        queries a round resolves are cut to their ``k`` best together — one
        ``lexsort`` over ``(query, distance, id)`` and a rank-within-query
        mask — so results follow the deterministic ``(distance, id)`` order.
        """
        pts = as_point_array(points)
        if not np.isfinite(pts).all():
            raise ValueError("query coordinates must be finite")
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
        e_cols = boxes_all.transpose(1, 2, 0)
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
            # Distinct keys: the sort only groups candidates by query.
            combined = np.sort(pair_q * n_rows + rows)
            cand_q = combined // n_rows
            cand_rows = combined % n_rows
            gaps = np.empty((combined.size, dims))  # filled per axis, from the store's columns
            for axis in range(dims):
                p = apts[:, axis].take(cand_q)
                lo, hi = e_cols[0, axis].take(cand_rows), e_cols[1, axis].take(cand_rows)
                gaps[:, axis] = np.maximum(np.maximum(lo - p, p - hi), 0.0)
            dists = np.sqrt(np.einsum("cd,cd->c", gaps, gaps))
            counters.elem_tests += combined.size
            confirmed = np.bincount(cand_q[dists <= radius], minlength=active.size)
            done = (confirmed >= kk) | (radius > limits[active])

            # The resolved queries' candidates, best first within each query
            # (``cand_q`` is sorted, so the lexsort keeps the queries grouped).
            # A query with ``kk`` confirmed candidates has its answer among
            # them; only one that gave up needs the unconfirmed rest sorted.
            resolved = done[cand_q] & ((dists <= radius) | (confirmed < kk)[cand_q])
            owner, dist, eid = cand_q[resolved], dists[resolved], eids_all[cand_rows[resolved]]
            order = np.lexsort((eid, dist, owner))
            counts = np.bincount(owner, minlength=active.size)
            rank = np.arange(owner.size) - (np.cumsum(counts) - counts)[owner]
            best = order[rank < kk]
            counters.heap_ops += best.size
            scored = list(zip(dist[best].tolist(), eid[best].tolist()))
            bounds = [0, *np.cumsum(np.minimum(counts, kk)).tolist()]
            targets = active.tolist()
            for local in np.nonzero(done)[0].tolist():
                results[targets[local]] = scored[bounds[local] : bounds[local + 1]]
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
        return snapshot_arrays(snap, self._universe), float(snap.cell)

    @property
    def occupied_cells(self) -> int:
        return len(self._buckets())  # a bucket is dropped with its last id

    def _stored_entries(self) -> int:
        """Bucket entries across all cells: the sum of the window volumes."""
        dims = len(self._axes or ())
        return sum(
            math.prod(h - l + 1 for l, h in zip(window[:dims], window[dims:]))
            for window in self._windows.values()
        )

    @property
    def replication_factor(self) -> float:
        """Stored entries per distinct element (1.0 = each in one cell)."""
        if not self._boxes:
            return 0.0
        return self._stored_entries() / len(self._boxes)

    def memory_bytes(self) -> int:
        """One box per element, one 8-byte id per bucket entry, 16 per cell."""
        if not self._boxes:
            return 0
        dims = self._universe.dims if self._universe else 3
        return (
            len(self._boxes) * dims * _BOX_BYTES_PER_DIM
            + self._stored_entries() * 8
            + self.occupied_cells * 16
        )

    # -- internals ---------------------------------------------------------------------

    def _window(self, box: AABB, stored: Window | None = None) -> Window:
        """The inclusive cell window ``box`` covers, clamped to the universe
        — the scalar twin of :func:`_cell_coords`, bit for bit.  ``stored``
        is the element's current window, if it has one: unclamped
        coordinates that equal it are in range already (it was clamped)."""
        assert self._corner_axes is not None and self._cell_size is not None
        origins, tops = self._corner_axes
        if len(box.lo) * 2 != len(origins):
            raise ValueError(f"box has {len(box.lo)} dims, index has {len(origins) // 2}")
        cell = self._cell_size
        floor = math.floor
        raw = tuple([floor((v - o) / cell) for v, o in zip(box.lo + box.hi, origins)])
        if raw == stored:
            return stored
        # Conditional clamps, not min/max calls: this runs once per update.
        return tuple([0 if c < 0 else top if c > top else c for c, top in zip(raw, tops)])

    def _buckets(self) -> dict[CellKey, dict[int, None]]:
        """The buckets, built here if no scalar read has asked since the
        last bulk load: the windows grouped by cell, in store order (see the
        module docstring for why that is each bucket's own order)."""
        if self._cells is None:
            assert self._axes is not None
            windows, dims = self._windows, len(self._axes)
            tops = _axis_arrays(self._axes)[1]
            strides = _linear_strides(tops)
            cells: dict[CellKey, dict[int, None]] = {}
            if strides is None:
                for eid, window in windows.items():
                    for key in _window_cells(window):
                        cells.setdefault(key, {})[eid] = None
            else:
                corners = np.fromiter(
                    chain.from_iterable(windows.values()), np.int64, 2 * dims * len(windows)
                ).reshape(-1, 2 * dims)
                owner, keys, first = _expand_windows(corners[:, :dims], corners[:, dims:], strides)
                keys, starts, _, rows, _ = _cell_table(keys, owner, first)
                ids = np.fromiter(windows, np.int64, len(windows))[rows].tolist()
                coords = [(keys // stride % (top + 1)).tolist()
                          for stride, top in zip(strides.tolist(), tops.tolist())]
                bounds = [*starts.tolist(), len(ids)]
                for key, lo, hi in zip(zip(*coords), bounds, bounds[1:]):
                    cells[key] = dict.fromkeys(ids[lo:hi])
            self._cells = cells
        return self._cells

    def _place(self, eid: int, box: AABB, window: Window) -> list[CellKey]:
        """Append ``eid`` to the stores and, where the buckets are built,
        to the bucket of every cell of ``window``; returns those cells.
        The snapshot is the caller's to patch."""
        cells = list(_window_cells(window))
        buckets = self._cells
        if buckets is not None:
            for key in cells:
                bucket = buckets.get(key)
                if bucket is None:
                    buckets[key] = {eid: None}
                else:
                    bucket[eid] = None
        self._boxes[eid] = box
        self._windows[eid] = window
        return cells

    def _unplace(self, eid: int) -> None:
        window, buckets = self._windows.pop(eid), self._cells
        del self._boxes[eid]
        if buckets is not None:
            for key in _window_cells(window):
                bucket = buckets[key]
                del bucket[eid]
                if not bucket:
                    del buckets[key]

    def _maybe_compact(self) -> None:
        """Deferred compaction: drop the snapshot once its dirt outgrows a
        fraction of the base (the next batch repacks)."""
        snap = self._snapshot
        if snap is not None and snap.dirty > _compaction_threshold(snap):
            self._snapshot = None


def _compaction_threshold(snap: _GridSnapshot) -> int:
    return max(_SNAPSHOT_DIRTY_MIN, len(snap.eids) // 4)


def _corner_tuples(corners: np.ndarray) -> list[Window]:
    """``(n, 2d)`` integer corners regrouped straight into window tuples."""
    return list(zip(*[iter(corners.ravel().tolist())] * corners.shape[1]))


def _window_cells(window: Window) -> Iterable[CellKey]:
    """All integer coordinate tuples in the inclusive window."""
    dims = len(window) // 2
    return product(*[range(l, h + 1) for l, h in zip(window[:dims], window[dims:])])
