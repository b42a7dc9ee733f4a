"""A single uniform grid — the paper's primary in-memory candidate.

"One direction to develop novel spatial indexes for main memory may be to use
a single uniform grid and therefore to avoid the tree structure needed for
access."  (§3.3)

Design points realized here:

* **No tree traversal.**  A range query computes the overlapped cell window
  arithmetically and tests only the elements in those cells; the counters
  show zero ``node_tests``.
* **The ground truth is arrays.**  The row store (``_store``, a
  :class:`_GridSnapshot`) holds the boxes as ``(2, d, n)`` columns, as the
  overlap test reads them (``(n, 2, d)`` is a view, so patches through either
  land in both), each element's cell set as its integer window ``(*lo_cells,
  *hi_cells)`` — one row of an ``(n, 2d)`` matrix — and ``alive``, in order of *last
  placement*: a load, an insert or a cell switch (re-)appends the row, an
  in-place move keeps its seat.  The batch snapshot is these same arrays
  plus a cell table, and compaction repacks from them.  ``_boxes`` is the
  ``AABB`` view that :meth:`UniformGrid.update` checks ``old_box`` against.
* **One read path.**  The scalar :meth:`~UniformGrid.range_query` and
  :meth:`~UniformGrid.knn` are the batch kernels on one row, so a scalar
  read costs and counts what a batch read does.  kNN distances go through
  the library's one formula (:func:`~repro.geometry.aabb.gap_norm`: squares
  summed in axis order, with a range guard), so they are the scalar
  ``min_distance_to_point`` bit for bit and nothing re-scores them.  A grid
  whose cell keys do not fit int64 answers through
  :class:`~repro.indexes.linear_scan.LinearScan`'s kernels over its live
  rows.
* **Cheap massive updates.**  "the small movement means that only few
  elements switch grid cell in every step, thereby requiring few updates to
  the data structure" (§4.3): :meth:`UniformGrid.update` is write-behind —
  it refuses what it must, writes the ``AABB`` view and logs the move, and
  the next read of any kind places the log in one vectorized pass
  (:meth:`UniformGrid._settle`): the stay/switch split is one comparison of
  window matrices, in-place movers one column assignment, and cells are
  enumerated only for cell switchers.  :meth:`~UniformGrid.apply_moves` is
  the same pass over a checked batch, so loop and batch leave the same
  grid; :attr:`cell_switches` counts how often relocation was needed.
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
  ``cells_probed`` counts distinct cells looked up.  The
  range kernel's product is the CSR pair of :meth:`UniformGrid.batch_range_hits`;
  the resolution model (:mod:`repro.core.resolution`) balances replication
  against probe counts.
* **Every gather pass runs once, over flat columns.**  Windows unfold an
  axis at a time by ``repeat`` — except one holding more cells than the
  cell tables hold keys, which takes the occupied keys inside it instead, so
  no gather costs more than the occupied cells per window; the walk builds its one entry column in
  place, selects by ``flatnonzero`` + ``take`` where a mask would copy, and
  frees it before the next — a fresh entry-sized temporary's page faults cost
  more than its arithmetic (``test_grid_single_store`` bounds bytes per entry).
* **Incrementally maintained batch snapshot.**  Mutations *patch* the
  snapshot: removals flip an ``alive`` bit, in-place rewrites update the
  columns, insertions append rows plus their ``(cell, row, first mask)``
  entries to the overlay, whose sorted cell table is derived on the next
  query and walked like the base one (:func:`_walk_cells`).  Past a
  fraction of the base the store is repacked from its own live rows and
  the snapshot dropped.  ``base ∖ dead ∪ overlay`` always equals the live
  element set in placement order, so a patched snapshot answers every
  batch query, ids and order, as a rebuild would
  (``tests/test_snapshot_maintenance.py`` pins this).
"""

from __future__ import annotations

import math
import threading
from typing import Iterable, Sequence

import numpy as np

from repro.geometry.aabb import AABB, as_box_array, as_point_array, boxes_to_array, gap_norm, union_all
from repro.indexes.base import (
    Item, KNNResult, Move, SpatialIndex, csr_hits, unique_moves, validate_items,
)
from repro.indexes.linear_scan import LinearScan
from repro.instrumentation.counters import Counters

_BOX_BYTES_PER_DIM = 16

# Patches tolerated on a snapshot before deferred compaction repacks it: a
# quarter of the base, but never fewer than this.  There is no upper cap:
# the overlay is probed as a second sorted cell table, so a large one costs
# a sort per mutated batch, not a Python iteration per cell, and carrying
# it stays cheaper than repacking (n = 100k, 1 % of the boxes moved per
# tick and re-probed: 28-38 ms/tick uncapped against 97-100 ms with the
# former cap of 2048 patches; 5 % moved: 170-203 against 234-256 ms).
_SNAPSHOT_DIRTY_MIN = 64

# A sorted cell table: (keys, starts, counts, entry_rows, entry_first) — see
# :class:`_GridSnapshot`, which holds one for the base and derives one for
# the overlay.
CellTable = tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]


class _GridSnapshot:
    """The grid's row store and, once its cell table is packed, the dense
    query-ready grouping of its entries by cell, patchable in place.

    ``keys`` holds the linearized ids of every occupied cell in sorted order;
    ``starts``/``counts`` delimit each cell's slice of ``entry_rows``
    (replicated elements appear once per covering cell), which index the element tables: ``eids``, ``columns`` (the one
    box store, ``(2, d, n)``; ``boxes`` is its ``(n, 2, d)`` view) and
    ``windows`` (``(n, 2d)`` integer cell windows; ``None`` on a read-only
    copy).  ``entry_first`` holds, per entry, the bitmask "this cell is the
    low cell of the element's window on axis a" (bit ``a``) that the
    first-common-cell rule reads.  ``strides`` linearize a cell coordinate
    tuple, ``tops`` are the per-axis maximum cell coordinates.  Without a
    packed cell table, ``keys`` and the rest of the table are ``None``.

    The base arrays are frozen at build time; mutations are folded in as an
    overlay (the deferred-compaction dirty list): ``alive`` masks base rows
    whose element was removed or relocated; appended elements live in the
    ``extra_eids``/``extra_boxes``/``extra_windows``/``extra_alive`` rows
    and, while the cell table is packed, their cell registrations in three
    flat parallel entry columns ``extra_keys``/``extra_rows``/``extra_first``
    (the unsorted form of a second cell table); in-place box rewrites patch
    ``boxes`` / ``extra_boxes`` directly.  Overlay rows are addressed as
    ``len(eids) + i``, so one flat row space covers both tables;
    :meth:`tables` materializes (and caches) the merged id/box/alive views
    and :meth:`overlay_table` the sorted cell table of the live overlay
    entries.  ``dirty`` counts patches since the build; past the owning
    grid's threshold it repacks the live rows (:meth:`compacted`).
    """

    __slots__ = (
        "keys", "starts", "counts", "entry_rows", "entry_first", "eids", "columns", "boxes",
        "windows", "strides", "tops", "origin", "cell", "alive", "row_of", "extra_eids",
        "extra_boxes", "extra_windows", "extra_alive", "extra_row_of", "extra_keys",
        "extra_rows", "extra_first", "dirty", "_tables", "_overlay",
    )
    #: The array fields that, with the cell size, describe a clean snapshot.
    EXPORTED = ("keys", "starts", "counts", "entry_rows", "entry_first", "eids", "columns",
                "strides", "tops", "origin")

    def __init__(
        self, keys, starts, counts, entry_rows, entry_first, eids, columns, strides, tops,
        origin, cell, windows=None,
    ) -> None:
        self.keys, self.starts, self.counts = keys, starts, counts
        self.entry_rows, self.entry_first = entry_rows, entry_first
        self.eids, self.columns, self.windows = eids, columns, windows
        self.boxes = columns.transpose(2, 0, 1)
        self.strides, self.tops, self.origin, self.cell = strides, tops, origin, cell
        self.alive = np.ones(len(eids), dtype=bool)
        self.row_of: dict[int, int] | None = None  # built lazily on first patch
        self.extra_eids: list[int] = []
        self.extra_boxes: list[Sequence[Sequence[float]]] = []  # [lo, hi]
        self.extra_windows: list[Sequence[int]] = []
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
                eids = np.concatenate([self.eids, np.array(self.extra_eids, dtype=np.int64)])
                extra = np.array(self.extra_boxes, dtype=np.float64)
                columns = np.concatenate([self.columns, extra.transpose(1, 2, 0)], axis=-1)
                alive = np.concatenate([self.alive, np.array(self.extra_alive, dtype=bool)])
                self._tables = (eids, columns.transpose(2, 0, 1), alive)
        return self._tables

    def window_table(self) -> np.ndarray:
        """The ``(rows, 2d)`` windows across base rows then overlay rows."""
        if not self.extra_windows:
            return self.windows
        return np.concatenate([self.windows, np.array(self.extra_windows, dtype=np.int64)])

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

    def locate(self, eids: Sequence[int]) -> tuple[np.ndarray, np.ndarray]:
        """The flat rows of these live elements (overlay rows past the base)
        and their stored windows, as an ``(m, 2d)`` matrix."""
        if self.row_of is None:
            self.row_of = dict(zip(self.eids.tolist(), range(len(self.eids))))
        row_of, extra_row_of, n_base = self.row_of, self.extra_row_of, len(self.eids)
        if not extra_row_of:
            rows = np.fromiter(map(row_of.__getitem__, eids), np.int64, len(eids))
            return rows, self.windows[rows]
        rows = np.array([n_base + extra_row_of[eid] if eid in extra_row_of else row_of[eid]
                         for eid in eids], dtype=np.int64)
        windows = np.empty((len(rows), self.windows.shape[1]), dtype=np.int64)
        base = rows < n_base
        windows[base] = self.windows[rows[base]]
        extra = [self.extra_windows[idx] for idx in (rows[~base] - n_base).tolist()]
        windows[~base] = np.array(extra, dtype=np.int64).reshape(-1, windows.shape[1])
        return rows, windows

    # -- patches (the dirty list) ---------------------------------------------

    def patch_rewrite(self, rows: np.ndarray, boxes: np.ndarray) -> None:
        """In-place rewrites of the flat ``rows`` to ``boxes`` (moves that
        kept their windows): the base rows take one fancy-indexed assignment."""
        n_base = len(self.eids)
        base = rows < n_base
        self.boxes[rows[base]] = boxes[base]
        for idx, box in zip((rows[~base] - n_base).tolist(), boxes[~base].tolist()):
            self.extra_boxes[idx] = box
        self.dirty += len(rows)
        self._tables = None

    def patch_remove(self, rows: np.ndarray) -> None:
        """Kill the flat ``rows``.  Dead overlay rows keep their entry
        columns; deriving the overlay table filters them out."""
        n_base = len(self.eids)
        self.alive[rows[rows < n_base]] = False
        for idx in (rows[rows >= n_base] - n_base).tolist():
            self.extra_alive[idx] = False
        self.dirty += len(rows)
        self._tables = self._overlay = None

    def patch_append(self, eids: Sequence[int], boxes: np.ndarray, windows: np.ndarray) -> None:
        """Append overlay rows and, while the cell table is packed, their entries
        from one :func:`_expand_windows` call; every entry is dirt (each overlay
        table derivation carries it)."""
        first_row = len(self.extra_eids)
        self.extra_eids.extend(eids)
        self.extra_boxes.extend(boxes.tolist())
        self.extra_windows.extend(windows.tolist())
        self.extra_alive.extend([True] * len(eids))
        self.extra_row_of.update(zip(eids, range(first_row, first_row + len(eids))))
        dims = windows.shape[1] // 2
        lo_cells, hi_cells = windows[:, :dims], windows[:, dims:]
        if self.keys is not None:
            owner, keys, first = _expand_windows(lo_cells, hi_cells, self.strides)
            self.extra_keys.extend(keys.tolist())
            self.extra_rows.extend((owner + first_row).tolist())
            self.extra_first.extend(first.tolist())
        self.dirty += int(np.prod(hi_cells - lo_cells + 1, axis=1).sum())
        self._tables = self._overlay = None

    def compacted(self, moves: tuple[np.ndarray, ...] | None = None) -> _GridSnapshot:
        """The live rows as a clean store with no cell table, this one left as
        it was — with ``moves = (rows, boxes, windows, switch)`` folded in on
        the way: the flat ``rows`` take ``boxes``/``windows``, and those at
        the ``switch`` positions leave their seats for the end, in order."""
        eids, table, alive = self.tables()
        rows, boxes, windows, switch = moves or (np.empty(0, dtype=np.int64),) * 4
        keep = alive.copy()
        keep[rows[switch]] = False
        order = np.concatenate([np.flatnonzero(keep), rows[switch]])
        columns = table.transpose(1, 2, 0).take(order, axis=2)
        cells = self.window_table().take(order, axis=0)
        if len(rows):
            seat = np.empty(len(alive), dtype=np.int64)
            seat[order] = np.arange(len(order))
            columns[:, :, seat[rows]] = boxes.transpose(1, 2, 0)
            cells[seat[rows]] = windows
        return _GridSnapshot(None, None, None, None, None, eids.take(order), columns,
                             self.strides, self.tops, self.origin, self.cell, windows=cells)


def _cell_coords(
    values: np.ndarray, origin: np.ndarray, cell: float, tops: np.ndarray
) -> np.ndarray:
    """Clamped integer cell coordinates: the cell window arithmetic.

    Clamps in float space *before* the int64 cast — coordinates far outside
    the universe (e.g. 1e30, or ±inf) would otherwise overflow the cast and
    wrap to the wrong edge.
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


def _window_entries(
    snap: _GridSnapshot, lo_cells: np.ndarray, hi_cells: np.ndarray,
    base: CellTable, overlay: CellTable | None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """:func:`_expand_windows` of the query windows, except that a window
    holding more cells than the ``base`` and ``overlay`` cell tables hold keys
    lists only the occupied keys inside it: the keys decoded to coordinates by
    ``strides``/``tops`` and masked per axis.  Ascending keys are a window's
    ``product`` order, so every window's entries keep their order, minus cells
    no table holds; the windows under the bound pay one volume comparison."""
    volume = np.prod(hi_cells - lo_cells + 1, axis=1)
    wide = volume > len(base[0]) + (0 if overlay is None else len(overlay[0]))
    if not wide.any():
        return _expand_windows(lo_cells, hi_cells, snap.strides)
    narrow, wide = np.flatnonzero(~wide), np.flatnonzero(wide)
    owner, keys, first = _expand_windows(lo_cells[narrow], hi_cells[narrow], snap.strides)
    occupied = base[0] if overlay is None else np.union1d(base[0], overlay[0])
    coords = occupied[:, None] // snap.strides % (snap.tops + 1)
    inside = np.ones((len(wide), len(occupied)), dtype=bool)
    for axis in range(coords.shape[1]):
        inside &= lo_cells[wide, axis, None] <= coords[:, axis]
        inside &= coords[:, axis] <= hi_cells[wide, axis, None]
    window, key = np.nonzero(inside)  # window-major, keys ascending within each
    at_low = coords[key] == lo_cells[wide[window]]
    wide_first = (at_low.astype(np.uint8) << np.arange(coords.shape[1], dtype=np.uint8)).sum(
        axis=1, dtype=np.uint8)
    # Two runs, each sorted by window: the stable sort merges them.
    qidx = np.concatenate([narrow[owner], wide[window]])
    order = np.argsort(qidx, kind="stable")
    return (qidx[order], np.concatenate([keys, occupied[key]])[order],
            np.concatenate([first, wide_first])[order])


def _group(keys: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The stable sort order of non-negative int64 ``keys``, the sorted keys and
    where each run of equal keys starts.  While ``key · n + position`` fits
    int64, one plain sort of those (a stable argsort costs several times more)."""
    n = len(keys)
    if n and int(keys.max()) < (1 << 62) // n:
        order = np.sort(keys * n + np.arange(n)) % n
    else:
        order = np.argsort(keys, kind="stable")
    keys = keys.take(order)
    edge = np.ones(n, dtype=bool)
    np.not_equal(keys[1:], keys[:-1], out=edge[1:])
    return order, keys, edge


def _cell_table(keys: np.ndarray, rows: np.ndarray, first: np.ndarray) -> CellTable:
    """Group flat ``(cell key, element row, first mask)`` entries by cell:
    the distinct keys in sorted order, each cell's slice of the entry
    columns, and the columns in that (stable) order."""
    order, keys, edge = _group(keys)
    starts = np.flatnonzero(edge)  # a cell starts where the sorted keys change
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
    eids: np.ndarray, columns: np.ndarray, origin: np.ndarray, cell: float, tops: np.ndarray,
    windows: np.ndarray | None = None,
) -> _GridSnapshot | None:
    """The dense form of a grid holding exactly these rows (``columns`` as
    :func:`box_columns` lays them out, adopted as the snapshot's box store);
    ``None`` if unlinearizable.  Cell membership comes from the boxes by the
    clamped-window arithmetic of :func:`_cell_coords` — unless the rows'
    ``(n, 2d)`` ``windows`` are known already — so a live grid and this
    function necessarily describe the identical (cell, element) relation."""
    strides_arr = _linear_strides(tops)
    if strides_arr is None:
        return None
    if windows is None:  # a read-only pack keeps no windows: its rows never move
        lo_cells = _cell_coords(columns[0].T, origin, cell, tops)
        hi_cells = _cell_coords(columns[1].T, origin, cell, tops)
    else:
        lo_cells, hi_cells = windows[:, :len(tops)], windows[:, len(tops):]
    rows, keys, first = _expand_windows(lo_cells, hi_cells, strides_arr)
    return _GridSnapshot(
        *_cell_table(keys, rows, first),
        eids=eids,
        columns=columns,
        strides=strides_arr,
        tops=tops,
        origin=origin,
        cell=cell,
        windows=windows,
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
        # The ground truth, the row store, and its ``AABB`` view (written at
        # call time); then the moves :meth:`update` logged, in call order.
        self._boxes: dict[int, AABB] = {}
        self._store: _GridSnapshot | None = None
        self._log: dict[int, AABB] = {}
        self._lock = threading.Lock()
        # Per-axis (origin, top cell coordinate), fixed once universe and
        # cell size are.
        self._axes: tuple[tuple[float, int], ...] | None = None
        self._snapshot: _GridSnapshot | None = None  # the store, while it has a cell table
        self._switches = 0
        self._in_place = 0
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

    @property
    def cell_switches(self) -> int:
        self._settle()
        return self._switches

    @property
    def in_place_updates(self) -> int:
        self._settle()
        return self._in_place

    def _ensure_configured(self, items: list[Item]) -> None:
        """Fix universe, cell size and axes from the first items seen; items
        of another dimensionality are refused before anything is set."""
        if self._universe is None:
            hull = union_all(box for _, box in items)
            self._universe = hull.expanded(max(hull.margin() * 0.005, 1e-9))
        elif items[0][1].dims != self._universe.dims:
            raise ValueError(f"box has {items[0][1].dims} dims, index has {self._universe.dims}")
        if self._cell_size is None:
            # Default heuristic: aim for ~2 elements per occupied cell.
            from repro.core.resolution import default_cell_size

            self._cell_size = default_cell_size(len(items), self._universe)
        if self._axes is None:
            self._axes = grid_axes(self._universe, self._cell_size)

    # -- maintenance ---------------------------------------------------------------

    def bulk_load(self, items: Iterable[Item]) -> None:
        materialized = validate_items(items)
        store = None
        if materialized:  # whatever can refuse the input runs before the reset
            packed = _pack_finite([box for _, box in materialized])
            self._ensure_configured(materialized)
            eids = np.fromiter((eid for eid, _ in materialized), np.int64, len(materialized))
            store = self._new_store(eids, packed, self._corners(packed))
        self._log = {}  # the reset supersedes any logged moves
        self._boxes = dict(materialized)
        self._store = store
        self._snapshot = None
        self._switches = 0
        self._in_place = 0

    def _corners(self, packed: np.ndarray) -> np.ndarray:
        """The ``(n, 2d)`` integer window corners of packed ``(n, 2, d)``
        boxes, in one vectorized :func:`_cell_coords` pass."""
        assert self._cell_size is not None and self._axes is not None
        origin, tops = _axis_arrays(self._axes)
        return _cell_coords(packed.reshape(len(packed), -1), np.tile(origin, 2),
                            self._cell_size, np.tile(tops, 2))

    def _new_store(self, eids: np.ndarray, boxes: np.ndarray, windows: np.ndarray) -> _GridSnapshot:
        """A clean row store of these rows, with no cell table."""
        assert self._cell_size is not None and self._axes is not None
        origin, tops = _axis_arrays(self._axes)
        return _GridSnapshot(None, None, None, None, None, eids, box_columns(boxes),
                             _linear_strides(tops), tops, origin, self._cell_size, windows=windows)

    def insert(self, eid: int, box: AABB) -> None:
        if eid in self._boxes:
            raise ValueError(f"element {eid} already present")
        packed = _pack_finite([box])
        self._ensure_configured([(eid, box)])
        windows = self._corners(packed)
        self._settle()
        if self._store is None:
            self._store = self._new_store(np.array([eid]), packed, windows)
        else:
            self._store.patch_append([eid], packed, windows)
        self._boxes[eid] = box
        self._maybe_compact()
        self.counters.inserts += 1

    def delete(self, eid: int, box: AABB) -> None:
        if eid not in self._boxes or self._boxes[eid] != box:
            raise KeyError(f"element {eid} with box {box} not in index")
        self._settle()
        store = self._store
        assert store is not None
        store.patch_remove(store.locate([eid])[0])
        store.extra_row_of.pop(eid, None)
        del self._boxes[eid]
        self._maybe_compact()
        self.counters.deletes += 1

    def update(self, eid: int, old_box: AABB, new_box: AABB) -> None:
        """Write-behind: refuse what must be refused, write the ``AABB`` view and
        log the move for the next read; a logged element's next move settles first."""
        stored = self._boxes.get(eid)
        if stored is None or not (stored is old_box or stored == old_box):
            raise KeyError(f"element {eid} with box {old_box} not in index")
        dims = len(self._axes)  # type: ignore[arg-type]  # configured: it holds eid
        if len(new_box.lo) != dims:
            raise ValueError(f"box has {len(new_box.lo)} dims, index has {dims}")
        # The sum is finite unless a coordinate is not, or the sum overflows.
        lo, hi = new_box.lo, new_box.hi
        if not math.isfinite(sum(lo) + sum(hi)) and not all(map(math.isfinite, lo + hi)):
            raise ValueError("box coordinates must be finite")
        if eid in self._log:
            self._settle()
        self._boxes[eid] = new_box
        self._log[eid] = new_box
        self.counters.updates += 1

    def apply_moves(self, moves: Iterable[Move]) -> None:
        """The whole batch or nothing, and equal to the :meth:`update` loop:
        whatever can refuse a move (unknown id, stale ``old_box``, repeated
        id, wrong dims, non-finite coordinate) is checked for every move
        first; then the batch is logged and settled, as the loop's log is."""
        moves = unique_moves(moves)
        if not moves:
            return
        boxes = self._boxes
        dims = len(self._axes or ())
        for eid, old_box, new_box in moves:
            stored = boxes.get(eid)
            if stored is None or not (stored is old_box or stored == old_box):
                raise KeyError(f"element {eid} with box {old_box} not in index")
            if len(new_box.lo) != dims:
                raise ValueError(f"box has {len(new_box.lo)} dims, index has {dims}")
        packed = _pack_finite([new_box for _, _, new_box in moves])
        self._settle()
        for eid, _, new_box in moves:
            boxes[eid] = self._log[eid] = new_box
        self._settle(packed)
        self.counters.updates += len(moves)

    def _settle(self, packed: np.ndarray | None = None) -> None:
        """Place the logged moves (``packed``: their boxes, if at hand) in one
        vectorized pass, once, whichever thread reads first.  Whether their
        patches would carry the store past the compaction threshold is
        decided up front: if so the store is repacked from its own rows with
        the moves folded in and the snapshot dropped — where patching one by
        one arrives.  Switchers are re-appended to the store in log order."""
        if not self._log:  # a read of a settled grid: one truth test, no lock
            return
        with self._lock:
            log, self._log = self._log, {}
            if not log:  # another thread placed it meanwhile
                return
            eids = list(log)
            if packed is None:
                packed = _pack_finite(list(log.values()))
            windows = self._corners(packed)
            store = self._store
            assert store is not None
            rows, old = store.locate(eids)
            stays = (old == windows).all(axis=1)
            switch = np.flatnonzero(~stays)
            dims = windows.shape[1] // 2
            moved = windows[switch]
            # The dirt of the scalar loop: one patch per in-place rewrite,
            # one removal and one entry per covered cell per switch.
            dirt = len(eids) + int(np.prod(moved[:, dims:] - moved[:, :dims] + 1, axis=1).sum())
            if store.dirty + dirt > _compaction_threshold(store):
                self._store = store.compacted((rows, packed, windows, switch))
                self._snapshot = None
            else:
                stay = np.flatnonzero(stays)
                if stay.size:
                    store.patch_rewrite(rows[stay], packed[stay])
                if switch.size:
                    store.patch_remove(rows[switch])
                    store.patch_append([eids[at] for at in switch.tolist()], packed[switch], moved)
            self._in_place += len(eids) - len(switch)
            self._switches += len(switch)

    # -- queries --------------------------------------------------------------------

    def range_query(self, box: AABB) -> list[int]:
        """:meth:`batch_range_query` on one row."""
        return self.batch_range_query([box])[0]

    def knn(self, point: Sequence[float], k: int) -> KNNResult:
        """:meth:`batch_knn` on one row."""
        return self.batch_knn([point], k)[0]

    # -- batch queries (vectorized) ---------------------------------------------------

    def _build_snapshot(self) -> _GridSnapshot | None:
        """Pack the store's live rows into the dense form (:func:`pack_snapshot`,
        from the stored windows), which becomes the store; ``None`` if
        unlinearizable."""
        assert self._cell_size is not None and self._axes is not None
        origin, tops = _axis_arrays(self._axes)
        store = self._store
        if store is None or _linear_strides(tops) is None:
            return None
        self.snapshot_rebuilds += 1
        if store.dirty:
            store = store.compacted()
        snap = pack_snapshot(store.eids, store.columns, origin, self._cell_size, tops,
                             windows=store.windows)
        self._store = snap
        return snap

    def _ensure_snapshot(self) -> _GridSnapshot | None:
        self._settle()
        if self._snapshot is None:
            self._snapshot = self._build_snapshot()
        return self._snapshot

    def _gather_candidates(
        self, snap: _GridSnapshot, lo_cells: np.ndarray, hi_cells: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Flat ``(query, element-row)`` candidate pairs for the ``(m, d)``
        integer windows ``lo_cells``/``hi_cells``: flattened into ``(query,
        cell)`` pairs once (:func:`_window_entries`), their distinct cells
        walked through the base cell table and the overlay's, if any
        (:func:`_walk_cells` both times), kept at the first cell the two
        windows share and filtered through ``alive`` — every live ``(query,
        row)`` whose windows share a cell comes out exactly once.
        ``cells_probed`` rises by the distinct query cells (only the occupied
        ones of a window wider than the cell tables) plus the overlay cells
        among them."""
        counters = self.counters
        every_axis = (1 << lo_cells.shape[1]) - 1
        base, overlay = snap.base_table(), snap.overlay_table()
        qidx, flat_keys, q_first = _window_entries(snap, lo_cells, hi_cells, base, overlay)
        order, flat_keys, edge = _group(flat_keys)  # np.unique(return_inverse=True), cheaper
        uniq_keys = flat_keys[edge]
        inverse = np.empty(len(order), dtype=np.int64)
        inverse[order] = np.cumsum(edge) - 1
        counters.cells_probed += len(uniq_keys)
        pair_q, rows, _ = _walk_cells(base, uniq_keys, inverse, qidx, q_first, every_axis)
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
            return csr_hits(self._scan().batch_range_query(queries))
        dims = snap.tops.shape[0]
        if queries.shape[2] != dims:
            raise ValueError(f"queries have {queries.shape[2]} dims, index has {dims}")
        counters = self.counters
        assert self._cell_size is not None
        cell = self._cell_size

        lo_cells = _cell_coords(queries[:, 0, :], snap.origin, cell, snap.tops)
        hi_cells = _cell_coords(queries[:, 1, :], snap.origin, cell, snap.tops)
        # A window inverted across a cell boundary covers no cell (not a negative count).
        np.maximum(hi_cells, lo_cells - 1, out=hi_cells)
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
            return self._scan().batch_knn(pts, k)
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

        # Per-query give-up radius: beyond the farthest universe corner the
        # probe provably covers every element.
        lo_u = np.asarray(self._universe.lo)
        hi_u = np.asarray(self._universe.hi)
        limits = gap_norm(np.maximum(np.abs(pts - lo_u), np.abs(pts - hi_u)).T) + cell

        results: list[KNNResult] = [[] for _ in range(m)]
        active = np.arange(m)
        radius = cell
        while active.size:
            apts = pts[active]
            lo_cells = _cell_coords(apts - radius, snap.origin, cell, snap.tops)
            hi_cells = _cell_coords(apts + radius, snap.origin, cell, snap.tops)
            pair_q, rows = self._gather_candidates(snap, lo_cells, hi_cells)
            # Distinct keys: the sort only groups candidates by query.
            combined = np.sort(pair_q * n_rows + rows)
            cand_q = combined // n_rows
            cand_rows = combined % n_rows
            gaps = []  # per axis, from the store's columns
            for axis in range(dims):
                p = apts[:, axis].take(cand_q)
                lo, hi = e_cols[0, axis].take(cand_rows), e_cols[1, axis].take(cand_rows)
                gaps.append(np.maximum(np.maximum(lo - p, p - hi), 0.0))
            dists = gap_norm(gaps)
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
        self._settle()
        if self._store is None:
            dims = self._universe.dims if self._universe else 0
            return np.empty(0, dtype=np.int64), np.empty((0, 2, dims))
        eids, boxes, alive = self._store.tables()
        live = np.flatnonzero(alive)
        return eids[live], boxes[live]

    def snapshot_export(self) -> tuple[dict[str, np.ndarray], float] | None:
        """The compacted snapshot for shared-memory export: ``(arrays,
        cell_size)`` with every exported :class:`_GridSnapshot` field plus the
        ``(2, d)`` universe corners, or ``None`` when the grid is empty or
        unlinearizable.  A dirty snapshot is repacked first, so the base
        arrays alone describe the contents and the worker pool rehydrates
        them without replaying patches (:mod:`repro.serving.snapshots`)."""
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
        """Distinct cells the live windows cover, counted without packing a
        snapshot: per axis, the cell coordinates of every window entry, then
        the distinct coordinate rows (no int64 key is needed)."""
        windows = self._live_windows()
        if not len(windows):
            return 0
        dims = windows.shape[1] // 2
        lo_cells, hi_cells = windows[:, :dims], windows[:, dims:]
        axes = [_expand_windows(lo_cells, hi_cells, unit)[1] for unit in np.eye(dims, dtype=int)]
        return len(np.unique(np.stack(axes, axis=1), axis=0))

    def _live_windows(self) -> np.ndarray:
        """The live rows' ``(n, 2d)`` cell windows, in store order."""
        self._settle()
        store = self._store
        if store is None:
            return np.empty((0, 0), dtype=np.int64)
        return store.window_table()[store.tables()[2]]

    def _stored_entries(self) -> int:
        """Cell entries across all cells: the sum of the window volumes."""
        windows = self._live_windows()
        dims = windows.shape[1] // 2
        return int(np.prod(windows[:, dims:] - windows[:, :dims] + 1, axis=1).sum())

    @property
    def replication_factor(self) -> float:
        """Stored entries per distinct element (1.0 = each in one cell)."""
        if not self._boxes:
            return 0.0
        return self._stored_entries() / len(self._boxes)

    def memory_bytes(self) -> int:
        """One box per element, one 8-byte id per cell entry, 16 per cell."""
        if not self._boxes:
            return 0
        dims = self._universe.dims if self._universe else 3
        return (len(self._boxes) * dims * _BOX_BYTES_PER_DIM + self._stored_entries() * 8
                + self.occupied_cells * 16)

    # -- internals ---------------------------------------------------------------------

    def _scan(self) -> LinearScan:
        """The live rows as a :class:`LinearScan` charging this grid's
        counters: the read path of a grid whose cell keys do not fit int64."""
        return LinearScan.over(*self.export_items(), counters=self.counters)

    def _maybe_compact(self) -> None:
        """Past the threshold, repack the store's live rows; drop the snapshot."""
        store = self._store
        if store is not None and store.dirty > _compaction_threshold(store):
            self._store = store.compacted()
            self._snapshot = None


def _compaction_threshold(snap: _GridSnapshot) -> int:
    return max(_SNAPSHOT_DIRTY_MIN, len(snap.eids) // 4)


def _pack_finite(boxes: list[AABB]) -> np.ndarray:
    """:func:`boxes_to_array`, refusing a NaN or infinite coordinate."""
    packed = boxes_to_array(boxes)
    if not np.isfinite(packed).all():
        raise ValueError("box coordinates must be finite")
    return packed

