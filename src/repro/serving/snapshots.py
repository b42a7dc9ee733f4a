"""Index snapshots as plain arrays: export, staleness, worker rehydration.

The worker pool never pickles an index.  The parent exports a *payload* —
a dict of contiguous arrays describing the index contents — publishes it
through :class:`~repro.serving.shm.SegmentGroup`, and each worker rebuilds a
query-equivalent engine from the attached views:

* ``"grid"`` payloads carry the :class:`~repro.core.uniform_grid._GridSnapshot`
  arrays (compacted, so no overlay replay is needed) and rehydrate into a
  read-only :class:`SnapshotGridIndex` — the worker probes the *same* cell
  tables the parent built, through the same vectorized kernels.
* ``"tree"`` payloads carry an R-tree family index's own structure — the
  packed-entry node tables of :meth:`~repro.indexes.rtree.RTree.export_tree`
  — and rehydrate into a read-only :class:`SnapshotTreeIndex` that traverses
  the *parent's* tree directly, instead of paying an STR rebuild per
  (index, pool).
* ``"spill"`` payloads carry a :class:`~repro.approx.spill_tree.SpillTree`'s
  dense tables plus its built flat tree and rehydrate into a
  :class:`SnapshotSpillTree`, so workers serve both the exact and the
  defeatist (approximate) kNN kernels with zero rebuild.
* ``"packed"`` payloads carry the ``(eids, boxes)`` element tables of any
  other index implementing
  :meth:`~repro.indexes.base.SpatialIndex.export_items` and rehydrate into
  an STR-packed R-tree.  This is query-equivalent by the library-wide
  contract: range/point results are id *sets* and kNN lists follow the
  deterministic ``(distance, id)`` order, so every exact index over the
  same elements answers identically.

Exports are cached per (index, pool); :func:`index_fingerprint` detects
mutations (maintenance counters plus the identity of the structures every
``bulk_load`` replaces) so stale payloads are re-exported instead of served.
"""

from __future__ import annotations

import numpy as np

from repro.approx.spill_tree import SpillTree, _FlatSpillTree
from repro.core.resolution import default_cell_size
from repro.core.uniform_grid import (
    UniformGrid,
    _axis_arrays,
    _GridSnapshot,
    box_columns,
    grid_axes,
    pack_snapshot,
    snapshot_arrays,
)
from repro.geometry.aabb import AABB, as_box_array, batch_intersects
from repro.geometry.table import BoxTable
from repro.indexes.base import KNNResult, SpatialIndex
from repro.indexes.rtree import RTree


# -- parent side: export + staleness -------------------------------------------


def export_index_payload(
    index: SpatialIndex,
) -> tuple[str, dict[str, np.ndarray], dict[str, float]] | None:
    """``(kind, arrays, scalars)`` describing ``index``, or ``None``.

    ``None`` means the index cannot be served from shared memory (no
    exportable representation, or it is empty — fan-out would be pure
    overhead); callers fall back to single-process execution.
    """
    if isinstance(index, UniformGrid):
        exported = index.snapshot_export()
        if exported is not None:
            arrays, cell = exported
            return "grid", arrays, {"cell": cell}
    if isinstance(index, SpillTree):
        spill = index.export_spill()
        if spill is not None:
            return "spill", spill, {}
    if isinstance(index, RTree):
        tree = index.export_tree()
        if tree is not None:
            return "tree", tree, {}
    packed = index.export_items()
    if packed is None:
        return None
    eids, boxes = packed
    if eids.shape[0] == 0:
        return None
    return "packed", {"eids": eids, "boxes": boxes}, {}


def index_fingerprint(index: SpatialIndex) -> tuple:
    """A cheap staleness stamp: equal fingerprints ⇒ identical contents.

    Maintenance operations bump ``counters.inserts/deletes/updates`` in
    every index, and ``bulk_load`` replaces the container objects listed
    below, so any mutation path moves the fingerprint.  Benign events (a
    counter reset, a snapshot rebuild) may also move it — that only costs
    one redundant export, never a stale answer.
    """
    c = index.counters
    parts: list = [
        type(index).__name__,
        len(index),
        c.inserts,
        c.deletes,
        c.updates,
    ]
    for attr in ("_boxes", "_root", "_grids"):
        obj = getattr(index, attr, None)
        if obj is not None:
            parts.append(id(obj))
    snap = getattr(index, "_snapshot", None)
    if snap is not None:
        parts.extend((id(snap), snap.dirty, len(snap.extra_eids)))
    return tuple(parts)


# -- worker side: rehydration --------------------------------------------------


class _ReadOnlyShell:
    """What the three rehydrated indexes share: mutations raise, and the
    scalar reads are the shell's own batch kernels on one row — the
    structures a scalar walk needs never crossed the process boundary, and
    the kernels' distances are the scalar ones bit for bit."""

    def _refuse(self, *args: object, **kwargs: object) -> None:
        raise TypeError(f"{type(self).__name__} is read-only")

    bulk_load = insert = delete = update = apply_moves = _refuse

    def range_query(self, box: AABB) -> list[int]:
        return self.batch_range_query([box])[0]  # type: ignore[attr-defined]

    def knn(self, point, k: int) -> KNNResult:
        return self.batch_knn([point], k)[0]  # type: ignore[attr-defined]

    def export_items(self) -> tuple[np.ndarray, np.ndarray] | None:
        eids, boxes = self._tables()  # type: ignore[attr-defined]
        return eids.copy(), boxes.copy()


class _Population:
    """Stands in for the grid's ``_boxes`` dict in the read-only shell:
    the batch kernels only ask it for truthiness and length."""

    __slots__ = ("n",)

    def __init__(self, n: int) -> None:
        self.n = n

    def __len__(self) -> int:
        return self.n

    def __bool__(self) -> bool:
        return self.n > 0


class SnapshotGridIndex(_ReadOnlyShell, UniformGrid):
    """A read-only :class:`UniformGrid` rebuilt from exported snapshot arrays.

    The dense ``_GridSnapshot`` tables are adopted directly (typically as
    views over shared memory), so the vectorized ``batch_range_query`` /
    ``batch_knn`` paths run unchanged, and the scalar paths are those
    kernels on one row.  Mutations raise.
    """

    def __init__(self, arrays: dict[str, np.ndarray], cell: float) -> None:
        corners = arrays["universe"]
        universe = AABB(corners[0].tolist(), corners[1].tolist())
        super().__init__(universe=universe, cell_size=float(cell))
        fields = {name: arrays[name] for name in _GridSnapshot.EXPORTED}
        self._snapshot = _GridSnapshot(cell=float(cell), **fields)
        self._boxes = _Population(int(arrays["eids"].shape[0]))  # type: ignore[assignment]

    @classmethod
    def over(
        cls, eids: np.ndarray, boxes: np.ndarray, universe: AABB, cell_size: float | None = None
    ) -> "SnapshotGridIndex | None":
        """A read-only grid straight from element arrays:
        exactly what ``UniformGrid(universe, cell_size).bulk_load`` of the same
        rows would snapshot (same default resolution, same packed tables), for
        probe-once grids.  ``None`` when the resolution is unlinearizable."""
        cell = cell_size if cell_size is not None else default_cell_size(len(eids), universe)
        origin, tops = _axis_arrays(grid_axes(universe, cell))
        snapshot = pack_snapshot(eids, box_columns(boxes), origin, cell, tops)
        if snapshot is None:
            return None
        return cls(snapshot_arrays(snapshot, universe), cell)

    def _tables(self) -> tuple[np.ndarray, np.ndarray]:
        snap = self._snapshot
        assert snap is not None
        return snap.eids, snap.boxes

    @property
    def boxes(self):
        # The shell keeps no per-element AABBs, only the packed tables.
        raise TypeError(f"{type(self).__name__} is read-only and keeps no box view")


class SnapshotTreeIndex(_ReadOnlyShell, SpatialIndex):
    """A read-only R-tree served straight from exported node tables.

    The parent's :meth:`~repro.indexes.rtree.RTree.export_tree` arrays are
    adopted as-is (typically views over shared memory): ``batch_range_query``
    runs the same carried-query traversal as the live R-tree and
    ``batch_knn`` the shared best-first kernel, with node handles being flat
    indices into the tables — the per-node entry arrays the live tree packs
    lazily are already packed here, so a worker *attaches* the parent's tree
    instead of STR-rebuilding one.  Scalar paths are those kernels on one
    row.  Mutations raise.
    """

    def __init__(self, arrays: dict[str, np.ndarray]) -> None:
        super().__init__()
        self._starts = arrays["node_starts"]
        self._is_leaf = arrays["node_is_leaf"].astype(bool)
        self._entry_boxes = arrays["entry_boxes"]
        self._entry_refs = arrays["entry_refs"]
        leaves = np.nonzero(self._is_leaf)[0]
        self._size = int((self._starts[leaves + 1] - self._starts[leaves]).sum())
        self._dims = int(self._entry_boxes.shape[2])
        self._packed: dict[int, tuple[bool, np.ndarray, object]] = {}

    # -- batch kernels over the flat tables --------------------------------

    def batch_range_query(self, boxes) -> list[list[int]]:
        queries = as_box_array(boxes)
        m = queries.shape[0]
        if m == 0:
            return []
        results: list[list[int]] = [[] for _ in range(m)]
        if self._size == 0:
            return results
        if queries.shape[2] != self._dims:
            raise ValueError(
                f"queries have {queries.shape[2]} dims, index has {self._dims}"
            )
        counters = self.counters
        starts = self._starts
        stack: list[tuple[int, np.ndarray]] = [(0, np.arange(m))]
        while stack:
            nid, active = stack.pop()
            lo, hi = int(starts[nid]), int(starts[nid + 1])
            if hi == lo:
                continue
            entry_boxes = self._entry_boxes[lo:hi]
            refs = self._entry_refs[lo:hi]
            counters.bytes_touched += entry_boxes.nbytes + refs.nbytes
            overlap = batch_intersects(entry_boxes, queries[active])  # (entries, active queries)
            if self._is_leaf[nid]:
                counters.elem_tests += overlap.size
                rows, cols = np.nonzero(overlap)
                eids = refs.tolist()
                for entry_i, query_i in zip(rows.tolist(), cols.tolist()):
                    results[active[query_i]].append(eids[entry_i])
            else:
                counters.node_tests += overlap.size
                for entry_i in range(hi - lo):
                    sub = active[overlap[entry_i]]
                    if sub.size:
                        counters.pointer_follows += 1
                        stack.append((int(refs[entry_i]), sub))
        return results

    def _expand(self, handle: object) -> tuple[bool, np.ndarray, object]:
        nid = int(handle)  # type: ignore[arg-type]
        cached = self._packed.get(nid)
        if cached is not None:
            return cached
        lo, hi = int(self._starts[nid]), int(self._starts[nid + 1])
        entry_boxes = self._entry_boxes[lo:hi]
        refs = self._entry_refs[lo:hi]
        self.counters.bytes_touched += entry_boxes.nbytes + refs.nbytes
        is_leaf = bool(self._is_leaf[nid])
        packed = (is_leaf, entry_boxes, refs if is_leaf else refs.tolist())
        self._packed[nid] = packed
        return packed

    def batch_knn(self, points, k: int) -> list[KNNResult]:
        from repro.geometry.aabb import as_point_array
        from repro.indexes.batch_knn import best_first_batch_knn

        pts = as_point_array(points)
        m = pts.shape[0]
        if m == 0:
            return []
        if k <= 0 or self._size == 0:
            return [[] for _ in range(m)]
        if pts.shape[1] != self._dims:
            raise ValueError(
                f"points have {pts.shape[1]} dims, index has {self._dims}"
            )
        return best_first_batch_knn(
            pts, k, self._size, 0, self._expand, self.counters
        )

    def _tables(self) -> tuple[np.ndarray, np.ndarray]:
        leaves = np.nonzero(self._is_leaf)[0]
        rows = np.concatenate(
            [
                np.arange(int(self._starts[nid]), int(self._starts[nid + 1]))
                for nid in leaves
            ]
        )
        return self._entry_refs[rows], self._entry_boxes[rows]

    def export_items(self) -> tuple[np.ndarray, np.ndarray] | None:
        eids, boxes = self._tables()
        order = np.argsort(eids, kind="stable")
        return eids[order].copy(), boxes[order].copy()

    def __len__(self) -> int:
        return self._size

    def memory_bytes(self) -> int:
        return int(
            self._starts.nbytes
            + self._is_leaf.nbytes
            + self._entry_boxes.nbytes
            + self._entry_refs.nbytes
        )


class SnapshotSpillTree(_ReadOnlyShell, SpillTree):
    """A read-only :class:`~repro.approx.spill_tree.SpillTree` over exported
    arrays: the dense ``(eids, boxes)`` tables plus the parent's *built*
    flat tree, so both the exact batch kernels and the defeatist
    ``approx_batch_knn`` sweep run with zero rebuild.  Scalar paths are the
    exact batch kernels on one row (the population dict never crossed the
    process boundary).  Mutations raise.
    """

    def __init__(self, arrays: dict[str, np.ndarray]) -> None:
        SpatialIndex.__init__(self)
        eids = arrays["eids"]
        self.tau = 0.0  # introspection only; the tree is prebuilt
        self.leaf_size = 0
        self.calibration_sample = 128
        self._boxes = _Population(int(eids.shape[0]))  # type: ignore[assignment]
        self._dense = (eids, arrays["boxes"])
        self._tree = _FlatSpillTree.from_arrays(arrays)
        self._recall_cache: dict[int, float] = {}

    def _tables(self) -> tuple[np.ndarray, np.ndarray]:
        return self._dense  # type: ignore[return-value]

    def memory_bytes(self) -> int:
        eids, boxes = self._dense  # type: ignore[misc]
        tree = self._tree
        assert tree is not None
        return int(
            eids.nbytes + boxes.nbytes + sum(a.nbytes for a in tree.arrays().values())
        )


def build_worker_index(
    kind: str, arrays: dict[str, np.ndarray], scalars: dict[str, float]
) -> SpatialIndex:
    """Rehydrate one payload into a query-serving index (worker side)."""
    if kind == "grid":
        return SnapshotGridIndex(arrays, scalars["cell"])
    if kind == "tree":
        return SnapshotTreeIndex(arrays)
    if kind == "spill":
        return SnapshotSpillTree(arrays)
    if kind == "packed":
        tree = RTree(max_entries=16)
        tree.bulk_load(BoxTable(arrays["eids"], arrays["boxes"]))
        return tree
    raise ValueError(f"unknown payload kind: {kind!r}")
