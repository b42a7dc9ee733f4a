"""Index snapshots as plain arrays: export, staleness, worker rehydration.

The worker pool never pickles an index.  The parent exports a *payload* —
a dict of contiguous arrays describing the index contents — publishes it
through :class:`~repro.serving.shm.SegmentGroup`, and each worker rebuilds a
query-equivalent engine from the attached views:

* ``"grid"`` payloads carry the :class:`~repro.core.uniform_grid._GridSnapshot`
  arrays (compacted, so no overlay replay is needed) and rehydrate into a
  read-only :class:`SnapshotGridIndex` — the worker probes the *same* bucket
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

from typing import Sequence

import numpy as np

from repro.approx.spill_tree import SpillTree, _FlatSpillTree
from repro.core.uniform_grid import UniformGrid, _GridSnapshot
from repro.geometry.aabb import AABB, array_to_boxes, as_box_array
from repro.indexes.base import Item, KNNResult, SpatialIndex
from repro.indexes.linear_scan import LinearScan
from repro.indexes.rtree import RTree

#: Payload kinds a worker knows how to rehydrate.
PAYLOAD_KINDS = ("grid", "tree", "spill", "packed")


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


def items_fingerprint(items: Sequence[Item]) -> tuple:
    """Staleness stamp for a join-side item sequence.

    Join specs carry materialized ``(eid, AABB)`` sequences; tuples/lists
    are treated as immutable once submitted (the spec dataclasses are
    frozen), so identity plus length suffices.
    """
    return (id(items), len(items))


def export_items_payload(items: Sequence[Item]) -> dict[str, np.ndarray]:
    """Pack an item sequence into ``{"eids", "boxes"}`` arrays."""
    from repro.geometry.aabb import boxes_to_array

    eids = np.fromiter((eid for eid, _ in items), dtype=np.int64, count=len(items))
    boxes = boxes_to_array([box for _, box in items])
    return {"eids": eids, "boxes": boxes}


# -- worker side: rehydration --------------------------------------------------


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


class SnapshotGridIndex(UniformGrid):
    """A read-only :class:`UniformGrid` rebuilt from exported snapshot arrays.

    The dense ``_GridSnapshot`` tables are adopted directly (typically as
    views over shared memory), so the vectorized ``batch_range_query`` /
    ``batch_knn`` paths run unchanged.  The scalar paths — which the batch
    kernels fall back to on oversized cell windows — cannot walk the absent
    bucket dicts, so they delegate to a lazily built
    :class:`~repro.indexes.linear_scan.LinearScan` oracle over the same
    tables (identical answers by the ordering contract).  Mutations raise.
    """

    def __init__(self, arrays: dict[str, np.ndarray], cell: float) -> None:
        corners = arrays["universe"]
        universe = AABB(corners[0].tolist(), corners[1].tolist())
        super().__init__(universe=universe, cell_size=float(cell))
        self._snapshot = _GridSnapshot(
            keys=arrays["keys"],
            starts=arrays["starts"],
            counts=arrays["counts"],
            entry_rows=arrays["entry_rows"],
            entry_first=arrays["entry_first"],
            eids=arrays["eids"],
            boxes=arrays["boxes"],
            strides=arrays["strides"],
            tops=arrays["tops"],
            origin=arrays["origin"],
            cell=float(cell),
        )
        self._boxes = _Population(int(arrays["eids"].shape[0]))  # type: ignore[assignment]
        self._oracle: LinearScan | None = None

    # -- read-only --------------------------------------------------------

    def bulk_load(self, items) -> None:
        raise TypeError("SnapshotGridIndex is read-only")

    def insert(self, eid: int, box: AABB) -> None:
        raise TypeError("SnapshotGridIndex is read-only")

    def delete(self, eid: int, box: AABB) -> None:
        raise TypeError("SnapshotGridIndex is read-only")

    def update(self, eid: int, old_box: AABB, new_box: AABB) -> None:
        raise TypeError("SnapshotGridIndex is read-only")

    # -- scalar paths through the oracle ----------------------------------

    def _scan(self) -> LinearScan:
        if self._oracle is None:
            snap = self._snapshot
            assert snap is not None
            oracle = LinearScan(counters=self.counters)
            oracle._boxes = dict(zip(snap.eids.tolist(), array_to_boxes(snap.boxes)))
            oracle._dense = (snap.eids, snap.boxes)
            self._oracle = oracle
        return self._oracle

    def range_query(self, box: AABB) -> list[int]:
        return self._scan().range_query(box)

    def knn(self, point, k: int) -> KNNResult:
        return self._scan().knn(point, k)

    def export_items(self) -> tuple[np.ndarray, np.ndarray] | None:
        snap = self._snapshot
        assert snap is not None
        return snap.eids.copy(), snap.boxes.copy()


class SnapshotTreeIndex(SpatialIndex):
    """A read-only R-tree served straight from exported node tables.

    The parent's :meth:`~repro.indexes.rtree.RTree.export_tree` arrays are
    adopted as-is (typically views over shared memory): ``batch_range_query``
    runs the same carried-query traversal as the live R-tree and
    ``batch_knn`` the shared best-first kernel, with node handles being flat
    indices into the tables — the per-node entry arrays the live tree packs
    lazily are already packed here, so a worker *attaches* the parent's tree
    instead of STR-rebuilding one.  Scalar paths delegate to a lazily built
    :class:`~repro.indexes.linear_scan.LinearScan` oracle over the leaf
    entries (identical answers by the ordering contract).  Mutations raise.
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
        self._oracle: LinearScan | None = None

    # -- read-only --------------------------------------------------------

    def bulk_load(self, items) -> None:
        raise TypeError("SnapshotTreeIndex is read-only")

    def insert(self, eid: int, box: AABB) -> None:
        raise TypeError("SnapshotTreeIndex is read-only")

    def delete(self, eid: int, box: AABB) -> None:
        raise TypeError("SnapshotTreeIndex is read-only")

    def update(self, eid: int, old_box: AABB, new_box: AABB) -> None:
        raise TypeError("SnapshotTreeIndex is read-only")

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
            pending = queries[active]
            overlap = np.all(
                (entry_boxes[:, None, 0, :] <= pending[None, :, 1, :])
                & (pending[None, :, 0, :] <= entry_boxes[:, None, 1, :]),
                axis=-1,
            )  # (entries, active queries)
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

    # -- scalar paths through the oracle ----------------------------------

    def _leaf_items(self) -> tuple[np.ndarray, np.ndarray]:
        leaves = np.nonzero(self._is_leaf)[0]
        rows = np.concatenate(
            [
                np.arange(int(self._starts[nid]), int(self._starts[nid + 1]))
                for nid in leaves
            ]
        )
        return self._entry_refs[rows], self._entry_boxes[rows]

    def _scan(self) -> LinearScan:
        if self._oracle is None:
            eids, boxes = self._leaf_items()
            oracle = LinearScan(counters=self.counters)
            oracle._boxes = dict(zip(eids.tolist(), array_to_boxes(boxes)))
            oracle._dense = (eids, boxes)
            self._oracle = oracle
        return self._oracle

    def range_query(self, box: AABB) -> list[int]:
        return self._scan().range_query(box)

    def knn(self, point, k: int) -> KNNResult:
        return self._scan().knn(point, k)

    def export_items(self) -> tuple[np.ndarray, np.ndarray] | None:
        eids, boxes = self._leaf_items()
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


class SnapshotSpillTree(SpillTree):
    """A read-only :class:`~repro.approx.spill_tree.SpillTree` over exported
    arrays: the dense ``(eids, boxes)`` tables plus the parent's *built*
    flat tree, so both the exact batch kernels and the defeatist
    ``approx_batch_knn`` sweep run with zero rebuild.  Scalar paths
    delegate to a lazily built LinearScan oracle (the population dict never
    crossed the process boundary).  Mutations raise.
    """

    def __init__(self, arrays: dict[str, np.ndarray]) -> None:
        SpatialIndex.__init__(self)
        eids = arrays["eids"]
        self.tau = 0.0  # introspection only; the tree is prebuilt
        self.leaf_size = 0
        self.split_rule = None  # type: ignore[assignment]
        self.seed = 0
        self.calibration_sample = 128
        self._boxes = _Population(int(eids.shape[0]))  # type: ignore[assignment]
        self._dense = (eids, arrays["boxes"])
        self._tree = _FlatSpillTree.from_arrays(arrays)
        self._recall_cache: dict[int, float] = {}
        self._oracle: LinearScan | None = None

    # -- read-only --------------------------------------------------------

    def bulk_load(self, items) -> None:
        raise TypeError("SnapshotSpillTree is read-only")

    def insert(self, eid: int, box: AABB) -> None:
        raise TypeError("SnapshotSpillTree is read-only")

    def delete(self, eid: int, box: AABB) -> None:
        raise TypeError("SnapshotSpillTree is read-only")

    def update(self, eid: int, old_box: AABB, new_box: AABB) -> None:
        raise TypeError("SnapshotSpillTree is read-only")

    # -- scalar paths through the oracle ----------------------------------

    def _scan(self) -> LinearScan:
        if self._oracle is None:
            eids, boxes = self._dense  # type: ignore[misc]
            oracle = LinearScan(counters=self.counters)
            oracle._boxes = dict(zip(eids.tolist(), array_to_boxes(boxes)))
            oracle._dense = (eids, boxes)
            self._oracle = oracle
        return self._oracle

    def range_query(self, box: AABB) -> list[int]:
        return self._scan().range_query(box)

    def knn(self, point, k: int) -> KNNResult:
        return self._scan().knn(point, k)

    def export_items(self) -> tuple[np.ndarray, np.ndarray] | None:
        eids, boxes = self._dense  # type: ignore[misc]
        return eids.copy(), boxes.copy()

    def memory_bytes(self) -> int:
        eids, boxes = self._dense  # type: ignore[misc]
        tree = self._tree
        assert tree is not None
        return int(
            eids.nbytes + boxes.nbytes + sum(a.nbytes for a in tree.arrays().values())
        )


def items_from_arrays(eids: np.ndarray, boxes: np.ndarray) -> list[Item]:
    """Rebuild the ``(eid, AABB)`` list a join strategy consumes.

    Row order is preserved — the parent ships self-join payloads sorted by
    id, and prefix sharding depends on that order surviving the round trip.
    """
    return list(zip(eids.tolist(), array_to_boxes(boxes)))


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
        tree.bulk_load(items_from_arrays(arrays["eids"], arrays["boxes"]))
        return tree
    raise ValueError(f"unknown payload kind: {kind!r}")
