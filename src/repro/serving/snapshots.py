"""Grid snapshots as plain arrays: export, staleness, worker rehydration.

The worker pool never pickles an index, and the one index it serves is a
:class:`~repro.core.uniform_grid.UniformGrid` — the simulation's single
uniform grid of the paper's serving case.  The parent exports the grid's
compacted :class:`~repro.core.uniform_grid._GridSnapshot` arrays (so no
overlay replay is needed), publishes them through
:class:`~repro.serving.shm.SegmentGroup`, and each worker adopts the
attached views as a read-only :class:`SnapshotGridIndex`: it probes the
*same* cell tables the parent built, through the same vectorized kernels.
Every other index, and a grid whose resolution does not linearize, has no
payload (:func:`export_index_payload` returns ``None``) and is answered in
the calling process.

Exports are cached per (grid, pool); :func:`index_fingerprint` detects
mutations (maintenance counters plus the identity of the structures every
``bulk_load`` replaces) so stale payloads are re-exported instead of served.
"""

from __future__ import annotations

import numpy as np

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
from repro.geometry.aabb import AABB
from repro.indexes.base import SpatialIndex


# -- parent side: export + staleness -------------------------------------------


def export_index_payload(index: SpatialIndex) -> tuple[dict[str, np.ndarray], float] | None:
    """``(arrays, cell)`` of a grid's compacted snapshot, or ``None``.

    ``None`` means the index is not served from shared memory — it is not a
    :class:`UniformGrid`, or the grid is empty (fan-out would be pure
    overhead) or unlinearizable; callers answer in-process.
    """
    if isinstance(index, UniformGrid):
        return index.snapshot_export()
    return None


def index_fingerprint(grid: UniformGrid) -> tuple:
    """A cheap staleness stamp: equal fingerprints ⇒ identical contents.

    Maintenance operations bump ``counters.inserts/deletes/updates``, and
    ``bulk_load`` replaces the grid's ``_boxes`` dict, so any mutation path
    moves the fingerprint.  Benign events (a counter reset, a snapshot
    rebuild) may also move it — that only costs one redundant export, never
    a stale answer.
    """
    c = grid.counters
    parts: list = [len(grid), c.inserts, c.deletes, c.updates, id(grid._boxes)]
    snap = grid._snapshot
    if snap is not None:
        parts.extend((id(snap), snap.dirty, len(snap.extra_eids)))
    return tuple(parts)


# -- worker side: rehydration --------------------------------------------------


class _Population:
    """Stands in for the grid's ``_boxes`` dict in the read-only grid:
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
    views over shared memory) as the grid's store and snapshot, so the
    vectorized ``batch_range_query`` / ``batch_knn`` paths run unchanged,
    and the scalar paths are those kernels on one row.  Mutations raise.
    """

    def __init__(self, arrays: dict[str, np.ndarray], cell: float) -> None:
        corners = arrays["universe"]
        universe = AABB(corners[0].tolist(), corners[1].tolist())
        super().__init__(universe=universe, cell_size=float(cell))
        fields = {name: arrays[name] for name in _GridSnapshot.EXPORTED}
        self._store = self._snapshot = _GridSnapshot(cell=float(cell), **fields)
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

    def _refuse(self, *args: object, **kwargs: object) -> None:
        raise TypeError(f"{type(self).__name__} is read-only")

    bulk_load = insert = delete = update = apply_moves = _refuse

    @property
    def boxes(self):
        # The read-only grid keeps no per-element AABBs, only the packed tables.
        raise TypeError(f"{type(self).__name__} is read-only and keeps no box view")
