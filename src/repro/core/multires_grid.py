"""Multi-resolution grid: "several uniform grids each with a different
resolution" (§3.3).

The paper's answer to the resolution dilemma: one grid cannot suit both tiny
and huge elements (or queries), so keep a small stack of uniform grids whose
cell sizes shrink geometrically.  Every element lives in exactly **one**
grid — the finest whose cells are still at least as large as the element,
which caps replication at 2^d cells per element — and each query is executed
on every populated level ("queries may be split and each part ... is executed
on the grid with the best suited resolution").

Updates inherit the uniform grid's economics: an element that moves without
leaving its cells costs an in-place write; level migration only happens when
an element's *size* changes materially.

Batch snapshots are maintained **per level**: each level's
:class:`~repro.core.uniform_grid.UniformGrid` owns its own incrementally
patched ``_GridSnapshot``, so a level migration patches exactly two of them
— a removal on the source level, an insertion on the destination level —
and every other level's packed snapshot survives untouched.
:attr:`snapshot_rebuilds` aggregates the per-level pack counters so tests
can pin that no migration triggers a wholesale repack.
"""

from __future__ import annotations

import heapq
import math
from typing import Iterable, Sequence

import numpy as np

from repro.geometry.aabb import AABB, as_box_array, as_point_array, union_all
from repro.core.uniform_grid import UniformGrid
from repro.indexes.base import Item, KNNResult, SpatialIndex, validate_items
from repro.instrumentation.counters import Counters


class MultiResolutionGrid(SpatialIndex):
    """A stack of uniform grids with geometrically shrinking cells.

    Parameters
    ----------
    universe:
        Indexed region (derived from the first bulk load when omitted).
    levels:
        Number of grids.
    coarsest_cell:
        Cell side of level 0; level L uses ``coarsest_cell / ratio**L``.
        Defaults to ``universe_extent / 4``.
    ratio:
        Geometric shrink factor between levels (default 4).
    """

    def __init__(
        self,
        universe: AABB | None = None,
        levels: int = 4,
        coarsest_cell: float | None = None,
        ratio: float = 4.0,
        counters: Counters | None = None,
    ) -> None:
        super().__init__(counters)
        if levels < 1:
            raise ValueError(f"levels must be >= 1, got {levels}")
        if ratio <= 1.0:
            raise ValueError(f"ratio must be > 1, got {ratio}")
        self.levels = levels
        self.ratio = ratio
        self._universe = universe
        self._coarsest_cell = coarsest_cell
        self._grids: list[UniformGrid] | None = None
        self._level_of: dict[int, int] = {}
        self._boxes: dict[int, AABB] = {}
        # Updates whose size change moved the element to a different level;
        # each patches exactly the source and destination level snapshots.
        self.level_migrations = 0

    # -- configuration ------------------------------------------------------------

    def _ensure_grids(self, items: list[Item]) -> None:
        if self._grids is not None:
            return
        if self._universe is None:
            hull = union_all(box for _, box in items)
            self._universe = hull.expanded(max(hull.margin() * 0.005, 1e-9))
        if self._coarsest_cell is None:
            self._coarsest_cell = max(self._universe.extents()) / 4.0
        self._grids = []
        for level in range(self.levels):
            cell = self._coarsest_cell / (self.ratio**level)
            self._grids.append(
                UniformGrid(universe=self._universe, cell_size=cell, counters=self.counters)
            )

    def _level_for(self, box: AABB) -> int:
        """Finest level whose cells still cover the element's extent."""
        assert self._grids is not None and self._coarsest_cell is not None
        extent = max(box.extents())
        if extent <= 0.0:
            return self.levels - 1
        # cells at level L have side coarsest/ratio^L; need side >= extent.
        # Denormal extents can push the quotient (and hence the log) to
        # +inf, which int() cannot take — clamp before flooring.
        raw = math.log(self._coarsest_cell / extent, self.ratio)
        if raw >= self.levels - 1:
            return self.levels - 1
        return max(0, int(math.floor(raw)))

    # -- maintenance -----------------------------------------------------------------

    def bulk_load(self, items: Iterable[Item]) -> None:
        materialized = validate_items(items)
        self._grids = None
        self._level_of = {}
        self._boxes = {}
        self.level_migrations = 0
        if not materialized:
            return
        self._ensure_grids(materialized)
        assert self._grids is not None
        per_level: list[list[Item]] = [[] for _ in range(self.levels)]
        for eid, box in materialized:
            level = self._level_for(box)
            per_level[level].append((eid, box))
            self._level_of[eid] = level
            self._boxes[eid] = box
        for level, level_items in enumerate(per_level):
            if level_items:
                self._grids[level].bulk_load(level_items)

    def insert(self, eid: int, box: AABB) -> None:
        if eid in self._boxes:
            raise ValueError(f"element {eid} already present")
        self._ensure_grids([(eid, box)])
        assert self._grids is not None
        level = self._level_for(box)
        self._grids[level].insert(eid, box)
        self._level_of[eid] = level
        self._boxes[eid] = box
        self.counters.inserts += 1

    def delete(self, eid: int, box: AABB) -> None:
        if eid not in self._boxes or self._boxes[eid] != box:
            raise KeyError(f"element {eid} with box {box} not in index")
        assert self._grids is not None
        self._grids[self._level_of[eid]].delete(eid, box)
        del self._level_of[eid]
        del self._boxes[eid]
        self.counters.deletes += 1

    def update(self, eid: int, old_box: AABB, new_box: AABB) -> None:
        if eid not in self._boxes or self._boxes[eid] != old_box:
            raise KeyError(f"element {eid} with box {old_box} not in index")
        assert self._grids is not None
        new_level = self._level_for(new_box)
        old_level = self._level_of[eid]
        if new_level == old_level:
            self._grids[old_level].update(eid, old_box, new_box)
        else:
            # Migration touches exactly two levels; each level grid patches
            # its own snapshot incrementally (remove on source, insert on
            # destination) — the other levels' snapshots stay warm.
            self._grids[old_level].delete(eid, old_box)
            self._grids[new_level].insert(eid, new_box)
            self._level_of[eid] = new_level
            self.level_migrations += 1
        self._boxes[eid] = new_box
        self.counters.updates += 1

    # -- queries -------------------------------------------------------------------------

    def range_query(self, box: AABB) -> list[int]:
        if self._grids is None:
            return []
        results: list[int] = []
        for grid in self._grids:
            if len(grid):
                results.extend(grid.range_query(box))
        return results

    def knn(self, point: Sequence[float], k: int) -> KNNResult:
        if k <= 0 or not self._boxes or self._grids is None:
            return []
        merged: list[tuple[float, int]] = []
        for grid in self._grids:
            if len(grid):
                merged.extend(grid.knn(point, k))
        return heapq.nsmallest(k, merged)

    def batch_range_query(self, boxes: np.ndarray | Sequence[AABB]) -> list[list[int]]:
        """One vectorized sweep per populated level, merged per query.

        Elements live in exactly one level, so concatenating the per-level
        answers needs no dedup.
        """
        queries = as_box_array(boxes)
        m = queries.shape[0]
        if m == 0:
            return []
        results: list[list[int]] = [[] for _ in range(m)]
        if self._grids is None:
            return results
        for grid in self._grids:
            if len(grid):
                for merged, part in zip(results, grid.batch_range_query(queries)):
                    merged.extend(part)
        return results

    def batch_knn(
        self, points: np.ndarray | Sequence[Sequence[float]], k: int
    ) -> list[KNNResult]:
        """One vectorized expanding-ring sweep per populated level.

        Each level's :meth:`UniformGrid.batch_knn` answer is exact for the
        elements that level owns, so an ``nsmallest`` merge of the per-level
        ``(distance, id)`` lists is the exact global answer — and because
        every level obeys the deterministic ``(distance, id)`` order, so
        does the lexicographic merge.
        """
        pts = as_point_array(points)
        m = pts.shape[0]
        if m == 0:
            return []
        if k <= 0 or not self._boxes or self._grids is None:
            return [[] for _ in range(m)]
        merged: list[list[tuple[float, int]]] = [[] for _ in range(m)]
        for grid in self._grids:
            if len(grid):
                for acc, part in zip(merged, grid.batch_knn(pts, k)):
                    acc.extend(part)
        return [heapq.nsmallest(k, acc) for acc in merged]

    def __len__(self) -> int:
        return len(self._boxes)

    # -- introspection --------------------------------------------------------------------

    def level_populations(self) -> list[int]:
        if self._grids is None:
            return []
        return [len(grid) for grid in self._grids]

    @property
    def cell_switches(self) -> int:
        if self._grids is None:
            return 0
        return sum(grid.cell_switches for grid in self._grids)

    @property
    def snapshot_rebuilds(self) -> int:
        """Total full snapshot packs across all level grids.

        The per-level batch snapshots are maintained incrementally; this
        only advances when a level packs from scratch (its first batch, or
        deferred compaction after heavy churn) — never because an element
        migrated between levels.
        """
        if self._grids is None:
            return 0
        return sum(grid.snapshot_rebuilds for grid in self._grids)

    def level_snapshot_rebuilds(self) -> list[int]:
        """Per-level pack counters, index-aligned with the level stack."""
        if self._grids is None:
            return []
        return [grid.snapshot_rebuilds for grid in self._grids]

    def memory_bytes(self) -> int:
        if self._grids is None:
            return 0
        return sum(grid.memory_bytes() for grid in self._grids)
