"""The loose octree: replication-free space partitioning via enlarged cells.

The paper: "Other extensions avoid replication by increasing the size of the
partitions (e.g., loose Octree).  Bigger partitions for space-oriented
approaches, however, introduce substantial overlap and therefore increase
unnecessary child traversals (and comparisons) similar to the R-Tree."

Each element is stored in exactly **one** cell: the level is chosen so the
cell is the smallest whose size (times the looseness factor) still covers the
element, and the cell within the level is addressed by the element's centre.
Because cells are loose (each cell's effective box is its strict box scaled by
``looseness``), a query must probe a halo of neighbouring cells per level —
the extra comparisons the paper predicts, which the counters expose.

The implementation is hash-addressed (level, i, j, k) → bucket, which also
makes single-element updates O(1) — a property the massive-update benchmarks
exploit for comparison.
"""

from __future__ import annotations

import heapq
import math
from typing import Iterable, Sequence

from repro.geometry.aabb import AABB, boxes_to_array, union_all
from repro.indexes.base import Item, KNNResult, SpatialIndex, validate_items
from repro.indexes.rtree import _check_finite, checked_box
from repro.instrumentation.counters import Counters

_BOX_BYTES_PER_DIM = 16


class LooseOctree(SpatialIndex):
    """Hash-addressed loose octree (works for any ``dims``, default 3).

    Parameters
    ----------
    universe:
        Root cell at level 0.  Required before the first insert unless
        ``bulk_load`` derives it from the data.
    looseness:
        Cell enlargement factor k (classically 2.0): a level-L cell of strict
        side ``s`` accepts elements up to size ``k·s − s`` beyond its bounds
        and is probed with a halo of ``k/2`` cells.
    max_level:
        Deepest level used (cells shrink by 2 per level).
    """

    def __init__(
        self,
        universe: AABB | None = None,
        looseness: float = 2.0,
        max_level: int = 10,
        counters: Counters | None = None,
    ) -> None:
        super().__init__(counters)
        if looseness < 1.0:
            raise ValueError(f"looseness must be >= 1, got {looseness}")
        if max_level < 0:
            raise ValueError(f"max_level must be >= 0, got {max_level}")
        self.looseness = looseness
        self.max_level = max_level
        self._universe = universe
        self._cells: dict[tuple[int, tuple[int, ...]], list[tuple[int, AABB]]] = {}
        self._locations: dict[int, tuple[int, tuple[int, ...]]] = {}
        self._boxes: dict[int, AABB] = {}
        self._levels_in_use: dict[int, int] = {}
        # Occupied cell coordinates per level: lets range_query clamp its
        # probe window to cells that exist instead of enumerating the full
        # level resolution (fatal on degenerate universes, where every query
        # window clamps to the whole 2^level-per-axis grid).
        self._level_cells: dict[int, set[tuple[int, ...]]] = {}

    # -- maintenance -----------------------------------------------------------

    def _checked(self, box: AABB) -> None:
        """Refuse a NaN/±inf coordinate or, once a universe is set, a box of
        other dims — before anything is written."""
        checked_box(box, None if self._universe is None else self._universe.dims)

    def bulk_load(self, items: Iterable[Item]) -> None:
        materialized = validate_items(items)
        if materialized:
            self._checked(materialized[0][1])
            _check_finite(boxes_to_array([box for _, box in materialized]))
        self._cells = {}
        self._locations = {}
        self._boxes = {}
        self._levels_in_use = {}
        self._level_cells = {}
        if not materialized:
            return
        if self._universe is None:
            hull = union_all(box for _, box in materialized)
            self._universe = hull.expanded(max(hull.margin() * 0.005, 1e-9))
        for eid, box in materialized:
            self._place(eid, box)

    def insert(self, eid: int, box: AABB) -> None:
        self._checked(box)
        if eid in self._boxes:
            raise ValueError(f"element {eid} already present")
        if self._universe is None:
            self._universe = box.expanded(max(box.margin() * 0.005, 1e-9))
        self._place(eid, box)
        self.counters.inserts += 1

    def delete(self, eid: int, box: AABB) -> None:
        if eid not in self._boxes or self._boxes[eid] != box:
            raise KeyError(f"element {eid} with box {box} not in index")
        self._remove(eid)
        self.counters.deletes += 1

    def update(self, eid: int, old_box: AABB, new_box: AABB) -> None:
        """O(1) move: relocate only when the owning cell changes."""
        self._checked(new_box)
        if eid not in self._boxes or self._boxes[eid] != old_box:
            raise KeyError(f"element {eid} with box {old_box} not in index")
        new_key = self._cell_key(new_box)
        old_key = self._locations[eid]
        self._boxes[eid] = new_box
        if new_key == old_key:
            bucket = self._cells[old_key]
            for i, (stored_eid, _) in enumerate(bucket):
                if stored_eid == eid:
                    bucket[i] = (eid, new_box)
                    break
        else:
            self._remove(eid, keep_box=False)
            self._boxes[eid] = new_box
            self._place(eid, new_box)
        self.counters.updates += 1

    # -- queries -----------------------------------------------------------------

    def range_query(self, box: AABB) -> list[int]:
        if self._universe is None:
            return []
        dims = self._universe.dims
        if box.dims != dims:
            raise ValueError(f"query has {box.dims} dims, index has {dims}")
        counters = self.counters
        results: list[int] = []
        halo = self.looseness / 2.0
        for level, _count in self._levels_in_use.items():
            cell_sides = self._cell_sides(level)
            resolution = 1 << level
            occupied = self._level_cells.get(level, ())
            ranges = []
            window = 1
            for axis in range(dims):
                side = cell_sides[axis]
                lo = (box.lo[axis] - self._universe.lo[axis]) / side - halo
                hi = (box.hi[axis] - self._universe.lo[axis]) / side + halo
                # Clamp both ends into the grid, then floor: out-of-universe
                # elements are clamped into edge cells at placement time, so
                # queries beyond the universe (±inf corners too) must still
                # probe those edge cells.  A NaN stays NaN and floor refuses it.
                lo_idx = math.floor(min(max(lo, 0.0), resolution - 1))
                hi_idx = math.floor(min(max(hi, 0.0), resolution - 1))
                ranges.append(range(lo_idx, hi_idx + 1))
                window *= hi_idx - lo_idx + 1
            if not ranges:
                continue
            if window > len(occupied):
                # The window covers more cells than exist at this level —
                # a huge query over a small (or degenerate) universe would
                # enumerate up to 2^(level·dims) empty coordinates.  Walk the
                # occupied cells instead and keep the ones inside the window;
                # same answer, bounded by the level's population.
                for coords in occupied:
                    if any(c not in r for c, r in zip(coords, ranges)):
                        continue
                    counters.cells_probed += 1
                    bucket = self._cells.get((level, coords))
                    if not bucket:
                        continue
                    counters.bytes_touched += len(bucket) * (dims * _BOX_BYTES_PER_DIM + 8)
                    for eid, elem_box in bucket:
                        counters.elem_tests += 1
                        if elem_box.intersects(box):
                            results.append(eid)
                continue
            for coords in _product(ranges):
                key = (level, coords)
                bucket = self._cells.get(key)
                counters.cells_probed += 1
                if not bucket:
                    continue
                counters.bytes_touched += len(bucket) * (dims * _BOX_BYTES_PER_DIM + 8)
                for eid, elem_box in bucket:
                    counters.elem_tests += 1
                    if elem_box.intersects(box):
                        results.append(eid)
        return results

    def knn(self, point: Sequence[float], k: int) -> KNNResult:
        """Exact kNN by expanding-radius range probes (doubling search)."""
        if k <= 0 or not self._boxes or self._universe is None:
            return []
        if len(point) != self._universe.dims:
            raise ValueError(f"point has {len(point)} dims, index has {self._universe.dims}")
        counters = self.counters
        point = tuple(point)
        radius = max(min(self._cell_sides(self.max_level)), 1e-9)
        universe_diag = self._universe.max_distance_to_point(point) + 1.0
        while True:
            probe = AABB.from_center(point, radius)
            candidates = self.range_query(probe)
            if len(candidates) >= k or radius > universe_diag:
                scored = []
                for eid in set(candidates):
                    dist = self._boxes[eid].min_distance_to_point(point)
                    scored.append((dist, eid))
                    counters.heap_ops += 1
                scored.sort()
                # Candidates within `radius` are exact; beyond that a closer
                # element could hide outside the probe box, so only accept
                # results whose distance is covered by the probe.
                confirmed = [(d, e) for d, e in scored if d <= radius]
                if len(confirmed) >= k or radius > universe_diag:
                    return heapq.nsmallest(k, scored)
            radius *= 2.0

    def __len__(self) -> int:
        return len(self._boxes)

    @property
    def cell_count(self) -> int:
        return sum(1 for bucket in self._cells.values() if bucket)

    # -- internals -------------------------------------------------------------------

    def _cell_sides(self, level: int) -> tuple[float, ...]:
        assert self._universe is not None
        scale = 1 << level
        return tuple(extent / scale for extent in self._universe.extents())

    def _level_for(self, box: AABB) -> int:
        """Deepest level whose loose cell still covers the element."""
        assert self._universe is not None
        extents = box.extents()
        level = self.max_level
        for axis, extent in enumerate(extents):
            axis_extent = self._universe.extents()[axis]
            if extent <= 0.0:
                continue
            # Loose cell covers elements up to (looseness - 1) * side.
            max_size_factor = max(self.looseness - 1.0, 1e-9)
            fit = axis_extent * max_size_factor / extent
            if not math.isfinite(fit) or fit >= 2.0**self.max_level:
                continue  # element is tiny on this axis; no constraint
            axis_level = int(math.floor(math.log2(fit))) if fit >= 1.0 else 0
            level = min(level, axis_level)
        return max(0, min(self.max_level, level))

    def _cell_key(self, box: AABB) -> tuple[int, tuple[int, ...]]:
        assert self._universe is not None
        level = self._level_for(box)
        sides = self._cell_sides(level)
        resolution = 1 << level
        center = box.center()
        coords = []
        for axis, side in enumerate(sides):
            idx = int((center[axis] - self._universe.lo[axis]) / side)
            coords.append(max(0, min(resolution - 1, idx)))
        return (level, tuple(coords))

    def _place(self, eid: int, box: AABB) -> None:
        key = self._cell_key(box)
        self._cells.setdefault(key, []).append((eid, box))
        self._locations[eid] = key
        self._boxes[eid] = box
        self._levels_in_use[key[0]] = self._levels_in_use.get(key[0], 0) + 1
        self._level_cells.setdefault(key[0], set()).add(key[1])

    def _remove(self, eid: int, keep_box: bool = False) -> None:
        key = self._locations.pop(eid)
        bucket = self._cells[key]
        self._cells[key] = [(e, b) for e, b in bucket if e != eid]
        if not self._cells[key]:
            del self._cells[key]
            self._level_cells[key[0]].discard(key[1])
        self._levels_in_use[key[0]] -= 1
        if self._levels_in_use[key[0]] == 0:
            del self._levels_in_use[key[0]]
            self._level_cells.pop(key[0], None)
        if not keep_box:
            self._boxes.pop(eid, None)


def _product(ranges: list[range]):
    """Cartesian product of index ranges as coordinate tuples."""
    if not ranges:
        return
    if len(ranges) == 1:
        for i in ranges[0]:
            yield (i,)
        return
    for head in ranges[0]:
        for tail in _product(ranges[1:]):
            yield (head, *tail)
