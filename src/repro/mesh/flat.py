"""FLAT for in-memory, non-mesh datasets (after Tauheed et al., ICDE'12).

"For datasets other than meshes, disk-based FLAT adds connectivity
(neighborhood) information to the dataset and then uses it to execute spatial
queries (similar to DLS or OCTOPUS).  The same idea can potentially also be
used in memory."

The connectivity FLAT adds here is a **tile graph**: space is cut into
uniform tiles, each element is registered in the tiles it overlaps, and tiles
link to their face neighbours.  A query then needs only

1. a *seed*: one tile intersecting the query, found through a deliberately
   tiny and rarely-updated seed index (a coarse sample of occupied tiles);
2. a *crawl*: breadth-first over tile links, restricted to tiles
   intersecting the query — complete because the tiles overlapping an AABB
   always form a face-connected set.

Updates under motion are grid-like and local (an element re-registers only
when it changes tiles); the seed index tolerates staleness by falling back to
arithmetic tile addressing when a stale seed misses, so it "only needs to be
updated infrequently".
"""

from __future__ import annotations

import math
from itertools import product
from typing import Iterable, Sequence

from repro.geometry.aabb import AABB, union_all
from repro.indexes.base import Item, KNNResult, SpatialIndex, validate_items
from repro.instrumentation.counters import Counters

_BOX_BYTES_PER_DIM = 16

TileKey = tuple[int, ...]


class FLAT(SpatialIndex):
    """Tile-connectivity index with seed-and-crawl queries.

    Parameters
    ----------
    universe:
        Indexed region (derived from the first bulk load when omitted).
    tile_size:
        Tile side length; the usual grid-resolution trade-off applies.
    seed_sample:
        Number of occupied tiles kept in the (infrequently refreshed) seed
        index.
    """

    def __init__(
        self,
        universe: AABB | None = None,
        tile_size: float | None = None,
        seed_sample: int = 64,
        counters: Counters | None = None,
    ) -> None:
        super().__init__(counters)
        if tile_size is not None and tile_size <= 0:
            raise ValueError(f"tile_size must be positive, got {tile_size}")
        if seed_sample < 1:
            raise ValueError(f"seed_sample must be >= 1, got {seed_sample}")
        self._universe = universe
        self._tile_size = tile_size
        self.seed_sample = seed_sample
        self._tiles: dict[TileKey, dict[int, AABB]] = {}
        self._tiles_of: dict[int, tuple[TileKey, ...]] = {}
        self._boxes: dict[int, AABB] = {}
        self._seed_tiles: list[TileKey] = []

    # -- configuration -------------------------------------------------------------

    def _ensure_configured(self, items: list[Item]) -> None:
        if self._universe is None:
            hull = union_all(box for _, box in items)
            self._universe = hull.expanded(max(hull.margin() * 0.005, 1e-9))
        if self._tile_size is None:
            from repro.core.resolution import default_cell_size

            self._tile_size = default_cell_size(
                max(len(items), 1), self._universe, target_per_cell=4.0
            )

    def refresh_seeds(self) -> None:
        """Resample the seed index (the infrequent maintenance)."""
        occupied = [key for key, bucket in self._tiles.items() if bucket]
        stride = max(1, len(occupied) // self.seed_sample)
        self._seed_tiles = occupied[::stride][: self.seed_sample]

    # -- maintenance ------------------------------------------------------------------

    def bulk_load(self, items: Iterable[Item]) -> None:
        materialized = validate_items(items)
        self._tiles = {}
        self._tiles_of = {}
        self._boxes = {}
        if not materialized:
            self._seed_tiles = []
            return
        self._ensure_configured(materialized)
        for eid, box in materialized:
            self._place(eid, box)
        self.refresh_seeds()

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
        """Local re-registration only when the tile set changes."""
        if eid not in self._boxes or self._boxes[eid] != old_box:
            raise KeyError(f"element {eid} with box {old_box} not in index")
        new_tiles = tuple(self._covered_tiles(new_box))
        if new_tiles == self._tiles_of[eid]:
            self._boxes[eid] = new_box
            for key in new_tiles:
                self._tiles[key][eid] = new_box
        else:
            self._unplace(eid)
            self._place(eid, new_box)
        self.counters.updates += 1

    # -- queries -------------------------------------------------------------------------

    def range_query(self, box: AABB) -> list[int]:
        """Seed-and-crawl over the tile graph."""
        if not self._boxes:
            return []
        # Tiles tile the *universe*; elements beyond it sit clamped in edge
        # tiles.  Crawl therefore follows the query clipped (projected) onto
        # the universe, while elements are tested against the original box.
        assert self._universe is not None
        tile_query = box.intersection(self._universe)
        if tile_query is None:
            lo = [min(max(c, a), b) for c, a, b in zip(box.lo, self._universe.lo, self._universe.hi)]
            hi = [min(max(c, a), b) for c, a, b in zip(box.hi, self._universe.lo, self._universe.hi)]
            tile_query = AABB(lo, hi)
        seed = self._find_seed(tile_query)
        if seed is None:
            return []
        counters = self.counters
        dims = box.dims
        seen_tiles = {seed}
        stack = [seed]
        results: list[int] = []
        reported: set[int] = set()
        while stack:
            key = stack.pop()
            counters.cells_probed += 1
            bucket = self._tiles.get(key)
            if bucket:
                counters.bytes_touched += len(bucket) * (dims * _BOX_BYTES_PER_DIM + 8)
                for eid, elem_box in bucket.items():
                    if eid in reported:
                        continue
                    counters.elem_tests += 1
                    if elem_box.intersects(box):
                        reported.add(eid)
                        results.append(eid)
            for neighbor in self._tile_neighbors(key):
                if neighbor in seen_tiles:
                    continue
                counters.pointer_follows += 1
                if self._tile_box(neighbor).intersects(tile_query):
                    seen_tiles.add(neighbor)
                    stack.append(neighbor)
        return results

    def knn(self, point: Sequence[float], k: int) -> KNNResult:
        """Expanding-probe kNN over the tile graph (grid-style doubling)."""
        if k <= 0 or not self._boxes or self._universe is None:
            return []
        assert self._tile_size is not None
        import heapq

        radius = self._tile_size
        limit = self._universe.max_distance_to_point(point) + self._tile_size
        while True:
            probe = AABB.from_center(tuple(point), radius)
            candidates = self.range_query(probe)
            scored = [
                (self._boxes[eid].min_distance_to_point(point), eid) for eid in candidates
            ]
            confirmed = [(d, e) for d, e in scored if d <= radius]
            if len(confirmed) >= k:
                return heapq.nsmallest(k, scored)
            if radius > limit:
                scored.sort()
                return scored[:k]
            radius *= 2.0

    def __len__(self) -> int:
        return len(self._boxes)

    # -- internals --------------------------------------------------------------------------

    def _tile_coord(self, value: float, axis: int) -> int:
        assert self._universe is not None and self._tile_size is not None
        raw = int(math.floor((value - self._universe.lo[axis]) / self._tile_size))
        top = int(math.ceil(self._universe.extents()[axis] / self._tile_size)) - 1
        return max(0, min(raw, max(top, 0)))

    def _covered_tiles(self, box: AABB) -> Iterable[TileKey]:
        dims = box.dims
        lo = [self._tile_coord(box.lo[axis], axis) for axis in range(dims)]
        hi = [self._tile_coord(box.hi[axis], axis) for axis in range(dims)]
        return product(*[range(a, b + 1) for a, b in zip(lo, hi)])

    def _tile_box(self, key: TileKey) -> AABB:
        assert self._universe is not None and self._tile_size is not None
        lo = [self._universe.lo[axis] + key[axis] * self._tile_size for axis in range(len(key))]
        hi = [c + self._tile_size for c in lo]
        return AABB(lo, hi)

    def _tile_neighbors(self, key: TileKey) -> Iterable[TileKey]:
        for axis in range(len(key)):
            for delta in (-1, 1):
                coord = key[axis] + delta
                if coord < 0:
                    continue
                yield key[:axis] + (coord,) + key[axis + 1 :]

    def _find_seed(self, box: AABB) -> TileKey | None:
        """A tile intersecting the query: try the (possibly stale) seed
        index first, then arithmetic addressing of the query centre."""
        for key in self._seed_tiles:
            self.counters.hash_probes += 1
            if self._tile_box(key).intersects(box):
                return key
        center = box.center()
        return tuple(self._tile_coord(center[axis], axis) for axis in range(box.dims))

    def _place(self, eid: int, box: AABB) -> None:
        keys = tuple(self._covered_tiles(box))
        for key in keys:
            self._tiles.setdefault(key, {})[eid] = box
        self._boxes[eid] = box
        self._tiles_of[eid] = keys

    def _unplace(self, eid: int) -> None:
        for key in self._tiles_of.pop(eid):
            bucket = self._tiles.get(key)
            if bucket is not None:
                bucket.pop(eid, None)
                if not bucket:
                    del self._tiles[key]
        del self._boxes[eid]

