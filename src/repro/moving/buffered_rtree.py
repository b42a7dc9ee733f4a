"""Update-buffering R-tree (Biveinis et al., VLDB'07 style).

Updates are memoed in a side buffer instead of touching the tree; the tree is
patched wholesale when the buffer fills (one batched rebuild absorbs many
single-element operations).  The paper's verdict, which the counters expose:
"when computing the query result, buffer and index need to be checked,
thereby increasing the overhead" — every query pays an extra pass over the
buffer, and stale tree hits must be masked.
"""

from __future__ import annotations

import heapq
from typing import Iterable, Sequence

from repro.geometry.aabb import AABB
from repro.indexes.base import Item, KNNResult, SpatialIndex, validate_items
from repro.indexes.rtree import RTree, checked_box
from repro.instrumentation.counters import Counters


class BufferedRTree(SpatialIndex):
    """R-tree with a bounded update memo and batch flushing.

    Parameters
    ----------
    buffer_capacity:
        Pending operations tolerated before a flush rebuild.  The classic
        trade-off: bigger buffers amortize better but make queries slower.
    """

    def __init__(
        self,
        buffer_capacity: int = 1024,
        max_entries: int = 16,
        counters: Counters | None = None,
    ) -> None:
        super().__init__(counters)
        if buffer_capacity < 1:
            raise ValueError(f"buffer_capacity must be >= 1, got {buffer_capacity}")
        self.buffer_capacity = buffer_capacity
        self._tree = RTree(max_entries=max_entries, counters=self.counters)
        # Ground truth: id -> current box.
        self._current: dict[int, AABB] = {}
        # Pending ops not yet reflected in the tree: id -> box-or-None (None =
        # deleted); the tree may hold a stale box for these ids.
        self._pending: dict[int, AABB | None] = {}
        self._in_tree: dict[int, AABB] = {}
        self.flushes = 0

    # -- maintenance -----------------------------------------------------------

    def bulk_load(self, items: Iterable[Item]) -> None:
        materialized = validate_items(items)
        self._tree.bulk_load(materialized)
        self._current = dict(materialized)
        self._in_tree = dict(materialized)
        self._pending = {}
        self.flushes = 0

    def _check(self, box: AABB) -> None:
        """Refuse what the flush rebuild would refuse (a box of other dims
        than the current elements', NaN/±inf) before the buffer takes it."""
        current = next(iter(self._current.values()), None)
        checked_box(box, None if current is None else current.dims)

    def insert(self, eid: int, box: AABB) -> None:
        if eid in self._current:
            raise ValueError(f"element {eid} already present")
        self._check(box)
        self._current[eid] = box
        self._pending[eid] = box
        self.counters.inserts += 1
        self._maybe_flush()

    def delete(self, eid: int, box: AABB) -> None:
        if eid not in self._current or self._current[eid] != box:
            raise KeyError(f"element {eid} with box {box} not in index")
        del self._current[eid]
        if eid in self._in_tree:
            self._pending[eid] = None
        else:
            self._pending.pop(eid, None)
        self.counters.deletes += 1
        self._maybe_flush()

    def update(self, eid: int, old_box: AABB, new_box: AABB) -> None:
        if eid not in self._current or self._current[eid] != old_box:
            raise KeyError(f"element {eid} with box {old_box} not in index")
        self._check(new_box)
        self._current[eid] = new_box
        self._pending[eid] = new_box
        self.counters.updates += 1
        self._maybe_flush()

    def flush(self) -> None:
        """Apply every pending operation in one batch rebuild."""
        if not self._pending:
            return
        self._tree.bulk_load(list(self._current.items()))
        self._in_tree = dict(self._current)
        self._pending = {}
        self.flushes += 1

    def _maybe_flush(self) -> None:
        if len(self._pending) >= self.buffer_capacity:
            self.flush()

    # -- queries ------------------------------------------------------------------

    def range_query(self, box: AABB) -> list[int]:
        """Tree pass (masking stale ids) plus a full buffer pass."""
        counters = self.counters
        results = []
        for eid in self._tree.range_query(box):
            if eid in self._pending:
                continue  # stale or deleted; the buffer pass decides
            results.append(eid)
        for eid, pending_box in self._pending.items():
            counters.elem_tests += 1
            if pending_box is not None and pending_box.intersects(box):
                results.append(eid)
        return results

    def knn(self, point: Sequence[float], k: int) -> KNNResult:
        """Merge tree kNN (over-fetched to survive masking) with the buffer."""
        if k <= 0 or not self._current:
            return []
        counters = self.counters
        fetch = k + len(self._pending)
        tree_results = self._tree.knn(point, min(fetch, len(self._in_tree)))
        merged: list[tuple[float, int]] = []
        for dist, eid in tree_results:
            if eid in self._pending:
                continue
            merged.append((dist, eid))
        for eid, pending_box in self._pending.items():
            counters.elem_tests += 1
            if pending_box is not None:
                merged.append((pending_box.min_distance_to_point(point), eid))
        return heapq.nsmallest(k, merged)

    def __len__(self) -> int:
        return len(self._current)

    @property
    def pending_operations(self) -> int:
        return len(self._pending)

    def memory_bytes(self) -> int:
        return self._tree.memory_bytes()
