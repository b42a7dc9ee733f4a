"""The no-index baseline: a linear scan over the dataset.

Section 4 of the paper argues that under massive updates "using no index,
i.e., a linear scan over the dataset, may be faster" than maintaining any
structure.  The scan is also the correctness oracle for every other index in
the test suite: whatever an index returns for a query must equal the scan's
answer exactly.
"""

from __future__ import annotations

import heapq
import math
from typing import Iterable, Sequence

import numpy as np

from repro.geometry.aabb import (
    AABB,
    as_box_array,
    as_point_array,
    batch_intersects,
    batch_min_distance_to_points,
    boxes_to_array,
)
from repro.geometry.table import BoxTable
from repro.indexes.base import Item, KNNResult, SpatialIndex, validate_items
from repro.instrumentation.counters import Counters

_BOX_BYTES_PER_DIM = 16  # two float64 coordinates

# Chunk batched query-vs-data matrices to ~16M entries (~16 MB of bools) so a
# 10k-query × 100k-item batch never materializes a gigabyte at once.
_BATCH_CHUNK_ENTRIES = 1 << 24


class LinearScan(SpatialIndex):
    """Array of ``(id, box)`` pairs; every query touches every element.

    Updates are O(1) dictionary operations — the structural cost the paper
    credits the scan with ("it has no memory overhead" and needs no
    maintenance) — while queries are O(n) with one element intersection test
    each, which is exactly what the counters report.
    """

    def __init__(self, counters: Counters | None = None) -> None:
        super().__init__(counters)
        self._boxes: dict[int, AABB] = {}
        self._dense: tuple[np.ndarray, np.ndarray] | None = None  # (eids, boxes)

    @classmethod
    def over(
        cls, eids: np.ndarray, boxes: np.ndarray, counters: Counters | None = None
    ) -> "LinearScan":
        """A scan over packed ``(n,)`` ids and ``(n, 2, d)`` boxes, adopted as
        its dense view (the read path of grids that cannot key their cells,
        and of the read-only snapshot indexes)."""
        scan = cls(counters)
        scan._boxes = dict(BoxTable(eids, boxes).items())
        scan._dense = (eids, boxes)
        return scan

    def bulk_load(self, items: Iterable[Item]) -> None:
        self._boxes = dict(validate_items(items))
        self._dense = None

    def insert(self, eid: int, box: AABB) -> None:
        self._boxes[eid] = box
        self._dense = None
        self.counters.inserts += 1

    def delete(self, eid: int, box: AABB) -> None:
        if eid not in self._boxes:
            raise KeyError(f"element {eid} not in index")
        del self._boxes[eid]
        self._dense = None
        self.counters.deletes += 1

    def update(self, eid: int, old_box: AABB, new_box: AABB) -> None:
        if eid not in self._boxes:
            raise KeyError(f"element {eid} not in index")
        self._boxes[eid] = new_box
        self._dense = None
        self.counters.updates += 1

    def _check_query(self, coords: tuple[float, ...], dims: int, what: str) -> None:
        """Refuse what the batch kernels refuse: a NaN coordinate, or a
        query of other dimensionality than the stored boxes (the scalar
        predicates would zip the corners and answer a truncated query)."""
        if any(map(math.isnan, coords)):
            raise ValueError("query coordinates must be finite")
        stored = next(iter(self._boxes.values()), None)
        if stored is not None and stored.dims != dims:
            raise ValueError(f"{what} have {dims} dims, index has {stored.dims}")

    def range_query(self, box: AABB) -> list[int]:
        self._check_query(box.lo + box.hi, box.dims, "queries")
        counters = self.counters
        results = []
        for eid, elem_box in self._boxes.items():
            counters.elem_tests += 1
            if elem_box.intersects(box):
                results.append(eid)
        counters.bytes_touched += len(self._boxes) * (box.dims * _BOX_BYTES_PER_DIM + 8)
        return results

    def knn(self, point: Sequence[float], k: int) -> KNNResult:
        point = tuple(point)
        if not all(map(math.isfinite, point)):  # ±inf too, as the grid refuses it
            raise ValueError("query coordinates must be finite")
        self._check_query(point, len(point), "points")
        if k <= 0:
            return []
        counters = self.counters
        # Max-heap on negated (distance, id) so the worst survivor is the
        # largest (distance, id) pair — replacement is lexicographic, which
        # yields the exact (distance, id)-ordered answer the contract pins.
        heap: list[tuple[float, int]] = []
        for eid, elem_box in self._boxes.items():
            counters.elem_tests += 1
            dist = elem_box.min_distance_to_point(point)
            if len(heap) < k:
                heapq.heappush(heap, (-dist, -eid))
                counters.heap_ops += 1
            elif (dist, eid) < (-heap[0][0], -heap[0][1]):
                heapq.heapreplace(heap, (-dist, -eid))
                counters.heap_ops += 1
        counters.bytes_touched += len(self._boxes) * (len(point) * _BOX_BYTES_PER_DIM + 8)
        return sorted((-neg_d, -neg_e) for neg_d, neg_e in heap)

    # -- batch queries (vectorized) -----------------------------------------

    def _dense_view(self) -> tuple[np.ndarray, np.ndarray]:
        """The dataset as parallel ``(n,)`` id and ``(n, 2, d)`` box arrays.

        Rebuilt lazily after any mutation; the scan is the batch oracle, so
        the packed copy pays for itself after a single batched scan.
        """
        if self._dense is None:
            eids = np.fromiter(self._boxes.keys(), dtype=np.int64, count=len(self._boxes))
            self._dense = (eids, boxes_to_array(list(self._boxes.values())))
        return self._dense

    def batch_range_query(self, boxes: np.ndarray | Sequence[AABB]) -> list[list[int]]:
        queries = as_box_array(boxes)
        if np.isnan(queries).any():
            raise ValueError("query coordinates must be finite")
        m = queries.shape[0]
        results: list[list[int]] = [[] for _ in range(m)]
        n = len(self._boxes)
        if m == 0 or n == 0:
            return results
        counters = self.counters
        eids, data = self._dense_view()
        dims = data.shape[2]
        if queries.shape[2] != dims:
            raise ValueError(f"queries have {queries.shape[2]} dims, index has {dims}")
        chunk = max(1, _BATCH_CHUNK_ENTRIES // n)
        for start in range(0, m, chunk):
            q_rows, hits = np.nonzero(batch_intersects(queries[start : start + chunk], data))
            for qi, eid in zip((q_rows + start).tolist(), eids[hits].tolist()):
                results[qi].append(eid)
        counters.elem_tests += m * n
        counters.bytes_touched += m * n * (dims * _BOX_BYTES_PER_DIM + 8)
        return results

    def batch_knn(
        self, points: np.ndarray | Sequence[Sequence[float]], k: int
    ) -> list[KNNResult]:
        pts = as_point_array(points)
        if not np.isfinite(pts).all():
            raise ValueError("query coordinates must be finite")
        m = pts.shape[0]
        if m == 0:
            return []
        n = len(self._boxes)
        if n == 0:
            return [[] for _ in range(m)]
        eids, data = self._dense_view()
        dims = data.shape[2]
        if pts.shape[1] != dims:
            raise ValueError(f"points have {pts.shape[1]} dims, index has {dims}")
        if k <= 0:
            return [[] for _ in range(m)]
        counters = self.counters
        results: list[KNNResult] = []
        chunk = max(1, _BATCH_CHUNK_ENTRIES // n)
        kk = min(k, n)
        for start in range(0, m, chunk):
            dists = batch_min_distance_to_points(data, pts[start : start + chunk])
            for row in range(dists.shape[0]):
                row_d = dists[row]
                if kk < n:
                    # argpartition splits ties at the k-th distance
                    # arbitrarily; widen to every element at or under the
                    # pivot so the (distance, id) tie-break stays exact.
                    part = np.argpartition(row_d, kk - 1)[:kk]
                    cols = np.nonzero(row_d <= row_d[part].max())[0]
                else:
                    cols = np.arange(n)
                order = np.lexsort((eids[cols], row_d[cols]))[:kk]
                chosen = cols[order]
                results.append(list(zip(row_d[chosen].tolist(), eids[chosen].tolist())))
                counters.heap_ops += kk
        counters.elem_tests += m * n
        counters.bytes_touched += m * n * (dims * _BOX_BYTES_PER_DIM + 8)
        return results

    def __len__(self) -> int:
        return len(self._boxes)

    def memory_bytes(self) -> int:
        if not self._boxes:
            return 0
        dims = next(iter(self._boxes.values())).dims
        return len(self._boxes) * (dims * _BOX_BYTES_PER_DIM + 8)
