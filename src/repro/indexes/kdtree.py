"""A bucket KD-tree — the classic point access method (Bentley 1975).

The paper lists the KD-tree among the point access methods used in memory.
Points are indexed directly; volumetric elements must be replicated or
enlarged (see :class:`~repro.indexes.quadtree.QuadTree` and
:class:`~repro.indexes.loose_octree.LooseOctree` for those strategies) — this
implementation therefore accepts only degenerate (point) boxes and raises
otherwise, keeping the PAM semantics honest.

Structure: internal nodes split on the widest axis at the median; leaves hold
up to ``bucket_size`` points and split on overflow.  All operations charge the
shared counters (``node_tests`` for split-plane comparisons, ``elem_tests``
for point-in-range tests).
"""

from __future__ import annotations

import heapq
import math
from typing import Iterable, Sequence

import numpy as np

from repro.geometry.aabb import AABB, bounds_min_distance_to_point
from repro.indexes.base import Item, KNNResult, SpatialIndex, validate_items
from repro.instrumentation.counters import Counters

_POINT_BYTES_PER_DIM = 8


class _KDNode:
    __slots__ = ("axis", "threshold", "left", "right", "points")

    def __init__(self) -> None:
        self.axis = -1
        self.threshold = 0.0
        self.left: "_KDNode | None" = None
        self.right: "_KDNode | None" = None
        # Leaf payload: list of (point, eid); None marks an internal node.
        self.points: list[tuple[tuple[float, ...], int]] | None = []

    @property
    def is_leaf(self) -> bool:
        return self.points is not None


class KDTree(SpatialIndex):
    """Bucketed KD-tree over points (degenerate boxes)."""

    def __init__(self, bucket_size: int = 16, counters: Counters | None = None) -> None:
        super().__init__(counters)
        if bucket_size < 2:
            raise ValueError(f"bucket_size must be >= 2, got {bucket_size}")
        self.bucket_size = bucket_size
        self._root = _KDNode()
        self._size = 0
        self._dims: int | None = None
        # Lazy per-node expansion cache for the batch-kNN traversal.  A
        # node's region is determined by its root path, so cached child
        # regions/leaf arrays stay valid until a mutation clears the cache;
        # values keep the node alive so id() keys are stable.
        self._expansions: dict[int, tuple[_KDNode, bool, "np.ndarray", object]] = {}

    # -- maintenance -----------------------------------------------------------

    def bulk_load(self, items: Iterable[Item]) -> None:
        materialized = validate_items(items)
        self._expansions.clear()
        self._root = _KDNode()
        self._size = 0
        if not materialized:
            self._dims = None
            return
        self._dims = materialized[0][1].dims
        points = [(self._as_point(box), eid) for eid, box in materialized]
        self._root = self._build(points)
        self._size = len(points)

    def insert(self, eid: int, box: AABB) -> None:
        point = self._as_point(box)
        self._expansions.clear()
        if self._dims is None:
            self._dims = len(point)
        node = self._root
        while not node.is_leaf:
            self.counters.node_tests += 1
            node = node.left if point[node.axis] <= node.threshold else node.right
            self.counters.pointer_follows += 1
        node.points.append((point, eid))  # type: ignore[union-attr]
        if len(node.points) > self.bucket_size:  # type: ignore[arg-type]
            self._split_bucket(node)
        self._size += 1
        self.counters.inserts += 1

    def delete(self, eid: int, box: AABB) -> None:
        point = self._as_point(box)
        self._expansions.clear()
        node = self._root
        while not node.is_leaf:
            self.counters.node_tests += 1
            node = node.left if point[node.axis] <= node.threshold else node.right
        points = node.points
        assert points is not None
        for i, (stored, stored_eid) in enumerate(points):
            if stored_eid == eid and stored == point:
                del points[i]
                self._size -= 1
                self.counters.deletes += 1
                return
        raise KeyError(f"element {eid} at {point} not in index")

    # -- queries ----------------------------------------------------------------

    def range_query(self, box: AABB) -> list[int]:
        if self._size and box.dims != self._dims:
            raise ValueError(f"query has {box.dims} dims, index has {self._dims}")
        counters = self.counters
        results: list[int] = []
        stack = [self._root]
        while stack:
            node = stack.pop()
            if node.is_leaf:
                points = node.points
                assert points is not None
                counters.bytes_touched += len(points) * (box.dims * _POINT_BYTES_PER_DIM + 8)
                for point, eid in points:
                    counters.elem_tests += 1
                    if box.contains_point(point):
                        results.append(eid)
                continue
            counters.node_tests += 1
            counters.bytes_touched += 32
            if box.lo[node.axis] <= node.threshold:
                stack.append(node.left)  # type: ignore[arg-type]
                counters.pointer_follows += 1
            if box.hi[node.axis] > node.threshold:
                stack.append(node.right)  # type: ignore[arg-type]
                counters.pointer_follows += 1
        return results

    def knn(self, point: Sequence[float], k: int) -> KNNResult:
        if k <= 0 or self._size == 0:
            return []
        if len(point) != self._dims:
            raise ValueError(f"point has {len(point)} dims, index has {self._dims}")
        counters = self.counters
        point = tuple(point)
        tiebreak = 1
        # Max-heap on negated (distance, id): the worst survivor is the
        # lexicographically largest pair, so replacement follows the
        # deterministic (distance, id) contract (see indexes/base.py).
        best: list[tuple[float, int]] = []

        def worst() -> tuple[float, int]:
            if len(best) >= k:
                return (-best[0][0], -best[0][1])
            return (float("inf"), 0)

        # Each node carries its cell — the parent's clipped at the split
        # plane, unbounded at the root — and is keyed by the point's distance
        # to it, the same formula as the elements' (a lower bound on them).
        bound_heap: list[tuple[float, int, _KDNode, list[float], list[float]]] = [
            (0.0, 0, self._root, [-math.inf] * len(point), [math.inf] * len(point))
        ]
        while bound_heap:
            dist, _, node, cell_lo, cell_hi = heapq.heappop(bound_heap)
            counters.heap_ops += 1
            # Strictly greater: a node at exactly the k-th distance can still
            # hold a tied element with a smaller id.
            if dist > worst()[0]:
                break
            if node.is_leaf:
                points = node.points
                assert points is not None
                for stored, eid in points:
                    counters.elem_tests += 1
                    d = bounds_min_distance_to_point(stored, stored, point)
                    if len(best) < k:
                        heapq.heappush(best, (-d, -eid))
                        counters.heap_ops += 1
                    elif (d, eid) < worst():
                        heapq.heapreplace(best, (-d, -eid))
                        counters.heap_ops += 1
                continue
            counters.node_tests += 1
            axis, threshold = node.axis, node.threshold
            for child, side in ((node.left, "lo"), (node.right, "hi")):
                child_lo, child_hi = list(cell_lo), list(cell_hi)
                if side == "lo":
                    child_hi[axis] = min(cell_hi[axis], threshold)
                else:
                    child_lo[axis] = max(cell_lo[axis], threshold)
                heapq.heappush(bound_heap, (
                    bounds_min_distance_to_point(child_lo, child_hi, point),
                    tiebreak, child, child_lo, child_hi,
                ))
                counters.heap_ops += 1
                tiebreak += 1
        return sorted((-neg_d, -neg_e) for neg_d, neg_e in best)

    def batch_knn(
        self, points: "np.ndarray | Sequence[Sequence[float]]", k: int
    ) -> list[KNNResult]:
        """Shared best-first traversal over the whole batch.

        KD-nodes carry no boxes, so each child's bounding region is derived
        on the way down by clipping the parent region at the split plane
        (open sides stay infinite); leaves expose their points as degenerate
        boxes.  See :mod:`repro.indexes.batch_knn` for the traversal.
        """
        from repro.geometry.aabb import as_point_array
        from repro.indexes.batch_knn import best_first_batch_knn

        pts = as_point_array(points)
        m = pts.shape[0]
        if m == 0:
            return []
        if k <= 0 or self._size == 0:
            return [[] for _ in range(m)]
        if pts.shape[1] != self._dims:
            raise ValueError(f"points have {pts.shape[1]} dims, index has {self._dims}")
        dims = pts.shape[1]
        counters = self.counters
        packed = self._expansions

        def expand(handle: object) -> tuple[bool, np.ndarray, object]:
            node, region = handle  # type: ignore[misc]
            cached = packed.get(id(node))
            if cached is not None:
                return cached[1:]
            if node.is_leaf:
                stored = node.points
                counters.bytes_touched += len(stored) * (dims * _POINT_BYTES_PER_DIM + 8)
                if not stored:
                    boxes = np.empty((0, 2, dims))
                    refs: object = np.empty(0, dtype=np.int64)
                else:
                    coords = np.array([p for p, _ in stored], dtype=np.float64)
                    boxes = np.stack([coords, coords], axis=1)
                    refs = np.fromiter(
                        (eid for _, eid in stored), dtype=np.int64, count=len(stored)
                    )
                packed[id(node)] = (node, True, boxes, refs)
                return packed[id(node)][1:]
            counters.bytes_touched += 32
            left_region = region.copy()
            left_region[1, node.axis] = node.threshold
            right_region = region.copy()
            right_region[0, node.axis] = node.threshold
            boxes = np.stack([left_region, right_region])
            packed[id(node)] = (
                node,
                False,
                boxes,
                [(node.left, left_region), (node.right, right_region)],
            )
            return packed[id(node)][1:]

        root_region = np.array([[-np.inf] * dims, [np.inf] * dims])
        return best_first_batch_knn(
            pts, k, self._size, (self._root, root_region), expand, counters
        )

    def __len__(self) -> int:
        return self._size

    # -- internals ------------------------------------------------------------------

    def _as_point(self, box: AABB) -> tuple[float, ...]:
        if not box.is_degenerate():
            raise ValueError(
                "KDTree is a point access method; index volumetric elements "
                "with a region tree (QuadTree/Octree) or a grid instead"
            )
        if self._dims is not None and box.dims != self._dims:
            raise ValueError(f"point has {box.dims} dims, index has {self._dims}")
        return box.lo

    def _build(self, points: list[tuple[tuple[float, ...], int]]) -> _KDNode:
        node = _KDNode()
        if len(points) <= self.bucket_size:
            node.points = points
            return node
        axis = self._widest_axis(points)
        ordered = sorted(points, key=lambda p: p[0][axis])
        median = len(ordered) // 2
        threshold = ordered[median - 1][0][axis]
        left = [p for p in ordered if p[0][axis] <= threshold]
        right = [p for p in ordered if p[0][axis] > threshold]
        if not left or not right:
            # All coordinates equal on this axis: keep as (oversized) leaf.
            node.points = points
            return node
        node.points = None
        node.axis = axis
        node.threshold = threshold
        node.left = self._build(left)
        node.right = self._build(right)
        return node

    def _split_bucket(self, node: _KDNode) -> None:
        points = node.points
        assert points is not None
        rebuilt = self._build(points)
        if rebuilt.is_leaf:
            node.points = rebuilt.points
            return
        node.points = None
        node.axis = rebuilt.axis
        node.threshold = rebuilt.threshold
        node.left = rebuilt.left
        node.right = rebuilt.right

    @staticmethod
    def _widest_axis(points: list[tuple[tuple[float, ...], int]]) -> int:
        dims = len(points[0][0])
        widths = []
        for axis in range(dims):
            values = [p[0][axis] for p in points]
            widths.append(max(values) - min(values))
        return max(range(dims), key=widths.__getitem__)
