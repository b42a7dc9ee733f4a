"""One space-partitioning tree with leaf-level replication.

Both trees the paper prices by their replicas are this one structure: every
node owns a *region*, sibling regions tile their parent's region without
overlap, and an element is stored in every leaf whose region its box
touches (closed intersection).  They differ only in how a region is cut:

* :class:`RegionTree` cuts *space*: a region splits into 2^d equal
  children (the quadtree and octree, Samet 1984).  The paper: "supporting
  volumetric objects ... can be accomplished by replicating elements which
  occupy several partitions on the leaf level.  However, by doing so, the
  index size is increased massively";
* :class:`~repro.indexes.rplus.RPlusTree` cuts *data*: two children at a
  median of the elements' lower bounds on the widest axis (Sellis,
  Roussopoulos and Faloutsos 1987), which §3.2 lists among the R-tree
  extensions that trade overlap for duplicated elements.

One top-down build (:meth:`RegionTree._fill`) makes every subtree: the bulk
load, the split of a leaf holding more than ``capacity`` elements (unless
it sits at ``max_depth``), and the rebuild under a widened root when a
write lands outside the universe.  Every write refuses NaN/±inf
coordinates, boxes of other dims and ids the tree already holds before it
changes anything, and every query of other dims is refused.  Deletion
removes every replica; regions never merge (the structure is rebuilt
instead, which suits the paper's §4 economics).
``replication_factor`` reports the blow-up and ``max_sibling_overlap`` the
invariant (0.0); the loose octree avoids the first at the price of the
second.
"""

from __future__ import annotations

import heapq
from typing import Iterable, Sequence

from repro.geometry.aabb import AABB, boxes_to_array, union_all
from repro.indexes.base import Item, KNNResult, SpatialIndex, validate_items
from repro.indexes.rtree import _check_finite, checked_box
from repro.instrumentation.counters import Counters

_BOX_BYTES_PER_DIM = 16
_NODE_HEADER_BYTES = 16
# The universe is the data's hull padded by this share of its mean side;
# a write outside it widens it by half again, so drifting data rebuilds
# rarely.
_UNIVERSE_PAD = 0.01
_GROWTH_PAD = 0.5


class _RegionNode:
    __slots__ = ("region", "children", "items")

    def __init__(self, region: AABB) -> None:
        self.region = region
        self.children: list["_RegionNode"] | None = None
        self.items: list[Item] = []

    @property
    def is_leaf(self) -> bool:
        return self.children is None


class RegionTree(SpatialIndex):
    """Space partitioning tree with leaf-level replication; this class cuts
    a region into 2^d equal children.

    Parameters
    ----------
    dims:
        Dimensionality (2 = quadtree, 3 = octree); ``None`` takes the first
        write's.
    universe:
        Root region; when omitted it is derived from the first write (the
        hull padded by 1 % of its mean side) and widened by rebuild when a
        write lands outside.
    capacity:
        Elements a leaf holds before it is cut.
    max_depth:
        Depth cap; an overflowing leaf at the cap simply grows, which bounds
        replication on pathological inputs.
    """

    def __init__(
        self,
        dims: int | None,
        universe: AABB | None = None,
        capacity: int = 16,
        max_depth: float = 12,
        counters: Counters | None = None,
    ) -> None:
        super().__init__(counters)
        if dims is not None and dims < 1:
            raise ValueError(f"dims must be >= 1, got {dims}")
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        if universe is not None and dims is not None and universe.dims != dims:
            raise ValueError(f"universe has {universe.dims} dims, expected {dims}")
        self.dims = universe.dims if universe is not None else dims
        self.capacity = capacity
        self.max_depth = max_depth
        self._universe = universe
        self._root: _RegionNode | None = _RegionNode(universe) if universe else None
        self._boxes: dict[int, AABB] = {}
        self._replicas = 0

    # -- maintenance -----------------------------------------------------------

    def bulk_load(self, items: Iterable[Item]) -> None:
        materialized = validate_items(items)
        if materialized:
            checked_box(materialized[0][1], self.dims)
            _check_finite(boxes_to_array([box for _, box in materialized]))
            self._cover(union_all(box for _, box in materialized))
        self._boxes = dict(materialized)
        self._rebuild()

    def insert(self, eid: int, box: AABB) -> None:
        checked_box(box, self.dims)
        if eid in self._boxes:
            raise ValueError(f"element {eid} already present")
        self._boxes[eid] = box
        if self._cover(box):
            self._rebuild()
        else:
            self._insert_into(self._root, eid, box, 0)
        self.counters.inserts += 1

    def delete(self, eid: int, box: AABB) -> None:
        if self._boxes.get(eid) != box:
            raise KeyError(f"element {eid} with box {box} not in index")
        self._delete_from(self._root, eid, box)
        del self._boxes[eid]
        self.counters.deletes += 1

    def update(self, eid: int, old_box: AABB, new_box: AABB) -> None:
        """Delete + insert, with a new box the insert would refuse refused
        first: the element must not be deleted and then lost."""
        checked_box(new_box, self.dims)
        super().update(eid, old_box, new_box)

    # -- queries -----------------------------------------------------------------

    def range_query(self, box: AABB) -> list[int]:
        if self._root is None:
            return []
        if box.dims != self.dims:
            raise ValueError(f"query has {box.dims} dims, index has {self.dims}")
        counters = self.counters
        entry_bytes = box.dims * _BOX_BYTES_PER_DIM + 8
        seen: set[int] = set()
        results: list[int] = []
        stack = [self._root]
        while stack:
            node = stack.pop()
            if node.is_leaf:
                counters.bytes_touched += _NODE_HEADER_BYTES + len(node.items) * entry_bytes
                for eid, elem_box in node.items:
                    if eid in seen:
                        continue
                    counters.elem_tests += 1
                    if elem_box.intersects(box):
                        seen.add(eid)
                        results.append(eid)
                continue
            for child in node.children:
                counters.node_tests += 1
                if child.region.intersects(box):
                    counters.pointer_follows += 1
                    stack.append(child)
        return results

    def knn(self, point: Sequence[float], k: int) -> KNNResult:
        if k <= 0 or not self._boxes:
            return []
        if len(point) != self.dims:
            raise ValueError(f"point has {len(point)} dims, index has {self.dims}")
        counters = self.counters
        # (distance, kind, key, ref): nodes (kind 0) pop before elements
        # (kind 1) at equal distance, tied elements pop in id order — the
        # deterministic (distance, id) contract (see indexes/base.py).
        heap: list[tuple[float, int, int, object]] = [(0.0, 0, 0, self._root)]
        tiebreak = 1
        emitted: set[int] = set()
        results: list[tuple[float, int]] = []
        while heap and len(results) < k:
            dist, kind, _, ref = heapq.heappop(heap)
            counters.heap_ops += 1
            if kind == 1:
                if ref not in emitted:
                    emitted.add(ref)  # type: ignore[arg-type]
                    results.append((dist, ref))  # type: ignore[arg-type]
                continue
            node: _RegionNode = ref  # type: ignore[assignment]
            if node.is_leaf:
                for eid, elem_box in node.items:
                    if eid in emitted:
                        continue
                    counters.elem_tests += 1
                    heapq.heappush(
                        heap,
                        (elem_box.min_distance_to_point(point), 1, eid, eid),
                    )
                    counters.heap_ops += 1
                continue
            for child in node.children:
                counters.node_tests += 1
                heapq.heappush(
                    heap,
                    (child.region.min_distance_to_point(point), 0, tiebreak, child),
                )
                counters.heap_ops += 1
                tiebreak += 1
        return results

    def __len__(self) -> int:
        return len(self._boxes)

    # -- introspection -------------------------------------------------------------

    @property
    def replication_factor(self) -> float:
        """Stored leaf entries per distinct element (1.0 = no replication)."""
        if not self._boxes:
            return 0.0
        return self._replicas / len(self._boxes)

    def max_sibling_overlap(self) -> float:
        """Largest overlap volume between two sibling regions: 0.0, since
        every cut tiles its region (shared faces have no volume)."""
        worst = 0.0
        stack = [self._root] if self._root else []
        while stack:
            node = stack.pop()
            if node.is_leaf:
                continue
            for i, a in enumerate(node.children):
                for b in node.children[i + 1 :]:
                    worst = max(worst, a.region.overlap_volume(b.region))
            stack.extend(node.children)
        return worst

    # -- internals -------------------------------------------------------------------

    def _cut(self, region: AABB, items: list[Item]) -> list[AABB] | None:
        """The child regions ``region`` is cut into for ``items``, or
        ``None`` when it cannot be cut: here its 2^d equal children."""
        return _subdivide(region)

    def _fill(self, node: _RegionNode, items: list[Item], depth: int) -> _RegionNode:
        """The one build: keep ``items`` in ``node`` as a leaf, or cut its
        region and fill each child with the items that touch it.  A cut
        after which every child holds every item would only copy the leaf
        2^d-fold per level (boxes spanning the centre), so it is not made."""
        if len(items) > self.capacity and depth < self.max_depth:
            regions = self._cut(node.region, items) or ()
            parts = [[item for item in items if region.intersects(item[1])] for region in regions]
            if any(len(part) < len(items) for part in parts):
                node.items = []
                node.children = [
                    self._fill(_RegionNode(region), part, depth + 1)
                    for region, part in zip(regions, parts)
                ]
                return node
        node.items = items
        self._replicas += len(items)
        return node

    def _rebuild(self) -> None:
        self._replicas = 0
        self._root = None
        if self._universe is not None:
            self._root = self._fill(_RegionNode(self._universe), list(self._boxes.items()), 0)

    def _cover(self, hull: AABB) -> bool:
        """Make the universe contain ``hull``; True when it had to change
        (the caller rebuilds under the new root)."""
        if self._universe is None:
            self.dims = hull.dims
            self._universe = _padded(hull, _UNIVERSE_PAD)
        elif not self._universe.contains_box(hull):
            self._universe = _padded(self._universe.union(hull), _GROWTH_PAD)
        else:
            return False
        return True

    def _insert_into(self, node: _RegionNode, eid: int, box: AABB, depth: int) -> None:
        if node.is_leaf:
            node.items.append((eid, box))
            self._replicas += 1
            if len(node.items) > self.capacity:
                self._replicas -= len(node.items)
                self._fill(node, node.items, depth)
            return
        for child in node.children:
            if child.region.intersects(box):
                self._insert_into(child, eid, box, depth + 1)

    def _delete_from(self, node: _RegionNode, eid: int, box: AABB) -> None:
        if node.is_leaf:
            before = len(node.items)
            node.items = [(e, b) for e, b in node.items if e != eid]
            self._replicas -= before - len(node.items)
            return
        for child in node.children:
            if child.region.intersects(box):
                self._delete_from(child, eid, box)


def _padded(hull: AABB, share: float) -> AABB:
    """``hull`` grown on every face by ``share`` of its mean side."""
    return hull.expanded(max(hull.margin() / hull.dims * share, 1e-9))


def _subdivide(box: AABB) -> list[AABB]:
    """The 2^d equal children of ``box``."""
    center = box.center()
    dims = box.dims
    children = []
    for mask in range(1 << dims):
        lo = []
        hi = []
        for axis in range(dims):
            if mask & (1 << axis):
                lo.append(center[axis])
                hi.append(box.hi[axis])
            else:
                lo.append(box.lo[axis])
                hi.append(center[axis])
        children.append(AABB(lo, hi))
    return children
