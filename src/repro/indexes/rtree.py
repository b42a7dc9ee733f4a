"""Guttman's R-tree, in memory, with linear and quadratic splits.

This is the reference dynamic spatial index of the paper's experiments
(Appendix A uses an STR-packed R-tree; :meth:`RTree.bulk_load` builds exactly
that, while :meth:`RTree.insert`/:meth:`RTree.delete` provide the classic
dynamic behaviour whose update cost Section 4.1 measures against rebuilds).

Instrumentation contract (used by the Figure 2/3 benchmarks):

* testing an *inner* entry's MBR against a query bumps ``node_tests``;
* testing a *leaf* entry's MBR bumps ``elem_tests``;
* descending into a child bumps ``pointer_follows``;
* visiting a node charges its payload size to ``bytes_touched``.
"""

from __future__ import annotations

import heapq
from typing import Iterable, Sequence

import numpy as np

from repro.geometry.aabb import (
    AABB, as_box_array, batch_intersects, boxes_to_array, union_all,
)
from repro.indexes.base import Item, KNNResult, SpatialIndex, validate_items
from repro.instrumentation.counters import Counters

_ENTRY_PTR_BYTES = 8
_NODE_HEADER_BYTES = 16


class Node:
    """An R-tree node: a flat list of ``(box, ref)`` entries.

    For leaves ``ref`` is an element id; for inner nodes it is a child
    :class:`Node`.  Nodes do not cache their own MBR — the parent entry holds
    it — which matches the classic layout and keeps updates local.
    """

    __slots__ = ("is_leaf", "entries")

    def __init__(self, is_leaf: bool, entries: list[tuple[AABB, object]] | None = None) -> None:
        self.is_leaf = is_leaf
        self.entries: list[tuple[AABB, object]] = entries if entries is not None else []

    def mbr(self) -> AABB:
        return union_all(box for box, _ in self.entries)

    def payload_bytes(self, dims: int) -> int:
        return _NODE_HEADER_BYTES + len(self.entries) * (dims * 16 + _ENTRY_PTR_BYTES)


class RTree(SpatialIndex):
    """Dynamic R-tree (Guttman 1984).

    Parameters
    ----------
    max_entries:
        Node capacity M.
    min_entries:
        Underflow threshold m; defaults to ``max(2, M * 2 // 5)`` (the 40 %
        fill classically recommended).
    split:
        ``"quadratic"`` (default) or ``"linear"`` seed selection.
    """

    def __init__(
        self,
        max_entries: int = 16,
        min_entries: int | None = None,
        split: str = "quadratic",
        counters: Counters | None = None,
    ) -> None:
        super().__init__(counters)
        if max_entries < 4:
            raise ValueError(f"max_entries must be >= 4, got {max_entries}")
        if split not in ("quadratic", "linear"):
            raise ValueError(f"unknown split algorithm: {split!r}")
        self.max_entries = max_entries
        self.min_entries = min_entries if min_entries is not None else max(2, max_entries * 2 // 5)
        if not 1 <= self.min_entries <= max_entries // 2:
            raise ValueError(
                f"min_entries must be in [1, max_entries/2], got {self.min_entries}"
            )
        self.split_algorithm = split
        self._root: Node = Node(is_leaf=True)
        self._height = 1  # number of levels; leaves are level 0
        self._size = 0
        self._dims: int | None = None
        self._node_count = 1
        # Lazy per-node entry arrays for the batch-kNN traversal.  Values
        # keep the Node alive so id() keys stay valid; any structural
        # mutation clears the cache wholesale.
        self._batch_pack: dict[int, tuple[Node, bool, np.ndarray, object]] = {}

    # -- bulk loading ----------------------------------------------------------

    def bulk_load(self, items: Iterable[Item]) -> None:
        """Rebuild via Sort-Tile-Recursive packing (the paper's build)."""
        from repro.indexes.bulkload import str_pack

        materialized = validate_items(items)
        self._batch_pack.clear()
        if not materialized:
            self._root = Node(is_leaf=True)
            self._height = 1
            self._size = 0
            self._node_count = 1
            return
        self._dims = materialized[0][1].dims
        root, height, node_count = str_pack(materialized, self.max_entries, Node)
        self._root = root  # type: ignore[assignment]
        self._height = height
        self._size = len(materialized)
        self._node_count = node_count

    def bulk_load_external(
        self,
        items: Iterable[Item],
        budget: object = None,
        spill_dir: str | None = None,
    ) -> None:
        """STR rebuild whose *build* working set never exceeds ``budget``.

        The chunked external packer (:mod:`repro.exec.external_build`)
        sort-spills entry runs through the storage layer and merges them
        into leaves, so arbitrarily large builds hold only budget-sized
        chunks of sort/entry arrays at a time.  ``items`` is consumed
        streaming — pass a generator for datasets that should never be
        materialized as a list.  Query results are identical to
        :meth:`bulk_load`; leaf composition may differ at slab boundaries.
        """
        from repro.exec.external_build import external_str_pack

        build = external_str_pack(
            items,
            self.max_entries,
            Node,
            budget=budget,  # type: ignore[arg-type]
            spill_dir=spill_dir,
            counters=self.counters,
        )
        self._batch_pack.clear()
        if build.size == 0:
            self._root = Node(is_leaf=True)
            self._height = 1
            self._size = 0
            self._node_count = 1
            return
        self._dims = build.dims
        self._root = build.root  # type: ignore[assignment]
        self._height = build.height
        self._size = build.size
        self._node_count = build.node_count

    # -- maintenance -------------------------------------------------------------

    def insert(self, eid: int, box: AABB) -> None:
        if self._dims is None:
            self._dims = box.dims
        elif box.dims != self._dims:
            raise ValueError(f"box has {box.dims} dims, index has {self._dims}")
        self._batch_pack.clear()
        self._insert_entry(box, eid, target_level=0)
        self._size += 1
        self.counters.inserts += 1

    def delete(self, eid: int, box: AABB) -> None:
        self._batch_pack.clear()
        orphans: list[tuple[int, tuple[AABB, object]]] = []
        found = self._delete_recursive(self._root, self._height - 1, eid, box, orphans)
        if not found:
            raise KeyError(f"element {eid} with box {box} not in index")
        self._size -= 1
        self.counters.deletes += 1
        # Shrink the root while it has a single inner child.
        while not self._root.is_leaf and len(self._root.entries) == 1:
            self._root = self._root.entries[0][1]  # type: ignore[assignment]
            self._height -= 1
            self._node_count -= 1
        if not self._root.is_leaf and not self._root.entries:
            self._root = Node(is_leaf=True)
            self._height = 1
            self._node_count = 1
        # Reinsert orphaned entries at their original level.
        for level, (entry_box, ref) in orphans:
            self._insert_entry(entry_box, ref, target_level=level)

    # -- queries ---------------------------------------------------------------

    def range_query(self, box: AABB) -> list[int]:
        counters = self.counters
        dims = box.dims
        results: list[int] = []
        stack = [self._root]
        while stack:
            node = stack.pop()
            counters.bytes_touched += node.payload_bytes(dims)
            if node.is_leaf:
                for entry_box, ref in node.entries:
                    counters.elem_tests += 1
                    if entry_box.intersects(box):
                        results.append(ref)  # type: ignore[arg-type]
            else:
                for entry_box, child in node.entries:
                    counters.node_tests += 1
                    if entry_box.intersects(box):
                        counters.pointer_follows += 1
                        stack.append(child)  # type: ignore[arg-type]
        return results

    def batch_range_query(self, boxes: np.ndarray | Sequence[AABB]) -> list[list[int]]:
        """One traversal for the whole batch (shared by the R* subclass).

        Each node is visited at most once per batch, carrying the subset of
        queries whose boxes reach it; entry MBRs are tested against all
        pending queries with one vectorized AABB-overlap kernel, and a child
        is descended with exactly the queries that overlap its entry box.
        """
        queries = as_box_array(boxes)
        m = queries.shape[0]
        if m == 0:
            return []
        results: list[list[int]] = [[] for _ in range(m)]
        if self._size == 0:
            return results
        dims = queries.shape[2]
        if self._dims is not None and dims != self._dims:
            raise ValueError(f"queries have {dims} dims, index has {self._dims}")
        counters = self.counters
        stack: list[tuple[Node, np.ndarray]] = [(self._root, np.arange(m))]
        while stack:
            node, active = stack.pop()
            if not node.entries:
                continue
            counters.bytes_touched += node.payload_bytes(dims)
            entry_boxes = boxes_to_array([box for box, _ in node.entries])
            overlap = batch_intersects(entry_boxes, queries[active])  # (entries, active queries)
            if node.is_leaf:
                counters.elem_tests += overlap.size
                rows, cols = np.nonzero(overlap)
                for entry_i, query_i in zip(rows.tolist(), cols.tolist()):
                    results[active[query_i]].append(node.entries[entry_i][1])  # type: ignore[arg-type]
            else:
                counters.node_tests += overlap.size
                for entry_i, (_, child) in enumerate(node.entries):
                    sub = active[overlap[entry_i]]
                    if sub.size:
                        counters.pointer_follows += 1
                        stack.append((child, sub))  # type: ignore[arg-type]
        return results

    def knn(self, point: Sequence[float], k: int) -> KNNResult:
        """Best-first kNN (Hjaltason & Samet) over box distances.

        Heap entries are ``(distance, kind, key, ref)`` with ``kind`` 0 for
        nodes and 1 for elements: at equal distance every node pops before
        any element (a node could still hide a tied element with a smaller
        id), and tied elements pop in id order — which realizes the
        deterministic ``(distance, id)`` contract exactly.
        """
        if k <= 0 or self._size == 0:
            return []
        counters = self.counters
        dims = len(tuple(point))
        heap: list[tuple[float, int, int, object]] = [(0.0, 0, 0, self._root)]
        tiebreak = 1
        results: list[tuple[float, int]] = []
        while heap and len(results) < k:
            dist, kind, _, ref = heapq.heappop(heap)
            counters.heap_ops += 1
            if kind == 1:
                results.append((dist, ref))  # type: ignore[arg-type]
                continue
            node: Node = ref  # type: ignore[assignment]
            counters.bytes_touched += node.payload_bytes(dims)
            for entry_box, child in node.entries:
                if node.is_leaf:
                    counters.elem_tests += 1
                else:
                    counters.node_tests += 1
                entry_dist = entry_box.min_distance_to_point(point)
                if node.is_leaf:
                    heapq.heappush(heap, (entry_dist, 1, child, child))  # type: ignore[list-item]
                else:
                    heapq.heappush(heap, (entry_dist, 0, tiebreak, child))
                    tiebreak += 1
                counters.heap_ops += 1
        return results

    def batch_knn(self, points: np.ndarray | Sequence[Sequence[float]], k: int) -> list[KNNResult]:
        """One shared best-first traversal per query chunk (R* inherits).

        Each node is expanded at most once per chunk with the subset of
        queries whose k-th-distance bound still reaches it; see
        :mod:`repro.indexes.batch_knn`.
        """
        from repro.geometry.aabb import as_point_array
        from repro.indexes.batch_knn import best_first_batch_knn

        pts = as_point_array(points)
        m = pts.shape[0]
        if m == 0:
            return []
        if k <= 0 or self._size == 0:
            return [[] for _ in range(m)]
        if self._dims is not None and pts.shape[1] != self._dims:
            raise ValueError(f"points have {pts.shape[1]} dims, index has {self._dims}")
        counters = self.counters
        dims = pts.shape[1]
        # Entry arrays pack lazily per node and persist across batches (the
        # steady-state analysis regime); mutations clear `_batch_pack`.
        packed = self._batch_pack

        def expand(handle: object) -> tuple[bool, np.ndarray, object]:
            node: Node = handle  # type: ignore[assignment]
            cached = packed.get(id(node))
            if cached is not None:
                return cached[1:]
            counters.bytes_touched += node.payload_bytes(dims)
            boxes = boxes_to_array([box for box, _ in node.entries], dims=dims)
            if node.is_leaf:
                refs: object = np.fromiter(
                    (ref for _, ref in node.entries), dtype=np.int64, count=len(node.entries)
                )
            else:
                refs = [child for _, child in node.entries]
            packed[id(node)] = (node, node.is_leaf, boxes, refs)
            return packed[id(node)][1:]

        return best_first_batch_knn(pts, k, self._size, self._root, expand, counters)

    # -- introspection -------------------------------------------------------------

    def __len__(self) -> int:
        return self._size

    @property
    def height(self) -> int:
        return self._height

    @property
    def node_count(self) -> int:
        return self._node_count

    def memory_bytes(self) -> int:
        if self._dims is None:
            return 0
        total = 0
        stack = [self._root]
        while stack:
            node = stack.pop()
            total += node.payload_bytes(self._dims)
            if not node.is_leaf:
                stack.extend(child for _, child in node.entries)  # type: ignore[misc]
        return total

    def root_mbr(self) -> AABB | None:
        if not self._root.entries:
            return None
        return self._root.mbr()

    def check_invariants(self) -> None:
        """Validate structural invariants (tests call this after mutations)."""
        self._check_node(self._root, self._height - 1, is_root=True)

    # -- internals ------------------------------------------------------------------

    def _insert_entry(self, box: AABB, ref: object, target_level: int) -> None:
        if target_level > self._height - 1:
            # The tree shrank below the orphan's level during condensation;
            # fall back to reinserting the subtree's elements one by one.
            for eid, elem_box in _collect_leaf_items(ref):  # type: ignore[arg-type]
                self._insert_entry(elem_box, eid, target_level=0)
            return
        split = self._insert_recursive(self._root, self._height - 1, box, ref, target_level)
        if split is not None:
            left_box, right_node = split
            old_root = self._root
            self._root = Node(
                is_leaf=False,
                entries=[(left_box, old_root), (right_node.mbr(), right_node)],
            )
            self._height += 1
            self._node_count += 1

    def _insert_recursive(
        self, node: Node, level: int, box: AABB, ref: object, target_level: int
    ) -> tuple[AABB, Node] | None:
        """Insert and return ``(this_node_new_mbr_entry, split_sibling)`` info.

        Returns ``None`` when no split happened; otherwise the caller must
        add the sibling.  The caller is responsible for refreshing its entry
        box for ``node`` (done via :meth:`Node.mbr`).
        """
        if level == target_level:
            node.entries.append((box, ref))
        else:
            index = self._choose_subtree(node, box, level)
            _, child = node.entries[index]
            child_split = self._insert_recursive(child, level - 1, box, ref, target_level)
            node.entries[index] = (child.mbr(), child)  # type: ignore[union-attr]
            if child_split is not None:
                _, sibling = child_split
                node.entries.append((sibling.mbr(), sibling))
        if len(node.entries) > self.max_entries:
            return self._handle_overflow(node, level)
        return None

    def _handle_overflow(self, node: Node, level: int) -> tuple[AABB, Node] | None:
        """Resolve an overfull node; base behaviour is to split.

        Subclasses (the R*-tree) override this to try forced reinsertion
        first.  Returning ``None`` means the overflow was resolved without a
        split; otherwise the caller adds the returned sibling.
        """
        sibling = self._split(node)
        self._node_count += 1
        return (node.mbr(), sibling)

    def _choose_subtree(self, node: Node, box: AABB, level: int) -> int:
        """Guttman's criterion: least enlargement, then least volume."""
        best_index = 0
        best_key: tuple[float, float] | None = None
        for i, (entry_box, _) in enumerate(node.entries):
            key = (entry_box.enlargement(box), entry_box.volume())
            if best_key is None or key < best_key:
                best_key = key
                best_index = i
        return best_index

    def _split(self, node: Node) -> Node:
        """Split ``node`` in place, returning the new sibling."""
        if self.split_algorithm == "quadratic":
            group_a, group_b = _quadratic_split(node.entries, self.min_entries)
        else:
            group_a, group_b = _linear_split(node.entries, self.min_entries)
        node.entries = group_a
        return Node(is_leaf=node.is_leaf, entries=group_b)

    def _delete_recursive(
        self,
        node: Node,
        level: int,
        eid: int,
        box: AABB,
        orphans: list[tuple[int, tuple[AABB, object]]],
    ) -> bool:
        if node.is_leaf:
            for i, (entry_box, ref) in enumerate(node.entries):
                if ref == eid and entry_box == box:
                    del node.entries[i]
                    return True
            return False
        for i, (entry_box, child) in enumerate(node.entries):
            self.counters.node_tests += 1
            if not entry_box.intersects(box):
                continue
            if self._delete_recursive(child, level - 1, eid, box, orphans):  # type: ignore[arg-type]
                child_node: Node = child  # type: ignore[assignment]
                if len(child_node.entries) < self.min_entries:
                    # Condense: dissolve the child, reinsert its entries later.
                    del node.entries[i]
                    self._node_count -= 1
                    # The child sits at level-1; its entries belong in nodes
                    # of exactly that level (elements for a leaf child,
                    # level-2 subtrees for an inner child).
                    for entry in child_node.entries:
                        orphans.append((level - 1, entry))
                    # Make the detached node inert: external structures that
                    # cache node references (the bottom-up leaf map) must not
                    # mistake it for a live container.
                    child_node.entries = []
                else:
                    node.entries[i] = (child_node.mbr(), child_node)
                return True
        return False

    def _check_node(self, node: Node, level: int, is_root: bool) -> None:
        if node.is_leaf:
            if level != 0:
                raise AssertionError(f"leaf found at level {level}")
        else:
            if level <= 0:
                raise AssertionError("inner node at leaf level")
        if not is_root and len(node.entries) < self.min_entries:
            raise AssertionError(
                f"underfull node: {len(node.entries)} < {self.min_entries}"
            )
        if len(node.entries) > self.max_entries:
            raise AssertionError(
                f"overfull node: {len(node.entries)} > {self.max_entries}"
            )
        if not node.is_leaf:
            for entry_box, child in node.entries:
                child_node: Node = child  # type: ignore[assignment]
                if not entry_box.contains_box(child_node.mbr()):
                    raise AssertionError("parent entry box does not cover child MBR")
                self._check_node(child_node, level - 1, is_root=False)


def _collect_leaf_items(node: Node) -> list[tuple[int, AABB]]:
    """All (eid, box) element entries beneath ``node``."""
    items: list[tuple[int, AABB]] = []
    stack = [node]
    while stack:
        current = stack.pop()
        if current.is_leaf:
            items.extend((ref, box) for box, ref in current.entries)  # type: ignore[misc]
        else:
            stack.extend(child for _, child in current.entries)  # type: ignore[misc]
    return items


# -- split algorithms (module-level so R* and tests can reuse them) -------------


def _quadratic_split(
    entries: list[tuple[AABB, object]], min_entries: int
) -> tuple[list[tuple[AABB, object]], list[tuple[AABB, object]]]:
    """Guttman's quadratic split: seeds maximize dead space, the rest follow
    the group whose MBR they enlarge least."""
    seed_a, seed_b = _pick_seeds_quadratic(entries)
    first = max(seed_a, seed_b)
    second = min(seed_a, seed_b)
    remaining = list(entries)
    entry_a = remaining.pop(first)
    entry_b = remaining.pop(second)
    group_a = [entry_a]
    group_b = [entry_b]
    box_a = entry_a[0]
    box_b = entry_b[0]
    while remaining:
        # Force assignment when one group must absorb all remaining entries.
        if len(group_a) + len(remaining) <= min_entries:
            group_a.extend(remaining)
            break
        if len(group_b) + len(remaining) <= min_entries:
            group_b.extend(remaining)
            break
        index, prefer_a = _pick_next(remaining, box_a, box_b, len(group_a), len(group_b))
        entry = remaining.pop(index)
        if prefer_a:
            group_a.append(entry)
            box_a = box_a.union(entry[0])
        else:
            group_b.append(entry)
            box_b = box_b.union(entry[0])
    return group_a, group_b


def _pick_seeds_quadratic(entries: list[tuple[AABB, object]]) -> tuple[int, int]:
    worst = -1.0
    seeds = (0, 1)
    for i in range(len(entries)):
        box_i = entries[i][0]
        for j in range(i + 1, len(entries)):
            box_j = entries[j][0]
            dead = box_i.union(box_j).volume() - box_i.volume() - box_j.volume()
            if dead > worst:
                worst = dead
                seeds = (i, j)
    return seeds


def _pick_next(
    remaining: list[tuple[AABB, object]],
    box_a: AABB,
    box_b: AABB,
    size_a: int,
    size_b: int,
) -> tuple[int, bool]:
    best_index = 0
    best_diff = -1.0
    best_prefer_a = True
    for i, (box, _) in enumerate(remaining):
        enlarge_a = box_a.enlargement(box)
        enlarge_b = box_b.enlargement(box)
        diff = abs(enlarge_a - enlarge_b)
        if diff > best_diff:
            best_diff = diff
            best_index = i
            if enlarge_a != enlarge_b:
                best_prefer_a = enlarge_a < enlarge_b
            elif box_a.volume() != box_b.volume():
                best_prefer_a = box_a.volume() < box_b.volume()
            else:
                best_prefer_a = size_a <= size_b
    return best_index, best_prefer_a


def _linear_split(
    entries: list[tuple[AABB, object]], min_entries: int
) -> tuple[list[tuple[AABB, object]], list[tuple[AABB, object]]]:
    """Guttman's linear split: seeds with greatest normalized separation."""
    dims = entries[0][0].dims
    best_separation = -1.0
    seeds = (0, 1)
    for axis in range(dims):
        highest_lo = max(range(len(entries)), key=lambda i: entries[i][0].lo[axis])
        lowest_hi = min(range(len(entries)), key=lambda i: entries[i][0].hi[axis])
        if highest_lo == lowest_hi:
            continue
        span_hi = max(box.hi[axis] for box, _ in entries)
        span_lo = min(box.lo[axis] for box, _ in entries)
        width = span_hi - span_lo
        if width <= 0.0:
            continue
        separation = (entries[highest_lo][0].lo[axis] - entries[lowest_hi][0].hi[axis]) / width
        if separation > best_separation:
            best_separation = separation
            seeds = (lowest_hi, highest_lo)
    first = max(seeds)
    second = min(seeds)
    if first == second:
        first, second = 1, 0
    remaining = list(entries)
    entry_a = remaining.pop(first)
    entry_b = remaining.pop(second)
    group_a = [entry_a]
    group_b = [entry_b]
    box_a = entry_a[0]
    box_b = entry_b[0]
    for entry in remaining:
        if len(group_a) + 1 <= min_entries and len(group_a) <= len(group_b):
            group_a.append(entry)
            box_a = box_a.union(entry[0])
            continue
        if box_a.enlargement(entry[0]) <= box_b.enlargement(entry[0]):
            group_a.append(entry)
            box_a = box_a.union(entry[0])
        else:
            group_b.append(entry)
            box_b = box_b.union(entry[0])
    if len(group_b) < min_entries:
        # Rebalance by moving the cheapest tail entries over.
        while len(group_b) < min_entries:
            group_b.append(group_a.pop())
    if len(group_a) < min_entries:
        while len(group_a) < min_entries:
            group_a.append(group_b.pop())
    return group_a, group_b
