"""Guttman's R-tree over binary node records.

This is the reference dynamic spatial index of the paper's experiments
(Appendix A uses an STR-packed R-tree; :meth:`RTree.bulk_load` builds exactly
that, while :meth:`RTree.insert`/:meth:`RTree.delete` provide the classic
dynamic behaviour whose update cost Section 4.1 measures against rebuilds).

Every node is one binary record: an ``int64 [is_leaf, count]`` header, then
``count`` ``float64`` boxes, then ``count`` ``int64`` refs (element ids in a
leaf, child page ids above).  ``RTree`` keeps the records as ``bytes`` in a
dict; :class:`~repro.indexes.disk_rtree.DiskRTree` is the same tree on a page
store behind a buffer pool, so Figure 2 compares one tree on two stores,
and :class:`~repro.indexes.crtree.CRTree` appends a quantized entry block
to every record.  Nodes are read as zero-copy views
(:meth:`RTree._node_views`) and rewritten from arrays
(:meth:`RTree._encode_arrays`); no ``AABB`` is built on any path but
:meth:`root_mbr`.  A record is ``16 + n (16 d + 8)`` bytes.

Maintenance runs Guttman's rules on a node's ``(n, 2, d)`` box array:
least-enlargement subtree choice, the quadratic split (seeds from one
dead-space matrix, ``PickNext`` one argmax per step), and condensation that
reinserts orphaned entries at their own level and frees the dissolved node
(an orphaned subtree whose level the shrunk tree no longer has goes back
element by element).
Volumes are left-folded products, as :meth:`AABB.volume` computes them, so
ties break exactly as the scalar rules do.

Instrumentation contract (used by the Figure 2/3 benchmarks):

* testing an *inner* entry's MBR against a query bumps ``node_tests``;
* testing a *leaf* entry's MBR bumps ``elem_tests``;
* descending into a child bumps ``pointer_follows``;
* visiting a node charges :meth:`RTree._visit_cost` to ``bytes_touched``:
  its record size (the CR-tree charges its modeled quantized node).
"""

from __future__ import annotations

import heapq
from itertools import chain
from typing import Iterable, Iterator, Sequence

import numpy as np

from repro.geometry.aabb import (
    AABB,
    as_box_array,
    as_point_array,
    batch_intersects,
    bounds_min_distance_to_point,
    boxes_to_array,
)
from repro.indexes.base import Item, KNNResult, SpatialIndex, validate_items
from repro.indexes.batch_knn import best_first_batch_knn
from repro.indexes.bulkload import split_groups, tile_arrays
from repro.instrumentation.counters import Counters

_HEADER_BYTES = 16  # int64 [is_leaf, count]


class RTree(SpatialIndex):
    """Dynamic R-tree (Guttman 1984).

    Parameters
    ----------
    max_entries:
        Node capacity M.
    min_entries:
        Underflow threshold m; defaults to ``max(2, M * 2 // 5)`` (the 40 %
        fill classically recommended).
    """

    def __init__(
        self,
        max_entries: int = 16,
        min_entries: int | None = None,
        counters: Counters | None = None,
    ) -> None:
        super().__init__(counters)
        if max_entries < 4:
            raise ValueError(f"max_entries must be >= 4, got {max_entries}")
        self.max_entries = max_entries
        self.min_entries = min_entries if min_entries is not None else max(2, max_entries * 2 // 5)
        if not 1 <= self.min_entries <= max_entries // 2:
            raise ValueError(
                f"min_entries must be in [1, max_entries/2], got {self.min_entries}"
            )
        self._pages: dict[int, bytes] = {}
        self._next_page = 0
        self._root: int | None = None
        self._height = 0  # number of levels; leaves are level 0
        self._size = 0
        # The held ids, so an insert can refuse one twice; ``None`` after a
        # bulk load until a write needs them (a read-only tree never pays).
        self._ids: set[int] | None = set()
        self._dims: int | None = None
        # Set by the STR pack, whose last node per level may hold fewer than
        # ``min_entries``: the lower fill bound holds only on a grown tree.
        self._packed = False

    # -- record store (DiskRTree puts these on a pooled page store) ----------

    def _read(self, page: int) -> np.ndarray:
        return np.frombuffer(self._pages[page], dtype=np.uint8)

    def _peek(self, page: int) -> np.ndarray:
        """:meth:`_read` without charging a page transfer."""
        return self._read(page)

    def _write(self, page: int, record: bytes) -> None:
        self._pages[page] = record

    def _allocate(self, record: bytes) -> int:
        page = self._next_page
        self._next_page += 1
        self._pages[page] = record
        return page

    def _free(self, page: int) -> None:
        del self._pages[page]

    def _reset_storage(self) -> None:
        self._pages = {}

    # -- node codec ------------------------------------------------------------

    def _node_views(self, buf: np.ndarray) -> tuple[bool, np.ndarray, np.ndarray]:
        """Decode one record into ``(is_leaf, boxes, refs)`` where boxes/refs
        are zero-copy views into it."""
        header = buf[:_HEADER_BYTES].view(np.int64)
        is_leaf, count = bool(header[0]), int(header[1])
        dims = self._dims
        if not count or dims is None:
            return is_leaf, np.empty((0, 2, dims or 0)), np.empty(0, dtype=np.int64)
        box_end = _HEADER_BYTES + count * 2 * dims * 8
        boxes = buf[_HEADER_BYTES:box_end].view(np.float64)
        refs = buf[box_end : box_end + count * 8].view(np.int64)
        return is_leaf, boxes.reshape(count, 2, dims), refs

    def _encode_arrays(self, is_leaf: bool, boxes: np.ndarray, refs: np.ndarray) -> bytes:
        """One node record: ``int64 [is_leaf, count]`` header, ``float64``
        boxes, ``int64`` refs.  Arrays in, bytes out — bulk loads encode
        tiled groups and maintenance feeds node views (or copies of them)
        straight back through here."""
        count = int(refs.shape[0])
        header = np.array([1 if is_leaf else 0, count], dtype=np.int64).tobytes()
        if not count:
            return header
        return (
            header
            + np.ascontiguousarray(boxes, dtype=np.float64).tobytes()
            + np.ascontiguousarray(refs, dtype=np.int64).tobytes()
        )

    def _node_arrays(self, page: int) -> tuple[bool, np.ndarray, np.ndarray]:
        """One node as ``(is_leaf, boxes (n, 2, d), refs int64)`` views."""
        return self._node_views(self._read(page))

    def _write_arrays(
        self, page: int, is_leaf: bool, boxes: np.ndarray, refs: np.ndarray
    ) -> None:
        self._write(page, self._encode_arrays(is_leaf, boxes, refs))

    def _allocate_arrays(self, is_leaf: bool, boxes: np.ndarray, refs: np.ndarray) -> int:
        return self._allocate(self._encode_arrays(is_leaf, boxes, refs))

    def _visit_cost(self, dims: int) -> tuple[int, int]:
        """``(fixed, per entry)`` bytes a node visit charges to
        ``bytes_touched``: here the record's own length.  Queries resolve it
        once per call, outside the node loop."""
        return _HEADER_BYTES, 16 * dims + 8

    # -- bulk loading ----------------------------------------------------------

    def bulk_load(self, items: Iterable[Item]) -> None:
        """Rebuild via Sort-Tile-Recursive packing (the paper's build)."""
        materialized = validate_items(items)
        n = len(materialized)
        eids = np.fromiter((eid for eid, _ in materialized), dtype=np.int64, count=n)
        boxes = boxes_to_array([box for _, box in materialized])
        _check_finite(boxes)
        self._pack_arrays(boxes, eids)

    def _pack_arrays(self, boxes: np.ndarray, eids: np.ndarray) -> None:
        """STR-pack validated ``(n, 2, d)`` boxes and their ids."""
        self._pack(self._tile_level(boxes, eids) if eids.shape[0] else ())

    def bulk_load_external(
        self,
        items: Iterable[Item],
        budget: object = None,
        spill_dir: str | None = None,
    ) -> None:
        """STR rebuild with the build working set bounded by ``budget``.

        Leaf groups stream out of the chunked external packer
        (:mod:`repro.exec.external_build`) and are encoded one at a time, so
        only the one-entry-per-leaf skeleton the upper levels tile
        (``max_entries``-fold smaller per level) is ever held.  ``items`` is
        consumed streaming.  An unbudgeted build is :meth:`bulk_load`'s tree.
        """
        from repro.exec.external_build import external_leaf_arrays

        self._pack(
            external_leaf_arrays(
                items, self.max_entries, budget, spill_dir=spill_dir,
                counters=self.counters,
            )
        )

    def _tile_level(
        self, boxes: np.ndarray, refs: np.ndarray
    ) -> Iterator[tuple[np.ndarray, np.ndarray]]:
        """STR groups of one level as ``(boxes, refs)`` array pairs."""
        order, bounds = tile_arrays(boxes, 0, self.max_entries)
        return split_groups(boxes[order], refs[order], bounds)

    def _allocate_level(
        self, is_leaf: bool, groups: Iterable[tuple[np.ndarray, np.ndarray]]
    ) -> tuple[list[np.ndarray], list[int], int]:
        """Write one level's nodes; returns ``(mbrs, pages, entry count)``."""
        mbrs: list[np.ndarray] = []
        pages: list[int] = []
        entries = 0
        for boxes, refs in groups:
            pages.append(self._allocate_arrays(is_leaf, boxes, refs))
            mbrs.append(_mbr(boxes))
            entries += refs.shape[0]
        return mbrs, pages, entries

    def _pack(self, leaves: Iterable[tuple[np.ndarray, np.ndarray]]) -> None:
        """The bulk load: allocate streamed ``(boxes, eids)`` leaves one at
        a time, then tile ``(mbr, page)`` arrays upward until one root
        remains.  The first leaf is drawn before the old tree is dropped,
        so an input the packer refuses leaves the tree as it was."""
        leaves = iter(leaves)
        first = next(leaves, None)
        self._reset_storage()
        self._root, self._height, self._size, self._ids = None, 0, 0, None
        self._packed = first is not None
        if first is None:
            return
        self._dims = first[0].shape[2]
        mbrs, pages, self._size = self._allocate_level(True, chain([first], leaves))
        self._height = 1
        while len(pages) > 1:
            level = self._tile_level(np.stack(mbrs), np.array(pages, dtype=np.int64))
            mbrs, pages, _ = self._allocate_level(False, level)
            self._height += 1
        self._root = pages[0]

    # -- maintenance -------------------------------------------------------------

    def _checked_box(self, box: AABB) -> np.ndarray:
        """``box`` as a ``(2, d)`` array, refused before anything is written
        when its dims differ from a non-empty tree's or a coordinate is
        NaN/±inf."""
        return checked_box(box, None if self._root is None else self._dims)

    def _held_ids(self) -> set[int]:
        if self._ids is None:  # walk the leaves, charging no read
            self._ids = set()
            stack = [] if self._root is None else [self._root]
            while stack:
                is_leaf, _, refs = self._node_views(self._peek(stack.pop()))
                (self._ids.update if is_leaf else stack.extend)(refs.tolist())
        return self._ids

    def insert(self, eid: int, box: AABB) -> None:
        arr = self._checked_box(box)
        ids = self._held_ids()
        if eid in ids:
            raise ValueError(f"element {eid} already present")
        if self._root is None:
            self._dims = box.dims
            self._root = self._allocate_arrays(True, arr[None], np.array([eid], dtype=np.int64))
            self._height = 1
        else:
            self._insert_entry(arr, eid, 0)
        ids.add(eid)
        self._size += 1
        self.counters.inserts += 1

    def delete(self, eid: int, box: AABB) -> None:
        if self._root is None:
            raise KeyError(f"element {eid} not in index")
        arr = np.array([box.lo, box.hi], dtype=np.float64)
        orphans: list[tuple[int, np.ndarray, int]] = []
        if box.dims != self._dims or not self._delete_recursive(
            self._root, self._height - 1, eid, arr, orphans
        ):
            raise KeyError(f"element {eid} with box {box} not in index")
        if self._ids is not None:  # a set walked now would miss the orphans
            self._ids.discard(eid)
        self._size -= 1
        self.counters.deletes += 1
        # Shrink the root while it is an inner node with a single child.
        while self._height > 1:
            _, _, refs = self._node_arrays(self._root)
            if refs.shape[0] != 1:
                break
            child = int(refs[0])
            self._free(self._root)
            self._root = child
            self._height -= 1
        # Reinsert orphaned entries at their own level.
        for level, entry_box, ref in orphans:
            self._insert_entry(entry_box, ref, level)
        if self._size == 0:
            self._free(self._root)
            self._root = None
            self._height = 0
            self._packed = False

    def update(self, eid: int, old_box: AABB, new_box: AABB) -> None:
        """Delete + insert, with a new box the insert would refuse refused
        first: the element must not be deleted and then lost."""
        self._checked_box(new_box)
        super().update(eid, old_box, new_box)

    # -- queries ---------------------------------------------------------------

    def range_query(self, box: AABB) -> list[int]:
        if self._root is None:
            return []
        if box.dims != self._dims:
            raise ValueError(f"query has {box.dims} dims, index has {self._dims}")
        # One vectorized closed-interval overlap per node view; hits are
        # taken in entry order, so the LIFO traversal fixes the answer order.
        counters = self.counters
        fixed, per_entry = self._visit_cost(box.dims)
        lo = np.array(box.lo, dtype=np.float64)
        hi = np.array(box.hi, dtype=np.float64)
        results: list[int] = []
        stack = [self._root]
        while stack:
            is_leaf, boxes, refs = self._node_arrays(stack.pop())
            counters.bytes_touched += fixed + refs.shape[0] * per_entry
            overlap = ((boxes[:, 0] <= hi) & (lo <= boxes[:, 1])).all(axis=1)
            hits = refs[overlap].tolist()
            if is_leaf:
                counters.elem_tests += refs.shape[0]
                results.extend(hits)
            else:
                counters.node_tests += refs.shape[0]
                counters.pointer_follows += len(hits)
                stack.extend(hits)
        return results

    def batch_range_query(self, boxes: np.ndarray | Sequence[AABB]) -> list[list[int]]:
        """One traversal for the whole batch: each node is read at most once.

        Every node is visited carrying the subset of queries whose boxes
        reach it; entry MBRs are tested against all of them with one
        vectorized overlap kernel.  On a page store this amortizes page
        reads over the batch — the per-query loop re-reads the upper levels
        for every query (every one of them on a cold cache).
        """
        queries = as_box_array(boxes)
        m = queries.shape[0]
        if m == 0:
            return []
        results: list[list[int]] = [[] for _ in range(m)]
        if self._root is None:
            return results
        if queries.shape[2] != self._dims:
            raise ValueError(f"queries have {queries.shape[2]} dims, index has {self._dims}")
        counters = self.counters
        fixed, per_entry = self._visit_cost(queries.shape[2])
        stack: list[tuple[int, np.ndarray]] = [(self._root, np.arange(m))]
        while stack:
            page, active = stack.pop()
            is_leaf, entry_boxes, refs = self._node_arrays(page)
            if entry_boxes.shape[0] == 0:
                continue
            counters.bytes_touched += fixed + refs.shape[0] * per_entry
            overlap = batch_intersects(entry_boxes, queries[active])
            if is_leaf:
                counters.elem_tests += overlap.size
                rows, cols = np.nonzero(overlap)
                for eid, query_i in zip(refs[rows].tolist(), active[cols].tolist()):
                    results[query_i].append(eid)
            else:
                counters.node_tests += overlap.size
                for child, mask in zip(refs.tolist(), overlap):
                    sub = active[mask]
                    if sub.size:
                        counters.pointer_follows += 1
                        stack.append((child, sub))
        return results

    def knn(self, point: Sequence[float], k: int) -> KNNResult:
        """Best-first kNN (Hjaltason & Samet) over box distances.

        Heap entries are ``(distance, kind, key, ref)`` with ``kind`` 0 for
        nodes and 1 for elements: at equal distance every node pops before
        any element (a node could still hide a tied element with a smaller
        id), and tied elements pop in id order — which realizes the
        deterministic ``(distance, id)`` contract exactly.
        """
        if k <= 0 or self._root is None:
            return []
        if len(point) != self._dims:
            raise ValueError(f"point has {len(point)} dims, index has {self._dims}")
        counters = self.counters
        fixed, per_entry = self._visit_cost(len(point))
        heap: list[tuple[float, int, int, int]] = [(0.0, 0, 0, self._root)]
        tiebreak = 1
        results: list[tuple[float, int]] = []
        while heap and len(results) < k:
            dist, kind, _, ref = heapq.heappop(heap)
            counters.heap_ops += 1
            if kind == 1:
                results.append((dist, ref))
                continue
            # One tolist() per node view; the shared helper keeps the
            # distances bit-identical to the AABB method's.
            is_leaf, boxes, refs = self._node_arrays(ref)
            counters.bytes_touched += fixed + refs.shape[0] * per_entry
            scored = [
                (bounds_min_distance_to_point(lo, hi, point), child)
                for (lo, hi), child in zip(boxes.tolist(), refs.tolist())
            ]
            if is_leaf:
                counters.elem_tests += len(scored)
            else:
                counters.node_tests += len(scored)
            for entry_dist, child in scored:
                if is_leaf:
                    heapq.heappush(heap, (entry_dist, 1, child, child))
                else:
                    heapq.heappush(heap, (entry_dist, 0, tiebreak, child))
                    tiebreak += 1
                counters.heap_ops += 1
        return results

    def batch_knn(self, points: np.ndarray | Sequence[Sequence[float]], k: int) -> list[KNNResult]:
        """One shared best-first traversal per query chunk: each node is read
        at most once per chunk with the subset of queries whose k-th-distance
        bound still reaches it; see :mod:`repro.indexes.batch_knn`."""
        pts = as_point_array(points)
        m = pts.shape[0]
        if m == 0:
            return []
        if k <= 0 or self._root is None:
            return [[] for _ in range(m)]
        if pts.shape[1] != self._dims:
            raise ValueError(f"points have {pts.shape[1]} dims, index has {self._dims}")
        counters = self.counters
        fixed, per_entry = self._visit_cost(pts.shape[1])
        # The unpacked nodes are released after every chunk, so the state
        # held stays bounded by a chunk's working set, not the tree (the
        # bounded residency a DiskRTree's buffer pool models).
        packed: dict[int, tuple[bool, np.ndarray, object]] = {}

        def expand(handle: object) -> tuple[bool, np.ndarray, object]:
            cached = packed.get(handle)  # type: ignore[arg-type]
            if cached is not None:
                return cached
            is_leaf, boxes, ref_array = self._node_arrays(handle)  # type: ignore[arg-type]
            counters.bytes_touched += fixed + ref_array.shape[0] * per_entry
            refs: object = ref_array if is_leaf else ref_array.tolist()
            packed[handle] = (is_leaf, boxes, refs)  # type: ignore[index]
            return packed[handle]  # type: ignore[index]

        return best_first_batch_knn(
            pts, k, self._size, self._root, expand, counters, after_chunk=packed.clear
        )

    # -- introspection -------------------------------------------------------------

    def __len__(self) -> int:
        return self._size

    @property
    def height(self) -> int:
        return self._height

    @property
    def node_count(self) -> int:
        return len(self._pages)

    def memory_bytes(self) -> int:
        """Bytes of the records this tree holds itself (a ``DiskRTree``'s
        live in its page store: 0)."""
        return sum(map(len, self._pages.values()))

    def root_mbr(self) -> AABB | None:
        if self._root is None:
            return None
        lo, hi = _mbr(self._node_arrays(self._root)[1]).tolist()
        return AABB(lo, hi)

    def check_invariants(self) -> None:
        """Validate the structure (tests call this after mutations): levels,
        fill bounds (the lower one only on a tree no STR pack built),
        parent entries covering their children, the element count, and a
        store holding exactly the reachable nodes."""
        reachable = size = 0
        stack = [] if self._root is None else [(self._root, self._height - 1, None)]
        while stack:
            page, level, cover = stack.pop()
            reachable += 1
            is_leaf, boxes, refs = self._node_arrays(page)
            if is_leaf != (level == 0):
                raise AssertionError(f"{'leaf' if is_leaf else 'inner node'} at level {level}")
            if not self._packed and page != self._root and refs.shape[0] < self.min_entries:
                raise AssertionError(f"underfull node: {refs.shape[0]} < {self.min_entries}")
            if refs.shape[0] > self.max_entries:
                raise AssertionError(f"overfull node: {refs.shape[0]} > {self.max_entries}")
            if cover is not None:
                mbr = _mbr(boxes)
                if (mbr[0] < cover[0]).any() or (mbr[1] > cover[1]).any():
                    raise AssertionError("parent entry box does not cover child MBR")
            if is_leaf:
                size += refs.shape[0]
            else:
                stack.extend((int(child), level - 1, boxes[i]) for i, child in enumerate(refs))
        if size != self._size:
            raise AssertionError(f"{size} elements reachable, {self._size} counted")
        if reachable != self.node_count:
            raise AssertionError(f"{reachable} nodes reachable, {self.node_count} stored")

    # -- internals ------------------------------------------------------------------

    def _insert_entry(self, box: np.ndarray, ref: int, level: int) -> None:
        """Insert one entry into a node at ``level`` (0: an element into a
        leaf), growing a new root on a root split.

        Condensation can shrink the tree below an orphan's level: an STR
        load leaves underfull nodes, so one delete may dissolve a whole
        branch and leave the root a single child's leaf.  Such an orphaned
        subtree's pages are freed and its elements reinserted one by one."""
        if level > self._height - 1:
            for eid, elem_box in self._take_subtree(ref):
                self._insert_entry(elem_box, eid, 0)
            return
        mbr, split = self._insert_recursive(self._root, self._height - 1, box, ref, level)
        if split is not None:
            sibling_mbr, sibling = split
            self._root = self._allocate_arrays(
                False,
                np.stack([mbr, sibling_mbr]),
                np.array([self._root, sibling], dtype=np.int64),
            )
            self._height += 1

    def _take_subtree(self, page: int) -> list[tuple[int, np.ndarray]]:
        """Free every page under ``page``; returns its ``(eid, box)``
        elements, leaves taken in stack order."""
        items: list[tuple[int, np.ndarray]] = []
        stack = [page]
        while stack:
            page = stack.pop()
            is_leaf, boxes, refs = self._node_arrays(page)
            if is_leaf:
                items.extend(zip(refs.tolist(), boxes.copy()))
            else:
                stack.extend(refs.tolist())
            self._free(page)
        return items

    def _insert_recursive(
        self, page: int, level: int, box: np.ndarray, ref: int, target_level: int
    ) -> tuple[np.ndarray, tuple[np.ndarray, int] | None]:
        """Insert below ``page``; returns the node's new MBR and, after a
        split, ``(sibling MBR, sibling page)`` for the caller to add."""
        is_leaf, boxes, refs = self._node_arrays(page)
        if level == target_level:
            boxes = np.concatenate([boxes, box[None]])
            refs = np.append(refs, np.int64(ref))
        else:
            best = self._choose_subtree(boxes, box, level)
            child_mbr, split = self._insert_recursive(
                int(refs[best]), level - 1, box, ref, target_level
            )
            # Copy out of the read-only view before patching this node.
            boxes = boxes.copy()
            boxes[best] = child_mbr
            if split is not None:
                boxes = np.concatenate([boxes, split[0][None]])
                refs = np.append(refs, np.int64(split[1]))
        if refs.shape[0] > self.max_entries:
            return self._handle_overflow(page, level, is_leaf, boxes, refs)
        self._write_arrays(page, is_leaf, boxes, refs)
        return _mbr(boxes), None

    def _handle_overflow(
        self, page: int, level: int, is_leaf: bool, boxes: np.ndarray, refs: np.ndarray
    ) -> tuple[np.ndarray, tuple[np.ndarray, int] | None]:
        """Resolve an overfull node; the base rule splits it in two.

        The R*-tree overrides this to try forced reinsertion first, which
        returns no sibling.
        """
        keep, move = self._split(boxes)
        self._write_arrays(page, is_leaf, boxes[keep], refs[keep])
        sibling = self._allocate_arrays(is_leaf, boxes[move], refs[move])
        return _mbr(boxes[keep]), (_mbr(boxes[move]), sibling)

    def _choose_subtree(self, boxes: np.ndarray, box: np.ndarray, level: int) -> int:
        return _least_enlargement(boxes, box)

    def _split(self, boxes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Row groups ``(kept, moved to the sibling)`` of an overfull node."""
        return _quadratic_split(boxes, self.min_entries)

    def _delete_recursive(
        self,
        page: int,
        level: int,
        eid: int,
        box: np.ndarray,
        orphans: list[tuple[int, np.ndarray, int]],
    ) -> bool:
        is_leaf, boxes, refs = self._node_arrays(page)
        if is_leaf:
            hits = np.flatnonzero((refs == eid) & (boxes == box).all(axis=(1, 2)))
            if hits.shape[0] == 0:
                return False
            keep = np.ones(refs.shape[0], dtype=bool)
            keep[hits[0]] = False
            self._write_arrays(page, True, boxes[keep], refs[keep])
            return True
        reach = ((boxes[:, 0] <= box[1]) & (box[0] <= boxes[:, 1])).all(axis=1)
        for i in np.flatnonzero(reach).tolist():
            child = int(refs[i])
            if not self._delete_recursive(child, level - 1, eid, box, orphans):
                continue
            # Entries are tested in order until the one holding the element.
            self.counters.node_tests += i + 1
            _, child_boxes, child_refs = self._node_arrays(child)
            if child_refs.shape[0] < self.min_entries:
                # Condense: dissolve the child and reinsert its entries (at
                # the child's own level) once the delete is done.
                orphans.extend(
                    (level - 1, entry_box, int(ref))
                    for entry_box, ref in zip(child_boxes.copy(), child_refs.tolist())
                )
                self._free(child)
                keep = np.ones(refs.shape[0], dtype=bool)
                keep[i] = False
                self._write_arrays(page, False, boxes[keep], refs[keep])
            else:
                new_boxes = boxes.copy()
                new_boxes[i] = _mbr(child_boxes)
                self._write_arrays(page, False, new_boxes, refs)
            return True
        self.counters.node_tests += refs.shape[0]
        return False


def _mbr(boxes: np.ndarray) -> np.ndarray:
    """The ``(2, d)`` bounding box of an ``(n, 2, d)`` box array."""
    return np.stack([boxes[:, 0].min(axis=0), boxes[:, 1].max(axis=0)])


def _volumes(lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """Box volumes over the last axis; ``multiply.reduce`` folds left to
    right like the scalar :meth:`AABB.volume` loop, so the bits match."""
    return np.multiply.reduce(hi - lo, axis=-1)


def _least_enlargement(boxes: np.ndarray, box: np.ndarray) -> int:
    """Guttman's subtree choice over a ``(n, 2, d)`` box array: least volume
    enlargement, ties by volume, then by the first index (stable lexsort)."""
    volumes = _volumes(boxes[:, 0], boxes[:, 1])
    joined = _volumes(np.minimum(boxes[:, 0], box[0]), np.maximum(boxes[:, 1], box[1]))
    return int(np.lexsort((volumes, joined - volumes))[0])


def _quadratic_split(boxes: np.ndarray, min_entries: int) -> tuple[np.ndarray, np.ndarray]:
    """Guttman's quadratic split of an ``(n, 2, d)`` box array into row
    groups ``(a, b)``.

    The seeds waste the most dead space: the first pair, in row-major
    order, of one ``(n, n)`` matrix whose value beats -1.0 (pair ``(0, 1)``
    when none does).  Group a starts from the later seed.  ``PickNext``
    takes the first remaining entry with the largest enlargement difference
    and gives it to the group it enlarges less, then the smaller group,
    then the one with fewer entries; a group that needs every remaining
    entry to reach ``min_entries`` takes them in order.
    """
    n = boxes.shape[0]
    lo, hi = boxes[:, 0], boxes[:, 1]
    volumes = _volumes(lo, hi)
    dead = (
        _volumes(np.minimum(lo[:, None], lo[None]), np.maximum(hi[:, None], hi[None]))
        - volumes[:, None]
        - volumes[None, :]
    )
    dead[np.tril_indices(n)] = -np.inf
    flat = int(np.argmax(dead))
    seed_b, seed_a = divmod(flat, n) if dead.flat[flat] > -1.0 else (0, 1)
    groups: tuple[list[int], list[int]] = ([seed_a], [seed_b])
    bounds = [boxes[seed_a].copy(), boxes[seed_b].copy()]
    remaining = np.delete(np.arange(n), [seed_b, seed_a])
    while remaining.shape[0]:
        for group in groups:
            if len(group) + remaining.shape[0] <= min_entries:
                group.extend(remaining.tolist())
                return np.array(groups[0]), np.array(groups[1])
        r_lo, r_hi = lo[remaining], hi[remaining]
        grown = [
            _volumes(np.minimum(r_lo, b[0]), np.maximum(r_hi, b[1])) - _volumes(b[0], b[1])
            for b in bounds
        ]
        pick = int(np.argmax(np.abs(grown[0] - grown[1])))
        grow_a, grow_b = grown[0][pick], grown[1][pick]
        vol_a, vol_b = _volumes(bounds[0][0], bounds[0][1]), _volumes(bounds[1][0], bounds[1][1])
        if grow_a != grow_b:
            to_a = grow_a < grow_b
        elif vol_a != vol_b:
            to_a = vol_a < vol_b
        else:
            to_a = len(groups[0]) <= len(groups[1])
        side = 0 if to_a else 1
        row = int(remaining[pick])
        remaining = np.delete(remaining, pick)
        groups[side].append(row)
        np.minimum(bounds[side][0], lo[row], out=bounds[side][0])
        np.maximum(bounds[side][1], hi[row], out=bounds[side][1])
    return np.array(groups[0]), np.array(groups[1])


def checked_box(box: AABB, dims: int | None) -> np.ndarray:
    """``box`` as a ``(2, d)`` array, refused when it has other than ``dims``
    dims (``None``: an empty index takes any) or a NaN/±inf coordinate — the
    check an index makes before it writes anything."""
    if dims is not None and box.dims != dims:
        raise ValueError(f"box has {box.dims} dims, index has {dims}")
    arr = np.array([box.lo, box.hi], dtype=np.float64)
    _check_finite(arr)
    return arr


def _check_finite(boxes: np.ndarray) -> None:
    """Refuse NaN or ±inf coordinates before any node is written: a NaN
    carried into a parent MBR by ``minimum``/``maximum`` cuts its subtree
    off from every query."""
    if not np.isfinite(boxes).all():
        raise ValueError("box coordinates must be finite")
