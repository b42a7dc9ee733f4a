"""A disk-resident R-tree over the simulated page store.

This is the "R-Tree on Disk" half of Figure 2: every node lives in a 4 KB
page; visiting a node costs a page read unless the buffer pool holds it.  The
paper's protocol runs "with an initially cold cache and the cache is cleaned
between any two queries" — call :meth:`DiskRTree.clear_cache` between queries
to reproduce it.

The tree is built with STR packing (as in the paper's Appendix A) and supports
dynamic maintenance; structure and instrumentation mirror
:class:`~repro.indexes.rtree.RTree`, with page transfers charged on top.

With ``mapped=True`` nodes are stored as fixed binary records in a real file
behind :class:`~repro.storage.pagestore.MappedPageStore`, and the read path
serves **zero-copy NumPy views** of node pages through the buffer pool
(:meth:`BufferPool.read_view`): the pool's bounded residency (capacity,
hits/misses) is unchanged, but a miss maps the page instead of copying it.
Writes go write-through with a ``pool.drop`` so no stale view frame can
answer a rewritten page.

The two modes share tree shape, traversal order and counter charges but not
a node representation: object mode holds ``(is_leaf, [(AABB, ref), ...])``
payloads and walks them entry by entry; mapped mode is arrays end to end —
bulk loads tile box arrays (:func:`~repro.indexes.bulkload.tile_arrays`)
and encode leaves straight from them, scalar queries test a whole node view
at once, maintenance re-encodes nodes from arrays — and never constructs an
``AABB``.
"""

from __future__ import annotations

import heapq
import os
import tempfile
from typing import Iterable, Iterator, Sequence

import numpy as np

from repro.geometry.aabb import (
    AABB,
    as_box_array,
    batch_intersects,
    bounds_min_distance_to_point,
    boxes_to_array,
    union_all,
)
from repro.indexes.base import Item, KNNResult, SpatialIndex, validate_items
from repro.indexes.bulkload import _tile, split_groups, tile_arrays
from repro.instrumentation.counters import Counters
from repro.storage.buffer_pool import BufferPool
from repro.storage.pagestore import MappedPageStore, PageStore

# An object-mode node payload is (is_leaf, entries); entries are
# (AABB, eid | page_id).  Mapped-mode nodes are the binary records of
# ``DiskRTree._encode_arrays``.


class DiskRTree(SpatialIndex):
    """STR-packed R-tree with page-granular storage accounting.

    Parameters
    ----------
    max_entries:
        Node capacity; with the default 4 KB pages and 3-d boxes this is
        roughly ``page_size / (6 floats + pointer)`` ≈ 70, but the paper-style
        default of 64 keeps nodes page-aligned.
    buffer_pages:
        LRU buffer pool capacity in pages (0 models a poolless cold run).
    mapped:
        Store nodes as binary records in a real mapped file and serve reads
        as zero-copy views (``int64 [is_leaf, count]`` header, ``float64``
        boxes, ``int64`` refs per page).  Node capacity is then bounded by
        ``page_size``; the encoder raises if ``max_entries`` boxes of the
        data's dimensionality cannot fit one page.
    """

    def __init__(
        self,
        max_entries: int = 64,
        min_entries: int | None = None,
        page_size: int = 4096,
        buffer_pages: int = 64,
        counters: Counters | None = None,
        mapped: bool = False,
    ) -> None:
        super().__init__(counters)
        if max_entries < 4:
            raise ValueError(f"max_entries must be >= 4, got {max_entries}")
        self.max_entries = max_entries
        self.min_entries = min_entries if min_entries is not None else max(2, max_entries * 2 // 5)
        self.mapped = mapped
        self.store = self._new_store(page_size)
        self.pool = BufferPool(self.store, capacity=buffer_pages)
        self._root_page: int | None = None
        self._height = 0
        self._size = 0
        self._dims: int | None = None

    # -- storage protocol -------------------------------------------------------

    def clear_cache(self) -> None:
        """Drop the buffer pool — the paper's between-queries cache clean."""
        self.pool.clear()

    def close(self) -> None:
        """Release the backing store (mapped mode unlinks its file)."""
        self.pool.drop_all()
        if isinstance(self.store, MappedPageStore):
            self.store.close()

    def _new_store(self, page_size: int) -> PageStore:
        if not self.mapped:
            return PageStore(page_size=page_size, counters=self.counters)
        fd, path = tempfile.mkstemp(prefix="disk-rtree-", suffix=".pages")
        os.close(fd)
        return MappedPageStore(path, page_size=page_size, counters=self.counters)

    def _reset_storage(self) -> None:
        """Fresh store + pool for a rebuild; mapped files are unlinked."""
        page_size = self.store.page_size
        capacity = self.pool.capacity
        self.close()
        self.store = self._new_store(page_size)
        self.pool = BufferPool(self.store, capacity=capacity)

    # -- mapped node codec --------------------------------------------------

    _HEADER_BYTES = 16  # int64 [is_leaf, count]

    def _node_views(self, buf: np.ndarray) -> tuple[bool, np.ndarray, np.ndarray]:
        """Decode one mapped page buffer into ``(is_leaf, boxes, refs)``
        where boxes/refs are zero-copy views into the mapping."""
        header = buf[: self._HEADER_BYTES].view(np.int64)
        is_leaf, count = bool(header[0]), int(header[1])
        dims = self._dims
        if not count or dims is None:
            return is_leaf, np.empty((0, 2, dims or 0)), np.empty(0, dtype=np.int64)
        box_end = self._HEADER_BYTES + count * 2 * dims * 8
        boxes = buf[self._HEADER_BYTES : box_end].view(np.float64)
        refs = buf[box_end : box_end + count * 8].view(np.int64)
        return is_leaf, boxes.reshape(count, 2, dims), refs

    def _encode_arrays(
        self, is_leaf: bool, boxes: np.ndarray, refs: np.ndarray
    ) -> bytes:
        """One node record: ``int64 [is_leaf, count]`` header, ``float64``
        boxes, ``int64`` refs.  Arrays in, bytes out — bulk loads encode
        tiled groups and maintenance feeds node views (or copies of them)
        straight back through here.  Raises before anything is written when
        the record cannot fit one page."""
        count = int(refs.shape[0])
        header = np.array([1 if is_leaf else 0, count], dtype=np.int64)
        if not count:
            return header.tobytes()
        blob = (
            header.tobytes()
            + np.ascontiguousarray(boxes, dtype=np.float64).tobytes()
            + np.ascontiguousarray(refs, dtype=np.int64).tobytes()
        )
        if len(blob) > self.store.page_size:
            raise ValueError(
                f"node of {count} {boxes.shape[2]}-d entries needs {len(blob)} "
                f"bytes; page size is {self.store.page_size} — lower "
                f"max_entries for mapped mode"
            )
        return blob

    def _write_arrays(
        self, page_id: int, is_leaf: bool, boxes: np.ndarray, refs: np.ndarray
    ) -> None:
        # Write-through: a mapped frame is a read-only view of the file, so
        # write-back is meaningless and a stale frame is a hazard.
        self.store.write(page_id, self._encode_arrays(is_leaf, boxes, refs))
        self.pool.drop(page_id)

    def _allocate_arrays(
        self, is_leaf: bool, boxes: np.ndarray, refs: np.ndarray
    ) -> int:
        return self.store.allocate(self._encode_arrays(is_leaf, boxes, refs))

    def _node_arrays(self, page_id: int) -> tuple[bool, np.ndarray, np.ndarray]:
        """One node as ``(is_leaf, boxes (n,2,d), refs int64)``.

        Mapped mode serves the arrays as zero-copy views of the pooled page
        view — no byte copy, no AABB materialization; object mode packs the
        payload's boxes.  Residency accounting is the pool's either way.
        """
        if self.mapped:
            return self._node_views(self.pool.read_view(page_id))
        is_leaf, entries = self.pool.read(page_id)
        boxes = boxes_to_array([box for box, _ in entries], dims=self._dims)
        refs = np.fromiter(
            (ref for _, ref in entries), dtype=np.int64, count=len(entries)
        )
        return is_leaf, boxes, refs

    # -- maintenance -------------------------------------------------------------

    def bulk_load(self, items: Iterable[Item]) -> None:
        materialized = validate_items(items)
        self._reset_storage()
        if not materialized:
            self._root_page = None
            self._height = 0
            self._size = 0
            return
        self._dims = materialized[0][1].dims
        if self.mapped:
            n = len(materialized)
            eids = np.fromiter((eid for eid, _ in materialized), dtype=np.int64, count=n)
            boxes = boxes_to_array([box for _, box in materialized])
            self._pack_leaf_arrays(self._tile_level(boxes, eids))
            return
        entries: list[tuple[AABB, int]] = [(box, eid) for eid, box in materialized]
        groups = _tile(entries, self._dims, self.max_entries)
        pages = [self.store.allocate((True, group)) for group in groups]
        boxes = [union_all(box for box, _ in group) for group in groups]
        self._root_page = self._pack_upper_levels(pages, boxes)
        self._size = len(materialized)

    def _pack_upper_levels(self, pages: list[int], boxes: list[AABB]) -> int:
        """Tile ``(mbr, page)`` entries upward until one root page remains.

        Shared by both object-mode bulk loads; sets ``_height`` (1 for the
        leaf level) and returns the root page id.
        """
        self._height = 1
        while len(pages) > 1:
            level_entries = list(zip(boxes, pages))
            groups = _tile(level_entries, self._dims, self.max_entries)
            pages = [self.store.allocate((False, group)) for group in groups]
            boxes = [union_all(box for box, _ in group) for group in groups]
            self._height += 1
        return pages[0]

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
            mbrs.append(np.stack([boxes[:, 0].min(axis=0), boxes[:, 1].max(axis=0)]))
            entries += refs.shape[0]
        return mbrs, pages, entries

    def _pack_leaf_arrays(
        self, leaves: Iterable[tuple[np.ndarray, np.ndarray]]
    ) -> None:
        """The mapped bulk load: allocate streamed ``(boxes, eids)`` leaves
        one at a time, then tile ``(mbr, page)`` arrays upward until one
        root page remains.  Only the one-entry-per-node skeleton is held."""
        mbrs, pages, self._size = self._allocate_level(True, leaves)
        if pages:
            self._dims = mbrs[0].shape[1]
        self._height = 1 if pages else 0
        while len(pages) > 1:
            level = self._tile_level(np.stack(mbrs), np.array(pages, dtype=np.int64))
            mbrs, pages, _ = self._allocate_level(False, level)
            self._height += 1
        self._root_page = pages[0] if pages else None

    def bulk_load_external(
        self,
        items: Iterable[Item],
        budget: object = None,
        spill_dir: str | None = None,
    ) -> None:
        """STR rebuild with the build working set bounded by ``budget``.

        Leaf groups stream out of the chunked external packer
        (:mod:`repro.exec.external_build`) and are allocated straight into
        the page store one at a time — the natural fit for this index: the
        leaf level never exists in memory at all, only the one-entry-per-
        leaf skeleton the upper levels tile (``max_entries``-fold smaller
        per level).  ``items`` is consumed streaming.  Mapped mode reads
        the packer's array stream and encodes each leaf as it arrives.
        """
        from repro.exec.external_build import external_leaf_arrays, external_leaf_groups

        self._reset_storage()
        options = dict(budget=budget, spill_dir=spill_dir, counters=self.counters)
        if self.mapped:
            self._pack_leaf_arrays(
                external_leaf_arrays(items, self.max_entries, **options)
            )
            return
        pages: list[int] = []
        boxes: list[AABB] = []
        size = 0
        for group in external_leaf_groups(items, self.max_entries, **options):
            if not pages:
                self._dims = group[0][0].dims
            pages.append(self.store.allocate((True, group)))
            boxes.append(union_all(box for box, _ in group))
            size += len(group)
        if not pages:
            self._root_page = None
            self._height = 0
            self._size = 0
            return
        self._root_page = self._pack_upper_levels(pages, boxes)
        self._size = size

    def insert(self, eid: int, box: AABB) -> None:
        if self._dims is None:
            self._dims = box.dims
        if self.mapped:
            self._insert_mapped(eid, np.array([box.lo, box.hi], dtype=np.float64))
            return
        if self._root_page is None:
            self._root_page = self.store.allocate((True, [(box, eid)]))
            self._height = 1
            self._size = 1
            self.counters.inserts += 1
            return
        split = self._insert_recursive(self._root_page, self._height - 1, box, eid, 0)
        if split is not None:
            left_box, right_box, right_page = split
            new_root = self.store.allocate(
                (False, [(left_box, self._root_page), (right_box, right_page)])
            )
            self._root_page = new_root
            self._height += 1
        self._size += 1
        self.counters.inserts += 1

    def _insert_mapped(self, eid: int, box: np.ndarray) -> None:
        """Mapped-mode scalar insert: node pages stay arrays end to end."""
        if self._root_page is None:
            self._root_page = self._allocate_arrays(
                True, box[None], np.array([eid], dtype=np.int64)
            )
            self._height = 1
            self._size = 1
            self.counters.inserts += 1
            return
        split = self._insert_recursive_arrays(
            self._root_page, self._height - 1, box, eid, 0
        )
        if split is not None:
            left_box, right_box, right_page = split
            self._root_page = self._allocate_arrays(
                False,
                np.stack([left_box, right_box]),
                np.array([self._root_page, right_page], dtype=np.int64),
            )
            self._height += 1
        self._size += 1
        self.counters.inserts += 1

    def delete(self, eid: int, box: AABB) -> None:
        if self._root_page is None:
            raise KeyError(f"element {eid} not in index")
        if self.mapped:
            arr = np.array([box.lo, box.hi], dtype=np.float64)
            orphan_arrays: list[tuple[int, np.ndarray]] = []
            found = self._delete_recursive_arrays(
                self._root_page, self._height - 1, eid, arr, orphan_arrays
            )
            if not found:
                raise KeyError(f"element {eid} with box {box} not in index")
            self._size -= 1
            self.counters.deletes += 1
            # Shrink a single-child inner root.
            while self._height > 1:
                is_leaf, _, refs = self._node_arrays(self._root_page)
                if is_leaf or refs.shape[0] != 1:
                    break
                self._root_page = int(refs[0])
                self._height -= 1
            for orphan_eid, orphan_box in orphan_arrays:
                split = self._insert_recursive_arrays(
                    self._root_page, self._height - 1, orphan_box, orphan_eid, 0
                )
                if split is not None:
                    left_box, right_box, right_page = split
                    self._root_page = self._allocate_arrays(
                        False,
                        np.stack([left_box, right_box]),
                        np.array([self._root_page, right_page], dtype=np.int64),
                    )
                    self._height += 1
            if self._size == 0:
                self._root_page = None
                self._height = 0
            return
        orphans: list[tuple[int, AABB]] = []
        found = self._delete_recursive(self._root_page, self._height - 1, eid, box, orphans)
        if not found:
            raise KeyError(f"element {eid} with box {box} not in index")
        self._size -= 1
        self.counters.deletes += 1
        # Shrink a single-child inner root.
        while self._height > 1:
            is_leaf, entries = self.pool.read(self._root_page)
            if is_leaf or len(entries) != 1:
                break
            self._root_page = entries[0][1]
            self._height -= 1
        for orphan_eid, orphan_box in orphans:
            split = self._insert_recursive(self._root_page, self._height - 1, orphan_box, orphan_eid, 0)
            if split is not None:
                left_box, right_box, right_page = split
                self._root_page = self.store.allocate(
                    (False, [(left_box, self._root_page), (right_box, right_page)])
                )
                self._height += 1
        if self._size == 0:
            self._root_page = None
            self._height = 0

    # -- queries -------------------------------------------------------------------

    def range_query(self, box: AABB) -> list[int]:
        if self._root_page is None:
            return []
        if box.dims != self._dims:
            raise ValueError(f"query has {box.dims} dims, index has {self._dims}")
        if self.mapped:
            return self._range_query_arrays(box)
        counters = self.counters
        results: list[int] = []
        stack = [self._root_page]
        while stack:
            page_id = stack.pop()
            is_leaf, entries = self.pool.read(page_id)
            if is_leaf:
                for entry_box, eid in entries:
                    counters.elem_tests += 1
                    if entry_box.intersects(box):
                        results.append(eid)
            else:
                for entry_box, child_page in entries:
                    counters.node_tests += 1
                    if entry_box.intersects(box):
                        counters.pointer_follows += 1
                        stack.append(child_page)
        return results

    def _range_query_arrays(self, box: AABB) -> list[int]:
        """Mapped-mode scalar range query: one vectorized closed-interval
        overlap per node view.  Hits are taken in entry order, so the LIFO
        traversal, the answer order and every counter charge equal the
        object-mode loop's."""
        counters = self.counters
        lo = np.array(box.lo, dtype=np.float64)
        hi = np.array(box.hi, dtype=np.float64)
        results: list[int] = []
        stack = [self._root_page]
        while stack:
            is_leaf, boxes, refs = self._node_views(self.pool.read_view(stack.pop()))
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
        """One traversal for the whole batch: each page is read at most once.

        Amortizing page reads over all pending queries is the disk-side win
        of batching — the per-query loop re-reads the upper levels for every
        query (every one of them on a cold cache), the batch pass charges
        each visited page a single read.
        """
        queries = as_box_array(boxes)
        m = queries.shape[0]
        if m == 0:
            return []
        results: list[list[int]] = [[] for _ in range(m)]
        if self._root_page is None:
            return results
        if self._dims is not None and queries.shape[2] != self._dims:
            raise ValueError(f"queries have {queries.shape[2]} dims, index has {self._dims}")
        counters = self.counters
        stack: list[tuple[int, np.ndarray]] = [(self._root_page, np.arange(m))]
        while stack:
            page_id, active = stack.pop()
            # Arrays straight from the node page: in mapped mode these are
            # zero-copy views of the pooled page view.
            is_leaf, entry_boxes, refs = self._node_arrays(page_id)
            if entry_boxes.shape[0] == 0:
                continue
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
        if k <= 0 or self._root_page is None:
            return []
        if len(point) != self._dims:
            raise ValueError(f"point has {len(point)} dims, index has {self._dims}")
        counters = self.counters
        # (distance, kind, key, ref): nodes (kind 0) pop before elements
        # (kind 1) at equal distance, tied elements pop in id order — the
        # deterministic (distance, id) contract (see indexes/base.py).
        heap: list[tuple[float, int, int, int]] = [(0.0, 0, 0, self._root_page)]
        tiebreak = 1
        results: list[tuple[float, int]] = []
        while heap and len(results) < k:
            dist, kind, _, ref = heapq.heappop(heap)
            counters.heap_ops += 1
            if kind == 1:
                results.append((dist, ref))
                continue
            if self.mapped:
                # One tolist() per node view; the shared helper keeps the
                # distances bit-identical to the AABB method's.
                is_leaf, boxes, refs = self._node_views(self.pool.read_view(ref))
                scored = [
                    (bounds_min_distance_to_point(lo, hi, point), child)
                    for (lo, hi), child in zip(boxes.tolist(), refs.tolist())
                ]
            else:
                is_leaf, entries = self.pool.read(ref)
                scored = [
                    (entry_box.min_distance_to_point(point), child)
                    for entry_box, child in entries
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
        """Shared best-first traversal: each page is read at most once per
        query chunk, so the batch amortizes page transfers exactly as
        :meth:`batch_range_query` does."""
        from repro.geometry.aabb import as_point_array
        from repro.indexes.batch_knn import best_first_batch_knn

        pts = as_point_array(points)
        m = pts.shape[0]
        if m == 0:
            return []
        if k <= 0 or self._root_page is None:
            return [[] for _ in range(m)]
        if self._dims is not None and pts.shape[1] != self._dims:
            raise ValueError(f"points have {pts.shape[1]} dims, index has {self._dims}")

        # Each page is read and packed at most once per query chunk ("read
        # once" is the disk-side win the docstring claims); the pack is
        # released after every chunk so peak unpacked state stays bounded
        # by a chunk's working set, not the tree — persisting it would
        # defeat the bounded-memory residency the BufferPool models.
        packed: dict[int, tuple[bool, np.ndarray, object]] = {}

        def expand(handle: object) -> tuple[bool, np.ndarray, object]:
            cached = packed.get(handle)  # type: ignore[arg-type]
            if cached is not None:
                return cached
            is_leaf, boxes, ref_array = self._node_arrays(handle)  # type: ignore[arg-type]
            refs: object = ref_array if is_leaf else [int(r) for r in ref_array]
            packed[handle] = (is_leaf, boxes, refs)  # type: ignore[index]
            return packed[handle]  # type: ignore[index]

        return best_first_batch_knn(
            pts, k, self._size, self._root_page, expand, self.counters,
            after_chunk=packed.clear,
        )

    def __len__(self) -> int:
        return self._size

    @property
    def height(self) -> int:
        return self._height

    def page_count(self) -> int:
        return len(self.store)

    # -- internals -------------------------------------------------------------------

    def _insert_recursive(
        self, page_id: int, level: int, box: AABB, ref: int, target_level: int
    ) -> tuple[AABB, AABB, int] | None:
        """Returns (this_node_box, sibling_box, sibling_page) after a split."""
        is_leaf, entries = self.pool.read(page_id)
        if level == target_level:
            entries = entries + [(box, ref)]
        else:
            best_index = _least_enlargement(entries, box)
            entry_box, child_page = entries[best_index]
            child_split = self._insert_recursive(child_page, level - 1, box, ref, target_level)
            entries = list(entries)
            if child_split is None:
                entries[best_index] = (entry_box.union(box), child_page)
            else:
                child_box, sibling_box, sibling_page = child_split
                entries[best_index] = (child_box, child_page)
                entries.append((sibling_box, sibling_page))
        if len(entries) > self.max_entries:
            ordered = sorted(entries, key=lambda e: e[0].center()[0])
            half = len(ordered) // 2
            left, right = ordered[:half], ordered[half:]
            self.pool.write(page_id, (is_leaf, left))
            sibling_page = self.store.allocate((is_leaf, right))
            left_box = union_all(b for b, _ in left)
            right_box = union_all(b for b, _ in right)
            return (left_box, right_box, sibling_page)
        self.pool.write(page_id, (is_leaf, entries))
        return None

    def _delete_recursive(
        self,
        page_id: int,
        level: int,
        eid: int,
        box: AABB,
        orphans: list[tuple[int, AABB]],
    ) -> bool:
        is_leaf, entries = self.pool.read(page_id)
        if is_leaf:
            for i, (entry_box, ref) in enumerate(entries):
                if ref == eid and entry_box == box:
                    remaining = entries[:i] + entries[i + 1 :]
                    self.pool.write(page_id, (True, remaining))
                    return True
            return False
        for i, (entry_box, child_page) in enumerate(entries):
            self.counters.node_tests += 1
            if not entry_box.intersects(box):
                continue
            if self._delete_recursive(child_page, level - 1, eid, box, orphans):
                child_is_leaf, child_entries = self.pool.read(child_page)
                updated = list(entries)
                if len(child_entries) < self.min_entries:
                    # Dissolve the child: collect its leaf items as orphans
                    # (the caller reinserts them; logical size is unchanged).
                    del updated[i]
                    self._collect_items(child_page, orphans)
                elif child_entries:
                    updated[i] = (union_all(b for b, _ in child_entries), child_page)
                else:
                    del updated[i]
                self.pool.write(page_id, (False, updated))
                return True
        return False

    def _collect_items(self, page_id: int, out: list[tuple[int, AABB]]) -> None:
        is_leaf, entries = self.pool.read(page_id)
        if is_leaf:
            out.extend((ref, entry_box) for entry_box, ref in entries)
            return
        for _, child_page in entries:
            self._collect_items(child_page, out)

    # -- mapped scalar maintenance ---------------------------------------------
    #
    # The batch query paths already serve mapped nodes as zero-copy array
    # views (`_node_arrays`); these recursions give scalar insert/delete the
    # same treatment — no per-entry AABB materialization, node records are
    # re-encoded straight from arrays.  Structure, tie-breaks and counter
    # charges mirror the object-payload recursions bit for bit (min/max
    # unions, sequential volume products and stable center sorts reproduce
    # the AABB arithmetic exactly), so both modes grow identical trees.

    def _insert_recursive_arrays(
        self, page_id: int, level: int, box: np.ndarray, ref: int, target_level: int
    ) -> tuple[np.ndarray, np.ndarray, int] | None:
        """Returns (this_node_mbr, sibling_mbr, sibling_page) after a split."""
        is_leaf, boxes, refs = self._node_arrays(page_id)
        if level == target_level:
            new_boxes = np.concatenate([boxes, box[None]])
            new_refs = np.append(refs, np.int64(ref))
        else:
            best = _least_enlargement_arrays(boxes, box)
            child_page = int(refs[best])
            child_split = self._insert_recursive_arrays(
                child_page, level - 1, box, ref, target_level
            )
            # Copy out of the mapped views before mutating: the child
            # recursion re-encoded other pages, this node's record is about
            # to be rewritten underneath any live view of it.
            new_boxes = boxes.copy()
            new_refs = refs.copy()
            if child_split is None:
                new_boxes[best, 0] = np.minimum(new_boxes[best, 0], box[0])
                new_boxes[best, 1] = np.maximum(new_boxes[best, 1], box[1])
            else:
                child_box, sibling_box, sibling_page = child_split
                new_boxes[best] = child_box
                new_boxes = np.concatenate([new_boxes, sibling_box[None]])
                new_refs = np.append(new_refs, np.int64(sibling_page))
        if new_refs.shape[0] > self.max_entries:
            centers = (new_boxes[:, 0, 0] + new_boxes[:, 1, 0]) / 2.0
            order = np.argsort(centers, kind="stable")
            half = order.shape[0] // 2
            left, right = order[:half], order[half:]
            left_boxes, left_refs = new_boxes[left], new_refs[left]
            right_boxes, right_refs = new_boxes[right], new_refs[right]
            self._write_arrays(page_id, is_leaf, left_boxes, left_refs)
            sibling_page = self._allocate_arrays(is_leaf, right_boxes, right_refs)
            left_mbr = np.stack(
                [left_boxes[:, 0].min(axis=0), left_boxes[:, 1].max(axis=0)]
            )
            right_mbr = np.stack(
                [right_boxes[:, 0].min(axis=0), right_boxes[:, 1].max(axis=0)]
            )
            return left_mbr, right_mbr, sibling_page
        self._write_arrays(page_id, is_leaf, new_boxes, new_refs)
        return None

    def _delete_recursive_arrays(
        self,
        page_id: int,
        level: int,
        eid: int,
        box: np.ndarray,
        orphans: list[tuple[int, np.ndarray]],
    ) -> bool:
        is_leaf, boxes, refs = self._node_arrays(page_id)
        if is_leaf:
            if refs.shape[0] == 0:
                return False
            match = (
                (refs == eid)
                & np.all(boxes[:, 0] == box[0], axis=1)
                & np.all(boxes[:, 1] == box[1], axis=1)
            )
            hits = np.nonzero(match)[0]
            if hits.shape[0] == 0:
                return False
            keep = np.ones(refs.shape[0], dtype=bool)
            keep[int(hits[0])] = False
            self._write_arrays(page_id, True, boxes[keep], refs[keep])
            return True
        for i in range(refs.shape[0]):
            self.counters.node_tests += 1
            if not (np.all(boxes[i, 0] <= box[1]) and np.all(box[0] <= boxes[i, 1])):
                continue
            child_page = int(refs[i])
            if self._delete_recursive_arrays(child_page, level - 1, eid, box, orphans):
                _, child_boxes, child_refs = self._node_arrays(child_page)
                if child_refs.shape[0] < self.min_entries:
                    # Dissolve the child: collect its leaf items as orphans
                    # (the caller reinserts them; logical size is unchanged).
                    keep = np.ones(refs.shape[0], dtype=bool)
                    keep[i] = False
                    self._collect_items_arrays(child_page, orphans)
                    self._write_arrays(page_id, False, boxes[keep], refs[keep])
                elif child_refs.shape[0]:
                    new_boxes = boxes.copy()
                    new_boxes[i, 0] = child_boxes[:, 0].min(axis=0)
                    new_boxes[i, 1] = child_boxes[:, 1].max(axis=0)
                    self._write_arrays(page_id, False, new_boxes, refs)
                else:
                    keep = np.ones(refs.shape[0], dtype=bool)
                    keep[i] = False
                    self._write_arrays(page_id, False, boxes[keep], refs[keep])
                return True
        return False

    def _collect_items_arrays(
        self, page_id: int, out: list[tuple[int, np.ndarray]]
    ) -> None:
        is_leaf, boxes, refs = self._node_arrays(page_id)
        if is_leaf:
            # Copy each row out of the view: reinserting an earlier orphan
            # rewrites pages, and a live view of a rewritten page is stale.
            out.extend(
                (int(ref), boxes[j].copy()) for j, ref in enumerate(refs)
            )
            return
        for ref in refs.copy():
            self._collect_items_arrays(int(ref), out)


def _least_enlargement(entries: list[tuple[AABB, int]], box: AABB) -> int:
    """Guttman's subtree choice: least volume enlargement, ties by volume."""
    best_index = 0
    best_key: tuple[float, float] | None = None
    for i, (entry_box, _) in enumerate(entries):
        key = (entry_box.enlargement(box), entry_box.volume())
        if best_key is None or key < best_key:
            best_key = key
            best_index = i
    return best_index


def _least_enlargement_arrays(boxes: np.ndarray, box: np.ndarray) -> int:
    """:func:`_least_enlargement` over a ``(n, 2, d)`` box array.

    ``multiply.reduce`` over the last axis folds left to right like the
    scalar ``volume`` loop, and the stable lexsort keeps the first index on
    ties, so the chosen subtree is identical to the object-payload walk.
    """
    extents = boxes[:, 1, :] - boxes[:, 0, :]
    volumes = np.multiply.reduce(extents, axis=1)
    joined = np.maximum(boxes[:, 1, :], box[1]) - np.minimum(boxes[:, 0, :], box[0])
    enlargements = np.multiply.reduce(joined, axis=1) - volumes
    return int(np.lexsort((volumes, enlargements))[0])
