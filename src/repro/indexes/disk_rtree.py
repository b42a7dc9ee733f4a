"""A disk-resident R-tree over the simulated page store.

This is the "R-Tree on Disk" half of Figure 2: every node lives in a 4 KB
page; visiting a node costs a page read unless the buffer pool holds it.  The
paper's protocol runs "with an initially cold cache and the cache is cleaned
between any two queries" — call :meth:`DiskRTree.clear_cache` between queries
to reproduce it.

The tree is built with STR packing (as in the paper's Appendix A) and supports
dynamic maintenance; structure and instrumentation mirror
:class:`~repro.indexes.rtree.RTree`, with page transfers charged on top.

Every node is one binary record (``int64 [is_leaf, count]`` header,
``float64`` boxes, ``int64`` refs) and the tree is arrays end to end: bulk
loads tile box arrays (:func:`~repro.indexes.bulkload.tile_arrays`) and
encode leaves straight from them, queries test a whole node view at once,
maintenance re-encodes nodes from arrays, and no ``AABB`` is ever built.
``mapped`` picks only where the records live: as ``bytes`` in the in-memory
:class:`~repro.storage.pagestore.PageStore`, or in a real file behind
:class:`~repro.storage.pagestore.MappedPageStore`.  Either way reads are
zero-copy NumPy views served through the buffer pool
(:meth:`BufferPool.read_view`), and writes go write-through with a
``pool.drop`` so no stale frame can answer a rewritten page.
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
)
from repro.indexes.base import Item, KNNResult, SpatialIndex, validate_items
from repro.indexes.bulkload import split_groups, tile_arrays
from repro.instrumentation.counters import Counters
from repro.storage.buffer_pool import BufferPool
from repro.storage.pagestore import MappedPageStore, PageStore


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
        Keep the node records in a real mapped file instead of in memory.
        Node capacity is then bounded by ``page_size``; the encoder raises
        if ``max_entries`` boxes of the data's dimensionality cannot fit
        one page (an in-memory record is a simulated page of any size).
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
        """Release the backing store (a file-backed tree unlinks its file)."""
        self.pool.clear()
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

    # -- node codec ---------------------------------------------------------

    _HEADER_BYTES = 16  # int64 [is_leaf, count]

    def _node_views(self, buf: np.ndarray) -> tuple[bool, np.ndarray, np.ndarray]:
        """Decode one page buffer into ``(is_leaf, boxes, refs)`` where
        boxes/refs are zero-copy views into the page."""
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
        straight back through here.  A file-backed tree raises before
        anything is written when the record cannot fit one page."""
        count = int(refs.shape[0])
        header = np.array([1 if is_leaf else 0, count], dtype=np.int64)
        if not count:
            return header.tobytes()
        blob = (
            header.tobytes()
            + np.ascontiguousarray(boxes, dtype=np.float64).tobytes()
            + np.ascontiguousarray(refs, dtype=np.int64).tobytes()
        )
        if self.mapped and len(blob) > self.store.page_size:
            raise ValueError(
                f"node of {count} {boxes.shape[2]}-d entries needs {len(blob)} "
                f"bytes; page size is {self.store.page_size} — lower "
                f"max_entries for mapped mode"
            )
        return blob

    def _write_arrays(
        self, page_id: int, is_leaf: bool, boxes: np.ndarray, refs: np.ndarray
    ) -> None:
        # Write-through: a frame is a read-only view of the page, so
        # write-back is meaningless and a stale frame is a hazard.
        self.store.write(page_id, self._encode_arrays(is_leaf, boxes, refs))
        self.pool.drop(page_id)

    def _allocate_arrays(
        self, is_leaf: bool, boxes: np.ndarray, refs: np.ndarray
    ) -> int:
        return self.store.allocate(self._encode_arrays(is_leaf, boxes, refs))

    def _node_arrays(self, page_id: int) -> tuple[bool, np.ndarray, np.ndarray]:
        """One node as ``(is_leaf, boxes (n,2,d), refs int64)``: zero-copy
        views of the pooled page view, with the pool's residency accounting."""
        return self._node_views(self.pool.read_view(page_id))

    # -- maintenance -------------------------------------------------------------

    def bulk_load(self, items: Iterable[Item]) -> None:
        materialized = validate_items(items)
        n = len(materialized)
        eids = np.fromiter((eid for eid, _ in materialized), dtype=np.int64, count=n)
        boxes = boxes_to_array([box for _, box in materialized])
        _check_finite(boxes)
        self._reset_storage()
        self._pack_leaf_arrays(self._tile_level(boxes, eids) if n else ())

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
        """The bulk load: allocate streamed ``(boxes, eids)`` leaves
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
        per level).  ``items`` is consumed streaming: the packer's array
        stream is encoded leaf by leaf as it arrives.
        """
        from repro.exec.external_build import external_leaf_arrays

        self._reset_storage()
        self._pack_leaf_arrays(
            external_leaf_arrays(
                items, self.max_entries, budget, spill_dir=spill_dir,
                counters=self.counters,
            )
        )

    def insert(self, eid: int, box: AABB) -> None:
        if self._root_page is not None and box.dims != self._dims:
            raise ValueError(f"box has {box.dims} dims, index has {self._dims}")
        arr = np.array([box.lo, box.hi], dtype=np.float64)
        _check_finite(arr)
        if self._root_page is None:
            self._dims = box.dims
            self._root_page = self._allocate_arrays(
                True, arr[None], np.array([eid], dtype=np.int64)
            )
            self._height = 1
        else:
            self._insert_entry(arr, eid)
        self._size += 1
        self.counters.inserts += 1

    def _insert_entry(self, box: np.ndarray, ref: int) -> None:
        """Insert one leaf entry below the root, growing a new root on a
        root split."""
        split = self._insert_recursive(self._root_page, self._height - 1, box, ref, 0)
        if split is not None:
            left_box, right_box, right_page = split
            self._root_page = self._allocate_arrays(
                False,
                np.stack([left_box, right_box]),
                np.array([self._root_page, right_page], dtype=np.int64),
            )
            self._height += 1

    def delete(self, eid: int, box: AABB) -> None:
        if self._root_page is None:
            raise KeyError(f"element {eid} not in index")
        arr = np.array([box.lo, box.hi], dtype=np.float64)
        orphans: list[tuple[int, np.ndarray]] = []
        if box.dims != self._dims or not self._delete_recursive(
            self._root_page, self._height - 1, eid, arr, orphans
        ):
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
        for orphan_eid, orphan_box in orphans:
            self._insert_entry(orphan_box, orphan_eid)
        if self._size == 0:
            self._root_page = None
            self._height = 0

    # -- queries -------------------------------------------------------------------

    def range_query(self, box: AABB) -> list[int]:
        if self._root_page is None:
            return []
        if box.dims != self._dims:
            raise ValueError(f"query has {box.dims} dims, index has {self._dims}")
        # One vectorized closed-interval overlap per node view; hits are
        # taken in entry order, so the LIFO traversal fixes the answer order.
        counters = self.counters
        lo = np.array(box.lo, dtype=np.float64)
        hi = np.array(box.hi, dtype=np.float64)
        results: list[int] = []
        stack = [self._root_page]
        while stack:
            is_leaf, boxes, refs = self._node_arrays(stack.pop())
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
            # One tolist() per node view; the shared helper keeps the
            # distances bit-identical to the AABB method's.
            is_leaf, boxes, refs = self._node_arrays(ref)
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
        self, page_id: int, level: int, box: np.ndarray, ref: int, target_level: int
    ) -> tuple[np.ndarray, np.ndarray, int] | None:
        """Returns (this_node_mbr, sibling_mbr, sibling_page) after a split."""
        is_leaf, boxes, refs = self._node_arrays(page_id)
        if level == target_level:
            new_boxes = np.concatenate([boxes, box[None]])
            new_refs = np.append(refs, np.int64(ref))
        else:
            best = _least_enlargement(boxes, box)
            child_page = int(refs[best])
            child_split = self._insert_recursive(
                child_page, level - 1, box, ref, target_level
            )
            # Copy out of the page views before mutating: the child
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

    def _delete_recursive(
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
            if self._delete_recursive(child_page, level - 1, eid, box, orphans):
                _, child_boxes, child_refs = self._node_arrays(child_page)
                if child_refs.shape[0] < self.min_entries:
                    # Dissolve the child: collect its leaf items as orphans
                    # (the caller reinserts them; logical size is unchanged).
                    keep = np.ones(refs.shape[0], dtype=bool)
                    keep[i] = False
                    self._collect_items(child_page, orphans)
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

    def _collect_items(self, page_id: int, out: list[tuple[int, np.ndarray]]) -> None:
        is_leaf, boxes, refs = self._node_arrays(page_id)
        if is_leaf:
            # Copy each row out of the view: reinserting an earlier orphan
            # rewrites pages, and a live view of a rewritten page is stale.
            out.extend((int(ref), boxes[j].copy()) for j, ref in enumerate(refs))
            return
        for ref in refs.copy():
            self._collect_items(int(ref), out)


def _least_enlargement(boxes: np.ndarray, box: np.ndarray) -> int:
    """Guttman's subtree choice over a ``(n, 2, d)`` box array: least volume
    enlargement, ties by volume, then by the first index (stable lexsort).

    ``multiply.reduce`` over the last axis folds left to right like the
    scalar :meth:`AABB.volume` loop, so the choice matches its arithmetic.
    """
    extents = boxes[:, 1, :] - boxes[:, 0, :]
    volumes = np.multiply.reduce(extents, axis=1)
    joined = np.maximum(boxes[:, 1, :], box[1]) - np.minimum(boxes[:, 0, :], box[0])
    enlargements = np.multiply.reduce(joined, axis=1) - volumes
    return int(np.lexsort((volumes, enlargements))[0])


def _check_finite(boxes: np.ndarray) -> None:
    """Refuse NaN or ±inf coordinates before any page is written: a NaN
    carried into a parent MBR by ``minimum``/``maximum`` cuts its subtree
    off from every query."""
    if not np.isfinite(boxes).all():
        raise ValueError("box coordinates must be finite")
