"""A disk-resident R-tree over the simulated page store.

This is the "R-Tree on Disk" half of Figure 2: the
:class:`~repro.indexes.rtree.RTree` itself — the same binary node records,
the same STR build, Guttman rules and query loops — with every record in a
4 KB page behind a buffer pool; visiting a node costs a page read unless the
pool holds it.  The paper's protocol runs "with an initially cold cache and
the cache is cleaned between any two queries" — call
:meth:`DiskRTree.clear_cache` between queries to reproduce it.

``mapped`` picks only where the records live: as ``bytes`` in the in-memory
:class:`~repro.storage.pagestore.PageStore`, or in a real file behind
:class:`~repro.storage.pagestore.MappedPageStore`.  Either way reads are
zero-copy NumPy views served through the buffer pool
(:meth:`BufferPool.read_view`), writes go write-through with a ``pool.drop``
so no stale frame can answer a rewritten page, and a node that dissolves
frees its page, so :meth:`page_count` counts the reachable nodes.
"""

from __future__ import annotations

import numpy as np

from repro.indexes.rtree import RTree
from repro.instrumentation.counters import Counters
from repro.storage.buffer_pool import BufferPool
from repro.storage.pagestore import MappedPageStore, PageStore


class DiskRTree(RTree):
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
        super().__init__(max_entries=max_entries, min_entries=min_entries, counters=counters)
        self.mapped = mapped
        self.store = self._new_store(page_size)
        self.pool = BufferPool(self.store, capacity=buffer_pages)

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
        return MappedPageStore(page_size=page_size, counters=self.counters, prefix="disk-rtree-")

    def _reset_storage(self) -> None:
        """Fresh store + pool for a rebuild; mapped files are unlinked."""
        page_size = self.store.page_size
        capacity = self.pool.capacity
        self.close()
        self.store = self._new_store(page_size)
        self.pool = BufferPool(self.store, capacity=capacity)

    # -- the record store on pages --------------------------------------------

    def _read(self, page: int) -> np.ndarray:
        return self.pool.read_view(page)

    def _peek(self, page: int) -> np.ndarray:
        return np.frombuffer(self.store.peek(page), dtype=np.uint8)

    def _write(self, page: int, record: bytes) -> None:
        # Write-through: a frame is a read-only view of the page, so
        # write-back is meaningless and a stale frame is a hazard.
        self.store.write(page, record)
        self.pool.drop(page)

    def _allocate(self, record: bytes) -> int:
        return self.store.allocate(record)

    def _free(self, page: int) -> None:
        self.store.free(page)
        self.pool.drop(page)

    def _encode_arrays(self, is_leaf: bool, boxes: np.ndarray, refs: np.ndarray) -> bytes:
        """The record, refused before anything is written when a file-backed
        tree's page cannot hold it."""
        record = super()._encode_arrays(is_leaf, boxes, refs)
        if self.mapped and len(record) > self.store.page_size:
            raise ValueError(
                f"node of {refs.shape[0]} {boxes.shape[2]}-d entries needs "
                f"{len(record)} bytes; page size is {self.store.page_size} — "
                f"lower max_entries for mapped mode"
            )
        return record

    # -- introspection ---------------------------------------------------------

    @property
    def node_count(self) -> int:
        return len(self.store)

    def page_count(self) -> int:
        return len(self.store)
