"""Simulated storage substrate: disk pages and a buffer pool.

The paper's disk experiment (Figure 2) needs a disk; we do not have the
authors' SAS array, so this package simulates one at the level that matters
for the argument: *page transfer accounting*.  A
:class:`~repro.storage.pagestore.PageStore` holds node payloads keyed by page
id and charges every read/write to the shared counters; an LRU
:class:`~repro.storage.buffer_pool.BufferPool` sits in front of it exactly
like a DBMS buffer manager, so cold-cache and warm-cache experiments are both
expressible.  :class:`~repro.storage.pagestore.MappedPageStore` is the same
page protocol over one real file, whose reads can also come back as
zero-copy, read-only NumPy views over an ``mmap`` — the substrate the spill
layer and the mapped ``DiskRTree`` ride.
"""

from repro.storage.pagestore import MappedPageStore, PageStore
from repro.storage.buffer_pool import BufferPool

__all__ = [
    "PageStore",
    "MappedPageStore",
    "BufferPool",
]
