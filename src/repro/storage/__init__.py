"""Simulated storage substrate: disk pages and a buffer pool.

The paper's disk experiment (Figure 2) needs a disk; we do not have the
authors' SAS array, so this package simulates one at the level that matters
for the argument: *page transfer accounting*.  A
:class:`~repro.storage.pagestore.PageStore` holds page payloads in memory
keyed by page id and charges every read/write to the shared counters; an LRU
:class:`~repro.storage.buffer_pool.BufferPool` sits in front of it exactly
like a DBMS buffer manager (reads only: writers go write-through and drop
the page's frame), so cold-cache and warm-cache experiments are both
expressible.  :class:`~repro.storage.pagestore.MappedPageStore` is the same
page protocol over one real file.  Both serve ``bytes`` pages as zero-copy,
read-only NumPy views (the file store over an ``mmap``) — the substrate
``DiskRTree`` rides on either store, and the spill layer on the file.
"""

from repro.storage.pagestore import MappedPageStore, PageStore
from repro.storage.buffer_pool import BufferPool

__all__ = [
    "PageStore",
    "MappedPageStore",
    "BufferPool",
]
