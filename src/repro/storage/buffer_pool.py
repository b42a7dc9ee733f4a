"""An LRU buffer pool in front of the simulated page store.

Mirrors a DBMS buffer manager: reads hit the pool first; misses fetch from
the :class:`~repro.storage.pagestore.PageStore` (charging a page read) and may
evict the least-recently-used frame.  The pool only reads: writers go
write-through to the store and :meth:`BufferPool.drop` the rewritten page's
frame, so a frame never holds anything the store does not.  The paper's
experiments run "with an initially cold cache and the cache is cleaned between
any two queries" — :meth:`clear` implements exactly that protocol.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Any

from repro.storage.pagestore import PageStore


class BufferPool:
    """Fixed-capacity LRU cache of disk pages.

    Parameters
    ----------
    store:
        Backing page store.
    capacity:
        Number of page frames held in memory.  Zero is allowed and makes
        every access go to the store (useful to model a fully cold run).
    """

    def __init__(self, store: PageStore, capacity: int = 128) -> None:
        if capacity < 0:
            raise ValueError(f"capacity must be >= 0, got {capacity}")
        self.store = store
        self.capacity = capacity
        self._frames: OrderedDict[int, Any] = OrderedDict()
        self.hits = 0
        self.misses = 0

    def __len__(self) -> int:
        """Frames currently resident — never exceeds ``capacity``."""
        return len(self._frames)

    def read(self, page_id: int) -> Any:
        """Fetch a page through the pool, counting hit or miss."""
        if page_id in self._frames:
            self.hits += 1
            self._frames.move_to_end(page_id)
            return self._frames[page_id]
        self.misses += 1
        payload = self.store.read(page_id)
        self._admit(page_id, payload)
        return payload

    def read_view(self, page_id: int) -> Any:
        """Fetch a page as a zero-copy view through the pool.

        The frames then cache *views*, not copies: residency accounting
        (hits, misses, the ``capacity`` bound on resident frames) is
        identical to :meth:`read`, but a miss costs the store's view read
        instead of a byte copy.
        """
        if page_id in self._frames:
            self.hits += 1
            self._frames.move_to_end(page_id)
            return self._frames[page_id]
        self.misses += 1
        payload = self.store.read_view(page_id)
        self._admit(page_id, payload)
        return payload

    def clear(self) -> None:
        """Drop every frame — the paper's 'clean cache' protocol."""
        self._frames.clear()

    def drop(self, page_id: int) -> None:
        """Invalidate one frame — for pages the caller rewrote or freed in
        the store (a stale frame must not answer the page or a reused slot)."""
        self._frames.pop(page_id, None)

    def hit_rate(self) -> float:
        accesses = self.hits + self.misses
        if accesses == 0:
            return 0.0
        return self.hits / accesses

    def _admit(self, page_id: int, payload: Any) -> None:
        if self.capacity == 0:
            return
        while len(self._frames) >= self.capacity:
            self._frames.popitem(last=False)
        self._frames[page_id] = payload
