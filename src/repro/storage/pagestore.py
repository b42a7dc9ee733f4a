"""A simulated disk of fixed-size pages with transfer accounting.

:class:`PageStore` keeps each page's payload in memory as it was written (a
``DiskRTree`` node record is ``bytes``, readable as a zero-copy NumPy view
with :meth:`PageStore.read_view`); what makes this a "disk" is that every
read and write is charged to a :class:`Counters` object, which the
:class:`~repro.instrumentation.costmodel.DiskCostModel` then prices.

:class:`MappedPageStore` is the other half: the same page protocol and the
same accounting, but payloads are byte blobs persisted in one real file, so
evicted data genuinely leaves main memory, and view reads come back as
**zero-copy NumPy views** over an ``mmap`` of that file.  Writers go through
the slot protocol (plain file writes — the kernel's unified page cache keeps
the mapping coherent), so one store serves any number of readers, in this
process or another, without a copy per read.  It is the substrate the
out-of-core subsystem (:mod:`repro.exec.spill`) writes tile and partition
arrays through, and the page file of a ``DiskRTree(mapped=True)``.

A page file is created once (``mkstemp``), served through that descriptor
and never reopened: an ``O_TRUNC`` reopen makes ext4's ``auto_da_alloc``
force the file to the device on close, and the unlink wait for it.  Never
truncated, a page file lives and dies in the page cache.
"""

from __future__ import annotations

import heapq
import mmap
import os
import tempfile
from typing import Any

import numpy as np

from repro.instrumentation.counters import Counters
from repro.obs import global_registry
from repro.obs import span as _span


class PageStore:
    """Fixed-page-size object store with read/write accounting.

    Parameters
    ----------
    page_size:
        Bytes per page; used by cost models and to validate payload size
        estimates supplied by callers.
    counters:
        Shared counter object; every :meth:`read` bumps ``pages_read`` and
        every :meth:`write` bumps ``pages_written``.
    """

    def __init__(self, page_size: int = 4096, counters: Counters | None = None) -> None:
        if page_size <= 0:
            raise ValueError(f"page_size must be positive, got {page_size}")
        self.page_size = page_size
        self.counters = counters if counters is not None else Counters()
        self._pages: dict[int, Any] = {}
        self._next_id = 0

    def __len__(self) -> int:
        return len(self._pages)

    def allocate(self, payload: Any = None) -> int:
        """Reserve a new page id, optionally writing an initial payload."""
        page_id = self._next_id
        self._next_id += 1
        self._pages[page_id] = payload
        if payload is not None:
            self.counters.pages_written += 1
        return page_id

    def read(self, page_id: int) -> Any:
        """Fetch a page's payload, charging one page read."""
        if page_id not in self._pages:
            raise KeyError(f"page {page_id} was never allocated")
        self.counters.pages_read += 1
        return self._pages[page_id]

    def read_view(self, page_id: int) -> np.ndarray:
        """A ``bytes`` page as a read-only zero-copy ``uint8`` view, charging
        one page read (the zero-copy telemetry is the file store's)."""
        return np.frombuffer(self.read(page_id) or b"", dtype=np.uint8)

    def write(self, page_id: int, payload: Any) -> None:
        """Replace a page's payload, charging one page write."""
        if page_id not in self._pages:
            raise KeyError(f"page {page_id} was never allocated")
        self.counters.pages_written += 1
        self._pages[page_id] = payload

    def free(self, page_id: int) -> None:
        """Release a page (no transfer charge; deallocation is metadata)."""
        if page_id not in self._pages:
            raise KeyError(f"page {page_id} was never allocated")
        del self._pages[page_id]

    def peek(self, page_id: int) -> Any:
        """Read a payload *without* charging a transfer (test/debug helper)."""
        return self._pages[page_id]

    def page_ids(self) -> list[int]:
        return list(self._pages)


class MappedPageStore(PageStore):
    """Fixed-size pages persisted in one real file, readable as mmap views.

    The page protocol (allocate / read / write / free) and the transfer
    accounting are identical to :class:`PageStore`; the difference is that
    payloads are ``bytes`` blobs of at most ``page_size`` written at
    ``page_id * page_size`` in a backing file, so a freed in-memory reference
    really releases the memory.  Freed slots are reused before the file
    grows.  The :class:`~repro.storage.buffer_pool.BufferPool` composes with
    it unchanged — that pairing is what :class:`repro.exec.spill.SpillManager`
    builds on.

    Besides the copying :meth:`read`, the read side offers :meth:`read_view`
    / :meth:`run_view`, which return NumPy arrays backed directly by an
    ``mmap`` of the file: no page buffer, no ``bytes`` copy, no per-read
    allocation.  File writes and the read-only mapping stay coherent through
    the kernel's unified page cache, so a view taken before a later write to
    a *different* page never moves or staled (views of pages the caller then
    overwrites are the caller's hazard, exactly like any shared-memory
    protocol).

    Growth is handled by remapping: when the file has grown past the mapped
    length, a larger mapping is created and the old one is *retired, not
    closed* — NumPy views exported from it keep their buffer alive, and the
    underlying file regions never move.  ``close()`` releases whatever can
    be released and leaves the rest to garbage collection.

    Views served before any page exists, or of freed pages, raise exactly
    like :meth:`read`.  Every view charges ``pages_read`` (transfer
    accounting is uniform with the copying reads) plus the zero-copy
    telemetry: ``zero_copy_reads`` and ``mapped_bytes``.
    """

    def __init__(
        self,
        dir: str | None = None,
        page_size: int = 1 << 20,
        counters: Counters | None = None,
        prefix: str = "pages-",
    ) -> None:
        super().__init__(page_size=page_size, counters=counters)
        fd, self.path = tempfile.mkstemp(prefix=prefix, suffix=".pages", dir=dir)
        self._file = os.fdopen(fd, "r+b", buffering=0)  # closes fd when collected
        self._lengths: dict[int, int] = {}
        self._free_slots: list[int] = []
        self._slots = 0
        self._extent = 0  # end of the furthest byte ever written
        self.closed = False
        self._map: mmap.mmap | None = None
        self._mapped_slots = 0
        self._retired_maps: list[mmap.mmap] = []

    def __len__(self) -> int:
        return len(self._lengths)

    def allocate(self, payload: bytes | None = None) -> int:
        """Reserve a page slot, optionally writing an initial payload.

        Freed slots are reused **lowest slot first** (a heap, not a LIFO
        stack): multi-page allocations that follow multi-page frees land on
        consecutive slots again, which keeps spilled arrays contiguous in
        the file — the property the zero-copy mapped read path needs.
        """
        page_id = heapq.heappop(self._free_slots) if self._free_slots else self._slots
        if page_id == self._slots:
            self._slots += 1
        self._lengths[page_id] = 0
        if payload is not None:
            self._write_at(page_id, payload)
            self.counters.pages_written += 1
        return page_id

    def read(self, page_id: int) -> bytes:
        if page_id not in self._lengths:
            raise KeyError(f"page {page_id} was never allocated")
        self.counters.pages_read += 1
        return self._read_at(page_id)

    def write(self, page_id: int, payload: bytes) -> None:
        if page_id not in self._lengths:
            raise KeyError(f"page {page_id} was never allocated")
        self._write_at(page_id, payload)
        self.counters.pages_written += 1

    def free(self, page_id: int) -> None:
        if page_id not in self._lengths:
            raise KeyError(f"page {page_id} was never allocated")
        del self._lengths[page_id]
        heapq.heappush(self._free_slots, page_id)

    def peek(self, page_id: int) -> bytes:
        return self._read_at(page_id)

    def page_ids(self) -> list[int]:
        return list(self._lengths)

    @property
    def file_bytes(self) -> int:
        """Current size of the backing file (high-water, not live bytes)."""
        return self._slots * self.page_size

    def fragmentation(self) -> float:
        """Share of the file's slot high-water currently on the free list.

        0.0 is a fully packed file; values near 1.0 mean the file is mostly
        holes — allocations keep landing in freed interior slots and spilled
        multi-page arrays are likely to be split across non-consecutive
        slots (forcing the copying read path in
        :class:`~repro.exec.spill.SpillManager`).
        """
        if self._slots == 0:
            return 0.0
        return len(self._free_slots) / self._slots

    # -- zero-copy reads ------------------------------------------------------

    def read_view(self, page_id: int) -> np.ndarray:
        """One page's payload as a read-only zero-copy ``uint8`` view."""
        if page_id not in self._lengths:
            raise KeyError(f"page {page_id} was never allocated")
        length = self._lengths[page_id]
        self.counters.pages_read += 1
        self.counters.zero_copy_reads += 1
        self.counters.mapped_bytes += length
        if length == 0:
            return np.empty(0, dtype=np.uint8)
        mapping = self._ensure_mapped(page_id + 1)
        return np.frombuffer(
            mapping, dtype=np.uint8, count=length, offset=page_id * self.page_size
        )

    def run_view(self, first_page: int, nbytes: int, *, offset: int = 0) -> np.ndarray:
        """A zero-copy view of ``nbytes`` starting ``offset`` bytes into the
        page run that begins at ``first_page``.

        The caller guarantees the run occupies *consecutive* slots (the
        invariant :class:`~repro.exec.spill.SpillManager` tracks per
        handle); page-transfer accounting charges every covering page.
        """
        if nbytes == 0:
            return np.empty(0, dtype=np.uint8)
        start = first_page * self.page_size + offset
        stop = start + nbytes
        slots_needed = -(-stop // self.page_size)
        if slots_needed > self._slots:
            raise ValueError(
                f"run view [{start}, {stop}) reaches past the allocated "
                f"{self._slots} slots"
            )
        self.counters.pages_read += (stop - 1) // self.page_size - start // self.page_size + 1
        self.counters.zero_copy_reads += 1
        self.counters.mapped_bytes += nbytes
        mapping = self._ensure_mapped(slots_needed)
        return np.frombuffer(mapping, dtype=np.uint8, count=nbytes, offset=start)

    # -- lifecycle ------------------------------------------------------------

    def close(self, *, unlink: bool = True) -> None:
        """Close (and by default remove) the backing file.  Idempotent."""
        if self.closed:
            return
        for mapping in (*self._retired_maps, *([self._map] if self._map else [])):
            try:
                mapping.close()
            except BufferError:  # a live view still exports this buffer
                pass  # the GC closes it once the last view dies
        self._retired_maps.clear()
        self._map = None
        self._mapped_slots = 0
        self.closed = True
        self._file.close()
        if unlink and os.path.exists(self.path):
            os.remove(self.path)

    # -- internals ------------------------------------------------------------

    def _write_at(self, page_id: int, payload: bytes) -> None:
        if len(payload) > self.page_size:
            raise ValueError(
                f"payload of {len(payload)} bytes exceeds page size {self.page_size}"
            )
        # A short pwrite resumes where it stopped.
        offset, rest = page_id * self.page_size, memoryview(payload)
        while rest:
            written = os.pwrite(self._file.fileno(), rest, offset)
            offset += written
            rest = rest[written:]
        self._lengths[page_id] = len(payload)
        self._extent = max(self._extent, page_id * self.page_size + len(payload))

    def _read_at(self, page_id: int) -> bytes:
        length = self._lengths[page_id]
        if length == 0:
            return b""
        payload = os.pread(self._file.fileno(), length, page_id * self.page_size)
        if len(payload) != length:
            raise ValueError(
                f"page file {self.path!r} is truncated: page {page_id} holds "
                f"{len(payload)} of its {length} bytes"
            )
        return payload

    def _ensure_mapped(self, slots_needed: int) -> mmap.mmap:
        if self._map is not None and self._mapped_slots >= slots_needed:
            return self._map
        with _span("storage.remap", slots=self._slots):
            size = self._slots * self.page_size  # map the whole high-water once
            # A partial final page leaves the file short of the slot boundary;
            # mmap cannot extend past EOF, so round the file up first — but
            # only a file that still holds every written byte: one cut short
            # from outside would otherwise map back as silent zeros.
            file_size = os.fstat(self._file.fileno()).st_size
            if file_size < size:
                if file_size < self._extent:
                    raise ValueError(
                        f"page file {self.path!r} is truncated: {file_size} bytes "
                        f"on disk, {self._extent} written"
                    )
                os.ftruncate(self._file.fileno(), size)
            mapping = mmap.mmap(self._file.fileno(), size, access=mmap.ACCESS_READ)
            if self._map is not None:
                self._retired_maps.append(self._map)  # live views may pin it
            self._map = mapping
            self._mapped_slots = self._slots
        registry = global_registry()
        registry.counter("storage.remaps").inc()
        registry.gauge("storage.mapped_bytes").track_max(size)
        return mapping
