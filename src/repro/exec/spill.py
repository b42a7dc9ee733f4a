"""SpillManager: typed NumPy spill files over the storage layer.

When a strategy's working set exceeds its :class:`~repro.exec.budget
.MemoryBudget`, it ships arrays here.  A spill write streams the array's
bytes as fixed-size pages through a real on-disk
:class:`~repro.storage.pagestore.MappedPageStore` (so the memory is genuinely
released), and reads come back one of two ways:

* **zero-copy** — a handle whose pages landed on consecutive slots (the
  common case: allocation is sequential, and freed slots are reused lowest
  first) is one contiguous byte range of the file, so any row range
  ``[lo, hi)`` is served as a NumPy *view* over the store's mmap — no page
  gather, no copy, charged to ``zero_copy_reads`` / ``mapped_bytes``;
* **pooled gather** — a fragmented handle falls back to page-wise reads
  through a bounded :class:`~repro.storage.buffer_pool.BufferPool`, exactly
  the pre-mmap path, keeping residency bounded no matter how much spilled.

A spilled array is *typed*: its :class:`SpillHandle` carries dtype and shape.
A spill file cut short behind the manager's back raises ``ValueError`` on
read rather than mapping back as zeros.

Lifecycle is explicit: the manager owns one tmpdir (created on demand,
removed on :meth:`close`), every handle can be freed individually, and
``close()`` is idempotent — sessions call it from their own ``close()``,
strategies from ``finally`` blocks, so an error path never leaves orphan
spill files behind.

The spill file is the store's own temporary file, created once and never
reopened, so ext4's ``auto_da_alloc`` never forces it to the device
(:mod:`repro.storage.pagestore` says why).
"""

from __future__ import annotations

import os
import shutil
import tempfile

import numpy as np

from repro.instrumentation.counters import Counters
from repro.obs import global_registry
from repro.storage.buffer_pool import BufferPool
from repro.storage.pagestore import MappedPageStore


class SpillHandle:
    """One spilled array: page run + the dtype/shape to reassemble it."""

    __slots__ = ("pages", "dtype", "shape", "nbytes", "tag", "live", "contiguous")

    def __init__(
        self,
        pages: tuple[int, ...],
        dtype: np.dtype,
        shape: tuple[int, ...],
        nbytes: int,
        tag: object = None,
    ) -> None:
        self.pages = pages
        self.dtype = dtype
        self.shape = shape
        self.nbytes = nbytes
        self.tag = tag
        self.live = True
        #: Pages on consecutive slots — the whole array is one byte range of
        #: the spill file, eligible for zero-copy mapped reads.
        self.contiguous = all(
            later == earlier + 1 for earlier, later in zip(pages, pages[1:])
        )

    @property
    def rows(self) -> int:
        return self.shape[0] if self.shape else 1

    @property
    def row_bytes(self) -> int:
        tail = 1
        for extent in self.shape[1:]:
            tail *= extent
        return int(self.dtype.itemsize * tail)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "live" if self.live else "freed"
        return f"<SpillHandle {state} {self.dtype}{self.shape} tag={self.tag!r}>"


class SpillManager:
    """Writes and reads NumPy arrays as page runs in one spill file.

    Parameters
    ----------
    dir:
        Directory for the spill file.  ``None`` (default) creates a private
        tmpdir that :meth:`close` removes entirely; a caller-supplied
        directory is left in place with only the manager's file removed.
    page_size:
        Bytes per page (default 1 MiB — large pages keep the page count and
        Python-level overhead low for array streaming).
    pool_pages:
        Read-path buffer pool capacity in pages, used only by the
        *fragmented* fallback path.  Spill *writes* go write-through
        (straight to the store) so no dirty frame pins memory; contiguous
        reads are zero-copy mapped views (no residency at all), and the
        fragmented gather path caches at most this many pages.
    counters:
        Shared counters: page transfers land in ``pages_read`` /
        ``pages_written``, logical traffic in ``spill_bytes_written`` /
        ``spill_bytes_read``, and each :meth:`spill` call bumps
        ``tiles_spilled``.
    """

    def __init__(
        self,
        dir: str | None = None,
        page_size: int = 1 << 20,
        pool_pages: int = 8,
        counters: Counters | None = None,
    ) -> None:
        self.counters = counters if counters is not None else Counters()
        self._owns_dir = dir is None
        if dir is None:
            dir = tempfile.mkdtemp(prefix="repro-spill-")
        else:
            os.makedirs(dir, exist_ok=True)
        self.dir = dir
        self.store = MappedPageStore(
            dir, page_size=page_size, counters=self.counters, prefix="spill-"
        )
        self.path = self.store.path
        self.pool = BufferPool(self.store, capacity=pool_pages)
        self.closed = False
        self._live = 0
        # Registry mirrors of the spill I/O counters, cached once so the
        # per-call cost is an attribute bump.
        registry = global_registry()
        self._m_bytes_written = registry.counter("spill.bytes_written")
        self._m_bytes_read = registry.counter("spill.bytes_read")
        self._m_tiles = registry.counter("spill.tiles")

    # -- spill / read ---------------------------------------------------------

    @property
    def live_handles(self) -> int:
        """Spilled arrays not yet freed."""
        return self._live

    def spill(self, array: np.ndarray, tag: object = None) -> SpillHandle:
        """Write ``array`` out as pages; the caller may now drop the array."""
        self._check_open()
        data = np.ascontiguousarray(array)
        raw = data.view(np.uint8).reshape(-1)
        page_size = self.store.page_size
        pages = tuple(
            self.store.allocate(raw[start : start + page_size].tobytes())
            for start in range(0, raw.shape[0], page_size)
        )
        handle = SpillHandle(pages, data.dtype, data.shape, int(data.nbytes), tag)
        self.counters.tiles_spilled += 1
        self.counters.spill_bytes_written += handle.nbytes
        self._m_tiles.inc()
        self._m_bytes_written.inc(handle.nbytes)
        self._live += 1
        return handle

    def read(self, handle: SpillHandle) -> np.ndarray:
        """Reassemble a whole spilled array (through the buffer pool)."""
        return self.read_rows(handle, 0, handle.rows)

    def read_rows(self, handle: SpillHandle, lo: int, hi: int) -> np.ndarray:
        """Rows ``[lo, hi)`` of a spilled array.

        Contiguous handles come back as a **read-only zero-copy view** over
        the store's mmap (do not mutate in place — rebind through fancy
        indexing instead); fragmented handles fall back to gathering their
        covering pages through the bounded buffer pool.
        """
        self._check_open()
        if not handle.live:
            raise ValueError(f"spill handle already freed: {handle!r}")
        if not 0 <= lo <= hi <= handle.rows:
            raise ValueError(f"row range [{lo}, {hi}) out of [0, {handle.rows})")
        row_bytes = handle.row_bytes
        shape = (hi - lo, *handle.shape[1:])
        if hi == lo or row_bytes == 0:
            return np.empty(shape, dtype=handle.dtype)
        start, stop = lo * row_bytes, hi * row_bytes
        if handle.contiguous:
            view = self.store.run_view(handle.pages[0], stop - start, offset=start)
            self.counters.spill_bytes_read += stop - start
            self._m_bytes_read.inc(stop - start)
            return view.view(handle.dtype).reshape(shape)
        page_size = self.store.page_size
        first, last = start // page_size, (stop - 1) // page_size
        buffer = np.empty((last - first + 1) * page_size, dtype=np.uint8)
        position = 0
        for page_index in range(first, last + 1):
            chunk = self.pool.read(handle.pages[page_index])
            buffer[position : position + len(chunk)] = np.frombuffer(chunk, np.uint8)
            position += page_size
        self.counters.spill_bytes_read += stop - start
        self._m_bytes_read.inc(stop - start)
        window = buffer[start - first * page_size : stop - first * page_size].copy()
        return window.view(handle.dtype).reshape(shape)

    def free(self, handle: SpillHandle) -> None:
        """Release a spilled array's pages for reuse.  Idempotent."""
        if not handle.live:
            return
        handle.live = False
        self._live -= 1
        if self.closed:
            return
        for page_id in handle.pages:
            self.store.free(page_id)
            self.pool.drop(page_id)

    # -- lifecycle ------------------------------------------------------------

    def close(self) -> None:
        """Drop every frame, close and remove the spill file (and the tmpdir
        when the manager created it).  Idempotent; safe on error paths."""
        if self.closed:
            return
        self.closed = True
        self.pool.clear()
        self.store.close(unlink=True)
        if self._owns_dir:
            shutil.rmtree(self.dir, ignore_errors=True)

    def __enter__(self) -> "SpillManager":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def __del__(self) -> None:  # pragma: no cover - GC-order dependent
        try:
            self.close()
        except Exception:
            pass

    # -- internals ------------------------------------------------------------

    def _check_open(self) -> None:
        if self.closed:
            raise RuntimeError("SpillManager is closed")
