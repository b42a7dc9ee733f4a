"""The session core: one deferred handle, one buffer, one flush loop.

:class:`~repro.engine.session.QuerySession` and
:class:`~repro.joins.session.JoinSession` differ only in what a *group* is
(queries of one kind, ``k`` and accuracy run as one batch; a join spec runs
alone) and in how one group runs.  Everything around that lives here once.
Routing stays with each session and is *pin > heuristic* in both.
"""

from __future__ import annotations

import threading
import time
from typing import Any

from repro.obs import MetricsRegistry
from repro.obs.metrics import MetricsView
from repro.obs import span as _span


class Handle:
    """A deferred result, resolved when its session flushes.

    ``result()`` flushes the owning session while still pending
    (flush-on-read).  Under an :class:`~repro.serving.async_executor.AsyncExecutor`
    the executor attaches a future at submit time, settled with the value
    or error, and ``await handle`` parks the task on it; with no future,
    ``await`` is the synchronous read.  A submission claimed for a flush of
    its own (:meth:`~repro.engine.session.QuerySession.claim_alone`) is in no
    buffer a read could flush: ``result()`` blocks until that flush settles it.
    """

    __slots__ = ("tag", "_session", "_value", "_error", "_resolved", "_waiter", "_settled")

    def __init__(self, session: "SessionCore", tag: Any) -> None:
        self.tag = tag
        self._session = session
        self._value: Any = None
        self._error: BaseException | None = None
        self._resolved = False
        self._waiter: Any = None  # asyncio.Future, attached by AsyncExecutor
        self._settled: threading.Event | None = None  # set by claim_alone

    @property
    def resolved(self) -> bool:
        return self._resolved

    def result(self) -> Any:
        if self._settled is not None:
            self._settled.wait()
        elif not self._resolved:
            try:
                self._session.flush()
            except Exception:
                # The flush re-raises the FIRST group error; a read reports
                # only what happened to its own submission, so a settled
                # handle swallows it.  Explicit flush() is where cross-group
                # errors propagate.
                if not self._resolved:
                    raise
        if not self._resolved:
            # Only when a flush was torn down mid-group (e.g. a
            # KeyboardInterrupt): drained, but never executed.
            raise RuntimeError("flush did not settle this handle")
        if self._error is not None:
            raise self._error
        return self._value

    def __await__(self):
        if not self._resolved and self._waiter is not None:
            yield from self._waiter.__await__()
        return self.result()

    def _resolve(self, value: Any) -> None:
        self._value = value
        self._settle()

    def _fail(self, error: Exception) -> None:
        """Settle with the error that consumed this submission."""
        self._error = error
        self._settle()

    def _settle(self) -> None:
        self._resolved = True
        self._session = None  # settled handles must not pin the session/index
        if self._settled is not None:
            self._settled.set()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "resolved" if self._resolved else "pending"
        return f"<{type(self).__name__} {state} tag={self.tag!r}>"


class Buffer:
    """Entries (each with a ``handle``) awaiting a flush; ``len()`` is the
    depth in rows.  :meth:`drain` empties it as groups of entries, by
    default one group per entry."""

    def __init__(self) -> None:
        self._entries: list = []
        self._depth = 0

    def __len__(self) -> int:
        return self._depth

    def add(self, entry: Any, rows: int) -> None:
        self._entries.append(entry)
        self._depth += rows

    def groups(self) -> list[list]:
        """The groups :meth:`drain` would return, leaving them buffered."""
        return self._group(self._entries)

    def drain(self) -> list[list]:
        entries, self._entries, self._depth = self._entries, [], 0
        return self._group(entries)

    def _group(self, entries: list) -> list[list]:
        return [[entry] for entry in entries]


class SessionCore:
    """A session's buffer, locks, telemetry and flush loop.

    A subclass names its span/metric namespace (``_PREFIX``) and the flush
    span's group-count attribute (``_GROUPS``), and supplies its
    :class:`Buffer` (what a group is), its ``stats`` view type and
    :meth:`_run_group` (how one runs).  The session's own ``metrics``
    registry is the one store of its telemetry: here ``<prefix>.flushes``
    (flushes that ran work), the ``.queue.high_water`` gauge and the
    ``.flush.seconds`` histogram (flushes may overlap).

    ``_lock`` guards the buffer and every metrics tally; ``_flush_lock``
    serializes whole flushes (drain → execute → resolve), so a competing
    flush-on-read waits until every drained handle has settled.
    """

    _PREFIX: str
    _GROUPS: str

    def __init__(self, buffer: Buffer, stats: type[MetricsView]) -> None:
        self._buffer = buffer
        self.metrics = MetricsRegistry()
        self.stats = stats(self.metrics)
        # Cached once so the submit hot path pays one attribute bump, not a
        # name lookup.
        self._m_high_water = self.metrics.gauge(f"{self._PREFIX}.queue.high_water")
        self._m_flushes = self.metrics.counter(f"{self._PREFIX}.flushes")
        self._m_flush_seconds = self.metrics.histogram(f"{self._PREFIX}.flush.seconds")
        self._lock = threading.Lock()
        self._flush_lock = threading.Lock()

    @property
    def pending(self) -> int:
        """Rows (query rows, join specs) buffered and not yet flushed."""
        return len(self._buffer)

    def _enqueue(self, entry: Any, rows: int) -> None:
        """Buffer ``entry``, ``rows`` deep; the caller holds ``_lock``."""
        self._buffer.add(entry, rows)
        self._m_high_water.track_max(len(self._buffer))

    def flush(self, blocking: bool = True) -> bool:
        """Execute everything buffered and resolve the handles.

        A group that raises settles its own handles with its error; the
        other groups still run, and the first error propagates once the
        buffer is settled.  Concurrent callers queue on the flush lock;
        with ``blocking=False`` a caller that finds it taken flushes
        nothing and gets False back.
        """
        if not self._flush_lock.acquire(blocking):
            return False
        try:
            with self._lock:
                groups = self._buffer.drain()
            if groups:
                self._flush_groups(groups)
        finally:
            self._flush_lock.release()
        return True

    def _flush_groups(self, groups: list[list], *, alone: bool = False) -> None:
        with self._lock:
            self._m_flushes.inc()
        start = time.perf_counter()
        first_error: Exception | None = None
        try:
            with _span(f"{self._PREFIX}.flush", **{self._GROUPS: len(groups)}):
                for group in groups:
                    try:
                        self._run_group(group, alone)
                    except Exception as error:
                        # BaseExceptions (KeyboardInterrupt, SystemExit)
                        # propagate at once: unexecuted submissions stay
                        # unsettled and their reads raise RuntimeError.
                        for entry in group:
                            if not entry.handle.resolved:
                                entry.handle._fail(error)
                        self._group_failed()
                        if first_error is None:
                            first_error = error
        finally:
            elapsed = time.perf_counter() - start
            with self._lock:
                self._m_flush_seconds.observe(elapsed)
        if first_error is not None:
            raise first_error

    def _run_group(self, group: list, alone: bool) -> None:  # pragma: no cover - interface
        """Run one group and settle its handles; ``alone`` means the caller
        does not hold the flush lock."""
        raise NotImplementedError

    def _group_failed(self) -> None:
        """Called once a raising group's handles are settled."""
