"""The memory governor: a per-session byte budget with reservation accounting.

The paper's target workloads are "larger than memory by definition" — yet
every join strategy and bulk-load path in the library materialized its full
working set in RAM.  :class:`MemoryBudget` is the small contract that changes
that: components *reserve* bytes before materializing an array and *release*
them when the array dies, so

* planners (:class:`~repro.engine.session.QuerySession`,
  :class:`~repro.joins.session.JoinSession`) can route a workload to a
  spilling strategy when its estimated working set would not fit;
* spilling strategies (:mod:`repro.exec.external_join`,
  :mod:`repro.exec.external_build`) can size their partitions/runs so no
  phase holds more than the budget;
* telemetry (``high_water``) records how close execution actually came to
  the line, which ``join_report`` / ``session_report`` render next to the
  routing tables.

A budget is *advisory but honest*: ``try_reserve`` refuses (and counts a
denial) when the request does not fit, while ``reserve(force=True)`` admits
an unavoidable minimum (e.g. a single tile larger than the whole budget) and
counts an overcommit, so the telemetry never hides a breach.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from typing import Iterator


class BudgetExceeded(RuntimeError):
    """Raised by :meth:`MemoryBudget.reserve` when a request cannot be
    admitted and the caller did not ask to force it."""


class MemoryBudget:
    """Byte-budget governor with reserve/release accounting.

    Parameters
    ----------
    limit_bytes:
        The budget in bytes.  ``None`` means unlimited — every reservation
        is admitted and only the telemetry (``in_use`` / ``high_water``)
        is maintained.

    Telemetry attributes: ``in_use`` (currently reserved bytes),
    ``high_water`` (max ``in_use`` ever), ``reservations`` (admitted
    reserve calls), ``denials`` (refused ``try_reserve`` calls) and
    ``overcommits`` (forced reservations past the limit).

    ``try_reserve`` / ``reserve`` / ``release`` are atomic: one budget may
    govern executor runs on several threads (a serving session's own-flush
    beside its queue flush), and the fit check and the admission it allows
    must not be separated.
    """

    def __init__(self, limit_bytes: int | None = None) -> None:
        if limit_bytes is not None and limit_bytes <= 0:
            raise ValueError(f"limit_bytes must be positive, got {limit_bytes}")
        self.limit = limit_bytes
        self.in_use = 0
        self.high_water = 0
        self.reservations = 0
        self.denials = 0
        self.overcommits = 0
        self._lock = threading.Lock()

    @classmethod
    def unlimited(cls) -> "MemoryBudget":
        """A budget that admits everything (telemetry only)."""
        return cls(None)

    @classmethod
    def coerce(cls, budget: "MemoryBudget | int | None") -> "MemoryBudget":
        """Accept a budget, a raw byte limit, or ``None`` (unlimited)."""
        if budget is None:
            return cls.unlimited()
        if isinstance(budget, MemoryBudget):
            return budget
        return cls(int(budget))

    @property
    def available(self) -> int | None:
        """Bytes still admissible, or ``None`` when unlimited."""
        if self.limit is None:
            return None
        return max(self.limit - self.in_use, 0)

    def fits(self, nbytes: int) -> bool:
        """Would a reservation of ``nbytes`` stay within the limit?"""
        return self.limit is None or self.in_use + nbytes <= self.limit

    def try_reserve(self, nbytes: int) -> bool:
        """Reserve ``nbytes`` if they fit; count a denial otherwise."""
        if nbytes < 0:
            raise ValueError(f"nbytes must be >= 0, got {nbytes}")
        with self._lock:
            if not self.fits(nbytes):
                self.denials += 1
                return False
            self._admit(nbytes)
            return True

    def reserve(self, nbytes: int, *, force: bool = False) -> None:
        """Reserve ``nbytes`` or raise :class:`BudgetExceeded`.

        ``force=True`` admits the reservation even past the limit (counting
        an overcommit) — for the irreducible minimum a phase must hold.
        """
        if nbytes < 0:
            raise ValueError(f"nbytes must be >= 0, got {nbytes}")
        with self._lock:
            if not self.fits(nbytes):
                if not force:
                    self.denials += 1
                    raise BudgetExceeded(
                        f"reserving {nbytes} bytes would exceed the "
                        f"{self.limit}-byte budget ({self.in_use} in use)"
                    )
                self.overcommits += 1
            self._admit(nbytes)

    def release(self, nbytes: int) -> None:
        """Return ``nbytes`` to the budget (clamped at zero)."""
        if nbytes < 0:
            raise ValueError(f"nbytes must be >= 0, got {nbytes}")
        with self._lock:
            self.in_use = max(self.in_use - nbytes, 0)

    @contextmanager
    def reserving(self, nbytes: int, *, force: bool = False) -> Iterator[None]:
        """Context manager: reserve on entry, release on exit."""
        self.reserve(nbytes, force=force)
        try:
            yield
        finally:
            self.release(nbytes)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        limit = "unlimited" if self.limit is None else f"{self.limit:,}B"
        return (
            f"<MemoryBudget {limit} in_use={self.in_use:,} "
            f"high_water={self.high_water:,}>"
        )

    def _admit(self, nbytes: int) -> None:
        self.in_use += nbytes
        self.reservations += 1
        if self.in_use > self.high_water:
            self.high_water = self.in_use


# -- working-set estimators ------------------------------------------------------

#: Average box replication PBSM partitioning produces on the library's
#: synapse-scale workloads (boxes small relative to tiles); the planner's
#: routing estimate errs high on purpose.
PBSM_REPLICATION = 2.0


def item_array_bytes(n_items: int, dims: int = 3) -> int:
    """Bytes to hold ``n_items`` packed as (eid, box) arrays."""
    return n_items * (2 * dims * 8 + 8)


def pbsm_working_set_bytes(n_a: int, n_b: int, dims: int = 3) -> int:
    """Estimated peak array bytes of the in-memory vectorized PBSM join.

    Packed inputs, replica row/key arrays and the gathered per-tile boxes
    the merge phase materializes — the quantity
    :meth:`repro.joins.session.JoinSession.choose_strategy` compares against
    the session budget when deciding whether to route a spec to the
    spilling strategy.
    """
    packed = item_array_bytes(n_a, dims) + item_array_bytes(n_b, dims)
    replicas = int((n_a + n_b) * PBSM_REPLICATION) * (2 * dims * 8 + 3 * 8)
    return packed + replicas


def str_build_working_set_bytes(n_items: int, dims: int = 3) -> int:
    """Estimated peak array bytes of an in-memory STR bulk load (sort keys,
    entry arrays and the per-level regroupings)."""
    return 3 * item_array_bytes(n_items, dims)
