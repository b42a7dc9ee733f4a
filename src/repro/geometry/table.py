"""`BoxTable`: one immutable ``(eids, boxes)`` value for the join plane.

The kernels want a join input as ``eids`` int64 ``(n,)`` and ``boxes``
float64 ``(n, 2, d)``; every trip there from ``(eid, AABB)`` items is a
Python-level pass over ``n`` objects.  A table makes that trip **once**: a
join spec builds its tables on first execution and caches them, and session,
executors, strategies, spill passes and worker payloads all receive the
table, never re-derive it.

**Input contract.**  :meth:`BoxTable.from_items` (one per-item pass) and
:meth:`BoxTable.from_arrays` (for callers already holding arrays) validate,
and are the one place hostile join input is refused — a ``ValueError`` with
one wording per cause: ``items mix dimensionalities``, ``box coordinates must
be finite``, ``duplicate element id`` and, for arrays (:class:`AABB` refuses
it for items), ``lo > hi``.  The bare constructor trusts its arrays: slices,
:meth:`expanded` and a pool worker's shared-memory views derive from checked
tables.

**Sequence protocol.**  A table *is* a lazy ``Sequence[Item]`` (``len``,
iteration, indexing; slices are zero-copy views), so object-mode consumers —
scalar strategies, user callables, pool shards — run unchanged.
:meth:`items` is cached and is the originating sequence when there is one;
otherwise the boxes are rebuilt from the rows on first use, which array
strategies never trigger.

**Not charged to the** :class:`~repro.exec.budget.MemoryBudget`: the table is
caller-owned input, like the ≈ 7× larger item tuple it was packed from.  The
budget governs what a join *materializes* (replicas, runs, slabs), sized from
row slices of the table exactly as it was from packed chunks.
"""

from __future__ import annotations

from collections.abc import Sequence
from typing import Iterable, Iterator

import numpy as np

from repro.geometry.aabb import AABB

Item = tuple[int, AABB]


def _check(eids: np.ndarray, boxes: np.ndarray) -> None:
    """The vectorised half of the input contract."""
    if not np.isfinite(boxes).all():
        raise ValueError("box coordinates must be finite")
    ordered = np.sort(eids)
    repeated = ordered[1:][ordered[1:] == ordered[:-1]]
    if repeated.shape[0]:
        raise ValueError(f"duplicate element id {int(repeated[0])}")


class BoxTable(Sequence):
    """``n`` join items as read-only ``eids`` ``(n,)`` / ``boxes`` ``(n, 2, d)``."""

    __slots__ = ("eids", "boxes", "_items", "_order", "_identity")

    def __init__(
        self, eids: np.ndarray, boxes: np.ndarray, items: Sequence[Item] | None = None
    ) -> None:
        self.eids, self.boxes = eids.view(), boxes.view()
        self.eids.flags.writeable = self.boxes.flags.writeable = False
        self._items = items
        self._order: np.ndarray | None = None
        self._identity: bool | None = None

    @classmethod
    def from_items(cls, items: Iterable[Item]) -> "BoxTable":
        """Pack ``(eid, AABB)`` items in one pass and check the contract."""
        source = items if isinstance(items, (list, tuple)) else list(items)
        ids: list[int] = []
        flat: list[float] = []
        add_id, add_corner = ids.append, flat.extend
        dims = len(source[0][1].lo) if source else 0
        for eid, box in source:
            lo = box.lo
            if len(lo) != dims:
                raise ValueError(
                    f"items mix dimensionalities: element {eid} has {len(lo)} dims, "
                    f"expected {dims}"
                )
            add_id(eid)
            add_corner(lo)
            add_corner(box.hi)
        eids = np.array(ids, dtype=np.int64)
        boxes = np.array(flat, dtype=np.float64).reshape(len(ids), 2, dims)
        _check(eids, boxes)
        return cls(eids, boxes, source)

    @classmethod
    def from_arrays(cls, eids: np.ndarray, boxes: np.ndarray) -> "BoxTable":
        """Adopt caller-held arrays (no copy) after checking the contract.

        The table holds read-only views, not a snapshot: the caller must not
        write to the arrays afterwards.
        """
        eids = np.asarray(eids)
        boxes = np.asarray(boxes, dtype=np.float64)
        if eids.ndim != 1 or not np.issubdtype(eids.dtype, np.integer):
            raise ValueError(f"eids must be a 1-d integer array, got {eids.dtype} {eids.shape}")
        if boxes.ndim != 3 or boxes.shape[:2] != (eids.shape[0], 2):
            raise ValueError(f"boxes must have shape ({eids.shape[0]}, 2, d), got {boxes.shape}")
        inverted = np.nonzero((boxes[:, 0, :] > boxes[:, 1, :]).any(axis=1))[0]
        if inverted.shape[0]:
            raise ValueError(f"lo > hi in row {int(inverted[0])}")
        eids = eids.astype(np.int64, copy=False)
        _check(eids, boxes)
        return cls(eids, boxes)

    @classmethod
    def of(cls, items: "BoxTable | Iterable[Item]") -> "BoxTable":
        """``items`` itself when already a table, else :meth:`from_items`."""
        return items if isinstance(items, BoxTable) else cls.from_items(items)

    # -- the Sequence[Item] face ------------------------------------------------

    @property
    def dims(self) -> int:
        return self.boxes.shape[2]

    def items(self) -> Sequence[Item]:
        """The ``(eid, AABB)`` items: cached, and the source sequence if any."""
        if self._items is None:
            corners = self.boxes.tolist()
            self._items = [
                (eid, AABB(lo, hi)) for eid, (lo, hi) in zip(self.eids.tolist(), corners)
            ]
        return self._items

    def __len__(self) -> int:
        return self.eids.shape[0]

    def __iter__(self) -> Iterator[Item]:
        return iter(self.items())

    def __getitem__(self, index: "int | slice") -> "Item | BoxTable":
        if isinstance(index, slice):
            # Boxes the table already holds as objects ride along; otherwise
            # the view rebuilds its own rows if an object-mode caller asks.
            items = None if self._items is None else self._items[index]
            return BoxTable(self.eids[index], self.boxes[index], items)
        return self.items()[index]

    # -- array-native derivations -------------------------------------------------

    def expanded(self, margin: float) -> "BoxTable":
        """Every box grown by ``margin`` per face — row for row bit-equal to
        :meth:`AABB.expanded` (the same two float64 operations per corner)."""
        boxes = np.empty_like(self.boxes)
        np.subtract(self.boxes[:, 0, :], margin, out=boxes[:, 0, :])
        np.add(self.boxes[:, 1, :], margin, out=boxes[:, 1, :])
        if margin < 0 and (boxes[:, 0, :] > boxes[:, 1, :]).any():
            raise ValueError(f"expanding by {margin} inverts a box")
        return BoxTable(self.eids, boxes)

    def bounds(self) -> tuple[np.ndarray, np.ndarray]:
        """``(lo, hi)`` corners of the minimum bounding box of all rows, as
        arrays.  Reduced one column at a time: a row-axis reduction of the
        ``(n, 2, d)`` array runs ``d``-long inner loops, several times slower."""
        if not len(self):
            raise ValueError("hull of an empty table")
        axes = range(self.dims)
        return (
            np.array([self.boxes[:, 0, axis].min() for axis in axes]),
            np.array([self.boxes[:, 1, axis].max() for axis in axes]),
        )

    def hull(self) -> AABB:
        """The minimum bounding box of all rows (``union_all`` of the boxes)."""
        return AABB(*self.bounds())

    def _id_order(self) -> np.ndarray:
        if self._order is None:
            self._order = np.argsort(self.eids, kind="stable")
        return self._order

    def rows_of(self, ids: np.ndarray) -> np.ndarray:
        """Row index of each id in ``ids`` (which must all be present):
        ``ids`` itself when the eids are ``0..n-1`` in order (checked once)."""
        if self._identity is None:
            self._identity = bool(np.array_equal(self.eids, np.arange(len(self))))
        if self._identity:
            return ids
        order = self._id_order()
        return order[np.searchsorted(self.eids, ids, sorter=order)]
