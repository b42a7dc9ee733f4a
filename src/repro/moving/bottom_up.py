"""Bottom-up R-tree updates (§4.2: "with a bottom up approach").

Classic top-down updating re-descends the whole tree per element
(delete + insert).  The bottom-up family (Lee et al.) instead keeps a direct
element → leaf map and tries to patch the leaf in place:

* **in-place** — the element is verifiably still in the mapped leaf and the
  new box lies inside the leaf's *current* MBR: swap the entry, touch
  nothing else.  The condition is self-maintaining: in-place patches never
  grow the leaf's content union, so every ancestor entry (which contained
  that union when it was last written) stays valid;
* **escape** — the move leaves the leaf MBR, or the map entry went stale
  (splits/condenses relocate entries): fall back to a classic
  delete + insert.

The map holds each element's leaf *page* in the R-tree's record store.
Staleness is handled by *verification, not invalidation*: the fast path
checks that the page is still a stored leaf holding ``(old_box, eid)``, so
a stale pointer can only cause a slow-path detour, never a lost element
(the R-tree frees a leaf's page when condensation dissolves it).  When
escapes accumulate past ``refresh_threshold`` the map is rebuilt wholesale,
restoring the fast path — the same amortization real bottom-up trees get
from parent pointers.

Under simulation motion almost every move is tiny, so the in-place path
dominates — :attr:`BottomUpRTree.in_place_updates` vs
:attr:`BottomUpRTree.structural_updates` quantifies the paper's §4.2
discussion on any workload.
"""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np

from repro.geometry.aabb import AABB
from repro.indexes.base import Item, KNNResult, SpatialIndex, validate_items
from repro.indexes.rtree import RTree, _mbr
from repro.instrumentation.counters import Counters


class BottomUpRTree(SpatialIndex):
    """R-tree wrapper with a verified leaf map enabling in-place updates."""

    def __init__(
        self,
        max_entries: int = 16,
        refresh_fraction: float = 0.1,
        counters: Counters | None = None,
    ) -> None:
        super().__init__(counters)
        if not 0.0 < refresh_fraction <= 1.0:
            raise ValueError(f"refresh_fraction must be in (0,1], got {refresh_fraction}")
        self._tree = RTree(max_entries=max_entries, counters=self.counters)
        self.refresh_fraction = refresh_fraction
        # eid -> owning leaf page (verified before every use)
        self._leaf_of: dict[int, int] = {}
        self._boxes: dict[int, AABB] = {}
        self._escapes_since_refresh = 0
        self.in_place_updates = 0
        self.structural_updates = 0

    # -- leaf map ------------------------------------------------------------------

    def refresh_map(self) -> None:
        """Rebuild the element → leaf map from the live tree."""
        self._leaf_of = {}
        tree = self._tree
        stack = [] if tree._root is None else [tree._root]
        while stack:
            page = stack.pop()
            is_leaf, _, refs = tree._node_arrays(page)
            if is_leaf:
                self._leaf_of.update(dict.fromkeys(refs.tolist(), page))
            else:
                stack.extend(refs.tolist())
        self._escapes_since_refresh = 0

    def _note_escape(self) -> None:
        self._escapes_since_refresh += 1
        threshold = max(32, int(len(self._boxes) * self.refresh_fraction))
        if self._escapes_since_refresh >= threshold:
            self.refresh_map()

    # -- maintenance ------------------------------------------------------------------

    def bulk_load(self, items: Iterable[Item]) -> None:
        materialized = validate_items(items)
        self._tree.bulk_load(materialized)
        self._boxes = dict(materialized)
        self.refresh_map()
        self.in_place_updates = 0
        self.structural_updates = 0

    def insert(self, eid: int, box: AABB) -> None:
        if eid in self._boxes:
            raise ValueError(f"element {eid} already present")
        self._tree.insert(eid, box)
        self._boxes[eid] = box
        self._note_escape()  # splits may have relocated mapped entries

    def delete(self, eid: int, box: AABB) -> None:
        if eid not in self._boxes or self._boxes[eid] != box:
            raise KeyError(f"element {eid} with box {box} not in index")
        self._tree.delete(eid, box)
        del self._boxes[eid]
        self._leaf_of.pop(eid, None)
        self._note_escape()

    def update(self, eid: int, old_box: AABB, new_box: AABB) -> None:
        """Patch the owning leaf in place when the leaf MBR still covers."""
        if eid not in self._boxes or self._boxes[eid] != old_box:
            raise KeyError(f"element {eid} with box {old_box} not in index")
        new = self._tree._checked_box(new_box)
        if self._patch_leaf(eid, old_box, new):
            self._boxes[eid] = new_box
            self.in_place_updates += 1
            self.counters.updates += 1
            return
        # Escaped the leaf MBR, or the map entry went stale: classic path.
        self._tree.delete(eid, old_box)
        self._tree.insert(eid, new_box)
        self._boxes[eid] = new_box
        self._leaf_of.pop(eid, None)
        self.structural_updates += 1
        self.counters.updates += 1
        self._note_escape()

    def _patch_leaf(self, eid: int, old_box: AABB, new: np.ndarray) -> bool:
        """Rewrite the element's row in its mapped leaf when the page still
        holds ``(eid, old_box)`` and the leaf's MBR covers the ``(2, d)``
        box ``new``."""
        tree = self._tree
        page = self._leaf_of.get(eid)
        if page is None or page not in tree._pages:
            return False
        is_leaf, boxes, refs = tree._node_arrays(page)
        old = np.array([old_box.lo, old_box.hi], dtype=np.float64)
        slots = np.flatnonzero((refs == eid) & (boxes == old).all(axis=(1, 2)))
        if not is_leaf or slots.shape[0] == 0:
            return False
        mbr = _mbr(boxes)
        if (new[0] < mbr[0]).any() or (new[1] > mbr[1]).any():
            return False
        boxes = boxes.copy()
        boxes[slots[0]] = new
        tree._write_arrays(page, True, boxes, refs)
        return True

    # -- queries -------------------------------------------------------------------------

    def range_query(self, box: AABB) -> list[int]:
        return self._tree.range_query(box)

    def knn(self, point: Sequence[float], k: int) -> KNNResult:
        return self._tree.knn(point, k)

    def __len__(self) -> int:
        return len(self._boxes)

    def memory_bytes(self) -> int:
        return self._tree.memory_bytes()
