"""Lazy-Update R-tree (Kwon et al., MDM'02) — grace/loose bounding boxes.

Every element is indexed under a *grace box*: its bounding box expanded by a
margin ε.  As long as a move keeps the element inside its grace box the tree
is untouched (an O(1) dictionary write updates the exact box); only escapes
pay the classic delete+insert.  The price is the paper's predicted shift of
cost into queries: the tree over-approximates, so every candidate must be
refined against its exact box (counted as ``refine_tests``), and kNN must
search with slack ε.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from repro.geometry.aabb import AABB
from repro.indexes.base import Item, KNNResult, SpatialIndex, validate_items
from repro.indexes.rtree import RTree
from repro.instrumentation.counters import Counters


class LURTree(SpatialIndex):
    """R-tree wrapper with grace-window updates.

    Parameters
    ----------
    grace:
        The expansion margin ε per face.  Larger values absorb more motion
        per rebuild but degrade query precision; a good default for
        plasticity-style jitter is a few steps' worth of expected
        displacement.
    """

    def __init__(
        self,
        grace: float = 0.5,
        max_entries: int = 16,
        counters: Counters | None = None,
    ) -> None:
        super().__init__(counters)
        if grace < 0:
            raise ValueError(f"grace must be >= 0, got {grace}")
        self.grace = grace
        self._tree = RTree(max_entries=max_entries, counters=self.counters)
        self._exact: dict[int, AABB] = {}
        self._grace_boxes: dict[int, AABB] = {}
        self.lazy_updates = 0
        self.structural_updates = 0

    # -- maintenance -----------------------------------------------------------

    def bulk_load(self, items: Iterable[Item]) -> None:
        materialized = validate_items(items)
        grace_boxes = {eid: box.expanded(self.grace) for eid, box in materialized}
        self._tree.bulk_load(list(grace_boxes.items()))
        self._exact = dict(materialized)
        self._grace_boxes = grace_boxes
        self.lazy_updates = 0
        self.structural_updates = 0

    def insert(self, eid: int, box: AABB) -> None:
        if eid in self._exact:
            raise ValueError(f"element {eid} already present")
        grace_box = box.expanded(self.grace)
        self._tree.insert(eid, grace_box)  # refuses a bad box before it writes
        self._exact[eid] = box
        self._grace_boxes[eid] = grace_box
        self.counters.inserts += 1

    def delete(self, eid: int, box: AABB) -> None:
        if eid not in self._exact or self._exact[eid] != box:
            raise KeyError(f"element {eid} with box {box} not in index")
        self._tree.delete(eid, self._grace_boxes[eid])
        del self._exact[eid]
        del self._grace_boxes[eid]
        self.counters.deletes += 1

    def update(self, eid: int, old_box: AABB, new_box: AABB) -> None:
        """Lazy when the move stays inside the grace box, structural else."""
        if eid not in self._exact or self._exact[eid] != old_box:
            raise KeyError(f"element {eid} with box {old_box} not in index")
        # Refused here (wrong dims, NaN/±inf), or a lazy move would keep it
        # and a structural one would delete the element and then fail.
        new_grace = new_box.expanded(self.grace)
        self._tree._checked_box(new_grace)
        grace_box = self._grace_boxes[eid]
        if grace_box.contains_box(new_box):
            self._exact[eid] = new_box
            self.lazy_updates += 1
        else:
            self._tree.delete(eid, grace_box)
            self._tree.insert(eid, new_grace)
            self._exact[eid] = new_box
            self._grace_boxes[eid] = new_grace
            self.structural_updates += 1
        self.counters.updates += 1

    # -- queries ----------------------------------------------------------------

    def range_query(self, box: AABB) -> list[int]:
        """Filter on grace boxes, refine on exact boxes (the shifted cost)."""
        counters = self.counters
        results = []
        for eid in self._tree.range_query(box):
            counters.refine_tests += 1
            if self._exact[eid].intersects(box):
                results.append(eid)
        return results

    def knn(self, point: Sequence[float], k: int) -> KNNResult:
        """Exact kNN despite loose boxes.

        A grace box contains the exact box, so grace-box distance is a lower
        bound on exact distance.  Fetch a widening candidate set from the
        tree until the kth *exact* distance among fetched candidates is no
        larger than the worst fetched *grace* distance — every unfetched
        element is then provably farther.
        """
        if k <= 0 or not self._exact:
            return []
        counters = self.counters
        fetch = max(k * 2, k + 8)
        while True:
            loose = self._tree.knn(point, min(fetch, len(self._exact)))
            scored = []
            for _, eid in loose:
                counters.refine_tests += 1
                scored.append((self._exact[eid].min_distance_to_point(point), eid))
            scored.sort()
            exact_top = scored[:k]
            if len(loose) >= len(self._exact):
                return exact_top
            worst_loose = loose[-1][0]
            # Every unfetched element has grace-distance >= worst_loose, hence
            # exact distance >= worst_loose - 0 >= worst_loose; compare with
            # slack-adjusted kth exact distance.
            if len(exact_top) == k and exact_top[-1][0] <= worst_loose:
                return exact_top
            fetch *= 2

    def __len__(self) -> int:
        return len(self._exact)

    def memory_bytes(self) -> int:
        return self._tree.memory_bytes()
