"""A TPR-style predictive index — and a measurement of why it fails here.

The TPR/TPR*/STRIPES family indexes *trajectories*: each element is stored as
a position anchor plus a velocity, and its bounding box at query time ``t`` is
the anchor box translated by ``v·(t − t_anchor)`` and inflated by a velocity
uncertainty bound.  "Updates are only needed if speed or trajectory change."

The paper's objection — "these approaches do not work well for simulations
because the movement of objects cannot be predicted" — becomes quantitative
here:

* on :class:`~repro.datasets.trajectories.LinearMotion` the index answers
  queries for many steps with **zero** structural updates;
* on plasticity-style Brownian motion the velocity estimates are noise, the
  uncertainty inflation balloons the effective boxes, and
  :attr:`re_anchors` (forced corrections) climbs toward one per element per
  few steps — ``tests/test_moving_objects.py::TestTPRIndex`` pins both.

**The horizon cliff.**  An anchor older than ``horizon`` steps is re-anchored
by its next position report whatever the prediction says, and a re-anchor is
a scalar R-tree delete + insert of the swept box.  Under simulation motion
no report ever refreshes an anchor cheaply, so once the clock reaches
``horizon`` *every* reported move pays that structural update: on the
performance ledger's ``continuous_ticks`` workload (8 000 boxes, 400 reported
moves a step) :meth:`TPRIndex.advance` costs 207–233 ms a step past the
horizon — about 0.55 ms a move, against ~14 µs for a ``UniformGrid.update``
of the same move — which was 71–76 % of a continuous tick while the
continuous planner still routed range/kNN subscriptions here.  It no longer
does (``repro/continuous/session.py``; ``BENCH_continuous.json`` has the
per-churn numbers on both sides of the horizon); the index stays as the
paper's negative exhibit and an explicitly pinned policy.

Correctness is preserved regardless of motion: queries refine against exact
current boxes supplied through :meth:`advance`, so mispredictions cost time
(inflated candidate sets, re-anchors), never wrong answers.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from repro.geometry.aabb import AABB
from repro.indexes.base import Item, KNNResult, SpatialIndex, validate_items
from repro.indexes.rtree import RTree
from repro.instrumentation.counters import Counters


class TPRIndex(SpatialIndex):
    """Anchor + velocity index with bounded-uncertainty predicted boxes.

    Parameters
    ----------
    max_speed:
        Per-axis velocity bound used to inflate predicted boxes (the TPR
        conservative bound).  For honest comparisons set it near the true
        per-step displacement scale.
    horizon:
        Steps an anchor may age before a forced re-anchor; prediction error
        also forces re-anchors whenever the true box escapes the predicted
        one.
    """

    def __init__(
        self,
        max_speed: float = 0.1,
        horizon: int = 10,
        max_entries: int = 16,
        counters: Counters | None = None,
    ) -> None:
        super().__init__(counters)
        if max_speed < 0:
            raise ValueError(f"max_speed must be >= 0, got {max_speed}")
        if horizon < 1:
            raise ValueError(f"horizon must be >= 1, got {horizon}")
        self.max_speed = max_speed
        self.horizon = horizon
        self._tree = RTree(max_entries=max_entries, counters=self.counters)
        self._now = 0
        # Per element: (anchor_box, velocity per axis, anchor_time).
        self._anchors: dict[int, tuple[AABB, tuple[float, ...], int]] = {}
        self._tree_boxes: dict[int, AABB] = {}
        self._exact: dict[int, AABB] = {}
        self.re_anchors = 0

    # -- time ------------------------------------------------------------------

    @property
    def now(self) -> int:
        return self._now

    def _predicted_box(self, eid: int, at_time: int) -> AABB:
        anchor_box, velocity, anchor_time = self._anchors[eid]
        dt = at_time - anchor_time
        shift_lo = [v * dt - self.max_speed * dt for v in velocity]
        shift_hi = [v * dt + self.max_speed * dt for v in velocity]
        lo = [a + s for a, s in zip(anchor_box.lo, shift_lo)]
        hi = [a + s for a, s in zip(anchor_box.hi, shift_hi)]
        return AABB(lo, hi)

    def _swept_box(self, eid: int) -> AABB:
        """Box covering the element from anchor time through the horizon —
        what actually gets stored in the tree."""
        anchor_box, _, anchor_time = self._anchors[eid]
        end = self._predicted_box(eid, anchor_time + self.horizon)
        return anchor_box.union(end)

    # -- maintenance ----------------------------------------------------------------

    def bulk_load(self, items: Iterable[Item]) -> None:
        materialized = validate_items(items)
        self._now = 0
        self._exact = dict(materialized)
        zero = (0.0,) * (materialized[0][1].dims if materialized else 3)
        self._anchors = {eid: (box, zero, 0) for eid, box in materialized}
        self._tree_boxes = {eid: self._swept_box(eid) for eid, _ in materialized}
        self._tree.bulk_load(list(self._tree_boxes.items()))
        self.re_anchors = 0

    def insert(self, eid: int, box: AABB) -> None:
        if eid in self._exact:
            raise ValueError(f"element {eid} already present")
        self._exact[eid] = box
        self._anchors[eid] = (box, (0.0,) * box.dims, self._now)
        swept = self._swept_box(eid)
        self._tree_boxes[eid] = swept
        self._tree.insert(eid, swept)
        self.counters.inserts += 1

    def delete(self, eid: int, box: AABB) -> None:
        if eid not in self._exact or self._exact[eid] != box:
            raise KeyError(f"element {eid} with box {box} not in index")
        self._tree.delete(eid, self._tree_boxes[eid])
        del self._exact[eid]
        del self._anchors[eid]
        del self._tree_boxes[eid]
        self.counters.deletes += 1

    def update(self, eid: int, old_box: AABB, new_box: AABB) -> None:
        """A position report: cheap if prediction still covers, else re-anchor."""
        if eid not in self._exact or self._exact[eid] != old_box:
            raise KeyError(f"element {eid} with box {old_box} not in index")
        self._exact[eid] = new_box
        anchor_box, velocity, anchor_time = self._anchors[eid]
        aged_out = (self._now - anchor_time) >= self.horizon
        if self._tree_boxes[eid].contains_box(new_box) and not aged_out:
            self.counters.updates += 1
            return
        # Re-anchor: estimate velocity from the observed displacement.
        dt = max(self._now - anchor_time, 1)
        observed = tuple(
            (n - o) / dt for n, o in zip(new_box.center(), anchor_box.center())
        )
        self._tree.delete(eid, self._tree_boxes[eid])
        self._anchors[eid] = (new_box, observed, self._now)
        swept = self._swept_box(eid)
        self._tree_boxes[eid] = swept
        self._tree.insert(eid, swept)
        self.re_anchors += 1
        self.counters.updates += 1

    def advance(self, moves: Sequence[tuple[int, AABB, AABB]]) -> None:
        """Advance the clock one step and ingest the step's true motion."""
        self._now += 1
        for eid, old_box, new_box in moves:
            self.update(eid, old_box, new_box)

    # -- queries ---------------------------------------------------------------------

    def range_query(self, box: AABB) -> list[int]:
        """Filter on swept/predicted boxes, refine on exact current boxes."""
        counters = self.counters
        results = []
        for eid in self._tree.range_query(box):
            counters.refine_tests += 1
            if self._exact[eid].intersects(box):
                results.append(eid)
        return results

    def time_slice_query(self, box: AABB, at_time: int) -> list[int]:
        """The TPR family's signature query: who *will* intersect ``box``
        at the (future) time ``at_time``?

        Candidates come from the tree's swept boxes, refined against each
        element's predicted box at ``at_time``.  The answer is conservative
        in exactly the TPR sense: as long as every element's true per-step
        center displacement stays within ``max_speed`` per axis and its
        extents do not grow, its predicted box contains its true box, so
        the returned ids are a superset of the true intersecting set at
        ``at_time`` (never a wrong exclusion).  ``at_time == now`` refines
        on exact boxes and is the plain :meth:`range_query`.
        """
        if at_time < self._now:
            raise ValueError(f"time-slice query in the past: {at_time} < now={self._now}")
        if at_time == self._now:
            return self.range_query(box)
        counters = self.counters
        results = []
        for eid in self._anchors:
            # Swept boxes only cover anchor→horizon; beyond that, predict
            # directly (the tree filter would under-approximate).
            counters.refine_tests += 1
            if self._predicted_box(eid, at_time).intersects(box):
                results.append(eid)
        return results

    def knn(self, point: Sequence[float], k: int) -> KNNResult:
        """Exact kNN via widening fetches (swept-box distance lower-bounds
        exact distance, same argument as the LUR-tree)."""
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
            if len(exact_top) == k and exact_top[-1][0] <= worst_loose:
                return exact_top
            fetch *= 2

    def __len__(self) -> int:
        return len(self._exact)

    def memory_bytes(self) -> int:
        return self._tree.memory_bytes()
