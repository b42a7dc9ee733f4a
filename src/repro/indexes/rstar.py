"""The R*-tree (Beckmann et al. 1990): the paper's canonical "extension that
reduces overlap".

Three changes over Guttman's R-tree, each implemented here on the node
records' ``(n, 2, d)`` box arrays:

1. **Subtree choice** — at the level above the leaves, children are picked by
   least *overlap* enlargement (ties by area enlargement, then area), which is
   the mechanism that actually reduces the inner-node overlap Figure 3 blames
   for tree intersection tests.
2. **Margin-driven split** — the split axis minimizes the summed margins of
   candidate distributions; the distribution minimizes overlap, then area.
3. **Forced reinsertion** — on the first overflow per level per insertion,
   the 30 % of entries farthest from the node centre are removed and
   reinserted, deferring (and often avoiding) the split.

Sums are accumulated left to right (``cumsum``) and volumes are left-folded
products, the order the scalar formulations use, so every tie breaks the
same way.
"""

from __future__ import annotations

import numpy as np

from repro.geometry.aabb import AABB
from repro.indexes.rtree import RTree, _least_enlargement, _mbr, _volumes

_REINSERT_FRACTION = 0.3


class RStarTree(RTree):
    """R*-tree; drop-in replacement for :class:`~repro.indexes.rtree.RTree`."""

    def __init__(self, max_entries: int = 16, min_entries: int | None = None, counters=None) -> None:
        super().__init__(max_entries=max_entries, min_entries=min_entries, counters=counters)
        self._overflow_seen_levels: set[int] = set()
        self._pending_reinserts: list[tuple[np.ndarray, int, int]] = []

    # -- insertion with forced reinsertion -------------------------------------

    def insert(self, eid: int, box: AABB) -> None:
        self._overflow_seen_levels = set()
        super().insert(eid, box)
        self._drain_reinserts()

    def delete(self, eid: int, box: AABB) -> None:
        # Condensation reinserts orphans, which can overflow nodes and queue
        # forced reinsertions — those must be drained here too, or the queued
        # entries would silently drop out of the tree.
        self._overflow_seen_levels = set()
        super().delete(eid, box)
        self._drain_reinserts()

    def _drain_reinserts(self) -> None:
        while self._pending_reinserts:
            entry_box, ref, level = self._pending_reinserts.pop()
            self._insert_entry(entry_box, ref, level)

    def _handle_overflow(self, page, level, is_leaf, boxes, refs):
        if page == self._root or level in self._overflow_seen_levels:
            return super()._handle_overflow(page, level, is_leaf, boxes, refs)
        self._overflow_seen_levels.add(level)
        # Keep the entries nearest the node centre (in distance order) and
        # queue the farthest ~30 % for reinsertion into nodes at this level.
        centers = (boxes[:, 0] + boxes[:, 1]) / 2.0
        node_box = _mbr(boxes)
        offsets = centers - (node_box[0] + node_box[1]) / 2.0
        # ``float_power`` squares through libm's ``pow``, as the scalar
        # ``(a - b) ** 2`` does (``x * x`` differs from it in the last bit).
        squares = np.float_power(offsets, 2.0)
        order = np.argsort(np.cumsum(squares, axis=1)[:, -1], kind="stable")
        count = max(1, int(refs.shape[0] * _REINSERT_FRACTION))
        keep, evict = order[:-count], order[-count:]
        self._write_arrays(page, is_leaf, boxes[keep], refs[keep])
        self._pending_reinserts.extend(
            (boxes[i], int(refs[i]), level) for i in evict.tolist()
        )
        return _mbr(boxes[keep]), None

    # -- R* subtree choice -------------------------------------------------------

    def _choose_subtree(self, boxes: np.ndarray, box: np.ndarray, level: int) -> int:
        if level != 1:
            return _least_enlargement(boxes, box)
        # Children are leaves: least overlap enlargement against the
        # siblings, then least volume enlargement, then least volume.
        lo, hi = boxes[:, 0], boxes[:, 1]
        grown = np.minimum(lo, box[0]), np.maximum(hi, box[1])
        terms = _overlap(grown[0][:, None], grown[1][:, None], lo, hi) - _overlap(
            lo[:, None], hi[:, None], lo, hi
        )
        np.fill_diagonal(terms, 0.0)
        volumes = _volumes(lo, hi)
        return int(
            np.lexsort((volumes, _volumes(*grown) - volumes, np.cumsum(terms, axis=1)[:, -1]))[0]
        )

    # -- R* split -------------------------------------------------------------------

    def _split(self, boxes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        return _rstar_split(boxes, self.min_entries)


def _overlap(a_lo, a_hi, b_lo, b_hi) -> np.ndarray:
    """Overlap volumes of (broadcast) boxes ``a`` and ``b``: 0.0 where any
    side is empty, as :meth:`AABB.overlap_volume` returns."""
    sides = np.minimum(a_hi, b_hi) - np.maximum(a_lo, b_lo)
    return np.where((sides <= 0.0).any(axis=-1), 0.0, np.multiply.reduce(sides, axis=-1))


def _rstar_split(boxes: np.ndarray, min_entries: int) -> tuple[np.ndarray, np.ndarray]:
    """Axis by minimum margin sum; distribution by minimum overlap then area.

    Each axis sorts the entries by ``(lo, hi)`` and by ``(hi, lo)``; every
    distribution cuts one sorted order at ``min_entries .. n - min_entries``.
    Returns the row groups ``(left, right)`` of the chosen distribution.
    """
    n, _, dims = boxes.shape
    cuts = np.arange(min_entries, n - min_entries + 1)
    best_sum = np.inf
    best: list[tuple[np.ndarray, tuple[np.ndarray, ...]]] = []
    for axis in range(dims):
        lo, hi = boxes[:, 0, axis], boxes[:, 1, axis]
        candidates = []
        for order in (np.lexsort((hi, lo)), np.lexsort((lo, hi))):
            candidates.append((order, _distributions(boxes[order], cuts)))
        margins = np.concatenate([left_m + right_m for _, (left_m, right_m, _, _) in candidates])
        margin_sum = np.cumsum(margins)[-1]
        if margin_sum < best_sum:
            best_sum, best = margin_sum, candidates
    overlap = np.concatenate([o for _, (_, _, o, _) in best])
    area = np.concatenate([a for _, (_, _, _, a) in best])
    choice = int(np.lexsort((area, overlap))[0])
    order = best[choice // cuts.shape[0]][0]
    cut = int(cuts[choice % cuts.shape[0]])
    return order[:cut], order[cut:]


def _distributions(ordered: np.ndarray, cuts: np.ndarray) -> tuple[np.ndarray, ...]:
    """Per cut of ``ordered`` boxes: left and right margins, their overlap
    volume and their summed volumes."""
    lo, hi = ordered[:, 0], ordered[:, 1]
    left = np.minimum.accumulate(lo)[cuts - 1], np.maximum.accumulate(hi)[cuts - 1]
    right = (
        np.minimum.accumulate(lo[::-1])[::-1][cuts],
        np.maximum.accumulate(hi[::-1])[::-1][cuts],
    )
    return (
        _margins(*left),
        _margins(*right),
        _overlap(*left, *right),
        _volumes(*left) + _volumes(*right),
    )


def _margins(lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """Sum of side lengths, added axis by axis as :meth:`AABB.margin` does."""
    return np.cumsum(hi - lo, axis=1)[:, -1]
