"""The R+-tree (Sellis, Roussopoulos, Faloutsos 1987): a region tree that
cuts data, not space.

§3.2 names it among the R-tree extensions that attack overlap: "Numerous
extensions (Priority R-Tree, R*-Tree, R+-Tree, etc. ...) reduce the overlap
and hence improve performance, but the fundamental problem of overlap
remains."  The R+-tree removes *inner-node* overlap entirely by partitioning
space into disjoint regions and **replicating** elements that straddle
region boundaries — trading Figure 3's redundant tree descents for Figure
4-style duplicated element tests, a trade-off the counters make directly
visible (``max_sibling_overlap`` 0.0, ``replication_factor`` > 1).

It is :class:`~repro.indexes.region_tree.RegionTree` — the same node,
build, writes and queries as the quadtree and octree — with one cut rule:
a full leaf splits in two on the region's widest axis, at the median of
the elements' lower bounds that lie above some element's upper bound and
below some element's lower bound, so each half loses an element (the
next-widest axis when no lower bound does).  It keeps no depth cap: every
cut shrinks both halves.  Elements that no axis separates (identical
boxes, boxes sharing a span) share one oversized leaf.
"""

from __future__ import annotations

import math

from repro.geometry.aabb import AABB
from repro.indexes.base import Item
from repro.indexes.region_tree import RegionTree
from repro.instrumentation.counters import Counters


class RPlusTree(RegionTree):
    """Overlap-free data-oriented tree with straddler replication.

    Parameters
    ----------
    max_entries:
        Leaf capacity before a region split.
    universe:
        Root region; derived from the first write when omitted, and grown
        by rebuild when a write lands outside.
    """

    def __init__(
        self,
        max_entries: int = 16,
        universe: AABB | None = None,
        counters: Counters | None = None,
    ) -> None:
        if max_entries < 2:
            raise ValueError(f"max_entries must be >= 2, got {max_entries}")
        super().__init__(
            dims=None, universe=universe, capacity=max_entries, max_depth=math.inf,
            counters=counters,
        )
        self.max_entries = max_entries

    def _cut(self, region: AABB, items: list[Item]) -> list[AABB] | None:
        widest_first = sorted(range(region.dims), key=lambda a: region.lo[a] - region.hi[a])
        for axis in widest_first:
            # Only a cut above some element's upper bound and below some
            # element's lower bound leaves each half fewer elements.
            least_hi = min(box.hi[axis] for _, box in items)
            values = sorted(box.lo[axis] for _, box in items)
            separating = [v for v in values if least_hi < v < values[-1]]
            if separating:
                low_hi, high_lo = list(region.hi), list(region.lo)
                low_hi[axis] = high_lo[axis] = separating[len(separating) // 2]
                return [AABB(region.lo, low_hi), AABB(high_lo, region.hi)]
        return None
