"""Update-vs-rebuild-vs-scan economics (Section 4.1).

The paper's measurement: updating all elements of a neural-plasticity step in
an R-tree costs 130 s while rebuilding from scratch costs 48 s, so "updating
only is faster than a rebuild if less than 38 % of the dataset change in a
time step" (48 / 130 ≈ 0.37).  It further observes that when few queries run
per step, even the rebuilt index may not amortize and a linear scan wins.

This module makes those decisions first-class:

* :class:`MaintenanceCosts` holds measured (or modeled) per-step costs,
  prices a step under each :class:`Strategy` and computes the crossover
  fraction;
* :func:`calibrate` measures the costs empirically for any index/workload
  pair, which is exactly the experiment behind the paper's numbers.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from enum import Enum
from typing import Callable, Sequence

from repro.geometry.aabb import AABB
from repro.indexes.base import Item, SpatialIndex


class Strategy(Enum):
    """Per-step maintenance choices the paper discusses."""

    UPDATE = "update"
    REBUILD = "rebuild"
    SCAN = "scan"


@dataclass
class MaintenanceCosts:
    """Per-step cost inputs, in seconds (measured or modeled).

    ``update_per_element`` is the cost of one delete+insert in the index;
    ``rebuild_fixed`` the cost of a full bulk load; ``query_indexed`` /
    ``query_scan`` the cost of one range query with and without the index.
    """

    update_per_element: float
    rebuild_fixed: float
    query_indexed: float
    query_scan: float
    n_elements: int

    def crossover_fraction(self) -> float:
        """Changed fraction above which rebuilding beats updating.

        The paper's instance: rebuild 48 s, full update 130 s → 0.369.
        """
        full_update = self.update_per_element * self.n_elements
        if full_update <= 0.0:
            return 1.0
        return min(1.0, self.rebuild_fixed / full_update)

    def step_cost(self, strategy: Strategy, changed_fraction: float, queries: int) -> float:
        """Total cost of one simulation step under ``strategy``."""
        if not 0.0 <= changed_fraction <= 1.0:
            raise ValueError(f"changed_fraction must be in [0,1], got {changed_fraction}")
        if strategy is Strategy.UPDATE:
            maintenance = self.update_per_element * self.n_elements * changed_fraction
            return maintenance + queries * self.query_indexed
        if strategy is Strategy.REBUILD:
            return self.rebuild_fixed + queries * self.query_indexed
        return queries * self.query_scan


def calibrate(
    index_factory: Callable[[], SpatialIndex],
    items: Sequence[Item],
    moved_items: Sequence[tuple[int, AABB, AABB]],
    query_boxes: Sequence[AABB],
    scan_factory: Callable[[], SpatialIndex],
) -> MaintenanceCosts:
    """Measure real per-step costs for an index on a workload.

    ``moved_items`` is a list of ``(eid, old_box, new_box)`` describing one
    simulation step's motion; a subset is applied as updates to price
    ``update_per_element``.  This is the reproduction of the paper's §4.1
    experiment harness.
    """
    if not items or not moved_items or not query_boxes:
        raise ValueError("calibration needs items, moves and queries")

    index = index_factory()
    start = time.perf_counter()
    index.bulk_load(items)
    # A rebuild is done when the index answers: what a structure builds on
    # its first query (the grid's snapshot pack) is the rebuild's cost, not
    # the per-query one measured below.
    index.range_query(query_boxes[0])
    rebuild_fixed = time.perf_counter() - start

    sample = moved_items[: max(min(len(moved_items), 64), len(moved_items) // 10)]
    start = time.perf_counter()
    for eid, old_box, new_box in sample:
        index.update(eid, old_box, new_box)
    updates = time.perf_counter() - start
    # A write-behind index (the grid) places the updates on its next read:
    # charge what that read costs beyond the same read on the settled index.
    # Only the positive part counts — two reads this short can time in
    # either order, and a negative excess would price an update below zero.
    start = time.perf_counter()
    index.range_query(query_boxes[0])
    settling = time.perf_counter() - start
    start = time.perf_counter()
    index.range_query(query_boxes[0])
    settled = time.perf_counter() - start
    update_per_element = (updates + max(settling - settled, 0.0)) / len(sample)
    # Restore (and place) the original boxes so query timing sees a consistent dataset.
    for eid, old_box, new_box in sample:
        index.update(eid, new_box, old_box)
    index.range_query(query_boxes[0])

    start = time.perf_counter()
    for box in query_boxes:
        index.range_query(box)
    query_indexed = (time.perf_counter() - start) / len(query_boxes)

    scan = scan_factory()
    scan.bulk_load(items)
    start = time.perf_counter()
    for box in query_boxes:
        scan.range_query(box)
    query_scan = (time.perf_counter() - start) / len(query_boxes)

    return MaintenanceCosts(
        update_per_element=update_per_element,
        rebuild_fixed=rebuild_fixed,
        query_indexed=query_indexed,
        query_scan=query_scan,
        n_elements=len(items),
    )
