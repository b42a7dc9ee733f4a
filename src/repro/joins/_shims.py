"""The deprecated free-function surface of the joins, in one place.

The implementations live in :data:`repro.joins.strategies.JOIN_REGISTRY`
(``nested_loop``, ``sweepline``, ``pbsm``, ``touch``, ``grid``,
``tiny_cell``); submit specs through :class:`repro.joins.JoinSession`.  Each
function here warns, runs the strategy that replaced it and materialises the
pair array into the (sorted) list the pre-session call sites expect.
"""

from __future__ import annotations

import warnings
from typing import Sequence

from repro.indexes.base import Item
from repro.instrumentation.counters import Counters
from repro.joins.session import pair_list
from repro.joins.strategies import (
    GridJoin,
    JoinStrategy,
    NestedLoopJoin,
    PBSMJoin,
    SweeplineJoin,
    TinyCellJoin,
    TouchJoin,
)

PairList = list[tuple[int, int]]


def deprecated_join(function: str, strategy: str, stacklevel: int = 3) -> None:
    warnings.warn(
        f"{function}() is deprecated; submit a JoinSpec through "
        f"repro.joins.JoinSession (strategy {strategy!r} in JOIN_REGISTRY).",
        DeprecationWarning,
        stacklevel=stacklevel,
    )


def _shim(
    function: str, strategy: JoinStrategy, *sides: Sequence[Item], counters: Counters | None
) -> PairList:
    """Two sides run the binary join, one the self-join."""
    deprecated_join(function, strategy.name, stacklevel=4)
    run = strategy.join if len(sides) == 2 else strategy.self_join
    return pair_list(run(*sides, counters if counters is not None else Counters()))


def nested_loop_join(
    items_a: Sequence[Item], items_b: Sequence[Item], counters: Counters | None = None
) -> PairList:
    """All ``(a, b)`` id pairs with intersecting boxes, by brute force."""
    return _shim("nested_loop_join", NestedLoopJoin(), items_a, items_b, counters=counters)


def nested_loop_self_join(items: Sequence[Item], counters: Counters | None = None) -> PairList:
    """All unordered intersecting pairs within one dataset (a < b by id)."""
    return _shim("nested_loop_self_join", NestedLoopJoin(), items, counters=counters)


def sweepline_join(
    items_a: Sequence[Item], items_b: Sequence[Item], counters: Counters | None = None
) -> PairList:
    """Plane sweep along axis 0 (see :class:`~repro.joins.strategies.SweeplineJoin`)."""
    return _shim("sweepline_join", SweeplineJoin(), items_a, items_b, counters=counters)


def pbsm_join(
    items_a: Sequence[Item],
    items_b: Sequence[Item],
    tiles_per_axis: int | None = None,
    counters: Counters | None = None,
) -> PairList:
    """Grid-partitioned join with reference-point deduplication."""
    strategy = PBSMJoin(tiles_per_axis=tiles_per_axis)
    return _shim("pbsm_join", strategy, items_a, items_b, counters=counters)


def touch_join(
    items_a: Sequence[Item],
    items_b: Sequence[Item],
    max_entries: int = 16,
    counters: Counters | None = None,
) -> PairList:
    """Join A and B via hierarchical assignment over an STR tree on A."""
    strategy = TouchJoin(max_entries=max_entries)
    return _shim("touch_join", strategy, items_a, items_b, counters=counters)


def grid_join(
    items_a: Sequence[Item],
    items_b: Sequence[Item],
    cell_size: float | None = None,
    counters: Counters | None = None,
) -> PairList:
    """Index A in a uniform grid (one pass), batch-probe with all B boxes."""
    return _shim("grid_join", GridJoin(cell_size=cell_size), items_a, items_b, counters=counters)


def tiny_cell_self_join(
    items: Sequence[Item], cell_size: float | None = None, counters: Counters | None = None
) -> PairList:
    """Self-join with cells smaller than the smallest element (§4.3)."""
    strategy = TinyCellJoin(cell_size=cell_size)
    return _shim("tiny_cell_self_join", strategy, items, counters=counters)
