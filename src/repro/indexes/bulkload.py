"""Sort-Tile-Recursive (STR) bulk loading for R-tree-family indexes.

The paper's experiments use "an available implementation of the STR R-Tree";
Section 4 measures rebuild-from-scratch against per-element updates, and STR
packing is the rebuild being measured.  The packer is shared: the in-memory
:class:`~repro.indexes.rtree.RTree`, the :class:`~repro.indexes.rstar.RStarTree`
and the :class:`~repro.indexes.crtree.CRTree` all build through it with their
own node factories.
"""

from __future__ import annotations

import math
from typing import Callable, Iterator, Sequence

import numpy as np

from repro.geometry.aabb import AABB, union_all

# A node factory takes (is_leaf, entries) and returns a node object.
NodeFactory = Callable[[bool, list[tuple[AABB, object]]], object]


def str_pack(
    items: Sequence[tuple[int, AABB]],
    max_entries: int,
    node_factory: NodeFactory,
) -> tuple[object, int, int]:
    """Pack ``items`` into a fully built tree.

    Returns ``(root, height, node_count)``.  ``height`` counts levels
    including the leaf level, so a single leaf root has height 1.
    """
    if not items:
        raise ValueError("str_pack needs at least one item")
    if max_entries < 2:
        raise ValueError(f"max_entries must be >= 2, got {max_entries}")

    dims = items[0][1].dims
    entries: list[tuple[AABB, object]] = [(box, eid) for eid, box in items]
    groups = _tile(entries, dims, max_entries)
    nodes = [node_factory(True, group) for group in groups]
    boxes = [union_all(box for box, _ in group) for group in groups]
    height = 1
    node_count = len(nodes)

    while len(nodes) > 1:
        level_entries: list[tuple[AABB, object]] = list(zip(boxes, nodes))
        groups = _tile(level_entries, dims, max_entries)
        nodes = [node_factory(False, group) for group in groups]
        boxes = [union_all(box for box, _ in group) for group in groups]
        height += 1
        node_count += len(nodes)

    return nodes[0], height, node_count


def _tile(
    entries: list[tuple[AABB, object]], dims: int, max_entries: int
) -> list[list[tuple[AABB, object]]]:
    """Partition entries into groups of at most ``max_entries`` by recursive
    sort-and-slice along successive dimensions."""
    groups: list[list[tuple[AABB, object]]] = []
    _tile_recursive(entries, 0, dims, max_entries, groups)
    return groups


def _tile_recursive(
    entries: list[tuple[AABB, object]],
    axis: int,
    dims: int,
    max_entries: int,
    out: list[list[tuple[AABB, object]]],
) -> None:
    if len(entries) <= max_entries:
        out.append(entries)
        return
    ordered = sorted(entries, key=lambda e: (e[0].lo[axis] + e[0].hi[axis]) / 2.0)
    if axis == dims - 1:
        for start in range(0, len(ordered), max_entries):
            out.append(ordered[start : start + max_entries])
        return
    pages = math.ceil(len(ordered) / max_entries)
    slabs = math.ceil(pages ** (1.0 / (dims - axis)))
    slab_size = math.ceil(len(ordered) / slabs)
    for start in range(0, len(ordered), slab_size):
        _tile_recursive(ordered[start : start + slab_size], axis + 1, dims, max_entries, out)


def tile_arrays(
    boxes: np.ndarray, start_axis: int, max_entries: int
) -> tuple[np.ndarray, list[int]]:
    """:func:`_tile_recursive` over an ``(n, 2, d)`` box array.

    Returns ``(order, bounds)``: group ``g`` is rows
    ``order[bounds[g]:bounds[g + 1]]`` of ``boxes``.  A stable argsort on
    ``(lo + hi) / 2.0`` — the float ``AABB.center()`` produces — with the
    same slab arithmetic makes the group sequence identical to the object
    tiler's, so array-native builders pack the very same tree.
    """
    n, _, dims = boxes.shape
    order = np.arange(n)
    bounds = [0]

    def tile(rows: np.ndarray, axis: int, offset: int) -> None:
        count = rows.shape[0]
        if count <= max_entries:
            order[offset : offset + count] = rows
            bounds.append(offset + count)
            return
        centers = (boxes[rows, 0, axis] + boxes[rows, 1, axis]) / 2.0
        rows = rows[np.argsort(centers, kind="stable")]
        if axis == dims - 1:
            order[offset : offset + count] = rows
            bounds.extend(range(offset + max_entries, offset + count, max_entries))
            bounds.append(offset + count)
            return
        pages = math.ceil(count / max_entries)
        slabs = math.ceil(pages ** (1.0 / (dims - axis)))
        slab_size = math.ceil(count / slabs)
        for start in range(0, count, slab_size):
            tile(rows[start : start + slab_size], axis + 1, offset + start)

    if n:
        tile(order.copy(), start_axis, 0)
    return order, bounds


def split_groups(
    boxes: np.ndarray, refs: np.ndarray, bounds: Sequence[int]
) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Rows already permuted into :func:`tile_arrays` order, as one
    ``(boxes, refs)`` view pair per group."""
    for start, stop in zip(bounds, bounds[1:]):
        yield boxes[start:stop], refs[start:stop]
