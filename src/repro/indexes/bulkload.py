"""Sort-Tile-Recursive (STR) bulk loading for R-tree-family indexes.

The paper's experiments use "an available implementation of the STR R-Tree";
Section 4 measures rebuild-from-scratch against per-element updates, and STR
packing is the rebuild being measured.  :func:`tile_arrays` tiles an
``(n, 2, d)`` box array; the record trees
(:class:`~repro.indexes.rtree.RTree`, its R*, disk and CR subclasses, the
joins' throwaway trees and the external packer) build every level through
it.
"""

from __future__ import annotations

import math
from typing import Iterator, Sequence

import numpy as np


def tile_arrays(
    boxes: np.ndarray, start_axis: int, max_entries: int
) -> tuple[np.ndarray, list[int]]:
    """Partition the rows of an ``(n, 2, d)`` box array into groups of at
    most ``max_entries`` by recursive sort-and-slice along successive axes,
    from ``start_axis`` on.

    Returns ``(order, bounds)``: group ``g`` is rows
    ``order[bounds[g]:bounds[g + 1]]`` of ``boxes``.  Each slice is a
    stable argsort on ``(lo + hi) / 2.0`` — the float ``AABB.center()``
    produces — so ties keep input order; the tests hold an object tiler
    over ``(AABB, ref)`` entries that this matches group for group.
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
