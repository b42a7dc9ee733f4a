"""d-dimensional axis-aligned bounding boxes (AABBs).

The AABB is the unit of indexing throughout :mod:`repro`: every spatial
element is filtered via its bounding box, and exact geometry is only consulted
during refinement.  Boxes are plain immutable value objects built on tuples of
floats — deliberately *not* numpy arrays, because index inner loops touch
individual coordinates and small-tuple access is both faster and allocation
free compared to 0-d array indexing.
"""

from __future__ import annotations

import math
import sys
from typing import Iterable, Iterator, Sequence

import numpy as np

# The smallest normal double: a sum of squares below it has lost bits to
# underflow (or is 0 although a gap is not).
_TINY = sys.float_info.min


class AABB:
    """An axis-aligned box ``[lo, hi]`` in ``dims`` dimensions.

    Degenerate boxes (``lo == hi`` in some or all dimensions) are valid and
    represent points or axis-aligned segments/rectangles embedded in space.

    The class is a value type: instances compare by coordinates, hash, and are
    safe to share between indexes.
    """

    __slots__ = ("lo", "hi")

    def __init__(self, lo: Sequence[float], hi: Sequence[float]) -> None:
        lo = tuple(float(c) for c in lo)
        hi = tuple(float(c) for c in hi)
        if len(lo) != len(hi):
            raise ValueError(f"lo has {len(lo)} dims but hi has {len(hi)}")
        if not lo:
            raise ValueError("AABB needs at least one dimension")
        for axis, (a, b) in enumerate(zip(lo, hi)):
            if a > b:
                raise ValueError(f"lo > hi on axis {axis}: {a} > {b}")
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("AABB is immutable")

    # -- constructors ------------------------------------------------------

    @classmethod
    def from_point(cls, point: Sequence[float]) -> "AABB":
        """A degenerate box covering a single point."""
        return cls(point, point)

    @classmethod
    def from_center(cls, center: Sequence[float], half_extent: float | Sequence[float]) -> "AABB":
        """A box centered at ``center`` extending ``half_extent`` per axis."""
        if isinstance(half_extent, (int, float)):
            half = [float(half_extent)] * len(center)
        else:
            half = [float(h) for h in half_extent]
        if len(half) != len(center):
            raise ValueError("half_extent dimensionality mismatch")
        lo = [c - h for c, h in zip(center, half)]
        hi = [c + h for c, h in zip(center, half)]
        return cls(lo, hi)

    # -- basic properties --------------------------------------------------

    @property
    def dims(self) -> int:
        return len(self.lo)

    def center(self) -> tuple[float, ...]:
        return tuple((a + b) / 2.0 for a, b in zip(self.lo, self.hi))

    def extents(self) -> tuple[float, ...]:
        """Side length per axis."""
        return tuple(b - a for a, b in zip(self.lo, self.hi))

    def volume(self) -> float:
        """Product of side lengths (area in 2-d, length in 1-d)."""
        vol = 1.0
        for a, b in zip(self.lo, self.hi):
            vol *= b - a
        return vol

    def margin(self) -> float:
        """Sum of side lengths — the R*-tree 'perimeter' split criterion."""
        return sum(b - a for a, b in zip(self.lo, self.hi))

    def is_degenerate(self) -> bool:
        """True if the box has zero extent in every dimension (a point)."""
        return all(a == b for a, b in zip(self.lo, self.hi))

    # -- predicates ---------------------------------------------------------

    def intersects(self, other: "AABB") -> bool:
        """Closed-interval overlap test (shared faces count as intersecting)."""
        for a_lo, a_hi, b_lo, b_hi in zip(self.lo, self.hi, other.lo, other.hi):
            if a_lo > b_hi or b_lo > a_hi:
                return False
        return True

    def contains_point(self, point: Sequence[float]) -> bool:
        for a, b, p in zip(self.lo, self.hi, point):
            if p < a or p > b:
                return False
        return True

    def contains_box(self, other: "AABB") -> bool:
        for a_lo, a_hi, b_lo, b_hi in zip(self.lo, self.hi, other.lo, other.hi):
            if b_lo < a_lo or b_hi > a_hi:
                return False
        return True

    # -- combination --------------------------------------------------------

    def union(self, other: "AABB") -> "AABB":
        lo = tuple(min(a, b) for a, b in zip(self.lo, other.lo))
        hi = tuple(max(a, b) for a, b in zip(self.hi, other.hi))
        return AABB(lo, hi)

    def intersection(self, other: "AABB") -> "AABB | None":
        """The overlap box, or ``None`` when the boxes are disjoint."""
        lo = tuple(max(a, b) for a, b in zip(self.lo, other.lo))
        hi = tuple(min(a, b) for a, b in zip(self.hi, other.hi))
        for a, b in zip(lo, hi):
            if a > b:
                return None
        return AABB(lo, hi)

    def overlap_volume(self, other: "AABB") -> float:
        vol = 1.0
        for a_lo, a_hi, b_lo, b_hi in zip(self.lo, self.hi, other.lo, other.hi):
            side = min(a_hi, b_hi) - max(a_lo, b_lo)
            if side <= 0.0:
                return 0.0
            vol *= side
        return vol

    def enlargement(self, other: "AABB") -> float:
        """Volume growth needed to absorb ``other`` — Guttman's insert metric."""
        return self.union(other).volume() - self.volume()

    def expanded(self, amount: float) -> "AABB":
        """A copy grown by ``amount`` on every face (shrunk when negative)."""
        lo = tuple(a - amount for a in self.lo)
        hi = tuple(b + amount for b in self.hi)
        return AABB(lo, hi)

    # -- distances ----------------------------------------------------------

    def min_distance_to_point(self, point: Sequence[float]) -> float:
        """Euclidean distance from ``point`` to the nearest face (0 inside):
        :func:`batch_min_distance_to_points` on one row, bit for bit."""
        return bounds_min_distance_to_point(self.lo, self.hi, point)

    def max_distance_to_point(self, point: Sequence[float]) -> float:
        """Euclidean distance from ``point`` to the farthest corner."""
        return _norm([max(abs(p - a), abs(p - b)) for a, b, p in zip(self.lo, self.hi, point)])

    def min_distance_to_box(self, other: "AABB") -> float:
        """Euclidean gap between two boxes: 0 exactly when they intersect,
        and :func:`repro.geometry.refine.batch_box_gaps` on one row, bit for
        bit."""
        return _norm([
            b_lo - a_hi if b_lo > a_hi else a_lo - b_hi if a_lo > b_hi else 0.0
            for a_lo, a_hi, b_lo, b_hi in zip(self.lo, self.hi, other.lo, other.hi)
        ])

    # -- dunder -------------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, AABB):
            return NotImplemented
        return self.lo == other.lo and self.hi == other.hi

    def __hash__(self) -> int:
        return hash((self.lo, self.hi))

    def __iter__(self) -> Iterator[tuple[float, ...]]:
        yield self.lo
        yield self.hi

    def __repr__(self) -> str:
        return f"AABB(lo={self.lo}, hi={self.hi})"


def bounds_min_distance_to_point(
    lo: Sequence[float], hi: Sequence[float], point: Sequence[float]
) -> float:
    """:meth:`AABB.min_distance_to_point` over bare ``lo``/``hi`` sequences.

    The one scalar point–box distance: array-backed nodes (a mapped
    :class:`~repro.indexes.disk_rtree.DiskRTree` page read through
    ``tolist()``) and unbounded regions (a KD-tree cell) get distances
    bit-identical to the object path without constructing a box.
    """
    return _norm([a - p if p < a else p - b if p > b else 0.0 for a, b, p in zip(lo, hi, point)])


def _sum_of_squares(gaps):
    """``Σ g²`` **in axis order**: ``g0*g0 + g1*g1 + ...`` left to right."""
    total = gaps[0] * gaps[0]
    for gap in gaps[1:]:
        total += gap * gap
    return total


def _norm(gaps: list[float]) -> float:
    """:func:`gap_norm` on one row: the same operations in the same order,
    so the same bits (``0.0 + g0*g0`` is ``g0*g0``)."""
    total = 0.0
    for gap in gaps:
        total += gap * gap
    if total < _TINY or total == math.inf:
        top = max(gaps)
        if top == 0.0 or top == math.inf:
            return top
        return top * math.sqrt(_sum_of_squares([gap / top for gap in gaps]))
    return math.sqrt(total)


def union_all(boxes: Iterable[AABB]) -> AABB:
    """The minimum bounding box of a non-empty collection of boxes."""
    it = iter(boxes)
    try:
        acc = next(it)
    except StopIteration:
        raise ValueError("union_all of an empty collection") from None
    for box in it:
        acc = acc.union(box)
    return acc


# -- vectorized batch kernels ------------------------------------------------
#
# The batch-query engine (:mod:`repro.engine`) works on dense ndarrays of
# boxes rather than AABB objects: a collection of m boxes in d dimensions is
# an ``(m, 2, d)`` float64 array where ``[:, 0, :]`` holds the lows and
# ``[:, 1, :]`` the highs.  The kernels below are the vectorized counterparts
# of the scalar predicates above and share their closed-interval semantics.


def boxes_to_array(boxes: Iterable[AABB], dims: int | None = None) -> np.ndarray:
    """Pack AABBs into an ``(m, 2, d)`` float64 array (``m`` may be 0).

    Packs through one flat coordinate list — measurably faster than
    ``np.array`` over per-box tuple pairs, and every batch kernel's bulk
    loader funnels through here.
    """
    materialized = boxes if isinstance(boxes, list) else list(boxes)
    if not materialized:
        return np.empty((0, 2, dims if dims is not None else 0), dtype=np.float64)
    flat: list[float] = []
    extend = flat.extend
    for box in materialized:
        extend(box.lo)
        extend(box.hi)
    return np.array(flat, dtype=np.float64).reshape(len(materialized), 2, materialized[0].dims)


def array_to_boxes(arr: np.ndarray) -> list[AABB]:
    """Unpack an ``(m, 2, d)`` array back into a list of AABBs."""
    return [AABB(row[0], row[1]) for row in arr]


def as_box_array(boxes: np.ndarray | Sequence[AABB], dims: int | None = None) -> np.ndarray:
    """Coerce either an ``(m, 2, d)`` ndarray or a sequence of AABBs.

    ndarray inputs are validated for shape but not for ``lo <= hi`` — batch
    callers own that contract, exactly as AABB construction owns it for the
    scalar path.
    """
    if isinstance(boxes, np.ndarray):
        arr = np.asarray(boxes, dtype=np.float64)
        if arr.ndim != 3 or arr.shape[1] != 2:
            raise ValueError(
                f"box array must have shape (m, 2, d), got {arr.shape}"
            )
        return arr
    return boxes_to_array(boxes, dims=dims)


def as_point_array(points: np.ndarray | Sequence[Sequence[float]]) -> np.ndarray:
    """Coerce either an ``(m, d)`` ndarray or a sequence of point sequences.

    ndarray inputs pass through without per-coordinate Python churn — batch
    kNN/point callers hand these in on the hot path.
    """
    if isinstance(points, np.ndarray):
        arr = np.asarray(points, dtype=np.float64)
        if arr.ndim != 2:
            raise ValueError(f"point array must have shape (m, d), got {arr.shape}")
        return arr
    materialized = [tuple(float(c) for c in p) for p in points]
    if not materialized:
        return np.empty((0, 0), dtype=np.float64)
    return np.array(materialized, dtype=np.float64)


def _fold_axes(lo_rows: np.ndarray, hi_cols: np.ndarray, lo_cols: np.ndarray,
               hi_rows: np.ndarray) -> np.ndarray:
    """``out[i, j]``: on every axis ``lo_rows[i] <= hi_cols[j]`` and
    ``lo_cols[j] <= hi_rows[i]``, for ``(m, d)`` row and ``(n, d)`` column
    operands.  Folded into one ``(m, n)`` mask an axis at a time: no
    ``(m, n, d)`` temporary and no reduction over a trailing axis of length
    ``d``, which is most of the cost of a tree-node visit."""
    if not lo_rows.shape[1] == hi_cols.shape[1] == lo_cols.shape[1] == hi_rows.shape[1]:
        raise ValueError(f"operands differ in dims: {lo_rows.shape[1]} and {hi_cols.shape[1]}")
    out = np.ones((lo_rows.shape[0], hi_cols.shape[0]), dtype=bool)
    for axis in range(lo_rows.shape[1]):
        out &= lo_rows[:, None, axis] <= hi_cols[None, :, axis]
        out &= lo_cols[None, :, axis] <= hi_rows[:, None, axis]
    return out


def batch_intersects(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Pairwise closed-interval overlap of two box arrays.

    ``a`` is ``(m, 2, d)``, ``b`` is ``(n, 2, d)``; the result is an
    ``(m, n)`` bool matrix with ``out[i, j] == a_i.intersects(b_j)``.
    """
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    return _fold_axes(a[:, 0], b[:, 1], b[:, 0], a[:, 1])


def batch_contains(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Pairwise box containment: ``out[i, j] == a_i.contains_box(b_j)``."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    return _fold_axes(a[:, 0], b[:, 0], b[:, 1], a[:, 1])


def batch_contains_points(a: np.ndarray, points: np.ndarray) -> np.ndarray:
    """Pairwise point containment: ``out[i, j] == a_i.contains_point(p_j)``.

    ``points`` is ``(n, d)``.
    """
    a = np.asarray(a, dtype=np.float64)
    p = np.asarray(points, dtype=np.float64)
    return _fold_axes(a[:, 0], p, p, a[:, 1])


def gap_norm(gaps: Sequence[np.ndarray]) -> np.ndarray:
    """The library's one Euclidean distance formula, over per-axis gaps.

    ``gaps`` holds one array of non-negative gaps per axis, in axis order
    (all of one shape).  The squares are summed **in axis order** and the
    sum's ``sqrt`` taken; these are correctly rounded IEEE operations, so
    the scalar distances (:meth:`AABB.min_distance_to_point`,
    :meth:`AABB.min_distance_to_box`, which run the same steps in Python)
    equal this kernel bit for bit.  A guard keeps the whole double range: a
    row whose sum fell below the smallest normal double while some gap is
    positive (underflow) or overflowed to ``inf`` is recomputed as
    ``m * sqrt(Σ (g/m)²)`` with ``m`` the row's largest gap (``inf`` when
    ``m`` is).  So a distance is 0 exactly when every gap is 0 (the boxes
    touch), and finite whenever the gaps are.  A batch whose sums are all
    normal pays two reductions for the guard; only flagged rows pay more.
    """
    total = _sum_of_squares(gaps)
    odd = ()
    if total.size and not (np.minimum.reduce(total, None) >= _TINY
                           and np.maximum.reduce(total, None) < math.inf):
        flagged = gaps[0] > 0.0
        for gap in gaps[1:]:
            flagged |= gap > 0.0
        flagged &= total < _TINY
        flagged |= total == math.inf
        odd = np.flatnonzero(flagged)
    out = np.sqrt(total, out=total)
    if len(odd):
        rows = [gap.ravel()[odd] for gap in gaps]
        top = np.maximum.reduce(rows)
        with np.errstate(invalid="ignore"):  # inf / inf: those rows are inf
            rescaled = top * np.sqrt(_sum_of_squares([gap / top for gap in rows]))
        out.ravel()[odd] = np.where(top == math.inf, top, rescaled)
    return out


def batch_min_distance_to_points(boxes: np.ndarray, points: np.ndarray) -> np.ndarray:
    """The point–box kernel: ``out[i, j] == box_j.min_distance_to_point(p_i)``,
    bit for bit.

    ``points`` is ``(m, d)``, ``boxes`` is ``(n, 2, d)``; the result is
    ``(m, n)``: the per-axis gaps ``max(lo - p, p - hi, 0)`` through
    :func:`gap_norm`.
    """
    boxes = np.asarray(boxes, dtype=np.float64)
    columns = np.asarray(points, dtype=np.float64).T[:, :, None]
    return gap_norm([np.maximum(np.maximum(lo - p, p - hi), 0.0)
                     for lo, hi, p in zip(boxes[:, 0].T, boxes[:, 1].T, columns)])
