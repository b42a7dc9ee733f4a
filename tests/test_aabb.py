"""Unit and property tests for the AABB value type."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.geometry.aabb import (
    AABB,
    batch_min_distance_to_points,
    bounds_min_distance_to_point,
    boxes_to_array,
    union_all,
)
from repro.geometry.refine import batch_box_gaps


def boxes(dims: int = 3, span: float = 100.0):
    """Hypothesis strategy for valid boxes."""

    def build(corners):
        lo = [min(a, b) for a, b in corners]
        hi = [max(a, b) for a, b in corners]
        return AABB(lo, hi)

    coordinate = st.floats(-span, span, allow_nan=False, allow_infinity=False)
    return st.lists(st.tuples(coordinate, coordinate), min_size=dims, max_size=dims).map(build)


class TestConstruction:
    def test_valid(self):
        box = AABB((0, 0), (1, 2))
        assert box.lo == (0.0, 0.0)
        assert box.hi == (1.0, 2.0)
        assert box.dims == 2

    def test_rejects_inverted(self):
        with pytest.raises(ValueError, match="lo > hi"):
            AABB((1, 0), (0, 1))

    def test_rejects_dim_mismatch(self):
        with pytest.raises(ValueError, match="dims"):
            AABB((0, 0), (1, 1, 1))

    def test_rejects_empty(self):
        with pytest.raises(ValueError, match="at least one dimension"):
            AABB((), ())

    def test_immutable(self):
        box = AABB((0,), (1,))
        with pytest.raises(AttributeError):
            box.lo = (5,)

    def test_from_point(self):
        box = AABB.from_point((1, 2, 3))
        assert box.is_degenerate()
        assert box.volume() == 0.0

    def test_from_center_scalar(self):
        box = AABB.from_center((5, 5), 1.0)
        assert box.lo == (4.0, 4.0)
        assert box.hi == (6.0, 6.0)

    def test_from_center_vector(self):
        box = AABB.from_center((5, 5), (1.0, 2.0))
        assert box.lo == (4.0, 3.0)
        assert box.hi == (6.0, 7.0)

    def test_from_center_mismatch(self):
        with pytest.raises(ValueError):
            AABB.from_center((5, 5), (1.0, 2.0, 3.0))


class TestPredicates:
    def test_intersects_overlap(self):
        assert AABB((0, 0), (2, 2)).intersects(AABB((1, 1), (3, 3)))

    def test_intersects_touching_faces(self):
        assert AABB((0, 0), (1, 1)).intersects(AABB((1, 0), (2, 1)))

    def test_disjoint(self):
        assert not AABB((0, 0), (1, 1)).intersects(AABB((2, 2), (3, 3)))

    def test_contains_point_boundary(self):
        box = AABB((0, 0), (1, 1))
        assert box.contains_point((0, 0))
        assert box.contains_point((1, 1))
        assert not box.contains_point((1.0001, 0.5))

    def test_contains_box(self):
        outer = AABB((0, 0), (10, 10))
        assert outer.contains_box(AABB((1, 1), (9, 9)))
        assert outer.contains_box(outer)
        assert not outer.contains_box(AABB((1, 1), (11, 9)))


class TestCombination:
    def test_union(self):
        union = AABB((0, 0), (1, 1)).union(AABB((2, 2), (3, 3)))
        assert union == AABB((0, 0), (3, 3))

    def test_intersection_some(self):
        overlap = AABB((0, 0), (2, 2)).intersection(AABB((1, 1), (3, 3)))
        assert overlap == AABB((1, 1), (2, 2))

    def test_intersection_none(self):
        assert AABB((0, 0), (1, 1)).intersection(AABB((5, 5), (6, 6))) is None

    def test_overlap_volume(self):
        assert AABB((0, 0), (2, 2)).overlap_volume(AABB((1, 1), (3, 3))) == 1.0
        assert AABB((0, 0), (1, 1)).overlap_volume(AABB((5, 5), (6, 6))) == 0.0

    def test_enlargement(self):
        box = AABB((0, 0), (1, 1))
        assert box.enlargement(AABB((0, 0), (1, 1))) == 0.0
        assert box.enlargement(AABB((0, 0), (2, 1))) == pytest.approx(1.0)

    def test_expanded(self):
        grown = AABB((0, 0), (1, 1)).expanded(0.5)
        assert grown == AABB((-0.5, -0.5), (1.5, 1.5))

    def test_union_all(self):
        hull = union_all([AABB((0,), (1,)), AABB((5,), (6,)), AABB((-2,), (-1,))])
        assert hull == AABB((-2,), (6,))

    def test_union_all_empty(self):
        with pytest.raises(ValueError):
            union_all([])


class TestDistances:
    def test_min_distance_inside(self):
        assert AABB((0, 0), (2, 2)).min_distance_to_point((1, 1)) == 0.0

    def test_min_distance_outside(self):
        assert AABB((0, 0), (1, 1)).min_distance_to_point((4, 5)) == pytest.approx(5.0)

    def test_max_distance(self):
        assert AABB((0, 0), (1, 1)).max_distance_to_point((0, 0)) == pytest.approx(
            math.sqrt(2)
        )

    def test_box_gap(self):
        a = AABB((0, 0), (1, 1))
        b = AABB((4, 5), (6, 7))
        assert a.min_distance_to_box(b) == pytest.approx(5.0)
        assert a.min_distance_to_box(a) == 0.0


class TestValueSemantics:
    def test_eq_hash(self):
        a = AABB((0, 1), (2, 3))
        b = AABB((0, 1), (2, 3))
        assert a == b
        assert hash(a) == hash(b)
        assert a != AABB((0, 1), (2, 4))

    def test_iter_unpack(self):
        lo, hi = AABB((1, 2), (3, 4))
        assert lo == (1.0, 2.0)
        assert hi == (3.0, 4.0)

    def test_repr(self):
        assert "AABB" in repr(AABB((0,), (1,)))


class TestProperties:
    @given(boxes(), boxes())
    def test_union_contains_both(self, a, b):
        union = a.union(b)
        assert union.contains_box(a)
        assert union.contains_box(b)

    @given(boxes(), boxes())
    def test_intersects_symmetric(self, a, b):
        assert a.intersects(b) == b.intersects(a)

    @given(boxes(), boxes())
    def test_intersection_iff_intersects(self, a, b):
        assert (a.intersection(b) is not None) == a.intersects(b)

    @given(boxes(), boxes())
    def test_overlap_volume_matches_intersection(self, a, b):
        overlap = a.intersection(b)
        volume = a.overlap_volume(b)
        if overlap is None:
            assert volume == 0.0
        else:
            assert volume == pytest.approx(overlap.volume(), abs=1e-6)

    @given(boxes())
    def test_volume_margin_nonnegative(self, box):
        assert box.volume() >= 0.0
        assert box.margin() >= 0.0

    @given(boxes(), st.floats(0, 10, allow_nan=False))
    def test_expanded_contains_original(self, box, amount):
        assert box.expanded(amount).contains_box(box)

    @given(boxes(), boxes())
    def test_min_distance_zero_iff_intersecting(self, a, b):
        gap = a.min_distance_to_box(b)
        if a.intersects(b):
            assert gap == 0.0
        else:
            assert gap > 0.0


# Per-axis gaps from 0 (touching) and from the subnormal range to far beyond
# where a square overflows: the range guard's domain.
gap = st.one_of(st.just(0.0), st.floats(1e-320, 1e200, allow_subnormal=True))


def gapped_pair(gaps: list[float], flips: list[bool]) -> tuple[AABB, AABB]:
    """Two boxes whose per-axis gap is exactly ``gaps`` (B beyond A's high
    face, or below A's low face where ``flips``): every corner of the gap
    sits on 0, so no subtraction rounds it away."""
    a_lo, a_hi, b_lo, b_hi = [], [], [], []
    for g, flip in zip(gaps, flips):
        if flip:
            a_lo.append(0.0), a_hi.append(1.0), b_lo.append(-g - 1.0), b_hi.append(-g)
        else:
            a_lo.append(-1.0), a_hi.append(0.0), b_lo.append(g), b_hi.append(g + 1.0)
    return AABB(a_lo, a_hi), AABB(b_lo, b_hi)


class TestOneDistanceFormula:
    """Scalar and kernel distances are one formula with one range guard:
    gap 0 exactly when the boxes touch, positive and finite otherwise, and
    the same bits on both paths — with guarded rows mixed among plain ones."""

    @pytest.mark.filterwarnings("ignore:overflow encountered")  # the guard's domain
    @settings(max_examples=300)
    @given(rows=st.integers(1, 4).flatmap(lambda d: st.lists(
        st.tuples(st.lists(gap, min_size=d, max_size=d), st.lists(st.booleans(), min_size=d, max_size=d)),
        min_size=1, max_size=8)))
    def test_the_range_guard(self, rows):
        pairs = [gapped_pair(gaps, flips) for gaps, flips in rows]
        kernel = batch_box_gaps(boxes_to_array([a for a, _ in pairs]), boxes_to_array([b for _, b in pairs]))
        # The point on B's near corner, against A: the same per-axis gaps.
        points = np.array([[bh if f else bl for bl, bh, f in zip(b.lo, b.hi, flips)]
                           for (_, b), (_, flips) in zip(pairs, rows)])
        near = [bounds_min_distance_to_point(a.lo, a.hi, p) for (a, _), p in zip(pairs, points.tolist())]
        for (a, b), row, (gaps, _), p, d in zip(pairs, kernel.tolist(), rows, points, near):
            scalar = a.min_distance_to_box(b)
            assert scalar == row  # the same bits
            assert (scalar == 0.0) == a.intersects(b) == (max(gaps) == 0.0)
            assert math.isfinite(scalar) and scalar >= max(gaps)
            assert batch_min_distance_to_points(boxes_to_array([a]), p[None])[0, 0] == a.min_distance_to_point(p)
        for row, p in enumerate(points):
            assert batch_min_distance_to_points(boxes_to_array([a for a, _ in pairs]), p[None])[0, row] == near[row]
