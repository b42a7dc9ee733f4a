"""Primitives and exact distance predicates."""

import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.geometry.aabb import AABB, batch_min_distance_to_points, bounds_min_distance_to_point
from repro.geometry.distance import (
    point_point_distance,
    point_segment_distance,
    segment_segment_distance,
)
from repro.geometry.primitives import Capsule, Point, Segment, Sphere

coords = st.tuples(*[st.floats(-50, 50, allow_nan=False) for _ in range(3)])


class TestPoint:
    def test_bounds_degenerate(self):
        assert Point((1, 2, 3)).bounds().is_degenerate()

    def test_distance(self):
        assert Point((0, 0, 0)).distance_to(Point((3, 4, 0))) == pytest.approx(5.0)

    def test_value_semantics(self):
        assert Point((1, 2, 3)) == Point((1, 2, 3))
        assert hash(Point((1, 2, 3))) == hash(Point((1, 2, 3)))


class TestSphere:
    def test_bounds(self):
        assert Sphere((0, 0, 0), 2.0).bounds() == AABB((-2, -2, -2), (2, 2, 2))

    def test_contains(self):
        sphere = Sphere((0, 0, 0), 1.0)
        assert sphere.contains_point((1, 0, 0))
        assert not sphere.contains_point((1.01, 0, 0))

    def test_sphere_sphere(self):
        assert Sphere((0, 0, 0), 1).intersects_sphere(Sphere((2, 0, 0), 1))
        assert not Sphere((0, 0, 0), 1).intersects_sphere(Sphere((2.1, 0, 0), 1))

    def test_negative_radius(self):
        with pytest.raises(ValueError):
            Sphere((0, 0, 0), -1)


class TestSegment:
    def test_length_midpoint(self):
        seg = Segment((0, 0, 0), (3, 4, 0))
        assert seg.length() == pytest.approx(5.0)
        assert seg.midpoint() == (1.5, 2.0, 0.0)

    def test_bounds_orders_corners(self):
        seg = Segment((3, 0, 5), (1, 4, 2))
        assert seg.bounds() == AABB((1, 0, 2), (3, 4, 5))

    def test_point_distance_interior(self):
        seg = Segment((0, 0, 0), (10, 0, 0))
        assert seg.distance_to_point((5, 3, 0)) == pytest.approx(3.0)

    def test_point_distance_clamped(self):
        seg = Segment((0, 0, 0), (10, 0, 0))
        assert seg.distance_to_point((-3, 4, 0)) == pytest.approx(5.0)


class TestSegmentSegmentDistance:
    def test_crossing(self):
        d = segment_segment_distance((0, 0, 0), (2, 0, 0), (1, -1, 0), (1, 1, 0))
        assert d == pytest.approx(0.0, abs=1e-9)

    def test_skew(self):
        d = segment_segment_distance((0, 0, 0), (1, 0, 0), (0, 1, 1), (1, 1, 1))
        assert d == pytest.approx(math.sqrt(2.0))

    def test_parallel(self):
        d = segment_segment_distance((0, 0, 0), (5, 0, 0), (0, 2, 0), (5, 2, 0))
        assert d == pytest.approx(2.0)

    def test_collinear_disjoint(self):
        d = segment_segment_distance((0, 0, 0), (1, 0, 0), (3, 0, 0), (4, 0, 0))
        assert d == pytest.approx(2.0)

    def test_degenerate_both_points(self):
        d = segment_segment_distance((0, 0, 0), (0, 0, 0), (3, 4, 0), (3, 4, 0))
        assert d == pytest.approx(5.0)

    def test_degenerate_one_point(self):
        d = segment_segment_distance((0, 0, 0), (0, 0, 0), (-5, 3, 0), (5, 3, 0))
        assert d == pytest.approx(3.0)

    @given(coords, coords, coords, coords)
    def test_symmetric(self, p1, q1, p2, q2):
        forward = segment_segment_distance(p1, q1, p2, q2)
        backward = segment_segment_distance(p2, q2, p1, q1)
        assert forward == pytest.approx(backward, abs=1e-6)

    @given(coords, coords, coords, coords)
    def test_lower_bounds_sampled(self, p1, q1, p2, q2):
        """Closed form must never exceed any sampled pairwise distance."""
        exact = segment_segment_distance(p1, q1, p2, q2)
        ts = np.linspace(0.0, 1.0, 9)
        a = np.asarray(p1)
        b = np.asarray(q1)
        c = np.asarray(p2)
        d = np.asarray(q2)
        sampled = min(
            float(np.linalg.norm((a + t * (b - a)) - (c + s * (d - c))))
            for t in ts
            for s in ts
        )
        assert exact <= sampled + 1e-6


class TestCapsule:
    def test_bounds_includes_radius(self):
        cap = Capsule((0, 0, 0), (10, 0, 0), 1.0)
        assert cap.bounds() == AABB((-1, -1, -1), (11, 1, 1))

    def test_contains_point(self):
        cap = Capsule((0, 0, 0), (10, 0, 0), 1.0)
        assert cap.contains_point((5, 0.99, 0))
        assert not cap.contains_point((5, 1.01, 0))
        assert cap.contains_point((-0.5, 0, 0))  # inside the cap

    def test_volume(self):
        cap = Capsule((0, 0, 0), (10, 0, 0), 1.0)
        expected = math.pi * 10 + 4.0 / 3.0 * math.pi
        assert cap.volume() == pytest.approx(expected)

    def test_distance_and_intersection(self):
        a = Capsule((0, 0, 0), (10, 0, 0), 1.0)
        b = Capsule((0, 3, 0), (10, 3, 0), 1.0)
        assert a.distance_to(b) == pytest.approx(1.0)
        assert not a.intersects(b)
        c = Capsule((0, 1.5, 0), (10, 1.5, 0), 1.0)
        assert a.intersects(c)


class TestPointBoxDistance:
    @given(coords)
    def test_matches_aabb_method(self, point):
        box = AABB((-5, -5, -5), (5, 5, 5))
        kernel = batch_min_distance_to_points(np.array([[box.lo, box.hi]]), np.array([point]))
        assert bounds_min_distance_to_point(box.lo, box.hi, point) == kernel[0, 0]
        assert box.min_distance_to_point(point) == kernel[0, 0]

    @given(coords, coords)
    def test_point_point_nonnegative_symmetric(self, p, q):
        assert point_point_distance(p, q) >= 0
        assert point_point_distance(p, q) == pytest.approx(point_point_distance(q, p))

    @given(coords, coords, coords)
    def test_point_segment_bounded_by_endpoints(self, p, a, b):
        d = point_segment_distance(p, a, b)
        assert d <= point_point_distance(p, a) + 1e-9
        assert d <= point_point_distance(p, b) + 1e-9
