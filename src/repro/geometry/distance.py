"""Exact Euclidean distance computations between low-level shapes.

These are the refinement predicates of the library: indexes filter by AABB,
then call into this module to decide exactly.  All functions accept plain
coordinate sequences so they compose with tuples, lists and numpy rows alike.
"""

from __future__ import annotations

import math
from typing import Sequence

_EPS = 1e-12


def point_point_distance(p: Sequence[float], q: Sequence[float]) -> float:
    """Euclidean distance between two points of equal dimensionality."""
    return math.sqrt(sum((a - b) ** 2 for a, b in zip(p, q)))


def point_segment_distance(
    point: Sequence[float], a: Sequence[float], b: Sequence[float]
) -> float:
    """Distance from ``point`` to the segment ``a -> b``.

    Projects the point on the supporting line and clamps the parameter to
    ``[0, 1]``; degenerates gracefully to point/point distance when the
    segment has (near-)zero length.
    """
    ab = [q - p for p, q in zip(a, b)]
    ap = [q - p for p, q in zip(a, point)]
    denom = sum(d * d for d in ab)
    if denom < _EPS:
        # A (near-)degenerate segment still has two endpoints a hair
        # apart; take the nearer one so the distance never exceeds the
        # distance to either endpoint.
        return min(
            point_point_distance(point, a), point_point_distance(point, b)
        )
    t = sum(d * e for d, e in zip(ab, ap)) / denom
    t = max(0.0, min(1.0, t))
    closest = [p + t * d for p, d in zip(a, ab)]
    return point_point_distance(point, closest)


def segment_segment_distance(
    p1: Sequence[float],
    q1: Sequence[float],
    p2: Sequence[float],
    q2: Sequence[float],
) -> float:
    """Minimum distance between segments ``p1 -> q1`` and ``p2 -> q2``.

    Implements the classic clamped closed-form solution (Ericson, *Real-Time
    Collision Detection*, §5.1.9).  Works in any dimension; handles both
    segments degenerating to points.
    """
    d1 = [b - a for a, b in zip(p1, q1)]
    d2 = [b - a for a, b in zip(p2, q2)]
    r = [a - b for a, b in zip(p1, p2)]
    a = sum(x * x for x in d1)
    e = sum(x * x for x in d2)
    f = sum(x * y for x, y in zip(d2, r))

    if a < _EPS and e < _EPS:
        return point_point_distance(p1, p2)
    if a < _EPS:
        s = 0.0
        t = max(0.0, min(1.0, f / e))
    else:
        c = sum(x * y for x, y in zip(d1, r))
        if e < _EPS:
            t = 0.0
            s = max(0.0, min(1.0, -c / a))
        else:
            b = sum(x * y for x, y in zip(d1, d2))
            denom = a * e - b * b
            if denom > _EPS:
                s = max(0.0, min(1.0, (b * f - c * e) / denom))
            else:
                # Parallel segments: pick s = 0 and rely on the t clamp below.
                s = 0.0
            t = (b * s + f) / e
            if t < 0.0:
                t = 0.0
                s = max(0.0, min(1.0, -c / a))
            elif t > 1.0:
                t = 1.0
                s = max(0.0, min(1.0, (b - c) / a))

    c1 = [p + s * d for p, d in zip(p1, d1)]
    c2 = [p + t * d for p, d in zip(p2, d2)]
    return point_point_distance(c1, c2)
