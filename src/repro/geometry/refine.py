"""Vectorized pair-refinement kernels.

The join subsystem's filter phase produces *candidate pairs* — element id
pairs whose bounding boxes pass a cheap test.  Refinement decides the exact
predicate on the underlying geometry.  Scalar refinement (one
``Capsule.distance_to`` call per candidate) spends more wall clock on Python
dispatch than on arithmetic once joins produce candidates by the hundred
thousand; the kernels below answer a whole candidate array at once.

Each kernel mirrors the arithmetic of its scalar counterpart in
:mod:`repro.geometry.distance` (same Ericson clamped closed form, same
degeneracy thresholds), so scalar and batched refinement agree to float
round-off — the join oracle suite relies on that.
"""

from __future__ import annotations

from typing import Iterable

import numpy as np

from repro.geometry.aabb import gap_norm
from repro.geometry.primitives import Capsule

_EPS = 1e-12


def pack_segments(capsules: Iterable[Capsule]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Pack capsules into ``(starts, ends, radii)`` arrays for the kernels."""
    materialized = capsules if isinstance(capsules, list) else list(capsules)
    n = len(materialized)
    if n == 0:
        return (
            np.empty((0, 0), dtype=np.float64),
            np.empty((0, 0), dtype=np.float64),
            np.empty(0, dtype=np.float64),
        )
    dims = materialized[0].dims
    starts = np.empty((n, dims), dtype=np.float64)
    ends = np.empty((n, dims), dtype=np.float64)
    radii = np.empty(n, dtype=np.float64)
    for row, capsule in enumerate(materialized):
        starts[row] = capsule.a
        ends[row] = capsule.b
        radii[row] = capsule.radius
    return starts, ends, radii


def batch_segment_distances(
    p1: np.ndarray, q1: np.ndarray, p2: np.ndarray, q2: np.ndarray
) -> np.ndarray:
    """Pairwise minimum distances between segments ``p1->q1`` and ``p2->q2``.

    All inputs are ``(n, d)`` arrays; row ``i`` of the result is the distance
    between segment ``p1[i]->q1[i]`` and segment ``p2[i]->q2[i]``.  This is
    the row-wise (zipped) form the join refinement needs — candidate pairs
    arrive as parallel arrays, not as a cross product.

    Vectorized Ericson §5.1.9 with the same branch structure as the scalar
    :func:`repro.geometry.distance.segment_segment_distance`: degenerate
    segments (squared length below ``1e-12``) collapse to point cases, the
    parallel-segment branch picks ``s = 0``, and out-of-range ``t`` values
    re-derive ``s`` from the clamped ``t``.
    """
    p1 = np.asarray(p1, dtype=np.float64)
    q1 = np.asarray(q1, dtype=np.float64)
    p2 = np.asarray(p2, dtype=np.float64)
    q2 = np.asarray(q2, dtype=np.float64)
    d1 = q1 - p1
    d2 = q2 - p2
    r = p1 - p2
    a = np.einsum("nd,nd->n", d1, d1)
    e = np.einsum("nd,nd->n", d2, d2)
    f = np.einsum("nd,nd->n", d2, r)
    c = np.einsum("nd,nd->n", d1, r)
    b = np.einsum("nd,nd->n", d1, d2)

    a_degenerate = a < _EPS
    e_degenerate = e < _EPS
    # Guarded divisors: the masked-out lanes never contribute to the result.
    a_safe = np.where(a_degenerate, 1.0, a)
    e_safe = np.where(e_degenerate, 1.0, e)

    # General case: clamp s on the infinite-line solution, derive t, then
    # re-derive s wherever t left [0, 1].
    denom = a * e - b * b
    s = np.where(denom > _EPS, np.clip((b * f - c * e) / np.where(denom > _EPS, denom, 1.0), 0.0, 1.0), 0.0)
    t = (b * s + f) / e_safe
    t_low = t < 0.0
    t_high = t > 1.0
    s = np.where(t_low, np.clip(-c / a_safe, 0.0, 1.0), s)
    s = np.where(t_high, np.clip((b - c) / a_safe, 0.0, 1.0), s)
    t = np.clip(t, 0.0, 1.0)

    # Degenerate overrides, in the scalar branch order.
    s = np.where(a_degenerate, 0.0, s)
    t = np.where(a_degenerate, np.clip(f / e_safe, 0.0, 1.0), t)
    t = np.where(e_degenerate, 0.0, t)
    s = np.where(e_degenerate & ~a_degenerate, np.clip(-c / a_safe, 0.0, 1.0), s)
    both = a_degenerate & e_degenerate
    s = np.where(both, 0.0, s)
    t = np.where(both, 0.0, t)

    closest1 = p1 + s[:, None] * d1
    closest2 = p2 + t[:, None] * d2
    gap = closest1 - closest2
    return np.sqrt(np.einsum("nd,nd->n", gap, gap))


def batch_capsule_gaps(
    p1: np.ndarray,
    q1: np.ndarray,
    r1: np.ndarray,
    p2: np.ndarray,
    q2: np.ndarray,
    r2: np.ndarray,
) -> np.ndarray:
    """Row-wise surface-to-surface capsule gaps (negative = overlap depth).

    The vectorized counterpart of :meth:`repro.geometry.Capsule.distance_to`:
    core segment distance minus both radii, for every candidate pair at once.
    """
    return batch_segment_distances(p1, q1, p2, q2) - np.asarray(r1) - np.asarray(r2)


def batch_box_gaps(boxes_a: np.ndarray, boxes_b: np.ndarray) -> np.ndarray:
    """The box–box kernel: Euclidean gaps between box pairs, 0 exactly when
    they intersect.

    ``boxes_a`` and ``boxes_b`` are ``(..., 2, d)`` arrays that broadcast
    against each other (parallel ``(n, 2, d)`` rows, or ``(p, 1, 2, d)``
    against ``(1, e, 2, d)`` for a gap matrix); each result equals
    :meth:`repro.geometry.AABB.min_distance_to_box` bit for bit: the
    per-axis gaps ``max(b.lo - a.hi, a.lo - b.hi, 0)`` through
    :func:`repro.geometry.aabb.gap_norm`.
    """
    boxes_a = np.asarray(boxes_a, dtype=np.float64)
    boxes_b = np.asarray(boxes_b, dtype=np.float64)
    return gap_norm([
        np.maximum(np.maximum(boxes_b[..., 0, axis] - boxes_a[..., 1, axis],
                              boxes_a[..., 0, axis] - boxes_b[..., 1, axis]), 0.0)
        for axis in range(boxes_a.shape[-1])
    ])
