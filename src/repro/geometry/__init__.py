"""Geometry kernel: boxes, primitives, intersection and distance predicates.

Every index and join in :mod:`repro` speaks one geometric vocabulary:

* :class:`~repro.geometry.aabb.AABB` — d-dimensional axis-aligned bounding
  boxes, the unit of indexing.
* Primitives (:class:`~repro.geometry.primitives.Sphere`,
  :class:`~repro.geometry.primitives.Capsule`, ...) — the shapes simulation
  datasets are made of (neuron segments are capsules, n-body particles are
  points/spheres).
* :class:`~repro.geometry.table.BoxTable` — a whole item set as one immutable
  ``(eids, boxes)`` array pair: what the join plane carries and validates.
* Predicates (the box and primitive methods, :mod:`~repro.geometry.distance`
  and the vectorized :mod:`~repro.geometry.refine`) — exact tests used for
  refinement after the index filter step.
"""

from repro.geometry.aabb import (
    AABB,
    array_to_boxes,
    as_box_array,
    batch_contains,
    batch_contains_points,
    batch_intersects,
    batch_min_distance_to_points,
    boxes_to_array,
    union_all,
)
from repro.geometry.primitives import Capsule, Point, Segment, Sphere
from repro.geometry.distance import (
    point_point_distance,
    point_segment_distance,
    segment_segment_distance,
)
from repro.geometry.refine import (
    batch_box_gaps,
    batch_capsule_gaps,
    batch_segment_distances,
    pack_segments,
)
from repro.geometry.table import BoxTable

__all__ = [
    "AABB",
    "BoxTable",
    "union_all",
    "boxes_to_array",
    "array_to_boxes",
    "as_box_array",
    "batch_intersects",
    "batch_contains",
    "batch_contains_points",
    "batch_min_distance_to_points",
    "Point",
    "Sphere",
    "Segment",
    "Capsule",
    "point_point_distance",
    "point_segment_distance",
    "segment_segment_distance",
    "batch_segment_distances",
    "batch_capsule_gaps",
    "batch_box_gaps",
    "pack_segments",
]
