"""Common interface for every spatial index in the library.

An *item* is an ``(element_id, AABB)`` pair — indexes never own geometry;
datasets keep the id-to-shape mapping and run exact refinement on the ids an
index returns.  This mirrors the filter/refine split of real spatial engines
and keeps every index comparable in the benchmarks.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from itertools import chain
from typing import Iterable, Sequence

import numpy as np

from repro.geometry.aabb import AABB, array_to_boxes
from repro.instrumentation.counters import Counters

Item = tuple[int, AABB]
# One element's net motion over a step: ``(element_id, old_box, new_box)``.
Move = tuple[int, AABB, AABB]
# kNN results are (distance, element_id) pairs sorted ascending by
# ``(distance, element_id)`` — ties at equal distance are broken by the
# smaller id.  Every exact index (and every vectorized batch kernel)
# implements this, so oracle comparisons can require list equality instead
# of comparing distance multisets.  The approximate tier
# (``SpillTree.approx_batch_knn``) orders whatever candidates it surfaces the
# same way but makes no claim of matching the oracle's answer set.
KNNResult = list[tuple[float, int]]


def as_aabb_list(boxes: np.ndarray | Sequence[AABB]) -> list[AABB]:
    """Normalize a batch of range queries to a list of AABBs."""
    if isinstance(boxes, np.ndarray):
        if boxes.ndim != 3 or boxes.shape[1] != 2:
            raise ValueError(f"box array must have shape (m, 2, d), got {boxes.shape}")
        return array_to_boxes(boxes)
    return list(boxes)


def as_point_list(points: np.ndarray | Sequence[Sequence[float]]) -> list[tuple[float, ...]]:
    """Normalize a batch of kNN/point queries to a list of coordinate tuples."""
    if isinstance(points, np.ndarray):
        if points.ndim != 2:
            raise ValueError(f"point array must have shape (m, d), got {points.shape}")
        return [tuple(row) for row in points.tolist()]
    return [tuple(float(c) for c in p) for p in points]


class SpatialIndex(ABC):
    """Abstract base class of all indexes.

    Subclasses must implement bulk loading, single-item maintenance and the
    two query primitives the paper centres on (range and kNN).  They must
    charge work to ``self.counters``.
    """

    def __init__(self, counters: Counters | None = None) -> None:
        self.counters = counters if counters is not None else Counters()

    # -- maintenance ---------------------------------------------------------

    @abstractmethod
    def bulk_load(self, items: Iterable[Item]) -> None:
        """(Re)build the index from scratch over ``items``."""

    @abstractmethod
    def insert(self, eid: int, box: AABB) -> None:
        """Add one element."""

    @abstractmethod
    def delete(self, eid: int, box: AABB) -> None:
        """Remove one element previously inserted with exactly ``box``.

        Raises ``KeyError`` when the element is not present.
        """

    def update(self, eid: int, old_box: AABB, new_box: AABB) -> None:
        """Move one element.  Default implementation is delete + insert."""
        self.delete(eid, old_box)
        self.insert(eid, new_box)
        self.counters.updates += 1

    def apply_moves(self, moves: Iterable[Move]) -> None:
        """Apply one step's motion: at most one ``(eid, old_box, new_box)``
        per element (a repeated id is refused before anything moves).

        Equivalent to calling :meth:`update` per move, in order — which is
        what this default does, so it is **not atomic**: a move refused
        half-way (stale ``old_box``, unknown id) leaves the earlier ones
        applied.  Overrides may do better on both counts;
        :class:`~repro.core.uniform_grid.UniformGrid` validates the whole
        batch first and writes it in one pass.
        """
        for eid, old_box, new_box in unique_moves(moves):
            self.update(eid, old_box, new_box)

    # -- queries --------------------------------------------------------------

    @abstractmethod
    def range_query(self, box: AABB) -> list[int]:
        """Ids of all elements whose stored box intersects ``box``."""

    @abstractmethod
    def knn(self, point: Sequence[float], k: int) -> KNNResult:
        """The ``k`` elements nearest to ``point`` by box distance.

        Results are sorted ascending by ``(distance, element_id)``; when
        several elements tie at the k-th distance the ones with the smallest
        ids are reported.  The ordering is part of the contract — it makes
        every exact implementation's answer bit-identical to the LinearScan
        oracle's (up to float noise in the distances themselves); avowedly
        approximate indexes order their candidates the same way but may
        surface a different answer set.
        """

    # -- batch queries ---------------------------------------------------------
    #
    # Simulation analyses issue queries by the million per step (synapse
    # detection probes every branch); the batch entry points let indexes
    # amortize traversal and run vectorized kernels.  The defaults below are
    # the naive per-query loop, so every index is batch-capable; LinearScan,
    # the grids and the R-tree family override them with vectorized paths.
    # Subclass overrides must return the same answer the loop would:
    # identical ids per range query (order within one result list is
    # unspecified) and, for kNN, the identical ``(distance, id)`` list —
    # the deterministic ``(distance, id)`` tie-break above applies to batch
    # kernels exactly as it does to the scalar path.

    def batch_range_query(self, boxes: np.ndarray | Sequence[AABB]) -> list[list[int]]:
        """Run one range query per box; ``boxes`` is ``(m, 2, d)`` or AABBs."""
        return [self.range_query(box) for box in as_aabb_list(boxes)]

    def batch_range_hits(
        self, boxes: np.ndarray | Sequence[AABB]
    ) -> tuple[np.ndarray, np.ndarray]:
        """:meth:`batch_range_query` as the CSR pair ``(offsets, ids)``, both
        int64: query ``i``'s ids are ``ids[offsets[i]:offsets[i + 1]]``, in the
        order the lists hold them.  Array consumers (the grid join) read this
        and never see a Python list; indexes whose kernel produces arrays
        override it and derive the lists from it."""
        return csr_hits(self.batch_range_query(boxes))

    def batch_knn(self, points: np.ndarray | Sequence[Sequence[float]], k: int) -> list[KNNResult]:
        """Run one kNN query per point; ``points`` is ``(m, d)`` or sequences."""
        return [self.knn(point, k) for point in as_point_list(points)]

    def supports_batch_kind(self, kind: str) -> bool:
        """Capability probe: does this index vectorize batches of ``kind``?

        ``kind`` is ``"range"``, ``"point"`` (both served by
        ``batch_range_query`` — stabbing queries are degenerate ranges),
        ``"knn"``, or ``"approx_knn"``.  For the exact kinds, True when the
        class overrides the corresponding batch method, i.e. batching buys
        more than the base class's per-query loop; for ``"approx_knn"``,
        True when the class provides a defeatist ``approx_batch_knn``
        kernel (the spill tree).  The query-session cost heuristic uses
        this to route batches on loop-only indexes through the scalar path
        and to decide whether an ``accuracy`` target can be honoured
        approximately at all.
        """
        if kind in ("range", "point"):
            return type(self).batch_range_query is not SpatialIndex.batch_range_query
        if kind == "knn":
            return type(self).batch_knn is not SpatialIndex.batch_knn
        if kind == "approx_knn":
            return getattr(type(self), "approx_batch_knn", None) is not None
        raise ValueError(f"unknown batch kind: {kind!r}")

    # -- introspection ---------------------------------------------------------

    def export_items(self) -> tuple[np.ndarray, np.ndarray] | None:
        """The current contents as packed ``(eids, boxes)`` arrays, or None.

        ``eids`` is ``(n,) int64``, ``boxes`` ``(n, 2, d) float64`` — the
        same packed layout the batch kernels use.  This is the payload the
        serving tier ships through ``multiprocessing.shared_memory`` so a
        long-lived worker pool can rebuild a query-equivalent snapshot
        without ever pickling the index (:mod:`repro.serving`).  Indexes
        whose storage cannot be enumerated cheaply return ``None``; the
        pool then falls back to single-process execution.
        """
        return None

    @abstractmethod
    def __len__(self) -> int:
        """Number of indexed elements."""

    def memory_bytes(self) -> int:
        """Approximate structure size in bytes (for cost accounting)."""
        return 0


def csr_hits(lists: Sequence[Sequence[int]]) -> tuple[np.ndarray, np.ndarray]:
    """Per-query id lists as the ``(offsets (m + 1,), ids (h,))`` int64 pair."""
    offsets = np.zeros(len(lists) + 1, dtype=np.int64)
    np.cumsum([len(hits) for hits in lists], out=offsets[1:])
    return offsets, np.fromiter(chain.from_iterable(lists), np.int64, int(offsets[-1]))


def validate_items(items: Iterable[Item]) -> list[Item]:
    """Materialize and sanity-check a bulk-load input.

    Ensures ids are unique and dimensionalities agree, returning a list the
    caller can iterate multiple times.
    """
    materialized = list(items)
    if not materialized:
        return materialized
    dims = materialized[0][1].dims
    seen: set[int] = set()
    for eid, box in materialized:
        if box.dims != dims:
            raise ValueError(f"element {eid} has {box.dims} dims, expected {dims}")
        if eid in seen:
            raise ValueError(f"duplicate element id {eid}")
        seen.add(eid)
    return materialized


def unique_moves(moves: Iterable[Move]) -> list[Move]:
    """Materialize an :meth:`SpatialIndex.apply_moves` input, refusing a
    batch that names an element twice."""
    materialized = moves if isinstance(moves, list) else list(moves)
    if len({move[0] for move in materialized}) != len(materialized):
        raise ValueError("a move batch may name each element at most once")
    return materialized
