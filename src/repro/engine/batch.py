"""The batch query engine: array-in, array-out query execution.

Simulation analyses are batch-shaped: synapse detection probes every neuron
branch, in-situ visualization samples a whole grid of windows, and monitoring
fires "thousands of range queries ... at locations that cannot be
anticipated" between any two steps (§2.2).  Issuing those queries one
``range_query`` call at a time spends more wall clock on Python dispatch than
on index work.  :class:`BatchQueryEngine` is the front door for the batched
alternative: it normalizes query batches (ndarrays or object sequences),
optionally collapses duplicate queries, and hands the whole batch to the
index's vectorized ``batch_range_query`` / ``batch_knn`` kernels.

The engine is deliberately stateless with respect to results — it owns
normalization, dedup and accounting, while the indexes own the kernels —
so future sharding/async layers can wrap the same interface.

Since the :class:`~repro.engine.session.QuerySession` redesign the engine is
the **kernel layer**, not the public entry point: sessions and their
executors construct one per batch, and application code talks to the
session.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from repro.geometry.aabb import AABB, as_box_array, as_point_array
from repro.indexes.base import KNNResult, SpatialIndex


@dataclass
class BatchStats:
    """Tallies of the engine's work, for benchmarks and capacity planning.

    The out-of-core fields mirror :class:`~repro.joins.spec.JoinStats`:
    ``budget_chunks`` counts batches the session split to honour its
    :class:`~repro.exec.budget.MemoryBudget`, ``tiles_spilled`` /
    ``spill_bytes_written`` / ``spill_bytes_read`` any spill traffic charged
    while serving batches, ``zero_copy_reads`` / ``mapped_bytes`` the
    zero-copy storage telemetry (reads served as mmap views), and
    ``budget_high_water`` is a gauge (merges take the max).

    The approximate-kNN fields (:mod:`repro.approx`) follow the same split:
    ``approx_descents`` / ``leaves_scanned`` count defeatist work served
    through the engine, and ``recall_estimate`` is a gauge — the *lowest*
    calibrated recall any approximate batch was routed with (merges take the
    min; it stays 1.0 while every answer is exact).
    """

    batches: int = 0
    queries: int = 0
    deduplicated: int = 0  # queries answered by copying another query's result
    budget_chunks: int = 0
    tiles_spilled: int = 0
    spill_bytes_written: int = 0
    spill_bytes_read: int = 0
    zero_copy_reads: int = 0
    mapped_bytes: int = 0
    budget_high_water: int = 0
    approx_descents: int = 0
    leaves_scanned: int = 0
    recall_estimate: float = 1.0

    def merge(self, other: "BatchStats") -> None:
        self.batches += other.batches
        self.queries += other.queries
        self.deduplicated += other.deduplicated
        self.budget_chunks += other.budget_chunks
        self.tiles_spilled += other.tiles_spilled
        self.spill_bytes_written += other.spill_bytes_written
        self.spill_bytes_read += other.spill_bytes_read
        self.zero_copy_reads += other.zero_copy_reads
        self.mapped_bytes += other.mapped_bytes
        self.budget_high_water = max(self.budget_high_water, other.budget_high_water)
        self.approx_descents += other.approx_descents
        self.leaves_scanned += other.leaves_scanned
        self.recall_estimate = min(self.recall_estimate, other.recall_estimate)


@dataclass
class BatchQueryEngine:
    """Executes arrays of range / kNN / point queries against one index.

    Parameters
    ----------
    index:
        Any :class:`~repro.indexes.base.SpatialIndex`.  Indexes with
        vectorized batch kernels run at array speed — LinearScan, the grids
        and the R-tree family for both query kinds, plus the KD-tree for
        batch kNN — everything else falls back to the base class's
        per-query loop, so the engine works uniformly across the library.
    dedup:
        When True (default), duplicate queries inside a batch are executed
        once and their results fanned back out.  Analysis workloads repeat
        probes heavily (every branch of a neuron probes near-identical
        windows), so this is usually a pure win; disable it for workloads
        of known-distinct queries to skip the sort.
    """

    index: SpatialIndex
    dedup: bool = True
    stats: BatchStats = field(default_factory=BatchStats)

    # -- range ---------------------------------------------------------------

    def range_query(self, boxes: np.ndarray | Sequence[AABB]) -> list[list[int]]:
        """One result list of element ids per query box.

        ``boxes`` is an ``(m, 2, d)`` array or a sequence of AABBs.  Result
        lists are independent copies even for deduplicated queries.
        """
        queries = as_box_array(boxes)
        m = queries.shape[0]
        self.stats.batches += 1
        self.stats.queries += m
        if m == 0:
            return []
        if self.dedup and m > 1:
            flat = np.ascontiguousarray(queries.reshape(m, -1))
            unique, inverse = np.unique(flat, axis=0, return_inverse=True)
            if unique.shape[0] < m:
                self.stats.deduplicated += m - unique.shape[0]
                unique_results = self.index.batch_range_query(
                    unique.reshape(unique.shape[0], 2, -1)
                )
                return [list(unique_results[i]) for i in inverse]
        return self.index.batch_range_query(queries)

    # -- kNN -----------------------------------------------------------------

    def knn(
        self,
        points: np.ndarray | Sequence[Sequence[float]],
        k: int,
        accuracy: float | None = None,
    ) -> list[KNNResult]:
        """One ``(distance, id)`` list per query point.

        Each list is sorted ascending by ``(distance, id)`` — the
        deterministic tie-break every index kernel implements (see
        :mod:`repro.indexes.base`) — so deduplicated fan-out and direct
        execution are indistinguishable.

        ``accuracy`` is the session planner's *routing decision*, not a
        target to resolve: ``None`` (default) runs the exact kernel, while a
        float means the planner already established the index's defeatist
        kernel meets that recall — the batch runs through
        ``approx_batch_knn`` and the defeatist work is diffed from the
        index's counters into :class:`BatchStats`.  If the index has no
        approximate kernel the engine quietly serves the batch exactly.
        """
        pts = as_point_array(points)
        m = pts.shape[0]
        self.stats.batches += 1
        self.stats.queries += m
        if m == 0:
            return []
        run = self.index.batch_knn
        if accuracy is not None:
            approx_kernel = getattr(self.index, "approx_batch_knn", None)
            if approx_kernel is not None:
                run = self._approx_knn_kernel(approx_kernel)
        if self.dedup and m > 1:
            unique, inverse = np.unique(pts, axis=0, return_inverse=True)
            if unique.shape[0] < m:
                self.stats.deduplicated += m - unique.shape[0]
                unique_results = run(unique, k)
                return [list(unique_results[i]) for i in inverse]
        return run(pts, k)

    def _approx_knn_kernel(self, approx_kernel):
        """Wrap the defeatist kernel to diff its work into the stats."""

        def run(pts: np.ndarray, k: int) -> list[KNNResult]:
            counters = self.index.counters
            descents0 = counters.approx_descents
            leaves0 = counters.leaves_scanned
            results = approx_kernel(pts, k)
            self.stats.approx_descents += counters.approx_descents - descents0
            self.stats.leaves_scanned += counters.leaves_scanned - leaves0
            return results

        return run

    # -- point ---------------------------------------------------------------

    def point_query(self, points: np.ndarray | Sequence[Sequence[float]]) -> list[list[int]]:
        """Stabbing queries: ids of all elements whose box covers each point.

        Executed as degenerate (zero-extent) range queries, which every
        batch kernel supports.
        """
        pts = as_point_array(points)
        if pts.shape[0] == 0:
            self.stats.batches += 1
            return []
        boxes = np.stack([pts, pts], axis=1)  # (m, 2, d) with lo == hi
        return self.range_query(boxes)
