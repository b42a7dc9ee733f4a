"""SpillTree: overlap-propagating splits with defeatist (no-backtrack) kNN.

The exact kNN kernels answer every query correctly, but production serving
past recall ~0.9 is wasted work: a batch of a million probes does not need
the true k-th neighbour of every one.  The spill tree (Liu, Moore, Gray &
Yang) buys an order of magnitude by making *descent* sufficient: each split
duplicates the points within an overlap fraction ``tau`` of the boundary
into **both** children, so a query near the boundary still finds its
neighbourhood in whichever child it descends into — and the search never
backtracks ("defeatist" search).  When a node's points are so concentrated
that the overlap stops shrinking the split, the node becomes a **hybrid
leaf** that falls back to exact search over its points.

The class is a :class:`~repro.indexes.linear_scan.LinearScan` subclass on
purpose: the scan *is* the exact tier.  Every inherited query path
(``range_query`` / ``knn`` / ``batch_*``) stays bit-identical to the oracle
— ``KNNQuery(accuracy='exact')`` against a spill-tree-backed session
answers exactly like any exact index — while the tree adds the approximate
tier behind :meth:`approx_batch_knn` and an :meth:`estimated_recall`
calibration the session planner routes on.

Like the KD-tree, this is a point access method: only degenerate (point)
boxes are accepted.

The defeatist batch kernel is one vectorized root-to-leaf sweep per query
array (queries partition among children at every split; each reached leaf
answers its queries with one distance matrix and the library-wide
``(distance, id)`` tie-break), reusing the flat packed-entry idiom of
:mod:`repro.indexes.batch_knn` without the priority queue it no longer
needs.  The flat arrays are exactly what the serving tier ships through
shared memory (:meth:`export_spill`), so pool workers attach the built tree
instead of rebuilding anything.
"""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np

from repro.geometry.aabb import AABB, as_point_array, batch_min_distance_to_points
from repro.indexes.base import Item, KNNResult, validate_items
from repro.indexes.linear_scan import LinearScan
from repro.instrumentation.counters import Counters
from repro.obs import global_registry

#: A split only stands when both children are at most this fraction of the
#: parent; past it the overlap has stopped shrinking the node (ties or a
#: point mass around the threshold) and the node defeats to an exact leaf.
_SHRINK_CAP = 0.9


class _FlatSpillTree:
    """The built tree as contiguous arrays (node 0 is the root).

    ``left[i] < 0`` marks a leaf; leaves own ``leaf_rows[leaf_start[i] :
    leaf_start[i] + leaf_count[i]]`` — row indices into the dense point
    table, with boundary rows duplicated across sibling leaves (the spill).
    This layout is shared-memory-ready: the serving payload is these arrays
    verbatim.
    """

    __slots__ = ("dirs", "thresh", "left", "right", "leaf_start", "leaf_count", "leaf_rows")

    def __init__(self, dirs, thresh, left, right, leaf_start, leaf_count, leaf_rows) -> None:
        self.dirs = dirs  # (N, d) float64; zero rows for leaves
        self.thresh = thresh  # (N,) float64
        self.left = left  # (N,) int64; -1 for leaves
        self.right = right  # (N,) int64
        self.leaf_start = leaf_start  # (N,) int64
        self.leaf_count = leaf_count  # (N,) int64
        self.leaf_rows = leaf_rows  # (L,) int64

    @property
    def leaves(self) -> int:
        return int((self.left < 0).sum())

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "node_dirs": self.dirs,
            "node_thresh": self.thresh,
            "node_left": self.left,
            "node_right": self.right,
            "leaf_start": self.leaf_start,
            "leaf_count": self.leaf_count,
            "leaf_rows": self.leaf_rows,
        }

    @classmethod
    def from_arrays(cls, arrays: dict[str, np.ndarray]) -> "_FlatSpillTree":
        return cls(
            arrays["node_dirs"],
            arrays["node_thresh"],
            arrays["node_left"],
            arrays["node_right"],
            arrays["leaf_start"],
            arrays["leaf_count"],
            arrays["leaf_rows"],
        )


def _build_flat_tree(pts: np.ndarray, leaf_size: int, tau: float) -> _FlatSpillTree:
    """One recursive pass over row-index arrays, packed into flat arrays.

    Every split projects onto the node's axis of maximum variance (the
    KD-tree's own heuristic) and thresholds at the median.
    """
    dims = pts.shape[1]
    dirs: list[np.ndarray | None] = []
    thresh: list[float] = []
    left: list[int] = []
    right: list[int] = []
    leaf_start: list[int] = []
    leaf_count: list[int] = []
    leaf_parts: list[np.ndarray] = []
    leaf_total = 0

    def build(rows: np.ndarray) -> int:
        nonlocal leaf_total
        nid = len(left)
        dirs.append(None)
        thresh.append(0.0)
        left.append(-1)
        right.append(-1)
        leaf_start.append(0)
        leaf_count.append(0)
        count = rows.shape[0]
        split = None
        if count > leaf_size:
            direction = np.zeros(dims)
            direction[int(np.argmax(pts[rows].var(axis=0)))] = 1.0
            proj = pts[rows] @ direction
            cut = float(np.median(proj))
            lo_q, hi_q = np.quantile(proj, (0.5 - tau / 2.0, 0.5 + tau / 2.0))
            left_mask = proj <= hi_q
            right_mask = proj >= lo_q
            biggest = max(int(left_mask.sum()), int(right_mask.sum()))
            # The hybrid condition: overlap (plus projection ties) must
            # actually shrink the node, else defeat to an exact leaf here.
            if biggest <= _SHRINK_CAP * count:
                split = (direction, cut, rows[left_mask], rows[right_mask])
        if split is None:
            leaf_start[nid] = leaf_total
            leaf_count[nid] = count
            leaf_parts.append(rows)
            leaf_total += count
            return nid
        direction, cut, left_rows, right_rows = split
        dirs[nid] = direction
        thresh[nid] = cut
        left[nid] = build(left_rows)
        right[nid] = build(right_rows)
        return nid

    build(np.arange(pts.shape[0], dtype=np.int64))
    packed_dirs = np.zeros((len(dirs), dims), dtype=np.float64)
    for i, direction in enumerate(dirs):
        if direction is not None:
            packed_dirs[i] = direction
    return _FlatSpillTree(
        dirs=packed_dirs,
        thresh=np.asarray(thresh, dtype=np.float64),
        left=np.asarray(left, dtype=np.int64),
        right=np.asarray(right, dtype=np.int64),
        leaf_start=np.asarray(leaf_start, dtype=np.int64),
        leaf_count=np.asarray(leaf_count, dtype=np.int64),
        leaf_rows=(
            np.concatenate(leaf_parts)
            if leaf_parts
            else np.empty(0, dtype=np.int64)
        ),
    )


class SpillTree(LinearScan):
    """Spill tree over points: exact scan tier plus a defeatist kNN tier.

    Parameters
    ----------
    tau:
        Overlap fraction in ``[0, 1)``: each split sends the points between
        the ``0.5 - tau/2`` and ``0.5 + tau/2`` projection quantiles to
        *both* children.  ``0`` is a plain projection tree (fast, lower
        recall); larger values trade duplicated storage and bigger leaves
        for recall.
    leaf_size:
        Points at or below which a node stops splitting.  Hybrid leaves
        (overlap stopped shrinking the split) may exceed it.
    calibration_sample:
        Queries drawn from the data itself by :meth:`estimated_recall` to
        measure defeatist-vs-exact recall per ``k`` (cached until the next
        mutation).

    The exact surface is inherited from :class:`LinearScan` unchanged; the
    tree is built lazily on the first approximate query after a mutation.
    """

    def __init__(
        self,
        tau: float = 0.15,
        leaf_size: int = 64,
        calibration_sample: int = 128,
        counters: Counters | None = None,
    ) -> None:
        super().__init__(counters)
        if not 0.0 <= tau < 1.0:
            raise ValueError(f"tau must be in [0, 1), got {tau}")
        if leaf_size < 1:
            raise ValueError(f"leaf_size must be >= 1, got {leaf_size}")
        if calibration_sample < 1:
            raise ValueError(f"calibration_sample must be >= 1, got {calibration_sample}")
        self.tau = tau
        self.leaf_size = leaf_size
        self.calibration_sample = calibration_sample
        self._tree: _FlatSpillTree | None = None
        self._recall_cache: dict[int, float] = {}

    # -- maintenance (point-only validation + tree invalidation) ---------------

    @staticmethod
    def _require_point(box: AABB) -> None:
        if not box.is_degenerate():
            raise ValueError(
                "SpillTree is a point access method; index volumetric elements "
                "with a region tree (QuadTree/Octree) or a grid instead"
            )

    def _invalidate(self) -> None:
        self._tree = None
        self._recall_cache.clear()

    def bulk_load(self, items: Iterable[Item]) -> None:
        materialized = validate_items(items)
        for _, box in materialized:
            self._require_point(box)
        super().bulk_load(materialized)
        self._invalidate()

    def insert(self, eid: int, box: AABB) -> None:
        self._require_point(box)
        super().insert(eid, box)
        self._invalidate()

    def delete(self, eid: int, box: AABB) -> None:
        super().delete(eid, box)
        self._invalidate()

    def update(self, eid: int, old_box: AABB, new_box: AABB) -> None:
        self._require_point(new_box)
        super().update(eid, old_box, new_box)
        self._invalidate()

    # -- the approximate tier ---------------------------------------------------

    def _ensure_tree(self) -> _FlatSpillTree:
        if self._tree is None:
            _, data = self._dense_view()
            self._tree = _build_flat_tree(data[:, 0, :], self.leaf_size, self.tau)
        return self._tree

    def approx_batch_knn(
        self, points: np.ndarray | Sequence[Sequence[float]], k: int
    ) -> list[KNNResult]:
        """Defeatist batch kNN: one root-to-leaf sweep for the whole array.

        Queries partition among children at every split (one projection per
        node over the carried rows); each reached leaf answers its queries
        brute-force over the leaf's (spilled) points under the library-wide
        ``(distance, id)`` tie-break.  No backtracking: a query's answer
        comes entirely from the single leaf it lands in, so results are a
        high-recall *approximation* of the exact top-k (a leaf smaller than
        ``k`` also returns fewer than ``k`` pairs).  Work is charged to
        ``approx_descents`` / ``leaves_scanned`` / ``elem_tests``.
        """
        pts_q = as_point_array(points)
        m = pts_q.shape[0]
        if m == 0:
            return []
        n = len(self._boxes)
        if k <= 0 or n == 0:
            return [[] for _ in range(m)]
        eids, data = self._dense_view()
        if pts_q.shape[1] != data.shape[2]:
            raise ValueError(
                f"points have {pts_q.shape[1]} dims, index has {data.shape[2]}"
            )
        tree = self._ensure_tree()
        counters = self.counters
        counters.approx_descents += m
        leaves_before = counters.leaves_scanned
        kk = min(k, n)
        results: list[KNNResult] = [[] for _ in range(m)]
        stack: list[tuple[int, np.ndarray]] = [(0, np.arange(m))]
        while stack:
            nid, rows = stack.pop()
            left = int(tree.left[nid])
            if left >= 0:
                proj = pts_q[rows] @ tree.dirs[nid]
                counters.node_tests += rows.shape[0]
                go_left = proj <= tree.thresh[nid]
                left_rows = rows[go_left]
                right_rows = rows[~go_left]
                if left_rows.size:
                    counters.pointer_follows += 1
                    stack.append((left, left_rows))
                if right_rows.size:
                    counters.pointer_follows += 1
                    stack.append((int(tree.right[nid]), right_rows))
                continue
            start = int(tree.leaf_start[nid])
            cand = tree.leaf_rows[start : start + int(tree.leaf_count[nid])]
            counters.leaves_scanned += 1
            cand_eids = eids[cand]
            cc = cand.shape[0]
            kk_leaf = min(kk, cc)
            dists = batch_min_distance_to_points(data[cand], pts_q[rows])
            counters.elem_tests += dists.size
            for i in range(rows.shape[0]):
                row_d = dists[i]
                if kk_leaf < cc:
                    # argpartition splits ties at the k-th distance
                    # arbitrarily; widen to every candidate at or under the
                    # pivot so the (distance, id) tie-break stays exact
                    # *within the leaf* (the same idiom as the exact scan).
                    part = np.argpartition(row_d, kk_leaf - 1)[:kk_leaf]
                    cols = np.nonzero(row_d <= row_d[part].max())[0]
                else:
                    cols = np.arange(cc)
                order = np.lexsort((cand_eids[cols], row_d[cols]))[:kk_leaf]
                chosen = cols[order]
                results[int(rows[i])] = list(
                    zip(row_d[chosen].tolist(), cand_eids[chosen].tolist())
                )
            counters.heap_ops += kk_leaf * rows.shape[0]
        registry = global_registry()
        registry.counter("approx.descents").inc(m)
        registry.counter("approx.leaves_scanned").inc(
            counters.leaves_scanned - leaves_before
        )
        return results

    def approx_knn(self, point: Sequence[float], k: int) -> KNNResult:
        """Scalar defeatist kNN (the inline-executor path)."""
        return self.approx_batch_knn(
            np.asarray([tuple(point)], dtype=np.float64), k
        )[0]

    def estimated_recall(self, k: int) -> float:
        """Measured defeatist recall at ``k``, from a self-calibration pass.

        Up to ``calibration_sample`` stored points (evenly strided, so the
        sample tracks the data distribution) are asked both ways; recall is
        the fraction of exact neighbours the defeatist answers recovered.
        Cached per ``k`` until the next mutation; calibration work is
        charged to a throwaway counter object, not the index's telemetry.
        """
        n = len(self._boxes)
        if n == 0 or k <= 0:
            return 1.0
        kk = min(k, n)
        cached = self._recall_cache.get(kk)
        if cached is not None:
            return cached
        _, data = self._dense_view()
        sample = min(self.calibration_sample, n)
        rows = np.unique(np.linspace(0, n - 1, sample).astype(np.int64))
        queries = data[rows, 0, :]
        saved = self.counters
        self.counters = Counters()
        try:
            exact = LinearScan.batch_knn(self, queries, kk)
            approx = self.approx_batch_knn(queries, kk)
        finally:
            self.counters = saved
        expected = sum(len(result) for result in exact)
        found = sum(
            len({eid for _, eid in got} & {eid for _, eid in want})
            for got, want in zip(approx, exact)
        )
        recall = found / expected if expected else 1.0
        self._recall_cache[kk] = recall
        return recall

    # -- introspection ----------------------------------------------------------

    def export_spill(self) -> dict[str, np.ndarray] | None:
        """The dense tables plus the built flat tree, as one array dict.

        This is the native serving payload: a pool worker attaches these
        arrays and serves defeatist *and* exact batches with zero rebuild
        (:class:`repro.serving.snapshots.SnapshotSpillTree`).
        """
        if not self._boxes:
            return None
        eids, data = self._dense_view()
        tree = self._ensure_tree()
        return {"eids": eids, "boxes": data, **tree.arrays()}

    @property
    def leaves(self) -> int:
        """Leaf count of the built tree (builds it if needed)."""
        if not self._boxes:
            return 0
        return self._ensure_tree().leaves

    def memory_bytes(self) -> int:
        total = super().memory_bytes()
        if self._tree is not None:
            total += sum(a.nbytes for a in self._tree.arrays().values())
        return total
