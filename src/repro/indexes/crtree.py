"""The CR-tree (Kim, Cha & Kwon, SIGMOD'01): a cache-conscious R-tree.

The paper cites the CR-tree as "a step in the right direction" for in-memory
indexing: nodes are sized to a multiple of the cache block, and entry MBRs are
*quantized relative to the node's reference box* (QRMBRs), so several times
more entries fit per cache line than with full float boxes.  The paper also
notes its limit — compression roughly doubles throughput but "the fundamental
problem of overlap remains" — which the grid-vs-tree benchmark reproduces.

Implementation notes:

* A CR-tree is an :class:`~repro.indexes.rtree.RTree` whose node record is
  ``RTree``'s (header, ``float64`` boxes, ``int64`` refs) followed by the
  node's reference box (``2 d`` ``float64``, the MBR of its entries) and
  its entries' QRMBRs (``n × 2 d`` ``uint16``).  The STR pack, Guttman's
  maintenance, the NaN/±inf and wrong-dims refusals, kNN and the invariant
  check are ``RTree``'s.  Every node write goes through
  :meth:`CRTree._encode_arrays`, which re-quantizes the node: the
  published algorithm's lazy re-quantization.
* Quantization is conservative (entry boxes and query boxes both round
  outward), so the quantized filter can only produce false positives, never
  false negatives; leaf candidates are refined against exact boxes (counted
  as ``refine_tests``).
* Range queries filter on the quantized block alone, so byte accounting
  charges the modeled CR node, ``16 + 16 d + n (4 d + 8)`` bytes per visit
  (``QUANT_BYTES`` per coordinate instead of 8), not the record's length;
  :meth:`CRTree.memory_bytes` is the same sum over every node.  This is
  precisely the CR-tree saving the memory cost model prices.  kNN ranks by
  the exact boxes, as ``RTree``'s does, at the same modeled charge.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.geometry.aabb import AABB, as_box_array, batch_intersects
from repro.indexes.rtree import _HEADER_BYTES, RTree, _mbr
from repro.instrumentation.counters import Counters

QUANT_LEVELS = 1 << 16  # 16-bit coordinates
QUANT_BYTES = 2
_FULL_RANGE = np.array([[0.0], [QUANT_LEVELS - 1.0]])


def quantize(boxes: np.ndarray, ref: np.ndarray) -> np.ndarray:
    """Outward cells of ``(..., 2, d)`` boxes relative to the reference box
    ``ref`` — one ``(2, d)`` box, or a ``(k, 2, d)`` stack that broadcasts
    against the boxes — as floats.

    Lower corners round down and upper corners up, so boxes that overlap
    have overlapping cells.  An axis the reference box spans by zero or by
    a denormal width (the scale overflows) carries no information and maps
    to the full range.  Cells clip to ``[0, QUANT_LEVELS - 1]``, ±inf
    corners included; a NaN corner stays NaN and overlaps nothing.
    """
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        # A zero span's scale is inf, a denormal's overflows to inf and an
        # overflowed span's is 0: positive and finite only when informative.
        scale = ((QUANT_LEVELS - 1) / (ref[..., 1, :] - ref[..., 0, :]))[..., None, :]
        offset = (boxes - ref[..., :1, :]) * scale
    cells = np.floor(offset)
    np.ceil(offset[..., 1, :], out=cells[..., 1, :])
    cells = np.where((scale > 0.0) & (scale < np.inf), cells, _FULL_RANGE)
    np.maximum(cells, 0.0, out=cells)
    return np.minimum(cells, QUANT_LEVELS - 1.0, out=cells)


class CRTree(RTree):
    """Cache-conscious R-tree with quantized relative MBRs."""

    def __init__(
        self,
        max_entries: int = 42,
        counters: Counters | None = None,
    ) -> None:
        # 42 three-dim quantized entries ≈ 14 cache lines per node, a
        # multiple-of-cache-line size in the range the paper recommends
        # (640 B – 1 KB nodes).
        super().__init__(max_entries=max_entries, counters=counters)

    # -- node codec ------------------------------------------------------------

    def _encode_arrays(self, is_leaf: bool, boxes: np.ndarray, refs: np.ndarray) -> bytes:
        """``RTree``'s record, then the reference box and the QRMBRs."""
        record = super()._encode_arrays(is_leaf, boxes, refs)
        if not refs.shape[0]:
            return record
        ref = _mbr(boxes)
        return record + ref.tobytes() + quantize(boxes, ref).astype(np.uint16).tobytes()

    def _views(self, page: int) -> tuple[bool, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """A node as ``(is_leaf, boxes, refs, reference box (2, d), QRMBRs
        (n, 2, d))``, all zero-copy views into its record."""
        buf = self._read(page)
        is_leaf, boxes, refs = self._node_views(buf)
        count, dims = refs.shape[0], self._dims
        start = _HEADER_BYTES + count * (16 * dims + 8)
        cells = start + 16 * dims
        return (
            is_leaf,
            boxes,
            refs,
            buf[start:cells].view(np.float64).reshape(2, dims),
            buf[cells : cells + count * 4 * dims].view(np.uint16).reshape(count, 2, dims),
        )

    def _visit_cost(self, dims: int) -> tuple[int, int]:
        """The modeled CR node: header and reference box, then per entry a
        QRMBR of ``QUANT_BYTES`` per coordinate and a pointer."""
        return _HEADER_BYTES + 16 * dims, 2 * dims * QUANT_BYTES + 8

    # -- queries ---------------------------------------------------------------

    def range_query(self, box: AABB) -> list[int]:
        """Level by level: one quantization of the query against every
        reached node's reference box, one test against all their QRMBRs,
        and at the leaves one refine of the candidates' exact boxes.  An
        inner level's entries are taken last-first, so the leaves come in
        the depth-first order of RTree's stack, and so do the answers."""
        if self._root is None:
            return []
        if box.dims != self._dims:
            raise ValueError(f"query has {box.dims} dims, index has {self._dims}")
        counters = self.counters
        fixed, per_entry = self._visit_cost(box.dims)
        query = np.array([box.lo, box.hi], dtype=np.float64)
        level = [self._root]
        while level:
            nodes = [self._views(page) for page in level]
            is_leaf = nodes[0][0]
            order = slice(None) if is_leaf else slice(None, None, -1)
            counts = [node[2].shape[0] for node in nodes]
            entries = sum(counts)
            counters.bytes_touched += fixed * len(nodes) + per_entry * entries
            reference = quantize(query, np.stack([node[3] for node in nodes]))
            asked = np.repeat(reference, counts, axis=0)
            cells = np.concatenate([node[4][order] for node in nodes])
            passed = ((cells[:, 0] <= asked[:, 1]) & (asked[:, 0] <= cells[:, 1])).all(axis=1)
            refs = np.concatenate([node[2][order] for node in nodes])[passed]
            if is_leaf:
                counters.elem_tests += entries
                counters.refine_tests += refs.shape[0]
                candidates = np.concatenate([node[1] for node in nodes])[passed]
                lo, hi = query
                exact = ((candidates[:, 0] <= hi) & (lo <= candidates[:, 1])).all(axis=1)
                return refs[exact].tolist()
            counters.node_tests += entries
            counters.pointer_follows += refs.shape[0]
            level = refs.tolist()
        return []

    def batch_range_query(self, boxes: np.ndarray | Sequence[AABB]) -> list[list[int]]:
        """One traversal for the whole batch: every node is read once with
        the queries that reach it, whose quantized cells are tested against
        the node's QRMBRs; leaf candidates are refined on the exact boxes."""
        queries = as_box_array(boxes)
        m = queries.shape[0]
        if m == 0:
            return []
        results: list[list[int]] = [[] for _ in range(m)]
        if self._root is None:
            return results
        if queries.shape[2] != self._dims:
            raise ValueError(f"queries have {queries.shape[2]} dims, index has {self._dims}")
        counters = self.counters
        fixed, per_entry = self._visit_cost(self._dims)
        stack: list[tuple[int, np.ndarray]] = [(self._root, np.arange(m))]
        while stack:
            page, active = stack.pop()
            is_leaf, entry_boxes, refs, ref, cells = self._views(page)
            counters.bytes_touched += fixed + refs.shape[0] * per_entry
            passed = batch_intersects(cells, quantize(queries[active], ref))
            if is_leaf:
                counters.elem_tests += passed.size
                rows, cols = np.nonzero(passed)
                counters.refine_tests += rows.shape[0]
                candidates, asked = entry_boxes[rows], queries[active[cols]]
                exact = (
                    (candidates[:, 0] <= asked[:, 1]) & (asked[:, 0] <= candidates[:, 1])
                ).all(axis=1)
                for eid, query_i in zip(refs[rows[exact]].tolist(), active[cols[exact]].tolist()):
                    results[query_i].append(eid)
            else:
                counters.node_tests += passed.size
                followed = np.flatnonzero(passed.any(axis=1))
                counters.pointer_follows += followed.shape[0]
                stack.extend((int(refs[row]), active[passed[row]]) for row in followed.tolist())
        return results

    # -- introspection -----------------------------------------------------------

    def memory_bytes(self) -> int:
        """The modeled payload a visit charges, summed over every node."""
        if self._root is None:
            return 0
        fixed, per_entry = self._visit_cost(self._dims)
        counts = (int(np.frombuffer(record, np.int64, 2)[1]) for record in self._pages.values())
        return fixed * len(self._pages) + per_entry * sum(counts)
