"""CR-tree: quantization soundness, parity with the object CR-tree it
replaced, and the cache-footprint advantage."""

import random

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.datasets.neuroscience import generate_neurons
from repro.datasets.queries import range_queries_for_selectivity
from repro.geometry.aabb import AABB
from repro.indexes.crtree import QUANT_LEVELS, CRTree, quantize
from repro.indexes.linear_scan import LinearScan
from repro.indexes.rtree import RTree, _mbr

from conftest import (
    answer_digest,
    assert_same_knn,
    assert_same_range_results,
    make_items,
    make_queries,
)

FULL = [0.0, QUANT_LEVELS - 1.0]

# Coordinates that make zero, denormal and normal reference spans likely.
coordinate = st.one_of(
    st.floats(0, 100, allow_nan=False),
    st.sampled_from([0.0, 5e-324, 1e-323, 2.2e-308, 1.0]),
)
query_coordinate = st.one_of(coordinate, st.sampled_from([-np.inf, np.inf, -1e300, 1e300]))


def _box_array(pairs):
    pairs = np.array(pairs, dtype=np.float64)  # (d, 2) coordinate pairs
    return np.stack([pairs.min(axis=1), pairs.max(axis=1)])


def _boxes(coords):
    return st.lists(st.tuples(coords, coords), min_size=3, max_size=3).map(_box_array)


def _cells_overlap(a, b):
    return bool(((a[..., 0, :] <= b[..., 1, :]) & (b[..., 0, :] <= a[..., 1, :])).all())


class TestQuantization:
    @given(st.lists(_boxes(coordinate), min_size=1, max_size=6), _boxes(query_coordinate))
    def test_conservative_never_false_negative(self, entries, query):
        """Against a node's reference box (the MBR of its entries), every
        entry the query touches keeps overlapping it once both are
        quantized; the cells are what a record stores as ``uint16``."""
        boxes = np.stack(entries)
        ref = _mbr(boxes)
        cells = quantize(boxes, ref)
        assert (cells.astype(np.uint16) == cells).all()
        query_cells = quantize(query, ref)
        for box, box_cells in zip(boxes, cells):
            if _cells_overlap(box, query):
                assert _cells_overlap(box_cells, query_cells)

    def test_degenerate_ref_axis(self):
        """A zero-extent axis carries no information: the full range."""
        self._uninformative(0.0)

    def test_denormal_ref_axis(self):
        """A denormal extent's scale overflows: the full range too."""
        self._uninformative(5e-324)

    @staticmethod
    def _uninformative(span):
        ref = np.array([[0.0, 0.0, 0.0], [span, 10.0, 10.0]])
        cells = quantize(np.array([[0.0, 1.0, 1.0], [span, 2.0, 2.0]]), ref)
        assert cells[:, 0].tolist() == FULL
        assert cells[:, 1].tolist() == [6553.0, 13107.0]

    def test_infinite_corners_clip_and_nan_overlaps_nothing(self):
        ref = np.array([[0.0, 0.0, 0.0], [10.0, 10.0, 10.0]])
        cells = quantize(np.array([[-np.inf, 2.0, np.nan], [np.inf, 3.0, 4.0]]), ref)
        assert cells[:, 0].tolist() == FULL
        assert np.isnan(cells[0, 2])
        assert not _cells_overlap(quantize(ref, ref), cells)


def _record_quantization_is_current(tree):
    """Every record's reference box is its entries' MBR and its QRMBRs are
    those entries quantized against it: each rewrite re-quantized."""
    for page in tree._pages:
        _, boxes, _, ref, cells = tree._views(page)
        assert (ref == _mbr(boxes)).all()
        assert (cells == quantize(boxes, ref)).all()


class TestCorrectness:
    def test_range_matches_oracle(self, items_3d, queries_3d):
        tree = CRTree(max_entries=16)
        tree.bulk_load(items_3d)
        assert_same_range_results(tree, items_3d, queries_3d)

    def test_knn_matches_oracle(self, items_3d):
        tree = CRTree(max_entries=16)
        tree.bulk_load(items_3d)
        assert_same_knn(tree, items_3d, [(12, 88, 45)], k=9)

    def test_dynamic_workload(self, queries_3d):
        self._churn(queries_3d, packed=0)

    def test_dynamic_workload_after_a_bulk_load(self, queries_3d):
        self._churn(queries_3d, packed=150)

    @staticmethod
    def _churn(queries_3d, packed):
        """Inserts with interleaved deletes after an STR pack of ``packed``
        items answer as the oracle does, keep RTree's invariants and a
        current quantization in every record."""
        rng = random.Random(17)
        items = make_items(300, seed=17)
        tree = CRTree(max_entries=8)
        tree.bulk_load(items[:packed])
        live = dict(items[:packed])
        for eid, box in items[packed:]:
            tree.insert(eid, box)
            live[eid] = box
            if rng.random() < 0.4:
                victim = rng.choice(sorted(live))
                tree.delete(victim, live.pop(victim))
        tree.check_invariants()
        _record_quantization_is_current(tree)
        assert len(tree) == len(live)
        assert_same_range_results(tree, list(live.items()), queries_3d)
        assert_same_knn(tree, list(live.items()), [(12, 88, 45), (70, 5, 30)], k=9)
        oracle = LinearScan()
        oracle.bulk_load(live.items())
        assert [sorted(ids) for ids in tree.batch_range_query(queries_3d)] == [
            sorted(oracle.range_query(q)) for q in queries_3d
        ]

    def test_delete_missing(self):
        tree = CRTree()
        with pytest.raises(KeyError):
            tree.delete(9, AABB((0, 0, 0), (1, 1, 1)))

    def test_refuses_what_rtree_refuses(self):
        tree = CRTree(max_entries=8)
        with pytest.raises(ValueError, match="box coordinates must be finite"):
            tree.bulk_load([(0, AABB((0.0, float("nan"), 0.0), (1.0, 1.0, 1.0)))])
        tree.bulk_load(make_items(40, seed=2))
        with pytest.raises(ValueError, match="box coordinates must be finite"):
            tree.insert(99, AABB((0.0, 0.0, 0.0), (1.0, float("inf"), 1.0)))
        with pytest.raises(ValueError, match="box has 2 dims, index has 3"):
            tree.insert(99, AABB((0.0, 0.0), (1.0, 1.0)))
        with pytest.raises(ValueError, match="query has 2 dims, index has 3"):
            tree.range_query(AABB((0.0, 0.0), (1.0, 1.0)))
        with pytest.raises(ValueError, match="queries have 2 dims, index has 3"):
            tree.batch_range_query(np.zeros((1, 2, 2)))
        with pytest.raises(ValueError, match="point has 2 dims, index has 3"):
            tree.knn((0.0, 0.0), 3)
        assert len(tree) == 40
        tree.check_invariants()


#: Frozen from the object ``CRTree`` (``CRNode`` lists, object STR tiler) this
#: record tree replaced, per ``(dataset, max_entries)`` after a bulk load:
#: (height, memory_bytes), then for 30 range queries and for 20 kNN probes
#: (k = 7) the in-order answer digest and the charge
#: (node_tests, elem_tests, pointer_follows, refine_tests, heap_ops,
#: bytes_touched) of the scalar calls.
PARENT_CRTREE = {
    ("items", 16): ((3, 51236),
                    ("e1964ec505d3d316", (1370, 1424, 162, 137, 0, 68168)),
                    ("569098f1ca7d5cad", (912, 1328, 0, 0, 2531, 54464))),
    ("items", 42): ((3, 44264),
                    ("d1b6b356777c5dd8", (972, 2905, 108, 137, 0, 86372)),
                    ("569098f1ca7d5cad", (592, 2503, 0, 0, 3338, 68492))),
    ("neurons", 16): ((3, 51236),
                      ("b070302eb650dc6e", (1637, 2544, 249, 251, 0, 101476)),
                      ("d5691597c5f13e53", (973, 1776, 0, 0, 3072, 66692))),
    ("neurons", 42): ((3, 44264),
                      ("21e6c6bff367d5c5", (900, 4532, 144, 251, 0, 119776)),
                      ("d5691597c5f13e53", (712, 3206, 0, 0, 4183, 86360))),
}

_SIX = ("node_tests", "elem_tests", "pointer_follows", "refine_tests", "heap_ops", "bytes_touched")


def _parity_workload(name):
    """``(items, range queries, kNN probes)`` of one frozen dataset."""
    if name == "items":
        queries = make_queries(30, seed=4, extent=12.0)
        return make_items(2000, seed=3), queries, [tuple(q.lo) for q in make_queries(20, seed=5)]
    neurons = generate_neurons(40, 50, seed=1)
    queries = range_queries_for_selectivity(30, neurons.universe, selectivity=1e-3, seed=6)
    probes = range_queries_for_selectivity(20, neurons.universe, selectivity=1e-4, seed=7)
    return neurons.items, queries, [tuple(q.lo) for q in probes]


def _charged(tree, calls):
    before = tree.counters.snapshot()
    answers = [call() for call in calls]
    delta = tree.counters.diff(before)
    return answer_digest(answers), tuple(getattr(delta, name) for name in _SIX)


class TestParentParity:
    """A bulk-loaded CR-tree tiles into exactly RTree's nodes, and the same
    float64 quantization arithmetic makes the same filter decisions, so it
    answers as the object CR-tree did, in order, at the same charges."""

    @pytest.mark.parametrize("max_entries", [16, 42])
    @pytest.mark.parametrize("dataset", ["items", "neurons"])
    def test_bulk_load_matches_the_object_tree(self, dataset, max_entries):
        items, queries, points = _parity_workload(dataset)
        shape, range_charge, knn_charge = PARENT_CRTREE[(dataset, max_entries)]
        tree = CRTree(max_entries=max_entries)
        tree.bulk_load(items)
        assert (tree.height, tree.memory_bytes()) == shape
        assert _charged(tree, [lambda q=q: tree.range_query(q) for q in queries]) == range_charge
        assert _charged(tree, [lambda p=p: tree.knn(p, 7) for p in points]) == knn_charge
        assert answer_digest(tree.batch_range_query(queries)) == range_charge[0]
        assert answer_digest(tree.batch_knn(points, 7)) == knn_charge[0]


class TestCacheFootprint:
    def test_queries_touch_fewer_bytes_than_rtree(self, items_3d):
        """The CR-tree's point: quantized nodes mean less memory traffic for
        the same traversal work."""
        queries = make_queries(20, extent=12.0, seed=5)
        crtree = CRTree(max_entries=16)
        crtree.bulk_load(items_3d)
        rtree = RTree(max_entries=16)
        rtree.bulk_load(items_3d)
        for query in queries:
            crtree.range_query(query)
            rtree.range_query(query)
        assert crtree.counters.bytes_touched < rtree.counters.bytes_touched

    def test_memory_bytes_smaller_than_rtree(self, items_3d):
        crtree = CRTree(max_entries=16)
        crtree.bulk_load(items_3d)
        rtree = RTree(max_entries=16)
        rtree.bulk_load(items_3d)
        assert crtree.memory_bytes() < rtree.memory_bytes()

    def test_refinement_counted(self, items_3d):
        tree = CRTree(max_entries=16)
        tree.bulk_load(items_3d)
        tree.range_query(AABB((20, 20, 20), (50, 50, 50)))
        assert tree.counters.refine_tests > 0
