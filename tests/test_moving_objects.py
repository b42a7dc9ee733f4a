"""Moving-object indexes: LUR, buffered, TPR."""

import pytest

from repro.core.uniform_grid import UniformGrid
from repro.datasets.neuroscience import generate_neurons
from repro.datasets.queries import random_range_queries
from repro.datasets.trajectories import BrownianMotion, LinearMotion, PlasticityMotion, apply_moves
from repro.geometry.aabb import AABB
from repro.indexes.linear_scan import LinearScan
from repro.indexes.rtree import RTree
from repro.moving.bottom_up import BottomUpRTree
from repro.moving.buffered_rtree import BufferedRTree
from repro.moving.lur_tree import LURTree
from repro.moving.tpr import TPRIndex

from conftest import (
    UNIVERSE_3D,
    assert_same_knn,
    assert_same_range_results,
    make_items,
    make_queries,
)


def _run_motion(index, items, steps=3, sigma=0.05, seed=0, advance_hook=None):
    """Drive Brownian motion through an index, returning the final state."""
    live = dict(items)
    motion = BrownianMotion(sigma=sigma, universe=UNIVERSE_3D, seed=seed)
    for _ in range(steps):
        moves = motion.step(live)
        if advance_hook is not None:
            advance_hook(moves)
        else:
            for eid, old, new in moves:
                index.update(eid, old, new)
        apply_moves(live, moves)
    return live


class TestLURTree:
    def test_oracle_after_motion(self, items_3d, queries_3d):
        index = LURTree(grace=0.5)
        index.bulk_load(items_3d)
        live = _run_motion(index, items_3d)
        assert_same_range_results(index, list(live.items()), queries_3d)

    def test_knn_after_motion(self, items_3d):
        index = LURTree(grace=0.5)
        index.bulk_load(items_3d)
        live = _run_motion(index, items_3d)
        assert_same_knn(index, list(live.items()), [(40, 40, 40)], k=6)

    def test_small_motion_is_lazy(self, items_3d):
        index = LURTree(grace=1.0)
        index.bulk_load(items_3d)
        _run_motion(index, items_3d, sigma=0.01)
        assert index.lazy_updates > 0
        assert index.structural_updates < index.lazy_updates / 10

    def test_large_motion_is_structural(self, items_3d):
        index = LURTree(grace=0.05)
        index.bulk_load(items_3d)
        _run_motion(index, items_3d, sigma=5.0)
        assert index.structural_updates > index.lazy_updates

    def test_refinement_shifts_cost_to_queries(self, items_3d, queries_3d):
        """The paper's trade-off: loose boxes mean extra refine tests."""
        index = LURTree(grace=2.0)
        index.bulk_load(items_3d)
        for query in queries_3d:
            index.range_query(query)
        assert index.counters.refine_tests > 0

    def test_insert_delete(self):
        index = LURTree(grace=0.5)
        box = AABB((1, 1, 1), (2, 2, 2))
        index.insert(1, box)
        assert index.range_query(AABB((0, 0, 0), (3, 3, 3))) == [1]
        index.delete(1, box)
        assert len(index) == 0
        with pytest.raises(KeyError):
            index.delete(1, box)


class TestBufferedRTree:
    def test_oracle_with_pending_buffer(self, items_3d, queries_3d):
        index = BufferedRTree(buffer_capacity=10_000)  # never flush
        index.bulk_load(items_3d)
        live = _run_motion(index, items_3d)
        assert index.pending_operations > 0  # buffer really is pending
        assert_same_range_results(index, list(live.items()), queries_3d)

    def test_oracle_after_flush(self, items_3d, queries_3d):
        index = BufferedRTree(buffer_capacity=50)
        index.bulk_load(items_3d)
        live = _run_motion(index, items_3d)
        assert index.flushes > 0
        assert_same_range_results(index, list(live.items()), queries_3d)

    def test_knn_with_buffer(self, items_3d):
        index = BufferedRTree(buffer_capacity=10_000)
        index.bulk_load(items_3d)
        live = _run_motion(index, items_3d)
        assert_same_knn(index, list(live.items()), [(70, 30, 50)], k=5)

    def test_buffered_insert_and_delete_visible(self):
        index = BufferedRTree(buffer_capacity=100)
        index.bulk_load([(1, AABB((0, 0, 0), (1, 1, 1)))])
        index.insert(2, AABB((5, 5, 5), (6, 6, 6)))
        assert sorted(index.range_query(AABB((0, 0, 0), (10, 10, 10)))) == [1, 2]
        index.delete(1, AABB((0, 0, 0), (1, 1, 1)))
        assert index.range_query(AABB((0, 0, 0), (10, 10, 10))) == [2]

    def test_query_pays_buffer_pass(self, items_3d):
        """'buffer and index need to be checked' — counted."""
        index = BufferedRTree(buffer_capacity=10_000)
        index.bulk_load(items_3d)
        _run_motion(index, items_3d, steps=1)
        before = index.counters.snapshot()
        index.range_query(AABB((40, 40, 40), (45, 45, 45)))
        delta = index.counters.diff(before)
        assert delta.elem_tests >= index.pending_operations


class TestTPRIndex:
    def test_oracle_after_motion(self, items_3d, queries_3d):
        index = TPRIndex(max_speed=0.2, horizon=5)
        index.bulk_load(items_3d)
        live = dict(items_3d)
        motion = BrownianMotion(sigma=0.05, universe=UNIVERSE_3D, seed=2)
        for _ in range(4):
            moves = motion.step(live)
            index.advance(moves)
            apply_moves(live, moves)
        assert_same_range_results(index, list(live.items()), queries_3d)

    def test_predictable_motion_needs_few_reanchors(self):
        items = make_items(200, seed=4, max_extent=0.5)
        index = TPRIndex(max_speed=0.3, horizon=10)
        index.bulk_load(items)
        live = dict(items)
        motion = LinearMotion(speed=0.2, universe=UNIVERSE_3D, seed=5)
        for _ in range(8):
            moves = motion.step(live)
            index.advance(moves)
            apply_moves(live, moves)
        linear_reanchors = index.re_anchors

        index2 = TPRIndex(max_speed=0.3, horizon=10)
        index2.bulk_load(items)
        live = dict(items)
        brownian = BrownianMotion(sigma=0.8, universe=UNIVERSE_3D, seed=5)
        for _ in range(8):
            moves = brownian.step(live)
            index2.advance(moves)
            apply_moves(live, moves)
        assert index2.re_anchors > linear_reanchors

    def test_knn(self, items_3d):
        index = TPRIndex()
        index.bulk_load(items_3d)
        assert_same_knn(index, items_3d, [(10, 90, 10)], k=4)

    def test_insert_delete(self):
        index = TPRIndex()
        box = AABB((1, 1, 1), (2, 2, 2))
        index.insert(7, box)
        assert len(index) == 1
        index.delete(7, box)
        assert len(index) == 0


def _strategy(name: str, universe: AABB, n: int):
    """One index and how it takes a step's moves: a per-element update, a
    per-step rebuild, or (TPR) an advance of the prediction clock."""
    if name == "rtree_update":
        return RTree(max_entries=16), "update"
    if name == "rtree_rebuild":
        return RTree(max_entries=16), "rebuild"
    if name == "bottom_up":
        return BottomUpRTree(max_entries=16), "update"
    if name == "lur_grace":
        return LURTree(grace=0.3, max_entries=16), "update"
    if name == "buffered":
        return BufferedRTree(buffer_capacity=n + 1, max_entries=16), "update"
    if name == "grid_rebuild":
        return UniformGrid(universe=universe), "rebuild"
    if name == "grid_incremental":
        return UniformGrid(universe=universe), "update"
    if name == "tpr":
        return TPRIndex(max_speed=0.2, horizon=5, max_entries=16), "advance"
    raise AssertionError(name)  # pragma: no cover - guard against typos


STRATEGIES = [
    "rtree_update", "rtree_rebuild", "bottom_up", "lur_grace",
    "buffered", "grid_rebuild", "grid_incremental", "tpr",
]


class TestUpdateStrategiesAgree:
    """§4.2's update mechanisms differ in cost, never in answers: under the
    same plasticity motion every one answers each step like the oracle."""

    @pytest.mark.parametrize("name", STRATEGIES)
    def test_every_step_matches_the_oracle(self, name):
        dataset = generate_neurons(neurons=12, segments_per_neuron=20, seed=8)
        universe = dataset.universe
        index, mode = _strategy(name, universe, len(dataset.items))
        index.bulk_load(dataset.items)
        live = dict(dataset.items)
        motion = PlasticityMotion(universe=universe, seed=9)
        queries = random_range_queries(15, universe, extent=1.5, seed=8)
        for _ in range(3):
            moves = motion.step(live)
            apply_moves(live, moves)
            if mode == "rebuild":
                index.bulk_load(list(live.items()))
            elif mode == "advance":
                index.advance(moves)
            else:
                for eid, old, new in moves:
                    index.update(eid, old, new)
            assert_same_range_results(index, list(live.items()), queries)
        assert_same_knn(index, list(live.items()), [universe.center()], k=6)
