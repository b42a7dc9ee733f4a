"""Bottom-up updates."""

import pytest

from repro.datasets.trajectories import BrownianMotion, PlasticityMotion, apply_moves
from repro.geometry.aabb import AABB
from repro.moving.bottom_up import BottomUpRTree

from conftest import (
    UNIVERSE_3D,
    assert_same_knn,
    assert_same_range_results,
    make_queries,
)


class TestBottomUpRTree:
    def test_oracle_after_motion(self, items_3d, queries_3d):
        index = BottomUpRTree(max_entries=8)
        index.bulk_load(items_3d)
        live = dict(items_3d)
        motion = BrownianMotion(sigma=0.05, universe=UNIVERSE_3D, seed=4)
        for _ in range(3):
            moves = motion.step(live)
            for eid, old, new in moves:
                index.update(eid, old, new)
            apply_moves(live, moves)
        assert_same_range_results(index, list(live.items()), queries_3d)
        index._tree.check_invariants()

    def test_small_motion_is_mostly_in_place(self, items_3d):
        index = BottomUpRTree(max_entries=8)
        index.bulk_load(items_3d)
        live = dict(items_3d)
        motion = PlasticityMotion(universe=UNIVERSE_3D, seed=5)
        for _ in range(3):
            moves = motion.step(live)
            for eid, old, new in moves:
                index.update(eid, old, new)
            apply_moves(live, moves)
        assert index.in_place_updates > index.structural_updates

    def test_large_motion_escapes(self, items_3d):
        index = BottomUpRTree(max_entries=8)
        index.bulk_load(items_3d)
        live = dict(items_3d)
        motion = BrownianMotion(sigma=20.0, universe=UNIVERSE_3D, seed=6)
        moves = motion.step(live)
        for eid, old, new in moves:
            index.update(eid, old, new)
        apply_moves(live, moves)
        assert index.structural_updates > 0
        assert_same_range_results(index, list(live.items()), make_queries(6, seed=7))

    def test_insert_delete(self):
        index = BottomUpRTree()
        box = AABB((1, 1, 1), (2, 2, 2))
        index.insert(1, box)
        assert index.range_query(AABB((0, 0, 0), (3, 3, 3))) == [1]
        index.delete(1, box)
        assert len(index) == 0
        with pytest.raises(KeyError):
            index.delete(1, box)

    def test_knn(self, items_3d):
        index = BottomUpRTree()
        index.bulk_load(items_3d)
        assert_same_knn(index, items_3d, [(20, 80, 40)], k=5)

    def test_validation(self):
        with pytest.raises(ValueError):
            BottomUpRTree(refresh_fraction=0.0)
