"""Bottom-up updates and the iterated join."""

import pytest

from repro.datasets.trajectories import BrownianMotion, PlasticityMotion, apply_moves
from repro.geometry.aabb import AABB
from repro.joins.iterated import IteratedSelfJoin
from repro.instrumentation.counters import Counters
from repro.joins.strategies import NestedLoopJoin
from repro.moving.bottom_up import BottomUpRTree

from conftest import (
    UNIVERSE_3D,
    assert_same_knn,
    assert_same_range_results,
    make_items,
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


class TestIteratedSelfJoin:
    def _items(self, n=150, seed=8):
        return [(eid, box.expanded(0.2)) for eid, box in make_items(n, seed=seed, max_extent=2.0)]

    @pytest.mark.parametrize("strategy", ["incremental", "recompute"])
    def test_matches_oracle_across_steps(self, strategy):
        items = self._items()
        join = IteratedSelfJoin(items, UNIVERSE_3D, strategy=strategy)
        live = dict(items)
        motion = BrownianMotion(sigma=0.3, universe=UNIVERSE_3D, seed=9)
        for _ in range(4):
            moves = motion.step(live)
            join.step(moves)
            apply_moves(live, moves)
            expected = set(NestedLoopJoin().self_join(list(live.items()), Counters()))
            assert join.pairs == expected
            assert join.pair_count() == len(expected)

    def test_strategies_agree(self):
        items = self._items(seed=10)
        incremental = IteratedSelfJoin(items, UNIVERSE_3D, strategy="incremental")
        recompute = IteratedSelfJoin(items, UNIVERSE_3D, strategy="recompute")
        live = dict(items)
        motion = PlasticityMotion(universe=UNIVERSE_3D, seed=11)
        for _ in range(3):
            moves = motion.step(live)
            incremental.step(moves)
            recompute.step(moves)
            apply_moves(live, moves)
        assert incremental.pairs == recompute.pairs

    def test_incremental_does_less_work_when_few_move(self):
        """Maintaining the pair set "will almost always pay off" when few
        elements move: at 5 % moving, the incremental join charges a fraction
        of the recompute's element tests for the same pairs."""
        items = self._items(seed=15)
        work, pairs = {}, {}
        for strategy in ("incremental", "recompute"):
            join = IteratedSelfJoin(items, UNIVERSE_3D, strategy=strategy)
            live = dict(items)
            motion = BrownianMotion(
                sigma=1.0, universe=UNIVERSE_3D, moving_fraction=0.05, seed=16
            )
            before = join.counters.snapshot()
            for _ in range(3):
                moves = motion.step(live)
                join.step(moves)
                apply_moves(live, moves)
            work[strategy] = join.counters.diff(before).elem_tests
            pairs[strategy] = join.pairs
        assert pairs["incremental"] == pairs["recompute"]
        assert work["incremental"] < work["recompute"] / 2

    @pytest.mark.parametrize("fraction", [0.05, 0.3, 1.0])
    def test_moving_fraction_sweep_matches_oracle(self, fraction):
        """Few, some or all elements moving: both strategies keep the nested
        loop's pair set every step."""
        dense = AABB((0.0, 0.0, 0.0), (25.0, 25.0, 25.0))  # tens of pairs
        items = make_items(300, universe=dense, max_extent=2.0, seed=17)
        joins = {
            strategy: IteratedSelfJoin(items, dense, strategy=strategy)
            for strategy in ("incremental", "recompute")
        }
        live = dict(items)
        motion = BrownianMotion(sigma=1.0, universe=dense, moving_fraction=fraction, seed=18)
        for _ in range(3):
            moves = motion.step(live)
            for join in joins.values():
                join.step(moves)
            apply_moves(live, moves)
            expected = set(NestedLoopJoin().self_join(list(live.items()), Counters()))
            assert joins["incremental"].pairs == joins["recompute"].pairs == expected

    def test_partial_motion(self):
        items = self._items(seed=12)
        join = IteratedSelfJoin(items, UNIVERSE_3D)
        live = dict(items)
        motion = BrownianMotion(
            sigma=1.0, universe=UNIVERSE_3D, moving_fraction=0.2, seed=13
        )
        moves = motion.step(live)
        join.step(moves)
        apply_moves(live, moves)
        assert join.pairs == set(NestedLoopJoin().self_join(list(live.items()), Counters()))

    def test_unknown_strategy(self):
        with pytest.raises(ValueError):
            IteratedSelfJoin(self._items(), UNIVERSE_3D, strategy="magic")

    def test_stale_move_rejected(self):
        items = self._items(seed=14)
        join = IteratedSelfJoin(items, UNIVERSE_3D)
        wrong = AABB((0, 0, 0), (1, 1, 1))
        with pytest.raises(KeyError):
            join.step([(items[0][0], wrong, wrong)])
