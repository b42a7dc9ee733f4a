"""`SpatialIndex.apply_moves`: a step's motion in one call.

Pinned here:

* `UniformGrid.apply_moves` leaves exactly what the scalar `update` loop
  leaves — windows (ids and placement order), boxes, the snapshot's patches and
  dirt, batch answers (ids and order) and every counter — for batches below
  and above the compaction threshold, on base and overlay rows;
* a batch the grid refuses mutates nothing (grid, snapshot, counters);
* a read that lands inside a batch answers the state before it, and the
  writer still places the whole batch;
* the default implementation equals the loop on every registry index, refuses
  a repeated id up front and is otherwise *not* atomic.
"""

from __future__ import annotations

import numpy as np
import pytest

from conftest import UNIVERSE_2D, UNIVERSE_3D, grid_windows, make_items, placed_items
from repro import INDEX_REGISTRY, make_index
from repro.core.uniform_grid import UniformGrid, _compaction_threshold
from repro.geometry.aabb import AABB
from repro.indexes.linear_scan import LinearScan

UNIVERSE = AABB((0.0, 0.0, 0.0), (30.0, 30.0, 21.0))  # 21/2: a ragged top cell
PROBE_POINTS = np.random.default_rng(1).uniform(-2.0, 32.0, size=(20, 3))
PROBE_LO = np.random.default_rng(2).uniform(-2.0, 28.0, size=(30, 3))
PROBE_WINDOWS = np.stack([PROBE_LO, PROBE_LO + 5.0], axis=1)


def jittered(rng, box: AABB, reach: float) -> AABB:
    shift = rng.uniform(-reach, reach, size=3)
    return AABB(np.add(box.lo, shift), np.add(box.hi, shift))


def move_batch(rng, state: dict[int, AABB], size: int) -> list:
    """Net moves of ``size`` distinct elements — small nudges (mostly in
    place) and jumps (cell switches) mixed — folded into ``state``."""
    moves = []
    for at, eid in enumerate(rng.choice(sorted(state), size=size, replace=False).tolist()):
        new_box = jittered(rng, state[eid], 0.05 if at % 2 else 6.0)
        moves.append((eid, state[eid], new_box))
        state[eid] = new_box
    return moves


def loaded_grid(items) -> UniformGrid:
    grid = UniformGrid(universe=UNIVERSE, cell_size=2.0)
    grid.bulk_load(items)
    grid.batch_range_query([UNIVERSE])  # pack the snapshot
    return grid


def write_state(grid: UniformGrid):
    windows = grid_windows(grid)  # settles the scalar loop's log first
    snap = grid._snapshot
    patches = None if snap is None else (
        snap.dirty, snap.alive.tolist(), snap.boxes.tolist(), snap.windows.tolist(),
        list(snap.extra_eids), [np.asarray(box).tolist() for box in snap.extra_boxes],
        [list(window) for window in snap.extra_windows], list(snap.extra_alive),
        dict(snap.extra_row_of), list(snap.extra_keys), list(snap.extra_rows),
        list(snap.extra_first),
    )
    return (
        list(grid._boxes.items()), windows, patches,
        grid.in_place_updates, grid.cell_switches, grid.snapshot_rebuilds,
        grid.counters.snapshot(),
    )


def read_state(grid: UniformGrid):
    before = grid.counters.snapshot()
    answers = (grid.batch_range_query(PROBE_WINDOWS), grid.batch_knn(PROBE_POINTS, 6))
    spent = grid.counters.diff(before)
    return answers, spent.elem_tests, spent.cells_probed, grid.snapshot_rebuilds


class TestUniformGridEqualsTheScalarLoop:
    @pytest.mark.parametrize("seed", [3, 4, 5])
    @pytest.mark.parametrize("sizes", [(40, 60, 50), (400,), (30, 350, 30), (150, 150)])
    def test_same_grid_snapshot_answers_and_counters(self, seed, sizes):
        """``sizes``: successive batches between queries.  The snapshot of
        these 2 000 boxes compacts past 500 patches and a move costs about
        two, so 30-60 moves patch it (later batches rewrite and relocate
        overlay rows), 350-400 drop it up front, and 150 + 150 drops it with
        the second batch."""
        items = make_items(2000, universe=UNIVERSE, max_extent=1.0, seed=seed)
        looped, batched = loaded_grid(items), loaded_grid(items)
        assert _compaction_threshold(batched._snapshot) == 500
        rng = np.random.default_rng(seed)
        state = dict(items)
        dropped = []
        for size in sizes:
            moves = move_batch(rng, state, size)
            for eid, old_box, new_box in moves:
                looped.update(eid, old_box, new_box)
            batched.apply_moves(moves)
            dropped.append(batched._snapshot is None)
            assert write_state(batched) == write_state(looped)
            assert read_state(batched) == read_state(looped)
        assert batched.cell_switches > 0 and batched.in_place_updates > 0
        assert dropped == {
            (40, 60, 50): [False, False, False], (400,): [True],
            (30, 350, 30): [False, True, False], (150, 150): [False, True],
        }[sizes]
        fresh = UniformGrid(universe=UNIVERSE, cell_size=2.0)
        fresh.bulk_load(placed_items(batched))
        assert read_state(batched)[0] == read_state(fresh)[0]

    def test_a_dropped_batch_patches_nothing(self):
        """Over the threshold the decision is taken before the first patch:
        the snapshot the batch found is discarded unpatched."""
        items = make_items(2000, universe=UNIVERSE, max_extent=1.0, seed=6)
        grid = loaded_grid(items)
        snap = grid._snapshot
        grid.apply_moves(move_batch(np.random.default_rng(6), dict(items), 400))
        assert grid._snapshot is None
        assert snap.dirty == 0 and snap.alive.all() and not snap.extra_eids

    def test_empty_batch_and_generator_input(self):
        items = make_items(50, universe=UNIVERSE, seed=7)
        grid = loaded_grid(items)
        before = write_state(grid)
        grid.apply_moves([])
        assert write_state(grid) == before
        eid, box = items[0]
        grid.apply_moves(move for move in [(eid, box, jittered(np.random.default_rng(7), box, 4.0))])
        assert grid.counters.updates == 1


class TestRefusedBatchMutatesNothing:
    def test_uniform_grid_is_all_or_nothing(self):
        items = make_items(300, universe=UNIVERSE, max_extent=3.0, seed=8)
        grid = loaded_grid(items)
        rng = np.random.default_rng(8)
        # Leave patches of every kind on the snapshot first.
        state = dict(items)
        grid.apply_moves(move_batch(rng, state, 20))
        good = move_batch(rng, dict(state), 30)
        eid, old_box, new_box = good[17]
        nan, inf = float("nan"), float("inf")
        refused = {
            "stale old box": (KeyError, (eid, new_box, new_box)),
            "unknown id": (KeyError, (99_999, old_box, new_box)),
            "repeated id": (ValueError, good[3]),
            "flat box": (ValueError, (eid, old_box, AABB((1.0, 1.0), (2.0, 2.0)))),
            "4-d box": (ValueError, (eid, old_box, AABB((1.0,) * 4, (2.0,) * 4))),
            "nan": (ValueError, (eid, old_box, AABB((nan,) * 3, (nan,) * 3))),
            "inf": (ValueError, (eid, old_box, AABB((1.0,) * 3, (inf,) * 3))),
        }
        before = write_state(grid)
        snapshot = grid._snapshot
        for why, (error, bad_move) in refused.items():
            batch = good[:17] + [bad_move] + good[18:]
            with pytest.raises(error):
                grid.apply_moves(batch)
            assert write_state(grid) == before and grid._snapshot is snapshot, why
        grid.apply_moves(good)  # and the grid still takes the valid batch
        assert grid.counters.updates == 50

    def test_default_refuses_a_repeated_id_up_front_but_is_not_atomic(self):
        items = make_items(40, seed=9)
        index = make_index("rtree")
        index.bulk_load(items)
        (a, box_a), (b, box_b) = items[0], items[1]
        moved_a = jittered(np.random.default_rng(9), box_a, 30.0)
        assert not moved_a.intersects(box_a)
        with pytest.raises(ValueError, match="at most once"):
            index.apply_moves([(a, box_a, moved_a), (a, moved_a, box_a)])
        assert index.counters.updates == 0 and a in index.range_query(box_a)
        with pytest.raises(KeyError):
            index.apply_moves([(a, box_a, moved_a), (b, moved_a, box_b)])  # stale old box
        # Documented: the default is the update loop, so the first move stuck.
        assert index.counters.updates == 1 and a not in index.range_query(box_a)
        assert a in index.range_query(moved_a) and b in index.range_query(box_b)


class TestAReadInsideTheBatch:
    """A read that runs while ``apply_moves`` writes the boxes (here: called
    from the element map's ``__setitem__`` half-way through, the point a
    thread switch could land) settles no part of the batch: it answers the
    state before the step, and the writer places every move."""

    @pytest.mark.parametrize("size", [40, 400])  # below and past compaction
    def test_the_read_sees_the_step_before_and_the_writer_loses_nothing(self, size):
        items = make_items(2000, universe=UNIVERSE, max_extent=1.0, seed=9)
        grid = loaded_grid(items)
        state = dict(items)
        rng = np.random.default_rng(9)
        grid.update(*move_batch(rng, state, 1)[0])  # an earlier logged move
        oracle = LinearScan()
        oracle.bulk_load(state.items())
        expected = oracle.batch_knn(PROBE_POINTS, 6)
        moves = move_batch(rng, state, size)
        seen = []

        class ReadHalfWay(dict):
            def __setitem__(self, eid, box):
                super().__setitem__(eid, box)
                if len(seen) == 0 and eid == moves[size // 2][0]:
                    seen.append(grid.batch_knn(PROBE_POINTS, 6))

        grid._boxes = ReadHalfWay(grid._boxes)
        grid.apply_moves(moves)
        assert seen == [expected]
        eids, boxes = grid.export_items()
        stored = {eid: (tuple(lo), tuple(hi)) for eid, (lo, hi) in zip(eids.tolist(), boxes.tolist())}
        assert stored == {eid: (box.lo, box.hi) for eid, box in grid.boxes.items()}
        assert stored == {eid: (box.lo, box.hi) for eid, box in state.items()}


def registry_items(name: str):
    if name in ("kdtree", "spill_tree"):  # point access methods
        return make_items(120, seed=10, points=True), UNIVERSE_3D
    if name == "quadtree":
        return make_items(120, universe=UNIVERSE_2D, seed=10), UNIVERSE_2D
    return make_items(120, seed=10), UNIVERSE_3D


@pytest.mark.parametrize("name", list(INDEX_REGISTRY))
def test_apply_moves_equals_the_update_loop_on_every_index(name):
    items, universe = registry_items(name)
    rng = np.random.default_rng(11)
    moves = []
    for eid, box in [items[at] for at in rng.choice(len(items), size=45, replace=False)]:
        shift = rng.uniform(-8.0, 8.0, size=universe.dims)
        moves.append((eid, box, AABB(np.add(box.lo, shift), np.add(box.hi, shift))))
    looped, batched = make_index(name), make_index(name)
    for index in (looped, batched):
        index.bulk_load(items)
    for eid, old_box, new_box in moves:
        looped.update(eid, old_box, new_box)
    batched.apply_moves(iter(moves))
    assert batched.counters.updates == looped.counters.updates > 0
    assert len(batched) == len(looped) == len(items)
    windows = [AABB(lo, np.add(lo, 25.0)) for lo in rng.uniform(0.0, 75.0, size=(12, universe.dims))]
    points = rng.uniform(0.0, 100.0, size=(8, universe.dims))
    oracle = LinearScan()
    oracle.bulk_load(items)
    oracle.apply_moves(moves)
    assert [sorted(hits) for hits in batched.batch_range_query(windows)] == [
        sorted(oracle.range_query(window)) for window in windows
    ]
    assert batched.batch_range_query(windows) == looped.batch_range_query(windows)
    assert batched.batch_knn(points, 5) == looped.batch_knn(points, 5)
