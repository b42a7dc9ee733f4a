"""Regression tests for incremental `_GridSnapshot` maintenance.

PR 1's batch kernels packed the UniformGrid into a dense snapshot but threw
it away on *any* mutation, so the first batch after a simulation step repaid
the full packing cost.  These tests pin the incremental behaviour that
replaced it: mutations patch the snapshot (alive mask, overlay cell table,
in-place box rewrites), ``snapshot_rebuilds`` counts full packs, and a
patched snapshot must answer every batch query identically to a
from-scratch rebuild.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import knn_pairs, make_items, make_queries, overlay_cells, placed_items
from repro.core import uniform_grid
from repro.core.multires_grid import MultiResolutionGrid
from repro.core.uniform_grid import UniformGrid, _expand_windows
from repro.geometry.aabb import AABB, boxes_to_array
from repro.indexes.linear_scan import LinearScan


def shifted(box: AABB, delta: float) -> AABB:
    return AABB([c + delta for c in box.lo], [c + delta for c in box.hi])


def assert_matches_fresh_rebuild(grid: UniformGrid, queries, points, k=5):
    """Patched-snapshot answers == a from-scratch grid's == the oracle's."""
    fresh = UniformGrid(universe=grid.universe, cell_size=grid.cell_size)
    fresh.bulk_load(list(grid._boxes.items()))
    oracle = LinearScan()
    oracle.bulk_load(list(grid._boxes.items()))
    got_range = grid.batch_range_query(queries)
    assert [sorted(r) for r in got_range] == [
        sorted(r) for r in fresh.batch_range_query(queries)
    ]
    for answer, query in zip(got_range, queries):
        assert sorted(answer) == sorted(oracle.range_query(query))
    got_knn = grid.batch_knn(points, k)
    assert [knn_pairs(r) for r in got_knn] == [
        knn_pairs(r) for r in fresh.batch_knn(points, k)
    ]
    for answer, point in zip(got_knn, points):
        assert knn_pairs(answer) == knn_pairs(oracle.knn(tuple(point), k))


class TestRebuildCounter:
    def test_insert_batch_remove_batch_rebuilds_at_most_once(self):
        """The ISSUE's acceptance sequence: one pack total, not one per step."""
        items = make_items(300, seed=1)
        grid = UniformGrid()
        grid.bulk_load(items)
        queries = make_queries(8, seed=2)
        assert grid.snapshot_rebuilds == 0

        grid.insert(9_000, AABB((5.0, 5.0, 5.0), (6.0, 6.0, 6.0)))
        grid.batch_range_query(queries)
        grid.delete(*items[10])
        grid.batch_range_query(queries)
        assert grid.snapshot_rebuilds <= 1

    def test_mutation_burst_between_batches_keeps_snapshot(self):
        items = make_items(400, seed=3)
        grid = UniformGrid()
        grid.bulk_load(items)
        queries = make_queries(6, seed=4)
        points = np.array([[20.0, 30.0, 40.0], [75.0, 15.0, 60.0]])
        grid.batch_range_query(queries)
        assert grid.snapshot_rebuilds == 1
        for step in range(5):
            eid, box = items[step]
            grid.update(eid, box, shifted(box, 0.25))
            items[step] = (eid, shifted(box, 0.25))
            grid.batch_range_query(queries)
            grid.batch_knn(points, 4)
        assert grid.snapshot_rebuilds == 1  # every batch reused the patched pack

    def test_deferred_compaction_repacks_once_overlay_outgrows_base(self):
        items = make_items(200, seed=5)
        grid = UniformGrid()
        grid.bulk_load(items)
        grid.batch_range_query(make_queries(2, seed=6))
        assert grid.snapshot_rebuilds == 1
        # Threshold is max(64, n // 4) patches; 80 inserts must cross it.
        for i in range(80):
            grid.insert(50_000 + i, AABB((1.0 + i * 0.1,) * 3, (1.5 + i * 0.1,) * 3))
        grid.batch_range_query(make_queries(2, seed=6))
        assert grid.snapshot_rebuilds == 2


class TestPatchedSnapshotCorrectness:
    def test_inserts_are_visible_through_the_patched_snapshot(self):
        items = make_items(250, seed=7)
        grid = UniformGrid()
        grid.bulk_load(items)
        queries = make_queries(10, seed=8)
        points = np.array([[10.0, 10.0, 10.0], [55.0, 44.0, 33.0]])
        grid.batch_range_query(queries)  # build the snapshot
        rebuilds = grid.snapshot_rebuilds
        for i in range(10):
            grid.insert(20_000 + i, AABB((9.0 + i,) * 3, (10.0 + i,) * 3))
        assert_matches_fresh_rebuild(grid, queries, points)
        assert grid.snapshot_rebuilds == rebuilds

    def test_removes_updates_and_reinserts(self):
        items = make_items(250, seed=9)
        grid = UniformGrid()
        grid.bulk_load(items)
        queries = make_queries(10, seed=10)
        points = np.array([[30.0, 60.0, 20.0], [80.0, 80.0, 80.0]])
        grid.batch_range_query(queries)
        rebuilds = grid.snapshot_rebuilds

        # Remove a handful, move some in place, relocate some across cells,
        # and re-insert a removed id elsewhere — every patch kind at once.
        for eid, box in items[:5]:
            grid.delete(eid, box)
        for eid, box in items[5:10]:
            grid.update(eid, box, shifted(box, 0.01))  # same-cell rewrite
        for eid, box in items[10:15]:
            grid.update(eid, box, shifted(box, 30.0))  # cell switch
        grid.insert(items[0][0], AABB((2.0, 2.0, 2.0), (2.5, 2.5, 2.5)))

        assert_matches_fresh_rebuild(grid, queries, points)
        assert grid.snapshot_rebuilds == rebuilds

    def test_patched_equals_rebuilt_after_knn_only_traffic(self):
        items = make_items(300, seed=11)
        grid = UniformGrid()
        grid.bulk_load(items)
        points = np.array([[25.0, 25.0, 25.0], [5.0, 95.0, 45.0], [60.0, 60.0, 60.0]])
        grid.batch_knn(points, 6)  # snapshot built by the kNN kernel
        assert grid.snapshot_rebuilds == 1
        grid.delete(*items[42])
        grid.insert(31_000, AABB((24.0, 24.0, 24.0), (26.0, 26.0, 26.0)))
        assert_matches_fresh_rebuild(grid, make_queries(5, seed=12), points, k=6)
        assert grid.snapshot_rebuilds == 1

    def test_overlay_entries_replicate_across_cells(self):
        """A patched-in element spanning many cells is found from each."""
        grid = UniformGrid(universe=AABB((0.0, 0.0), (100.0, 100.0)), cell_size=5.0)
        grid.bulk_load(make_items(80, universe=AABB((0.0, 0.0), (100.0, 100.0)), seed=13))
        grid.batch_range_query(boxes_to_array([AABB((0.0, 0.0), (100.0, 100.0))]))
        big = AABB((10.0, 10.0), (40.0, 40.0))  # spans dozens of cells
        grid.insert(70_000, big)
        probes = boxes_to_array(
            [AABB((11.0, 11.0), (12.0, 12.0)), AABB((38.0, 38.0), (39.0, 39.0))]
        )
        for hits in grid.batch_range_query(probes):
            assert 70_000 in hits
        # ... and exactly once per query despite the multi-cell replication.
        assert all(hits.count(70_000) == 1 for hits in grid.batch_range_query(probes))
        assert grid.snapshot_rebuilds == 1


def per_cell_gather(grid: UniformGrid, snap, lo_cells, hi_cells):
    """``_gather_candidates`` as it was while the overlay was a dict walked
    cell by cell (first-common-cell rule, alive filtering and
    ``cells_probed`` accounting included) — the frozen reference for the
    overlay cell table.  Only the overlay's reader is new."""
    counters = grid.counters
    every_axis = (1 << lo_cells.shape[1]) - 1
    qidx, flat_keys, q_first = _expand_windows(lo_cells, hi_cells, snap.strides)
    uniq_keys, inverse = np.unique(flat_keys, return_inverse=True)
    counters.cells_probed += len(uniq_keys)
    pos = np.searchsorted(snap.keys, uniq_keys)
    pos_safe = np.minimum(pos, len(snap.keys) - 1)
    occupied = snap.keys[pos_safe] == uniq_keys
    keep = occupied[inverse]
    cell_pos = pos_safe[inverse][keep]
    bucket_counts = snap.counts[cell_pos]
    n_entries = int(bucket_counts.sum())
    offset = np.arange(n_entries, dtype=np.int64) - np.repeat(
        np.cumsum(bucket_counts) - bucket_counts, bucket_counts
    )
    entry = np.repeat(snap.starts[cell_pos], bucket_counts) + offset
    chosen = (np.repeat(q_first[keep], bucket_counts) | snap.entry_first[entry]) == every_axis
    pair_q = np.repeat(qidx[keep], bucket_counts)[chosen]
    rows = snap.entry_rows[entry[chosen]]
    live = snap.alive[rows]
    pair_q, rows = pair_q[live], rows[live]

    n_base = snap.eids.shape[0]
    res = snap.tops + 1
    axis_bit = 1 << np.arange(lo_cells.shape[1])
    extra_q, extra_rows = [pair_q], [rows]
    for key, entries in overlay_cells(snap).items():
        alive = [pair for pair in entries if snap.extra_alive[pair[0]]]
        if not alive:
            continue
        coords = (key // snap.strides) % res
        covered = np.nonzero(np.all((lo_cells <= coords) & (coords <= hi_cells), axis=1))[0]
        if covered.size == 0:
            continue
        counters.cells_probed += 1
        idxs, e_first = np.array(alive, dtype=np.int64).T
        window_first = (lo_cells[covered] == coords) @ axis_bit
        which_q, which_e = np.nonzero((window_first[:, None] | e_first[None, :]) == every_axis)
        extra_q.append(covered[which_q])
        extra_rows.append(idxs[which_e] + n_base)
    return np.concatenate(extra_q), np.concatenate(extra_rows)


class TestOverlayCellTable:
    """The overlay is probed as a second sorted cell table: whatever the
    churn left in it, the batch kernels answer like a fresh grid, list for
    list, and count what the per-cell loop counted."""

    UNIVERSE = AABB((0.0, 0.0, 0.0), (24.0, 24.0, 17.0))  # 17/2: a ragged top cell

    def random_box(self, rng, max_extent: float) -> AABB:
        lo = rng.uniform(-1.0, [24.0, 24.0, 17.0])
        return AABB(lo, lo + rng.uniform(0.0, max_extent, size=3))

    def kernel_answers(self, grid, windows, points):
        before = grid.counters.snapshot()
        answers = (grid.batch_range_query(windows), grid.batch_knn(points, 1),
                   grid.batch_knn(points, 7))
        spent = grid.counters.diff(before)
        return answers, (spent.elem_tests, spent.cells_probed)

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), rounds=st.integers(1, 3))
    def test_churned_overlay_answers_and_counts(self, seed, rounds):
        rng = np.random.default_rng(seed)
        state = {eid: self.random_box(rng, 3.0) for eid in range(300)}
        grid = UniformGrid(universe=self.UNIVERSE, cell_size=2.0)
        grid.bulk_load(list(state.items()))
        grid.batch_range_query([self.UNIVERSE])  # pack the snapshot
        next_id = 1000

        def move(eid, box):
            grid.update(eid, state[eid], box)
            state[eid] = box

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(uniform_grid, "_SNAPSHOT_DIRTY_MIN", 1 << 30)  # never compact
            for _ in range(rounds):
                for eid in rng.choice(sorted(state), size=20, replace=False).tolist():
                    grid.delete(eid, state.pop(eid))
                fresh_ids = list(range(next_id, next_id + 40))
                next_id += 40
                for eid in fresh_ids:
                    state[eid] = self.random_box(rng, 5.0)
                    grid.insert(eid, state[eid])
                movers = rng.choice(sorted(state), size=60, replace=False).tolist()
                for eid in movers:  # base and overlay rows alike
                    move(eid, self.random_box(rng, 3.0))
                for eid in movers[:15]:  # relocated a second time
                    move(eid, self.random_box(rng, 3.0))
                rewrites = grid.in_place_updates
                for eid in fresh_ids[:10] + movers[15:25]:  # overlay rows, nudged
                    box = state[eid]
                    move(eid, AABB(box.lo, np.add(box.lo, np.subtract(box.hi, box.lo) * 0.999)))
                assert grid.in_place_updates > rewrites
                for eid in fresh_ids[-5:]:  # dead overlay rows
                    grid.delete(eid, state.pop(eid))

        snap = grid._snapshot
        assert snap is not None and grid.snapshot_rebuilds == 1
        assert len(set(snap.extra_keys)) >= 100 and False in snap.extra_alive
        lo = rng.uniform(-2.0, 22.0, size=(40, 3))
        windows = np.stack([lo, lo + rng.uniform(0.0, 6.0, size=(40, 3))], axis=1)
        points = rng.uniform(-3.0, 27.0, size=(25, 3))

        got, got_counts = self.kernel_answers(grid, windows, points)
        rebuilt = UniformGrid(universe=self.UNIVERSE, cell_size=2.0)
        rebuilt.bulk_load(placed_items(grid))
        assert got == self.kernel_answers(rebuilt, windows, points)[0]
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(
                grid, "_gather_candidates", lambda *args: per_cell_gather(grid, *args)
            )
            assert (got, got_counts) == self.kernel_answers(grid, windows, points)
        assert grid.snapshot_rebuilds == 1

    def test_overlay_of_dead_rows_only_is_no_table(self):
        grid = UniformGrid(universe=self.UNIVERSE, cell_size=2.0)
        grid.bulk_load([(1, AABB((1.0,) * 3, (2.0,) * 3)), (2, AABB((9.0,) * 3, (9.5,) * 3))])
        grid.batch_range_query([self.UNIVERSE])
        box = AABB((5.0,) * 3, (7.5,) * 3)
        grid.insert(3, box)
        assert grid._snapshot.overlay_table() is not None
        grid.delete(3, box)
        assert grid._snapshot.extra_keys and grid._snapshot.overlay_table() is None
        assert grid.batch_range_query([self.UNIVERSE]) == [[1, 2]]
        assert grid.batch_knn([(6.0, 6.0, 6.0)], 3) == [grid.knn((6.0, 6.0, 6.0), 3)]
        assert grid.snapshot_rebuilds == 1


def _two_level_dataset(n=160, seed=17):
    """Half small elements (finest level), half large (coarser level)."""
    rng = np.random.default_rng(seed)
    items = []
    for eid in range(n):
        lo = rng.uniform(0.0, 60.0, 3)
        extent = rng.uniform(0.2, 0.6) if eid % 2 == 0 else rng.uniform(18.0, 28.0)
        items.append((eid, AABB(lo, np.minimum(lo + extent, 100.0))))
    return items


class TestMultiResolutionLevelMigration:
    """ISSUE 3 satellite: level migration patches only the source and
    destination level snapshots — the other levels' packs stay warm."""

    def _loaded_grid(self):
        grid = MultiResolutionGrid(
            universe=AABB((0.0,) * 3, (100.0,) * 3), levels=3
        )
        items = _two_level_dataset()
        grid.bulk_load(items)
        return grid, dict(items)

    def test_migration_does_not_repack_any_level(self):
        grid, boxes = self._loaded_grid()
        queries = make_queries(6, seed=18)
        grid.batch_range_query(queries)  # pack every populated level once
        packed = grid.level_snapshot_rebuilds()
        assert grid.snapshot_rebuilds == sum(packed) > 0

        # Grow a small element until it must migrate to a coarser level,
        # and shrink a large one down to the finest level.
        grow_id = 0
        new_big = AABB(boxes[grow_id].lo, tuple(c + 20.0 for c in boxes[grow_id].lo))
        grid.update(grow_id, boxes[grow_id], new_big)
        boxes[grow_id] = new_big
        shrink_id = 1
        new_small = AABB(boxes[shrink_id].lo, tuple(c + 0.3 for c in boxes[shrink_id].lo))
        grid.update(shrink_id, boxes[shrink_id], new_small)
        boxes[shrink_id] = new_small
        assert grid.level_migrations == 2

        grid.batch_range_query(queries)
        grid.batch_knn(np.asarray([[10.0, 10.0, 10.0], [50.0, 50.0, 50.0]]), 5)
        assert grid.level_snapshot_rebuilds() == packed  # zero new packs

    def test_migrated_answers_match_oracle_through_patched_snapshots(self):
        grid, boxes = self._loaded_grid()
        queries = make_queries(8, seed=19)
        points = np.asarray([[15.0, 15.0, 15.0], [70.0, 40.0, 20.0], [1.0, 1.0, 1.0]])
        grid.batch_range_query(queries)
        packed = grid.snapshot_rebuilds

        # A burst of migrations in both directions plus same-level moves.
        for eid in range(0, 12, 2):  # grow small → coarse
            new_box = AABB(boxes[eid].lo, tuple(c + 22.0 for c in boxes[eid].lo))
            grid.update(eid, boxes[eid], new_box)
            boxes[eid] = new_box
        for eid in range(1, 12, 2):  # shrink large → fine
            new_box = AABB(boxes[eid].lo, tuple(c + 0.4 for c in boxes[eid].lo))
            grid.update(eid, boxes[eid], new_box)
            boxes[eid] = new_box
        for eid in range(20, 24):  # same-level drift
            new_box = shifted(boxes[eid], 0.05)
            grid.update(eid, boxes[eid], new_box)
            boxes[eid] = new_box
        assert grid.level_migrations == 12

        oracle = LinearScan()
        oracle.bulk_load(list(boxes.items()))
        got_range = grid.batch_range_query(queries)
        for answer, query in zip(got_range, queries):
            assert sorted(answer) == sorted(oracle.range_query(query))
        got_knn = grid.batch_knn(points, 6)
        for answer, point in zip(got_knn, points):
            assert knn_pairs(answer) == knn_pairs(oracle.knn(tuple(point), 6))
        assert grid.snapshot_rebuilds == packed

    def test_bulk_load_resets_migration_counter(self):
        grid, boxes = self._loaded_grid()
        new_big = AABB(boxes[0].lo, tuple(c + 20.0 for c in boxes[0].lo))
        grid.update(0, boxes[0], new_big)
        assert grid.level_migrations == 1
        grid.bulk_load(_two_level_dataset(seed=23))
        assert grid.level_migrations == 0

    def test_denormal_extent_lands_on_finest_level(self):
        """Regression: a denormal-extent box overflowed the level-selection
        log (``int(floor(inf))``) instead of clamping to the finest level."""
        grid = MultiResolutionGrid(universe=AABB((0.0,) * 3, (32.0,) * 3))
        grid.bulk_load([(0, AABB((0.0, 0.0, 0.0), (0.0, 0.0, 5e-324)))])
        assert grid.level_populations()[-1] == 1
        assert grid.knn((0.0, 0.0, 0.0), 1)[0][1] == 0
