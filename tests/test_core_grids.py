"""The core package: uniform grid, multi-resolution grid, resolution model."""

from itertools import product

import pytest

from repro.core.multires_grid import MultiResolutionGrid
from repro.core.resolution import GridCostModel, default_cell_size, optimal_cell_size
from repro.core.uniform_grid import UniformGrid, _cell_coords, _cell_table
from repro.datasets.queries import random_range_queries, range_queries_for_selectivity
from repro.geometry.aabb import AABB
from repro.indexes.crtree import CRTree
from repro.indexes.rtree import RTree

from conftest import (
    UNIVERSE_3D,
    assert_same_knn,
    assert_same_range_results,
    grid_windows,
    make_items,
    make_queries,
    modeled_query_cost,
)


class TestUniformGrid:
    def test_oracle(self, items_3d, queries_3d):
        grid = UniformGrid(universe=UNIVERSE_3D, cell_size=5.0)
        grid.bulk_load(items_3d)
        assert_same_range_results(grid, items_3d, queries_3d)

    def test_knn(self, items_3d):
        grid = UniformGrid(universe=UNIVERSE_3D, cell_size=5.0)
        grid.bulk_load(items_3d)
        assert_same_knn(grid, items_3d, [(50, 50, 50), (0, 0, 0)], k=8)

    def test_no_tree_traversal(self, items_3d):
        """The paper's central claim: grids spend nothing on node tests."""
        grid = UniformGrid(universe=UNIVERSE_3D, cell_size=5.0)
        grid.bulk_load(items_3d)
        grid.range_query(AABB((10, 10, 10), (40, 40, 40)))
        assert grid.counters.node_tests == 0
        assert grid.counters.cells_probed > 0

    def test_in_place_update_fast_path(self):
        grid = UniformGrid(universe=UNIVERSE_3D, cell_size=10.0)
        box = AABB((5, 5, 5), (6, 6, 6))
        grid.bulk_load([(1, box)])
        nudged = AABB((5.1, 5.1, 5.1), (6.1, 6.1, 6.1))
        grid.update(1, box, nudged)
        assert grid.in_place_updates == 1
        assert grid.cell_switches == 0
        assert grid.range_query(AABB((5, 5, 5), (7, 7, 7))) == [1]

    def test_cell_switch_counted(self):
        grid = UniformGrid(universe=UNIVERSE_3D, cell_size=10.0)
        box = AABB((5, 5, 5), (6, 6, 6))
        far = AABB((85, 85, 85), (86, 86, 86))
        grid.bulk_load([(1, box)])
        grid.update(1, box, far)
        assert grid.cell_switches == 1
        assert grid.range_query(AABB((84, 84, 84), (87, 87, 87))) == [1]

    def test_small_motion_rarely_switches_cells(self):
        """§4.3: 'only few elements switch grid cell in every step'."""
        import numpy as np

        from repro.datasets.trajectories import PlasticityMotion, apply_moves

        items = make_items(500, seed=12, max_extent=0.5)
        grid = UniformGrid(universe=UNIVERSE_3D, cell_size=5.0)
        grid.bulk_load(items)
        live = dict(items)
        motion = PlasticityMotion(universe=UNIVERSE_3D, seed=13)
        for _ in range(3):
            moves = motion.step(live)
            for eid, old, new in moves:
                grid.update(eid, old, new)
            apply_moves(live, moves)
        switch_rate = grid.cell_switches / grid.counters.updates
        assert switch_rate < 0.1

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
    @pytest.mark.parametrize("call", ["insert", "update"])
    def test_non_finite_scalar_writes_are_refused(self, call, bad):
        """Refused with the batch paths' wording, before anything is
        written (no longer an ``OverflowError`` from ``math.floor``)."""
        grid = UniformGrid(universe=UNIVERSE_3D, cell_size=10.0)
        box = AABB((5, 5, 5), (6, 6, 6))
        grid.bulk_load([(1, box)])
        lo, hi = [5.0, 5.0, 5.0], [6.0, 6.0, 6.0]
        (hi if bad > 0 else lo)[1] = bad
        if bad != bad:  # NaN: both corners
            lo[1] = hi[1] = bad
        with pytest.raises(ValueError, match="^box coordinates must be finite$"):
            if call == "insert":
                grid.insert(2, AABB(lo, hi))
            else:
                grid.update(1, box, AABB(lo, hi))
        assert grid._boxes == {1: box} and grid.counters.updates == grid.counters.inserts == 0
        assert grid.range_query(UNIVERSE_3D) == [1] and grid.in_place_updates == 0

    @pytest.mark.parametrize("top", [1, 6_000, 1 << 40, (1 << 62) - 1])
    def test_cell_table_is_the_stable_order_on_both_sort_paths(self, top):
        """Small keys take one plain sort of ``key · n + position``, keys too
        large for it the stable argsort; either way the entries come out in
        stable key order (ties in input order)."""
        import numpy as np

        rng = np.random.default_rng(top % 97)
        keys = rng.integers(0, top, size=5_000, dtype=np.int64)
        rows, first = np.arange(5_000), rng.integers(0, 8, size=5_000).astype(np.uint8)
        cells, starts, counts, got_rows, got_first = _cell_table(keys, rows, first)
        order = np.argsort(keys, kind="stable")
        assert got_rows.tolist() == order.tolist() and got_first.tolist() == first[order].tolist()
        assert cells.tolist() == np.unique(keys).tolist() and counts.sum() == 5_000
        assert (keys[order][starts] == cells).all()

    def test_update_wrong_box_raises(self):
        grid = UniformGrid(universe=UNIVERSE_3D, cell_size=5.0)
        box = AABB((1, 1, 1), (2, 2, 2))
        grid.bulk_load([(1, box)])
        with pytest.raises(KeyError):
            grid.update(1, AABB((0, 0, 0), (1, 1, 1)), box)

    def test_replication_factor(self, items_3d):
        fine = UniformGrid(universe=UNIVERSE_3D, cell_size=1.0)
        fine.bulk_load(items_3d)
        coarse = UniformGrid(universe=UNIVERSE_3D, cell_size=50.0)
        coarse.bulk_load(items_3d)
        assert fine.replication_factor > coarse.replication_factor
        assert coarse.replication_factor >= 1.0

    def test_out_of_universe_elements_still_found(self):
        grid = UniformGrid(universe=AABB((0, 0, 0), (10, 10, 10)), cell_size=2.0)
        outside = AABB((20, 20, 20), (21, 21, 21))
        grid.bulk_load([(1, outside)])
        assert grid.range_query(AABB((19, 19, 19), (22, 22, 22))) == [1]

    def test_occupied_cells_and_memory_count_the_live_windows(self, items_3d):
        """Counted from the live windows after moves and a delete, and
        without packing a snapshot; an empty reload counts nothing."""
        import math

        import numpy as np

        grid = UniformGrid(universe=UNIVERSE_3D, cell_size=5.0)
        grid.bulk_load(items_3d)
        for eid, box in items_3d[:40]:
            grid.update(eid, box, AABB(np.add(box.lo, 7.0), np.add(box.hi, 7.0)))
        grid.delete(*items_3d[50])
        windows = list(grid_windows(grid).values())
        cells = {cell for w in windows for cell in product(*map(range, w[:3], np.add(w[3:], 1)))}
        entries = sum(math.prod(hi - lo + 1 for lo, hi in zip(w[:3], w[3:])) for w in windows)
        assert grid.occupied_cells == len(cells)
        assert grid.memory_bytes() == len(grid) * 3 * 16 + entries * 8 + len(cells) * 16
        assert grid.snapshot_rebuilds == 0 and grid._snapshot is None
        grid.bulk_load([])
        assert grid.occupied_cells == 0 and grid.memory_bytes() == 0

    def test_unlinearizable_grid_answers_like_one_built_by_inserts(self):
        """~2M cells per axis: no int64 cell key, so there is no snapshot and
        the grid answers through ``LinearScan``'s kernels over its live rows
        (``elem_tests`` = queries × elements); a bulk-loaded grid and one
        built by inserts answer, and count their cells, alike."""
        import numpy as np

        from repro.indexes.linear_scan import LinearScan

        rng = np.random.default_rng(5)
        items = [(eid, AABB(p, p + 2e-4)) for eid, p in enumerate(rng.uniform(0.0, 100.0, (80, 3)))]
        bulk = UniformGrid(universe=AABB((0.0,) * 3, (100.0,) * 3), cell_size=5e-5)
        bulk.bulk_load(items)
        one_by_one = UniformGrid(universe=bulk.universe, cell_size=5e-5)
        for eid, box in items:
            one_by_one.insert(eid, box)
        scan = LinearScan()
        scan.bulk_load(items)
        windows = [items[0][1], AABB((10.0,) * 3, (60.0,) * 3), bulk.universe]
        points = rng.uniform(0.0, 100.0, (5, 3)).tolist()
        for grid in (bulk, one_by_one):
            before = grid.counters.snapshot()
            assert grid.batch_range_query(windows) == scan.batch_range_query(windows)
            assert grid.counters.diff(before).elem_tests == len(windows) * len(items)
            assert [grid.range_query(box) for box in windows] == scan.batch_range_query(windows)
            assert grid.batch_knn(points, 4) == scan.batch_knn(points, 4)
            assert [grid.knn(point, 4) for point in points] == [scan.knn(point, 4) for point in points]
            assert grid.snapshot_rebuilds == 0 and grid._snapshot is None
        windows = grid_windows(bulk).values()
        cells = {cell for w in windows for cell in product(*map(range, w[:3], np.add(w[3:], 1)))}
        assert bulk.occupied_cells == one_by_one.occupied_cells == len(cells)
        assert bulk.memory_bytes() == one_by_one.memory_bytes()

    @pytest.mark.parametrize("lazy", [False, True])
    def test_updates_place_boxes_where_cell_coords_do(self, lazy):
        """``update`` must place every box exactly where ``_cell_coords``
        over the snapshot's per-axis (origin, top) invariants does — outside
        the universe, on its top edge, and on a grid that configured itself
        from its first ``insert``."""
        import numpy as np

        seed_box = AABB((0.0, 0.0, 0.0), (10.0, 10.0, 7.0))
        if lazy:
            grid = UniformGrid()
        else:
            grid = UniformGrid(universe=seed_box, cell_size=2.0)  # 7/2: a ragged top cell
        grid.insert(0, seed_box)
        grid.insert(1, AABB((1.0, 1.0, 1.0), (2.0, 2.0, 2.0)))
        snap = grid._ensure_snapshot()
        top = grid.universe.hi
        probes = [
            AABB((-5.0, -1e30, 3.0), (-4.0, -1e29, 3.5)),  # below the universe
            AABB((50.0, 1e30, 3.0), (60.0, 1e30, 3.5)),  # above it
            AABB((-3.0, 4.0, -2.0), (30.0, 5.0, 40.0)),  # straddling both edges
            AABB(top, top),  # exactly on the top corner
            AABB((top[0] - 1.0, 0.0, 0.0), top),  # reaching the top edge
            AABB((3.9, 4.0, 4.1), (4.0, 6.0, 6.1)),  # on interior cell boundaries
        ]
        box = grid._boxes[1]
        for probe in probes:
            corners = np.array([probe.lo, probe.hi], dtype=np.float64)
            vectorized = _cell_coords(corners, snap.origin, snap.cell, snap.tops).tolist()
            lo_cells, hi_cells = vectorized
            grid.update(1, box, probe)
            box = probe
            assert grid_windows(grid)[1] == (*lo_cells, *hi_cells)
            assert 1 in grid.batch_range_query([probe])[0]  # the patched snapshot agrees
            assert sorted(grid.range_query(probe)) == sorted(grid.batch_range_query([probe])[0])


class TestMultiResolutionGrid:
    def test_oracle_mixed_sizes(self, queries_3d):
        small = make_items(200, seed=1, max_extent=0.5)
        large = [
            (eid + 1000, box)
            for eid, box in make_items(50, seed=2, max_extent=30.0)
        ]
        items = small + large
        grid = MultiResolutionGrid(universe=UNIVERSE_3D, levels=4)
        grid.bulk_load(items)
        assert_same_range_results(grid, items, queries_3d)

    def test_levels_split_by_size(self):
        small = make_items(100, seed=1, max_extent=0.3)
        large = [(eid + 1000, box) for eid, box in make_items(100, seed=2, max_extent=40.0)]
        grid = MultiResolutionGrid(universe=UNIVERSE_3D, levels=4)
        grid.bulk_load(small + large)
        populations = grid.level_populations()
        assert sum(populations) == 200
        assert populations[0] > 0  # coarse level holds big elements
        assert populations[-1] > 0 or populations[-2] > 0  # fine levels hold small

    def test_replication_bounded(self):
        items = make_items(400, seed=3, max_extent=20.0)
        grid = MultiResolutionGrid(universe=UNIVERSE_3D, levels=5)
        grid.bulk_load(items)
        total_stored = sum(g.replication_factor * len(g) for g in grid._grids)
        assert total_stored / len(items) <= 8.0  # capped at 2^3 by level choice

    def test_knn(self, items_3d):
        grid = MultiResolutionGrid(universe=UNIVERSE_3D)
        grid.bulk_load(items_3d)
        assert_same_knn(grid, items_3d, [(33, 66, 50)], k=7)

    def test_update_level_migration(self):
        grid = MultiResolutionGrid(universe=UNIVERSE_3D, levels=4)
        small = AABB((10, 10, 10), (10.5, 10.5, 10.5))
        grid.bulk_load([(1, small)])
        big = AABB((10, 10, 10), (60, 60, 60))
        grid.update(1, small, big)
        assert grid.range_query(AABB((50, 50, 50), (55, 55, 55))) == [1]

    def test_dynamic(self, queries_3d):
        items = make_items(300, seed=4)
        grid = MultiResolutionGrid(universe=UNIVERSE_3D)
        live = {}
        for eid, box in items:
            grid.insert(eid, box)
            live[eid] = box
        for eid in list(live)[::3]:
            grid.delete(eid, live.pop(eid))
        assert_same_range_results(grid, list(live.items()), queries_3d)

    def test_rejects_bad_params(self):
        with pytest.raises(ValueError):
            MultiResolutionGrid(levels=0)
        with pytest.raises(ValueError):
            MultiResolutionGrid(ratio=1.0)


class TestResolutionModel:
    def test_default_cell_size_scales_with_density(self):
        sparse = default_cell_size(100, UNIVERSE_3D)
        dense = default_cell_size(100_000, UNIVERSE_3D)
        assert dense < sparse

    def test_optimum_beats_extremes(self):
        model = GridCostModel(
            n=100_000,
            universe_extent=100.0,
            avg_element_extent=0.5,
            avg_query_extent=5.0,
        )
        best = model.optimal_cell_size()
        assert model.query_cost(best) <= model.query_cost(best * 16)
        assert model.query_cost(best) <= model.query_cost(best / 16)

    def test_bigger_queries_want_coarser_cells(self):
        small_queries = GridCostModel(
            n=50_000, universe_extent=100.0, avg_element_extent=0.5, avg_query_extent=1.0
        ).optimal_cell_size()
        big_queries = GridCostModel(
            n=50_000, universe_extent=100.0, avg_element_extent=0.5, avg_query_extent=20.0
        ).optimal_cell_size()
        assert big_queries > small_queries

    def test_wrapper(self):
        cell = optimal_cell_size(10_000, UNIVERSE_3D, 0.5, 5.0)
        assert 0 < cell < 100

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            default_cell_size(0, UNIVERSE_3D)
        model = GridCostModel(
            n=10, universe_extent=10.0, avg_element_extent=1.0, avg_query_extent=1.0
        )
        with pytest.raises(ValueError):
            model.query_cost(0.0)


class TestModeledCostOnNeurons:
    """The paper's grid-vs-tree shapes on neuron tissue, priced by the memory
    cost model from counters (deterministic, unlike wall clock)."""

    def test_grids_skip_the_tree_and_cost_less(self, small_neurons):
        """§3.3: a grid does no node tests and answers cheaper than the
        R-tree; the CR-tree cuts memory traffic but still walks a tree."""
        items, universe = small_neurons.items, small_neurons.universe
        queries = range_queries_for_selectivity(60, universe, selectivity=5e-6, seed=7)
        mean_extent, _ = small_neurons.element_extent_stats()
        cell = optimal_cell_size(len(items), universe, mean_extent, max(queries[0].extents()))
        costs = {}
        for name, index in (
            ("rtree", RTree(max_entries=16)),
            ("crtree", CRTree(max_entries=42)),
            ("grid", UniformGrid(universe=universe, cell_size=cell)),
            ("multigrid", MultiResolutionGrid(universe=universe, levels=4)),
        ):
            index.bulk_load(items)
            costs[name] = modeled_query_cost(index, queries)
        assert len({hits for _, _, hits in costs.values()}) == 1
        assert costs["crtree"][1].bytes_touched < costs["rtree"][1].bytes_touched
        assert costs["crtree"][1].node_tests > 0
        assert costs["grid"][1].node_tests == 0
        assert costs["grid"][0] < costs["rtree"][0]

    def test_model_optimum_is_near_the_swept_best(self, small_neurons):
        """The analytical cell size prices within 2.5x of the best cell of a
        sweep two octaves either side of it."""
        items, universe = small_neurons.items, small_neurons.universe
        mean_extent, _ = small_neurons.element_extent_stats()
        queries = random_range_queries(40, universe, extent=2.0, seed=3)
        predicted = GridCostModel(
            n=len(items),
            universe_extent=max(universe.extents()),
            avg_element_extent=mean_extent,
            avg_query_extent=2.0,
        ).optimal_cell_size()
        costs = {}
        for scale in (1 / 8, 1 / 4, 1 / 2, 1, 2, 4, 8):
            grid = UniformGrid(universe=universe, cell_size=predicted * scale)
            grid.bulk_load(items)
            costs[scale] = modeled_query_cost(grid, queries)[0]
        assert costs[1] <= 2.5 * min(costs.values())

    def test_multires_beats_the_worst_single_resolution(self, small_neurons):
        """On mixed small and large queries the multi-resolution grid removes
        the resolution-guessing risk: it beats the worst single grid."""
        items, universe = small_neurons.items, small_neurons.universe
        mixed = random_range_queries(60, universe, extent=0.8, seed=4)
        mixed += random_range_queries(10, universe, extent=18.0, seed=5)
        multi = MultiResolutionGrid(universe=universe, levels=4)
        multi.bulk_load(items)
        singles = []
        for cell in (0.5, 2.0, 8.0):
            grid = UniformGrid(universe=universe, cell_size=cell)
            grid.bulk_load(items)
            singles.append(modeled_query_cost(grid, mixed)[0])
        assert modeled_query_cost(multi, mixed)[0] < max(singles)
