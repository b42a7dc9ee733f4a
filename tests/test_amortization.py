"""Section 4.1 economics: crossover fractions, step costs, calibration."""

from types import SimpleNamespace

import numpy as np
import pytest

from repro.core import amortization
from repro.core.amortization import MaintenanceCosts, Strategy, calibrate
from repro.core.uniform_grid import UniformGrid
from repro.geometry.aabb import AABB
from repro.indexes.linear_scan import LinearScan
from repro.indexes.rtree import RTree
from repro.registry import INDEX_REGISTRY, make_index

from conftest import UNIVERSE_2D, UNIVERSE_3D, make_items, make_queries


def paper_costs(n: int = 200_000_000) -> MaintenanceCosts:
    """The paper's measured instance: full update 130 s, rebuild 48 s."""
    return MaintenanceCosts(
        update_per_element=130.0 / n,
        rebuild_fixed=48.0,
        query_indexed=0.2,  # 40 s / 200 queries, from the Fig. 2 experiment
        query_scan=5.0,
        n_elements=n,
    )


class TestCrossover:
    def test_paper_number_reproduced(self):
        """48/130 ≈ 0.369 — 'less than 38% of the dataset'."""
        crossover = paper_costs().crossover_fraction()
        assert crossover == pytest.approx(0.369, abs=0.005)
        assert crossover < 0.38

    def test_crossover_capped_at_one(self):
        costs = MaintenanceCosts(
            update_per_element=1e-9,
            rebuild_fixed=100.0,
            query_indexed=0.1,
            query_scan=1.0,
            n_elements=1000,
        )
        assert costs.crossover_fraction() == 1.0


class TestStepCost:
    def test_update_scales_with_changed_fraction(self):
        costs = paper_costs()
        full = costs.step_cost(Strategy.UPDATE, 1.0, queries=0)
        half = costs.step_cost(Strategy.UPDATE, 0.5, queries=0)
        assert full == pytest.approx(130.0)
        assert half == pytest.approx(65.0)

    def test_rebuild_flat_in_changed_fraction(self):
        costs = paper_costs()
        assert costs.step_cost(Strategy.REBUILD, 0.1, 10) == costs.step_cost(
            Strategy.REBUILD, 1.0, 10
        )

    def test_invalid_fraction(self):
        with pytest.raises(ValueError):
            paper_costs().step_cost(Strategy.UPDATE, 1.5, 0)


def cheapest(costs: MaintenanceCosts, changed_fraction: float, queries: int) -> Strategy:
    return min(Strategy, key=lambda s: costs.step_cost(s, changed_fraction, queries))


class TestChoice:
    """The per-step decision is the cheapest :meth:`MaintenanceCosts.step_cost`."""

    def test_full_change_prefers_rebuild(self):
        assert cheapest(paper_costs(), 1.0, queries=200) is Strategy.REBUILD

    def test_small_change_prefers_update(self):
        assert cheapest(paper_costs(), 0.1, queries=200) is Strategy.UPDATE

    def test_few_queries_prefer_scan(self):
        """One query per step: the scan (5 s) beats paying 48 s to rebuild."""
        assert cheapest(paper_costs(), 1.0, queries=1) is Strategy.SCAN

    def test_choice_flips_exactly_at_crossover(self):
        costs = paper_costs()
        crossover = costs.crossover_fraction()
        assert costs.step_cost(Strategy.UPDATE, crossover, 10) == pytest.approx(
            costs.step_cost(Strategy.REBUILD, crossover, 10)
        )
        assert cheapest(costs, crossover - 0.01, 200) is Strategy.UPDATE
        assert cheapest(costs, crossover + 0.01, 200) is Strategy.REBUILD

    def test_rebuild_amortizes_past_the_break_even_query_count(self):
        """48 s of rebuild pays back at 4.8 s saved per query: 10 queries."""
        costs = paper_costs()
        assert costs.step_cost(Strategy.REBUILD, 1.0, 9) > costs.step_cost(Strategy.SCAN, 1.0, 9)
        assert costs.step_cost(Strategy.REBUILD, 1.0, 11) < costs.step_cost(
            Strategy.SCAN, 1.0, 11
        )

    def test_no_query_count_amortizes_an_index_slower_than_the_scan(self):
        costs = MaintenanceCosts(
            update_per_element=1e-6,
            rebuild_fixed=1.0,
            query_indexed=2.0,
            query_scan=1.0,
            n_elements=1000,
        )
        for queries in (0, 1, 10, 10_000):
            assert cheapest(costs, 1.0, queries) is Strategy.SCAN


def registry_workload(name: str):
    """Items, one step's small moves and queries each registered index takes."""
    universe = UNIVERSE_2D if name == "quadtree" else UNIVERSE_3D
    points = name in ("kdtree", "spill_tree")  # point access methods
    items = make_items(300, universe=universe, seed=11, points=points)
    shift = np.full(universe.dims, 0.05)
    moves = [(eid, box, AABB(box.lo + shift, box.hi + shift)) for eid, box in items[:80]]
    return items, moves, make_queries(4, universe=universe, extent=10.0, seed=12)


class TestCalibrate:
    def test_measures_real_index(self):
        items = make_items(800, seed=5)
        moves = [
            (eid, box, box.expanded(0.01)) for eid, box in items[:100]
        ]
        queries = make_queries(5, extent=10.0, seed=6)
        costs = calibrate(
            index_factory=lambda: RTree(max_entries=16),
            items=items,
            moved_items=moves,
            query_boxes=queries,
            scan_factory=LinearScan,
        )
        assert costs.update_per_element > 0
        assert costs.rebuild_fixed > 0
        assert costs.query_indexed > 0
        assert costs.query_scan > 0
        assert costs.n_elements == 800
        assert 0 < costs.crossover_fraction() <= 1.0

    @pytest.mark.parametrize("name", list(INDEX_REGISTRY))
    def test_calibrates_every_registered_index(self, name):
        items, moves, queries = registry_workload(name)
        costs = calibrate(lambda: make_index(name), items, moves, queries, LinearScan)
        assert costs.update_per_element > 0
        assert costs.rebuild_fixed > 0
        assert costs.n_elements == len(items)
        assert 0 < costs.crossover_fraction() <= 1.0

    def test_a_write_behind_settle_is_timed_as_the_settling_read(self, monkeypatch):
        """The grid's ``update`` only logs; the read that places the log is
        timed on its own, between the update calls' clock reads and the
        settled read's."""
        events = []
        clock = SimpleNamespace(perf_counter=lambda: events.append("clock") or float(len(events)))
        monkeypatch.setattr(amortization, "time", clock)
        settle = UniformGrid._settle
        monkeypatch.setattr(UniformGrid, "_settle",
                            lambda grid: (grid._log and events.append("settle")) or settle(grid))
        items = make_items(400, seed=7)
        moves = [(eid, box, box.expanded(0.5)) for eid, box in items[:200]]
        calibrate(lambda: UniformGrid(universe=UNIVERSE_3D, cell_size=10.0), items, moves,
                  make_queries(3, extent=10.0, seed=8), LinearScan)
        # rebuild start / end, update start / end, the settling read around
        # the settle, the settled read
        assert events[:9] == ["clock"] * 5 + ["settle"] + ["clock"] * 3
        # the restore's settle is placed before the query timing starts
        assert events[9:11] == ["settle", "clock"]

    def test_update_cost_stays_positive_when_the_settled_read_is_slower(self, monkeypatch):
        """Two short reads can time in either order: a settled read slower
        than the settling one must not drive the update price to or below
        zero (``crossover_fraction`` would then read 1.0, "update always
        wins")."""
        clock = SimpleNamespace(now=0.0)
        monkeypatch.setattr("repro.core.amortization.time.perf_counter", lambda: clock.now)

        class ScriptedIndex:
            """Each update costs 1 us; read 2 (the settling read) 1 us,
            read 3 (the settled read) 1 ms, every other read 10 us."""

            def __init__(self):
                self.reads = 0

            def bulk_load(self, items):
                pass

            def update(self, eid, old_box, new_box):
                clock.now += 1e-6

            def range_query(self, box):
                self.reads += 1
                clock.now += {2: 1e-6, 3: 1e-3}.get(self.reads, 1e-5)
                return []

        items = make_items(20, seed=9)
        moves = [(eid, box, box.expanded(0.5)) for eid, box in items]
        costs = calibrate(ScriptedIndex, items, moves, make_queries(3, seed=10), ScriptedIndex)
        assert costs.update_per_element > 0
        # every move is priced, and a negative settling excess adds nothing
        assert costs.update_per_element == pytest.approx(1e-6)

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            calibrate(RTree, [], [], [], LinearScan)
