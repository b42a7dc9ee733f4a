"""Section 4.1 economics: crossover fractions and strategy choice."""

from types import SimpleNamespace

import pytest

from repro.core import amortization
from repro.core.amortization import MaintenanceCosts, Strategy, UpdateEconomics, calibrate
from repro.core.uniform_grid import UniformGrid
from repro.indexes.linear_scan import LinearScan
from repro.indexes.rtree import RTree

from conftest import UNIVERSE_3D, make_items, make_queries


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


class TestChoice:
    def test_full_change_prefers_rebuild(self):
        economics = UpdateEconomics(paper_costs())
        assert economics.choose(changed_fraction=1.0, queries=1000) is Strategy.REBUILD

    def test_small_change_prefers_update(self):
        economics = UpdateEconomics(paper_costs())
        assert economics.choose(changed_fraction=0.05, queries=1000) is Strategy.UPDATE

    def test_few_queries_prefer_scan(self):
        """'rebuilding an index may no longer pay off as the cost cannot be
        amortized over enough queries'."""
        economics = UpdateEconomics(paper_costs())
        assert economics.choose(changed_fraction=1.0, queries=1) is Strategy.SCAN

    def test_choice_flips_exactly_at_crossover(self):
        costs = paper_costs()
        economics = UpdateEconomics(costs)
        crossover = costs.crossover_fraction()
        assert economics.choose(crossover - 0.01, queries=10_000) is Strategy.UPDATE
        assert economics.choose(crossover + 0.01, queries=10_000) is Strategy.REBUILD

    def test_amortization_queries(self):
        economics = UpdateEconomics(paper_costs())
        threshold = economics.amortization_queries()
        assert threshold == pytest.approx(48.0 / 4.8)

    def test_amortization_infinite_when_index_slower(self):
        costs = MaintenanceCosts(
            update_per_element=0.0,
            rebuild_fixed=1.0,
            query_indexed=2.0,
            query_scan=1.0,
            n_elements=10,
        )
        assert UpdateEconomics(costs).amortization_queries() == float("inf")


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

    def test_a_write_behind_settle_is_timed_as_update_cost(self, monkeypatch):
        """The grid's ``update`` only logs; the read that places the log must
        fall inside the timed update region, between its two clock reads."""
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
        # rebuild start / end, update start, the settle, update end
        assert events[:5] == ["clock", "clock", "clock", "settle", "clock"]
        # the restore's settle is placed before the query timing starts
        assert events[5:9] == ["clock", "clock", "settle", "clock"]

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            calibrate(RTree, [], [], [], LinearScan)
