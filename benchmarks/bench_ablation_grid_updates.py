"""Ablation — grid cell size vs update economics (§4.3).

Paper: "the small movement means that only few elements switch grid cell in
every step, thereby requiring few updates to the data structure."

Reproduction: sweep the grid resolution and measure, under one plasticity
step, (a) the fraction of elements that actually switch cells and (b) the
modeled maintenance cost — against the query cost at that resolution.  Shape
assertions: finer cells ⇒ more cell switches; at the analytical optimum the
switch rate stays below a few percent (the §4.3 claim).
"""

from __future__ import annotations

from repro.core.resolution import optimal_cell_size
from repro.core.uniform_grid import UniformGrid
from repro.datasets.queries import random_range_queries
from repro.datasets.trajectories import PlasticityMotion
from repro.instrumentation.costmodel import MemoryCostModel

from bench_common import record


def test_cell_size_vs_update_cost(neuron_dataset, benchmark):
    items = neuron_dataset.items
    universe = neuron_dataset.universe
    mean_extent, _ = neuron_dataset.element_extent_stats()
    optimum = optimal_cell_size(len(items), universe, mean_extent, avg_query_extent=1.0)
    # Cells far below the element extent explode replication cubically
    # (that pathology is the resolution model's own finding); sweep from
    # half the optimum upward.
    cells = [optimum / 2, optimum, optimum * 2, optimum * 4, optimum * 8]
    queries = random_range_queries(50, universe, extent=1.0, seed=13)

    def sweep():
        rows = []
        switch_rates = {}
        for cell in cells:
            grid = UniformGrid(universe=universe, cell_size=cell)
            grid.bulk_load(items)
            motion = PlasticityMotion(universe=universe, seed=14)
            moves = motion.step(dict(items))
            before = grid.counters.snapshot()
            for eid, old, new in moves:
                grid.update(eid, old, new)
            maintain = MemoryCostModel().seconds(grid.counters.diff(before))
            before = grid.counters.snapshot()
            for query in queries:
                grid.range_query(query)
            query_cost = MemoryCostModel().seconds(grid.counters.diff(before))
            switch_rate = grid.cell_switches / max(grid.counters.updates, 1)
            switch_rates[cell] = switch_rate
            rows.append([f"{cell:.3f}", switch_rate, maintain * 1e3, query_cost * 1e3])
        return rows, switch_rates

    rows, switch_rates = benchmark.pedantic(sweep, rounds=1, iterations=1)
    record(
        "ablation_grid_updates",
        ["cell size", "cell-switch rate", "maintain ms", "query ms (50q)"],
        rows,
        optimum=optimum,
        paper="small motion => few grid cell switches (rate is governed by "
        "displacement/cell-size)",
    )

    # The §4.3 claim, quantified: the switch rate falls monotonically as
    # cells coarsen, and once cells dwarf the per-step displacement almost
    # no update touches the structure.
    ordered = sorted(switch_rates)
    rates_in_order = [switch_rates[cell] for cell in ordered]
    assert all(a >= b for a, b in zip(rates_in_order, rates_in_order[1:])), (
        f"switch rate must fall with coarser cells, got {rates_in_order}"
    )
    assert rates_in_order[-1] < 0.1, (
        f"coarse cells must rarely switch, got {rates_in_order[-1]:.2f}"
    )
