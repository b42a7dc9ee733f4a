"""Neural plasticity with in-situ monitoring — the paper's Section 4 workload.

Run:  python examples/neural_plasticity_monitoring.py

Every element moves a little every step (mean 0.04 um, the paper's measured
trace).  The simulation is driven twice: once maintaining an R-tree with
per-element updates, then with the uniform grid updated in place.  The
Section 4.1 economics calibrated on this machine price one step of updating
the grid against rebuilding it; the per-step timeline (Figure 1) shows what
each index's maintenance cost.
"""

from repro import LinearScan, RTree, TimeSteppedSimulation, UniformGrid
from repro.analysis.reporting import format_table
from repro.core.amortization import Strategy, calibrate
from repro.datasets import generate_neurons
from repro.datasets.queries import random_range_queries
from repro.datasets.trajectories import PlasticityMotion
from repro.sim import PlasticityModel, RangeMonitor

STEPS = 3
QUERIES_PER_STEP = 40


def run_simulation(dataset, index):
    model = PlasticityModel(
        dict(dataset.items), dataset.universe, neighbourhood_queries=16, seed=3
    )
    monitor = RangeMonitor(
        dataset.universe, queries_per_step=QUERIES_PER_STEP, extent=1.5, seed=4
    )
    sim = TimeSteppedSimulation(model, index, monitors=[monitor])
    return sim.run(STEPS)


def main() -> None:
    dataset = generate_neurons(neurons=20, segments_per_neuron=30, seed=2)
    print(f"tissue model: {len(dataset)} segments; every one moves every step")

    # Calibrate the Section 4.1 economics on this machine and dataset.
    queries = random_range_queries(10, dataset.universe, extent=1.5, seed=5)
    moves = PlasticityMotion(universe=dataset.universe, seed=6).step(dict(dataset.items))
    costs = calibrate(
        index_factory=lambda: UniformGrid(universe=dataset.universe),
        items=dataset.items,
        moved_items=moves,
        query_boxes=queries,
        scan_factory=LinearScan,
    )
    print(
        f"calibrated: update {costs.update_per_element * 1e6:.1f} us/elem, "
        f"rebuild {costs.rebuild_fixed * 1e3:.1f} ms, "
        f"crossover at {costs.crossover_fraction():.0%} changed"
    )
    for strategy in (Strategy.UPDATE, Strategy.REBUILD):
        seconds = costs.step_cost(strategy, 1.0, queries=QUERIES_PER_STEP)
        print(f"  one step, every element moved, by {strategy.value}: {seconds * 1e3:.1f} ms")

    for name, index in (
        ("R-tree, per-element updates", RTree(max_entries=16)),
        ("uniform grid, updated in place", UniformGrid(universe=dataset.universe)),
    ):
        reports = run_simulation(dataset, index)
        rows = [
            [r.step, r.compute_seconds, r.maintenance_seconds, r.monitor_seconds]
            for r in reports
        ]
        print(f"\n=== {name} ===")
        print(format_table(["step", "compute s", "maintain s", "monitor s"], rows))
        total = sum(r.total_seconds for r in reports)
        print(f"total: {total:.3f} s for {STEPS} steps")


if __name__ == "__main__":
    main()
