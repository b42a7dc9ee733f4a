"""Figure 1 — timeline of a time-stepped simulation.

Paper: each time step interleaves a "multitude of analysis & update queries"
(computing the next state) with monitoring-phase analysis queries.

Reproduction: a neural plasticity simulation with an in-situ range monitor,
reporting the per-step phase timeline (compute / index maintenance /
monitoring) the figure sketches.  Shape assertions: every phase is exercised
every step, and the counters attribute both update queries and analysis
queries.
"""

from __future__ import annotations

from repro.core.uniform_grid import UniformGrid
from repro.sim.engine import TimeSteppedSimulation
from repro.sim.monitors import RangeMonitor
from repro.sim.plasticity import PlasticityModel

from bench_common import record

STEPS = 5


def test_fig1_simulation_timeline(neuron_dataset, benchmark):
    items = dict(neuron_dataset.items)
    universe = neuron_dataset.universe
    model = PlasticityModel(items, universe, neighbourhood_queries=16, seed=31)
    index = UniformGrid(universe=universe)
    monitor = RangeMonitor(universe, queries_per_step=50, extent=1.5, seed=32)
    sim = TimeSteppedSimulation(model, index, monitors=[monitor])

    reports = benchmark.pedantic(lambda: sim.run(STEPS), rounds=1, iterations=1)

    rows = [
        [
            report.step,
            report.compute_seconds,
            report.maintenance_seconds,
            report.monitor_seconds,
            report.moves,
        ]
        for report in reports
    ]
    record(
        "fig1_timeline",
        ["step", "compute s", "maintain s", "monitor s", "moves"],
        rows,
        elements=len(items),
        paper="analysis & update queries during the step, analysis queries "
        "while monitoring",
    )

    for report in reports:
        assert report.moves == len(items)  # everything moves, every step
        assert report.compute_seconds > 0
        assert report.maintenance_seconds > 0
        assert report.monitor_seconds > 0
    assert len(monitor.result_counts) == STEPS * 50
    assert len(sim.model.density_samples) == STEPS * 16
