"""Cross-cutting integration tests: engine × index × monitors.

These scenarios exercise the full stack the way a downstream user would:
a living simulation whose index is maintained under each strategy, with
in-situ analysis running, and with the results cross-checked against the
linear-scan oracle at every step.
"""

import pytest

from repro.core.uniform_grid import UniformGrid
from repro.datasets.neuroscience import generate_neurons
from repro.datasets.queries import random_range_queries
from repro.geometry.aabb import AABB
from repro.indexes.linear_scan import LinearScan
from repro.indexes.rtree import RTree
from repro.moving.bottom_up import BottomUpRTree
from repro.moving.lur_tree import LURTree
from repro.sim.engine import TimeSteppedSimulation
from repro.sim.monitors import DensityMonitor, RangeMonitor
from repro.sim.plasticity import PlasticityModel


@pytest.fixture(scope="module")
def dataset():
    return generate_neurons(neurons=12, segments_per_neuron=25, seed=21)


INDEX_FACTORIES = [
    pytest.param(lambda u: UniformGrid(universe=u), id="grid"),
    pytest.param(lambda u: RTree(max_entries=8), id="rtree"),
    pytest.param(lambda u: BottomUpRTree(max_entries=8), id="bottom-up"),
    pytest.param(lambda u: LURTree(grace=0.2), id="lur"),
]


class TestEngineWithEveryIndexFamily:
    @pytest.mark.parametrize("factory", INDEX_FACTORIES)
    def test_simulation_keeps_index_consistent(self, dataset, factory):
        index = factory(dataset.universe)
        model = PlasticityModel(
            dict(dataset.items), dataset.universe, neighbourhood_queries=4, seed=22
        )
        monitor = RangeMonitor(dataset.universe, queries_per_step=5, extent=1.0, seed=23)
        sim = TimeSteppedSimulation(model, index, monitors=[monitor])
        sim.run(3)
        oracle = LinearScan()
        oracle.bulk_load(list(sim.state.items()))
        for query in random_range_queries(5, dataset.universe, extent=2.0, seed=24):
            assert sorted(index.range_query(query)) == sorted(oracle.range_query(query))


class TestMonitorsObserveConsistentState:
    def test_density_history_tracks_true_counts(self, dataset):
        regions = [
            AABB.from_center(dataset.universe.center(), 2.0),
            dataset.universe,  # whole-universe region counts everything
        ]
        index = UniformGrid(universe=dataset.universe)
        model = PlasticityModel(dict(dataset.items), dataset.universe, seed=29)
        monitor = DensityMonitor(regions)
        sim = TimeSteppedSimulation(model, index, monitors=[monitor])
        sim.run(3)
        for counts in monitor.history:
            assert counts[1] == len(dataset.items)  # nothing lost or duplicated

    def test_counter_attribution_per_step(self, dataset):
        """Every step's counter diff covers both update and monitor queries."""
        index = UniformGrid(universe=dataset.universe)
        model = PlasticityModel(
            dict(dataset.items), dataset.universe, neighbourhood_queries=6, seed=30
        )
        monitor = RangeMonitor(dataset.universe, queries_per_step=7, extent=1.0, seed=31)
        sim = TimeSteppedSimulation(model, index, monitors=[monitor])
        reports = sim.run(2)
        for report in reports:
            assert report.counters.updates == len(dataset.items)
            assert report.counters.cells_probed > 0
