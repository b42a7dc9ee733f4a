"""Simulation engine, models and monitors."""

import pytest

from repro.core.uniform_grid import UniformGrid
from repro.datasets.neuroscience import generate_neurons
from repro.geometry.aabb import AABB
from repro.indexes.linear_scan import LinearScan
from repro.indexes.rtree import RTree
from repro.registry import INDEX_REGISTRY, make_index
from repro.sim.engine import TimeSteppedSimulation
from repro.sim.growth import GrowthModel
from repro.sim.monitors import DensityMonitor, RangeMonitor, VisualizationMonitor
from repro.sim.plasticity import PlasticityModel

from conftest import UNIVERSE_3D


@pytest.fixture
def neuron_dataset():
    return generate_neurons(neurons=10, segments_per_neuron=20, seed=1)


def _plasticity_sim(dataset, index, monitors=()):
    model = PlasticityModel(
        dict(dataset.items), dataset.universe, neighbourhood_queries=4, seed=2
    )
    return TimeSteppedSimulation(model, index, monitors=monitors)


#: Every registered index that stores 3-D boxes (neuron segments); the point
#: access methods and the 2-D quadtree cannot hold the dataset.
BOX_INDEXES_3D = [name for name in INDEX_REGISTRY if name not in ("kdtree", "spill_tree", "quadtree")]


class TestEngine:
    @pytest.mark.parametrize("name", BOX_INDEXES_3D)
    def test_index_stays_consistent(self, neuron_dataset, name):
        index = make_index(name)
        sim = _plasticity_sim(neuron_dataset, index)
        sim.run(4)
        oracle = LinearScan()
        oracle.bulk_load(list(sim.state.items()))
        center = neuron_dataset.universe.center()
        query = AABB.from_center(center, 2.0)
        assert sorted(index.range_query(query)) == sorted(oracle.range_query(query))
        assert index.knn(center, 5) == oracle.knn(center, 5)

    def test_reports_phases(self, neuron_dataset):
        index = UniformGrid(universe=neuron_dataset.universe)
        monitor = RangeMonitor(neuron_dataset.universe, queries_per_step=5, seed=3)
        sim = _plasticity_sim(neuron_dataset, index, monitors=[monitor])
        reports = sim.run(3)
        assert len(reports) == 3
        for report in reports:
            assert report.moves == len(neuron_dataset.items)
            assert report.total_seconds >= 0
            assert report.counters.updates == report.moves

    def test_queries_go_through_the_session(self, neuron_dataset):
        index = UniformGrid(universe=neuron_dataset.universe)
        sim = _plasticity_sim(neuron_dataset, index)
        sim.run(2)
        query = AABB.from_center(neuron_dataset.universe.center(), 3.0)
        assert sim.session.index is index
        assert sorted(sim.session.range_query([query])[0]) == sorted(index.range_query(query))


class TestPlasticityModel:
    def test_density_queries_recorded(self, neuron_dataset):
        index = UniformGrid(universe=neuron_dataset.universe)
        sim = _plasticity_sim(neuron_dataset, index)
        sim.run(2)
        assert len(sim.model.density_samples) == 8  # 4 per step

    def test_empty_model_rejected(self):
        with pytest.raises(ValueError):
            PlasticityModel({}, UNIVERSE_3D)


class TestGrowth:
    def test_growth_inserts_segments(self, neuron_dataset):
        model = GrowthModel(neuron_dataset, join_every=0, seed=8)
        index = UniformGrid(universe=neuron_dataset.universe)
        initial = len(neuron_dataset.capsules)
        sim = TimeSteppedSimulation(model, index)
        sim.run(4)
        assert len(neuron_dataset.capsules) > initial
        assert len(index) == len(neuron_dataset.capsules)

    def test_synapse_detection_runs(self, neuron_dataset):
        model = GrowthModel(neuron_dataset, join_every=2, epsilon=0.3, seed=9)
        index = UniformGrid(universe=neuron_dataset.universe)
        sim = TimeSteppedSimulation(model, index)
        sim.run(4)
        assert len(model.synapse_counts) == 2


class TestMonitors:
    def test_range_monitor_counts(self, neuron_dataset):
        index = UniformGrid(universe=neuron_dataset.universe)
        index.bulk_load(neuron_dataset.items)
        monitor = RangeMonitor(neuron_dataset.universe, queries_per_step=7, seed=10)
        monitor.observe(index, 0)
        assert len(monitor.result_counts) == 7

    def test_density_monitor_history(self, neuron_dataset):
        index = UniformGrid(universe=neuron_dataset.universe)
        index.bulk_load(neuron_dataset.items)
        regions = [AABB.from_center(neuron_dataset.universe.center(), 2.0)]
        monitor = DensityMonitor(regions)
        monitor.observe(index, 0)
        monitor.observe(index, 1)
        assert len(monitor.history) == 2

    def test_visualization_monitor_frames(self, neuron_dataset):
        index = UniformGrid(universe=neuron_dataset.universe)
        index.bulk_load(neuron_dataset.items)
        monitor = VisualizationMonitor(neuron_dataset.universe, resolution=3)
        monitor.observe(index, 0)
        frame = monitor.frames[0]
        assert frame.shape == (3, 3, 3)
        assert frame.sum() >= len(neuron_dataset.items)  # replication counts

    def test_monitor_validation(self):
        with pytest.raises(ValueError):
            DensityMonitor([])
        with pytest.raises(ValueError):
            VisualizationMonitor(UNIVERSE_3D, resolution=0)
