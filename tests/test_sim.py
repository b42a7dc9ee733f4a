"""Simulation engine, models and monitors."""

import pytest

from repro.continuous import ContinuousRangeQuery, Insert
from repro.core.uniform_grid import UniformGrid
from repro.datasets.neuroscience import generate_neurons
from repro.engine import QuerySession
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

    def test_grown_segments_pass_through_the_maintenance_phase(self):
        """Growth returns its new segments as inserts and the engine applies
        them: the index, the model-owned state and a standing range query
        over the whole universe all hold the 20 initial plus 12 grown
        segments, and no step counts a move."""
        dataset = generate_neurons(neurons=4, segments_per_neuron=5, seed=8)
        model = GrowthModel(dataset, join_every=0, seed=8)
        index = UniformGrid(universe=dataset.universe)
        sim = TimeSteppedSimulation(model, index, continuous=True)
        everything = sim.continuous.subscribe(ContinuousRangeQuery(dataset.universe))
        reports = sim.run(3)
        assert (len(index), len(sim.state), len(everything.result)) == (32, 32, 32)
        assert [report.moves for report in reports] == [0, 0, 0]

    def test_advance_leaves_the_index_alone(self, neuron_dataset):
        model = GrowthModel(neuron_dataset, join_every=0, seed=8)
        index = LinearScan()
        index.bulk_load(list(model.items().items()))
        before = len(index)
        updates = model.advance(index, 0)
        assert len(index) == before
        assert [type(update) for update in updates] == [Insert] * model.grown[0]

    def test_synapse_detection_runs(self, neuron_dataset):
        model = GrowthModel(neuron_dataset, join_every=2, epsilon=0.3, seed=9)
        index = UniformGrid(universe=neuron_dataset.universe)
        sim = TimeSteppedSimulation(model, index)
        sim.run(4)
        assert len(model.synapse_counts) == 2

    def test_a_failed_tick_still_takes_its_step(self, neuron_dataset):
        """The model has grown by the time the maintenance tick refines the
        standing synapse join, so a step whose refine raises is still taken:
        the session's tick count and the engine's step count stay equal, and
        each delta's tick t is step t - 1 of a step that reported."""

        class FailingNeuronOf(dict):
            armed = False

            def __getitem__(self, eid):
                if self.armed:
                    raise RuntimeError("neuron lookup failed")
                return super().__getitem__(eid)

        neuron_dataset.neuron_of = FailingNeuronOf(neuron_dataset.neuron_of)
        model = GrowthModel(neuron_dataset, join_every=2, epsilon=0.3, seed=9)
        index = UniformGrid(universe=neuron_dataset.universe)
        sim = TimeSteppedSimulation(model, index, continuous=True)
        sim.run(2)
        neuron_dataset.neuron_of.armed = True
        with pytest.raises(RuntimeError, match="neuron lookup failed"):
            sim.run(1)  # step 2's refine raises
        neuron_dataset.neuron_of.armed = False
        sim.run(2)
        assert sim._step == sim.continuous.ticks == 5
        ticks = [delta.tick for delta in model.synapse_subscription.deltas]
        assert [tick - 1 for tick in ticks] == [report.step for report in sim.reports]
        assert [report.step for report in sim.reports] == [0, 1, 3, 4]


class TestMonitors:
    def test_range_monitor_counts(self, neuron_dataset):
        index = UniformGrid(universe=neuron_dataset.universe)
        index.bulk_load(neuron_dataset.items)
        monitor = RangeMonitor(neuron_dataset.universe, queries_per_step=7, seed=10)
        monitor.observe(QuerySession(index), 0)
        assert len(monitor.result_counts) == 7

    def test_density_monitor_history(self, neuron_dataset):
        index = UniformGrid(universe=neuron_dataset.universe)
        index.bulk_load(neuron_dataset.items)
        regions = [AABB.from_center(neuron_dataset.universe.center(), 2.0)]
        monitor = DensityMonitor(regions)
        session = QuerySession(index)
        monitor.observe(session, 0)
        monitor.observe(session, 1)
        assert len(monitor.history) == 2

    def test_visualization_monitor_frames(self, neuron_dataset):
        index = UniformGrid(universe=neuron_dataset.universe)
        index.bulk_load(neuron_dataset.items)
        monitor = VisualizationMonitor(neuron_dataset.universe, resolution=3)
        monitor.observe(QuerySession(index), 0)
        frame = monitor.frames[0]
        assert frame.shape == (3, 3, 3)
        assert frame.sum() >= len(neuron_dataset.items)  # replication counts

    def test_monitor_validation(self):
        with pytest.raises(ValueError):
            DensityMonitor([])
        with pytest.raises(ValueError):
            VisualizationMonitor(UNIVERSE_3D, resolution=0)
