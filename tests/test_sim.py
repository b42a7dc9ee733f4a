"""Simulation engine, models and monitors."""

import numpy as np
import pytest

from repro.core.adaptive import AdaptiveSimulationIndex
from repro.core.amortization import MaintenanceCosts
from repro.core.uniform_grid import UniformGrid
from repro.datasets.neuroscience import generate_neurons
from repro.geometry.aabb import AABB
from repro.indexes.linear_scan import LinearScan
from repro.indexes.rtree import RTree
from repro.sim.engine import TimeSteppedSimulation
from repro.sim.growth import GrowthModel
from repro.sim.material import MaterialModel
from repro.sim.monitors import DensityMonitor, RangeMonitor, VisualizationMonitor
from repro.sim.nbody import BarnesHutTree, NBodyModel, direct_forces
from repro.sim.plasticity import PlasticityModel

from conftest import UNIVERSE_3D, make_items


@pytest.fixture
def neuron_dataset():
    return generate_neurons(neurons=10, segments_per_neuron=20, seed=1)


def _plasticity_sim(dataset, index, maintenance, monitors=()):
    model = PlasticityModel(
        dict(dataset.items), dataset.universe, neighbourhood_queries=4, seed=2
    )
    return TimeSteppedSimulation(model, index, monitors=monitors, maintenance=maintenance)


class TestEngine:
    @pytest.mark.parametrize("maintenance", ["update", "rebuild"])
    def test_index_stays_consistent(self, neuron_dataset, maintenance):
        index = UniformGrid(universe=neuron_dataset.universe)
        sim = _plasticity_sim(neuron_dataset, index, maintenance)
        sim.run(4)
        oracle = LinearScan()
        oracle.bulk_load(list(sim.state.items()))
        query = AABB.from_center(neuron_dataset.universe.center(), 2.0)
        assert sorted(index.range_query(query)) == sorted(oracle.range_query(query))

    def test_reports_phases(self, neuron_dataset):
        index = UniformGrid(universe=neuron_dataset.universe)
        monitor = RangeMonitor(neuron_dataset.universe, queries_per_step=5, seed=3)
        sim = _plasticity_sim(neuron_dataset, index, "update", monitors=[monitor])
        reports = sim.run(3)
        assert len(reports) == 3
        for report in reports:
            assert report.moves == len(neuron_dataset.items)
            assert report.strategy == "update"
            assert report.total_seconds >= 0
            assert report.counters.updates == report.moves

    def test_adaptive_requires_adaptive_index(self, neuron_dataset):
        model = PlasticityModel(dict(neuron_dataset.items), neuron_dataset.universe)
        with pytest.raises(ValueError):
            TimeSteppedSimulation(model, UniformGrid(), maintenance="adaptive")

    def test_unknown_maintenance(self, neuron_dataset):
        model = PlasticityModel(dict(neuron_dataset.items), neuron_dataset.universe)
        with pytest.raises(ValueError):
            TimeSteppedSimulation(model, UniformGrid(), maintenance="yolo")

    def test_adaptive_records_strategy(self, neuron_dataset):
        costs = MaintenanceCosts(
            update_per_element=1e-6,
            rebuild_fixed=1e-3,
            query_indexed=1e-5,
            query_scan=1e-3,
            n_elements=len(neuron_dataset.items),
        )
        index = AdaptiveSimulationIndex(neuron_dataset.universe, costs=costs)
        monitor = RangeMonitor(neuron_dataset.universe, queries_per_step=20, seed=4)
        sim = _plasticity_sim(neuron_dataset, index, "adaptive", monitors=[monitor])
        reports = sim.run(3)
        assert all(r.strategy in ("update", "rebuild", "scan") for r in reports)

    def test_rebuild_vs_update_same_results(self, neuron_dataset):
        grid_a = UniformGrid(universe=neuron_dataset.universe)
        grid_b = UniformGrid(universe=neuron_dataset.universe)
        sim_a = _plasticity_sim(neuron_dataset, grid_a, "update")
        sim_b = _plasticity_sim(neuron_dataset, grid_b, "rebuild")
        sim_a.run(3)
        sim_b.run(3)
        # Identical seeds -> identical physics -> identical final state.
        query = AABB.from_center(neuron_dataset.universe.center(), 3.0)
        assert sorted(grid_a.range_query(query)) == sorted(grid_b.range_query(query))

    def test_queries_go_through_the_session(self, neuron_dataset):
        index = UniformGrid(universe=neuron_dataset.universe)
        sim = _plasticity_sim(neuron_dataset, index, "update")
        sim.run(2)
        query = AABB.from_center(neuron_dataset.universe.center(), 3.0)
        assert sim.session.index is index
        assert sorted(sim.session.range_query([query])[0]) == sorted(index.range_query(query))


class TestPlasticityModel:
    def test_density_queries_recorded(self, neuron_dataset):
        index = UniformGrid(universe=neuron_dataset.universe)
        sim = _plasticity_sim(neuron_dataset, index, "update")
        sim.run(2)
        assert len(sim.model.density_samples) == 8  # 4 per step

    def test_empty_model_rejected(self):
        with pytest.raises(ValueError):
            PlasticityModel({}, UNIVERSE_3D)


class TestNBody:
    def test_barnes_hut_approximates_direct(self):
        rng = np.random.default_rng(5)
        positions = rng.uniform(2, 8, (80, 3))
        masses = rng.uniform(0.5, 2.0, 80)
        tree = BarnesHutTree(positions, masses, theta=0.3)
        approx = np.stack([tree.acceleration_on(i) for i in range(80)])
        exact = direct_forces(positions, masses)
        error = np.linalg.norm(approx - exact) / np.linalg.norm(exact)
        assert error < 0.03

    def test_smaller_theta_is_more_accurate(self):
        rng = np.random.default_rng(6)
        positions = rng.uniform(0, 10, (60, 3))
        masses = rng.uniform(0.5, 2.0, 60)
        exact = direct_forces(positions, masses)

        def error(theta):
            tree = BarnesHutTree(positions, masses, theta=theta)
            approx = np.stack([tree.acceleration_on(i) for i in range(60)])
            return np.linalg.norm(approx - exact) / np.linalg.norm(exact)

        assert error(0.2) <= error(1.2)

    def test_energy_stays_bounded(self):
        rng = np.random.default_rng(7)
        universe = AABB((0, 0, 0), (10, 10, 10))
        model = NBodyModel(
            positions=rng.uniform(3, 7, (40, 3)),
            velocities=np.zeros((40, 3)),
            masses=rng.uniform(0.5, 1.5, 40),
            universe=universe,
            dt=0.005,
        )
        sim = TimeSteppedSimulation(model, UniformGrid(universe=universe), maintenance="rebuild")
        sim.run(5)
        assert model.kinetic_energy() < 1e4  # no numerical blow-up

    def test_coincident_bodies_handled(self):
        positions = np.zeros((5, 3)) + 1.0
        masses = np.ones(5)
        tree = BarnesHutTree(positions, masses)
        acc = tree.acceleration_on(0)
        assert np.all(np.isfinite(acc))

    def test_validation(self):
        with pytest.raises(ValueError):
            BarnesHutTree(np.zeros((2, 3)), np.ones(3))
        with pytest.raises(ValueError):
            NBodyModel(np.zeros((2, 3)), np.zeros((2, 3)), np.ones(2), UNIVERSE_3D, method="magic")


class TestMaterial:
    def test_specimen_stretches_under_pull(self):
        points = np.array(
            [[x, y, z] for x in range(8) for y in range(3) for z in range(3)], dtype=float
        )
        universe = AABB((-2, -2, -2), (15, 6, 6))
        model = MaterialModel(points, universe, neighbours=5, pull=1.0)
        initial = points[:, 0].max() - points[:, 0].min()
        sim = TimeSteppedSimulation(model, UniformGrid(universe=universe), maintenance="update")
        sim.run(20)
        assert model.elongation() > initial

    def test_bonds_built_from_knn(self):
        points = np.array([[float(i), 0.0, 0.0] for i in range(10)])
        universe = AABB((-1, -1, -1), (11, 1, 1))
        model = MaterialModel(points, universe, neighbours=2)
        sim = TimeSteppedSimulation(model, UniformGrid(universe=universe), maintenance="update")
        sim.run(1)
        assert len(model.bonds) >= 9  # at least a chain

    def test_fixed_vertices_do_not_move(self):
        points = np.array(
            [[x, y, 0.0] for x in range(6) for y in range(2)], dtype=float
        )
        universe = AABB((-2, -2, -1), (10, 4, 1))
        model = MaterialModel(points, universe, neighbours=3, pull=2.0)
        fixed_before = model.positions[model.fixed].copy()
        sim = TimeSteppedSimulation(model, UniformGrid(universe=universe), maintenance="update")
        sim.run(10)
        assert np.allclose(model.positions[model.fixed], fixed_before)


class TestGrowth:
    def test_growth_inserts_segments(self, neuron_dataset):
        model = GrowthModel(neuron_dataset, join_every=0, seed=8)
        index = UniformGrid(universe=neuron_dataset.universe)
        initial = len(neuron_dataset.capsules)
        sim = TimeSteppedSimulation(model, index, maintenance="update")
        sim.run(4)
        assert len(neuron_dataset.capsules) > initial
        assert len(index) == len(neuron_dataset.capsules)

    def test_synapse_detection_runs(self, neuron_dataset):
        model = GrowthModel(neuron_dataset, join_every=2, epsilon=0.3, seed=9)
        index = UniformGrid(universe=neuron_dataset.universe)
        sim = TimeSteppedSimulation(model, index, maintenance="update")
        sim.run(4)
        assert len(model.synapse_counts) == 2


class TestMonitors:
    def test_range_monitor_counts(self, neuron_dataset):
        index = UniformGrid(universe=neuron_dataset.universe)
        index.bulk_load(neuron_dataset.items)
        monitor = RangeMonitor(neuron_dataset.universe, queries_per_step=7, seed=10)
        monitor.observe(index, 0)
        assert len(monitor.result_counts) == 7
        assert monitor.expected_queries() == 7

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
