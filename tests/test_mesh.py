"""Mesh substrate and the dataset-as-index family (DLS, OCTOPUS, FLAT)."""

import numpy as np
import pytest

from repro.datasets.points import uniform_boxes
from repro.geometry.aabb import AABB
from repro.indexes.linear_scan import LinearScan
from repro.indexes.rtree import RTree
from repro.mesh.connectivity import Mesh
from repro.mesh.dls import DLS, WalkStuckError
from repro.mesh.flat import FLAT
from repro.mesh.generators import carve_hole, structured_tet_mesh
from repro.mesh.octopus import Octopus

from conftest import UNIVERSE_3D, assert_same_range_results, make_queries


@pytest.fixture(scope="module")
def convex_mesh():
    return structured_tet_mesh(5, 5, 5)


@pytest.fixture(scope="module")
def concave_mesh():
    mesh = structured_tet_mesh(6, 6, 4)
    return carve_hole(mesh, AABB((2.0, 2.0, -1.0), (4.0, 4.0, 5.0)))


def _mesh_queries(mesh, count, seed, extent=(0.4, 2.0)):
    rng = np.random.default_rng(seed)
    hull = mesh.hull()
    lo = np.asarray(hull.lo)
    hi = np.asarray(hull.hi)
    queries = []
    for _ in range(count):
        start = rng.uniform(lo, hi)
        end = np.minimum(start + rng.uniform(*extent, size=3), hi)
        queries.append(AABB(start, end))
    return queries


class TestMeshStructure:
    def test_cell_count(self, convex_mesh):
        assert len(convex_mesh) == 5 * 5 * 5 * 6  # Kuhn: 6 tets per cube

    def test_adjacency_symmetric(self, convex_mesh):
        for cell in convex_mesh.cells:
            for neighbor in convex_mesh.neighbors(cell.cid):
                assert cell.cid in convex_mesh.neighbors(neighbor)

    def test_interior_tet_has_four_neighbors(self, convex_mesh):
        interior = [
            cell.cid
            for cell in convex_mesh.cells
            if len(convex_mesh.neighbors(cell.cid)) == 4
        ]
        assert interior  # a 5x5x5 mesh has interior tets

    def test_single_component(self, convex_mesh):
        assert convex_mesh.connected_components() == 1

    def test_boundary_cells_nonempty(self, convex_mesh):
        assert len(convex_mesh.boundary_cells) > 0

    def test_carve_hole_removes_cells(self, convex_mesh, concave_mesh):
        assert len(concave_mesh) < 6 * 6 * 4 * 6

    def test_carve_everything_rejected(self, convex_mesh):
        with pytest.raises(ValueError):
            carve_hole(convex_mesh, AABB((-10, -10, -10), (100, 100, 100)))

    def test_deformation_updates_geometry(self):
        mesh = structured_tet_mesh(2, 2, 2)
        before = mesh.bounds(0)
        mesh.move_vertex(0, (0.2, 0.0, 0.0))
        assert mesh.bounds(0) != before or mesh.centroid(0) != before.center()

    def test_generator_validation(self):
        with pytest.raises(ValueError):
            structured_tet_mesh(0, 1, 1)
        with pytest.raises(ValueError):
            structured_tet_mesh(1, 1, 1, spacing=0)


class TestDLS:
    def test_matches_scan_on_convex(self, convex_mesh):
        dls = DLS(convex_mesh)
        for query in _mesh_queries(convex_mesh, 25, seed=1):
            assert sorted(dls.range_query(query)) == sorted(convex_mesh.scan_range(query))

    def test_stale_seeds_still_correct(self, convex_mesh):
        """The approximate index 'only needs to be updated infrequently'."""
        mesh = structured_tet_mesh(4, 4, 4)
        dls = DLS(mesh)
        rng = np.random.default_rng(2)
        mesh.jitter(0.02, rng)  # deform WITHOUT refreshing seeds
        for query in _mesh_queries(mesh, 15, seed=3):
            assert sorted(dls.range_query(query)) == sorted(mesh.scan_range(query))

    def test_query_outside_mesh_is_empty(self, convex_mesh):
        assert DLS(convex_mesh).range_query(AABB((50, 50, 50), (51, 51, 51))) == []

    def test_stranded_walk_is_reported(self):
        """A query inside a hole, far from where the walk strands, is the
        concave case DLS does not handle: it raises rather than guess, and
        OCTOPUS answers it."""
        mesh = carve_hole(structured_tet_mesh(12, 12, 2), AABB((3.0, -1.0, -1.0), (9.0, 9.0, 5.0)))
        query = AABB((7.3, 2.5, -0.5), (7.4, 3.3, 0.5))
        with pytest.raises(WalkStuckError, match="stranded"):
            DLS(mesh, seed_resolution=1).range_query(query)
        assert Octopus(mesh).range_query(query) == list(mesh.scan_range(query)) == []


class TestOctopus:
    def test_matches_scan_on_convex(self, convex_mesh):
        octopus = Octopus(convex_mesh)
        for query in _mesh_queries(convex_mesh, 25, seed=4):
            assert sorted(octopus.range_query(query)) == sorted(convex_mesh.scan_range(query))

    def test_matches_scan_on_concave(self, concave_mesh):
        """The OCTOPUS claim: complete results despite holes."""
        octopus = Octopus(concave_mesh)
        for query in _mesh_queries(concave_mesh, 40, seed=5):
            assert sorted(octopus.range_query(query)) == sorted(
                concave_mesh.scan_range(query)
            )

    def test_disconnected_query_regions(self, concave_mesh):
        """A query spanning the hole touches cells on both sides — a single
        flood cannot reach them all; multiple seeds must."""
        query = AABB((1.0, 2.5, 0.5), (5.0, 3.5, 1.5))  # crosses the carved hole
        octopus = Octopus(concave_mesh)
        assert sorted(octopus.range_query(query)) == sorted(concave_mesh.scan_range(query))

    def test_deformed_concave_mesh(self, concave_mesh):
        mesh = carve_hole(structured_tet_mesh(5, 5, 3), AABB((2, 2, -1), (3, 3, 4)))
        octopus = Octopus(mesh)
        rng = np.random.default_rng(6)
        mesh.jitter(0.02, rng)
        for query in _mesh_queries(mesh, 15, seed=7):
            assert sorted(octopus.range_query(query)) == sorted(mesh.scan_range(query))


class TestDeformingMeshNeedsNoMaintenance:
    """§4.3: the walkers query the live geometry, so after every deformation
    step they answer like an R-tree rebuilt on the deformed cells, without
    any maintenance of their own."""

    @pytest.mark.parametrize(
        "walker, shape",
        [(DLS, "convex"), (Octopus, "convex"), (Octopus, "concave")],
        ids=["dls-convex", "octopus-convex", "octopus-concave"],
    )
    def test_every_step_matches_a_rebuilt_rtree(self, walker, shape):
        mesh = structured_tet_mesh(5, 5, 4)
        if shape == "concave":
            mesh = carve_hole(mesh, AABB((2.0, 1.0, -1.0), (3.0, 4.0, 5.0)))
        index = walker(mesh)
        rng = np.random.default_rng(1)
        for step in range(4):
            mesh.jitter(0.004, rng)
            rtree = RTree(max_entries=16)
            rtree.bulk_load([(cell.cid, mesh.bounds(cell.cid)) for cell in mesh.cells])
            for query in _mesh_queries(mesh, 10, seed=step, extent=(0.5, 1.5)):
                assert sorted(index.range_query(query)) == sorted(rtree.range_query(query))


class TestFLAT:
    def test_matches_oracle(self, items_3d, queries_3d):
        flat = FLAT(universe=UNIVERSE_3D)
        flat.bulk_load(items_3d)
        assert_same_range_results(flat, items_3d, queries_3d)

    def test_updates_local(self, items_3d):
        flat = FLAT(universe=UNIVERSE_3D)
        flat.bulk_load(items_3d)
        live = dict(items_3d)
        rng = np.random.default_rng(8)
        for eid in list(live)[:200]:
            delta = rng.normal(0, 0.05, 3)
            old = live[eid]
            new = AABB(np.asarray(old.lo) + delta, np.asarray(old.hi) + delta)
            flat.update(eid, old, new)
            live[eid] = new
        assert_same_range_results(flat, list(live.items()), make_queries(8, seed=9))

    def test_stale_seed_index_tolerated(self, items_3d):
        flat = FLAT(universe=UNIVERSE_3D, seed_sample=4)
        flat.bulk_load(items_3d)
        flat._seed_tiles = []  # worst case: seed index completely gone
        assert_same_range_results(flat, items_3d, make_queries(6, seed=10))

    def test_knn(self, items_3d):
        flat = FLAT(universe=UNIVERSE_3D)
        flat.bulk_load(items_3d)
        oracle = LinearScan()
        oracle.bulk_load(items_3d)
        got = flat.knn((50, 50, 50), 6)
        expected = oracle.knn((50, 50, 50), 6)
        assert [round(d, 9) for d, _ in got] == [round(d, 9) for d, _ in expected]

    def test_insert_delete(self):
        flat = FLAT(universe=UNIVERSE_3D)
        box = AABB((1, 1, 1), (2, 2, 2))
        flat.insert(5, box)
        assert flat.range_query(AABB((0, 0, 0), (3, 3, 3))) == [5]
        flat.delete(5, box)
        assert len(flat) == 0
        with pytest.raises(KeyError):
            flat.delete(5, box)
