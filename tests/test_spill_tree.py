"""The approximate-kNN tier, pinned by the LinearScan oracle.

Two contracts coexist in one index:

* **exact tier** — :class:`~repro.approx.SpillTree` subclasses
  :class:`~repro.indexes.linear_scan.LinearScan`, so its scalar and batch
  kNN answers are *bit-identical* to the oracle's (same kernels, same
  ``(distance, id)`` tie-break) — compared without rounding;
* **approximate tier** — the defeatist descent returns well-formed ordered
  results whose recall against the oracle clears a floor on every data
  shape, and degrades to *exactly* the exact answer when the overlap
  swallows the split (one hybrid root leaf).

The planner contract rides on top: ``accuracy='exact'`` (the default)
routes through the inherited exact kernels untouched, a float target routes
through the defeatist kernel only when the calibrated recall clears it.
"""

from __future__ import annotations

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import INDEX_REGISTRY, KNNQuery, QuerySession, UniformGrid
from repro.analysis import query_session_report
from repro.approx import SpillTree
from repro.geometry.aabb import AABB
from repro.indexes.linear_scan import LinearScan
from tests.conftest import UNIVERSE_3D, make_items, recall

pytestmark = pytest.mark.approx

SHAPES = ["uniform", "clustered", "degenerate"]
#: The split's dimensionalities: planar and volumetric point sets.
DIMS = [2, 3]
#: Defeatist recall floors on data-correlated probes: clustered data — the
#: regime approximate kNN exists for — clears 0.8.
RECALL_FLOORS = {"uniform": 0.6, "clustered": 0.8, "degenerate": 0.6}


def shaped_items(shape: str, n: int = 1500, seed: int = 3, dims: int = 3):
    """Point datasets for the three shapes the issue names.

    ``degenerate`` is the split's stress case: every point sits on one
    line, so every axis carries the same variance.
    """
    rng = np.random.default_rng(seed)
    if shape == "uniform":
        pts = rng.uniform(0.0, 100.0, size=(n, dims))
    elif shape == "clustered":
        centers = rng.uniform(10.0, 90.0, size=(8, dims))
        pts = centers[rng.integers(0, len(centers), size=n)]
        pts = pts + rng.normal(0.0, 2.0, size=(n, dims))
        pts = np.clip(pts, 0.0, 100.0)
    elif shape == "degenerate":
        t = rng.uniform(0.0, 100.0, size=(n, 1))
        pts = np.repeat(t, dims, axis=1)  # the main diagonal
    else:  # pragma: no cover - guard against typos in parametrize lists
        raise AssertionError(shape)
    return [(eid, AABB(p, p)) for eid, p in enumerate(pts.tolist())]


def query_points(count: int, seed: int, dims: int = 3) -> np.ndarray:
    rng = np.random.default_rng(seed)
    return rng.uniform(0.0, 100.0, size=(count, dims))


def build(items, **kwargs) -> tuple[SpillTree, LinearScan]:
    tree = SpillTree(**kwargs)
    tree.bulk_load(items)
    oracle = LinearScan()
    oracle.bulk_load(items)
    return tree, oracle


# -- the oracle grid: every shape -----------------------------------------------


class TestOracleGrid:
    @pytest.mark.parametrize("dims", DIMS)
    @pytest.mark.parametrize("shape", SHAPES)
    def test_exact_tier_is_bit_identical(self, shape, dims):
        items = shaped_items(shape, dims=dims)
        tree, oracle = build(items, tau=0.2, leaf_size=32)
        pts = query_points(50, seed=5, dims=dims)
        # Batch vs batch and scalar vs scalar: same kernels as the oracle,
        # so no rounding is allowed in either comparison.
        assert tree.batch_knn(pts, 8) == oracle.batch_knn(pts, 8)
        for p in map(tuple, pts[:10]):
            assert tree.knn(p, 8) == oracle.knn(p, 8)

    @pytest.mark.parametrize("dims", DIMS)
    @pytest.mark.parametrize("shape", SHAPES)
    def test_defeatist_recall_clears_floor(self, shape, dims):
        items = shaped_items(shape, dims=dims)
        tree, oracle = build(items, tau=0.25, leaf_size=48)
        # Data-correlated queries (stored points + jitter): the workload
        # approximate kNN exists for.  Far-from-everything probes are the
        # defeatist search's known blind spot and are pinned separately by
        # the planner's recall-aware fallback.
        rng = np.random.default_rng(6)
        data = np.asarray([box.lo for _, box in items], dtype=np.float64)
        pts = data[rng.integers(0, len(data), size=200)] + rng.normal(
            0.0, 1.0, size=(200, dims)
        )
        approx = tree.approx_batch_knn(pts, 8)
        exact = oracle.batch_knn(pts, 8)
        for row in approx:  # well-formed: ascending (distance, id), no dupes
            assert row == sorted(row)
            assert len({eid for _, eid in row}) == len(row)
        assert recall(exact, approx) >= RECALL_FLOORS[shape]
        assert tree.counters.approx_descents == len(pts)
        assert tree.counters.leaves_scanned > 0

    @pytest.mark.parametrize("shape", SHAPES)
    def test_saturated_overlap_degrades_to_exact(self, shape):
        # tau→1 stops the split from shrinking anything, so the build keeps
        # the whole population in one hybrid root leaf and the defeatist
        # sweep *is* the exact kernel.
        items = shaped_items(shape, n=400)
        tree, oracle = build(items, tau=0.95, leaf_size=16)
        pts = query_points(40, seed=7)
        assert tree.leaves == 1
        assert tree.approx_batch_knn(pts, 6) == oracle.batch_knn(pts, 6)

    @pytest.mark.parametrize("shape", SHAPES)
    def test_scalar_approx_matches_batch_row(self, shape):
        items = shaped_items(shape)
        tree, _ = build(items, tau=0.2, leaf_size=32)
        pts = query_points(5, seed=8)
        batch = tree.approx_batch_knn(pts, 4)
        for p, row in zip(map(tuple, pts), batch):
            assert tree.approx_knn(p, 4) == row


# -- maintenance: the flat tree tracks mutations --------------------------------


class TestMaintenance:
    def test_mutations_invalidate_the_descent_structure(self):
        items = shaped_items("uniform", n=300)
        tree, oracle = build(items, tau=0.2, leaf_size=16)
        tree.approx_batch_knn(query_points(1, seed=9), 2)  # force the build
        target = (5000, AABB((50.0, 50.0, 50.0), (50.0, 50.0, 50.0)))
        tree.insert(*target)
        oracle.insert(*target)
        got = tree.approx_knn((50.0, 50.0, 50.0), 1)
        assert got == [(0.0, 5000)]  # the new point is find-able immediately
        tree.delete(*target)
        oracle.delete(*target)
        assert tree.approx_knn((50.0, 50.0, 50.0), 1) != [(0.0, 5000)]
        pts = query_points(30, seed=10)
        assert tree.batch_knn(pts, 5) == oracle.batch_knn(pts, 5)

    def test_rejects_volumetric_elements(self):
        tree = SpillTree()
        with pytest.raises(ValueError, match="point access method"):
            tree.insert(1, AABB((0.0, 0.0, 0.0), (1.0, 1.0, 1.0)))
        with pytest.raises(ValueError, match="point access method"):
            tree.bulk_load([(1, AABB((0.0, 0.0, 0.0), (2.0, 0.0, 0.0)))])

    def test_constructor_validation(self):
        with pytest.raises(ValueError, match="tau"):
            SpillTree(tau=1.0)
        with pytest.raises(ValueError, match="tau"):
            SpillTree(tau=-0.1)
        with pytest.raises(ValueError, match="leaf_size"):
            SpillTree(leaf_size=0)


# -- calibration ----------------------------------------------------------------


class TestCalibration:
    def test_estimated_recall_is_cached_and_side_effect_free(self):
        items = shaped_items("uniform", n=800)
        tree, _ = build(items, tau=0.2, leaf_size=32)
        before = tree.counters.approx_descents
        first = tree.estimated_recall(8)
        assert 0.0 < first <= 1.0
        # Calibration probes run against throwaway counters.
        assert tree.counters.approx_descents == before
        assert tree.estimated_recall(8) is first  # cached per k
        tree.insert(9000, AABB((1.0, 1.0, 1.0), (1.0, 1.0, 1.0)))
        assert 0.0 < tree.estimated_recall(8) <= 1.0  # cache invalidated, rebuilt


# -- degenerate splits ----------------------------------------------------------


class TestDegenerateSplits:
    def test_identical_points_still_split_safely(self):
        # Zero variance everywhere: the split still gets a unit direction,
        # and the build must terminate in a hybrid leaf.
        items = [(eid, AABB((5.0, 5.0, 5.0), (5.0, 5.0, 5.0))) for eid in range(40)]
        tree, oracle = build(items, tau=0.2, leaf_size=8)
        pts = query_points(5, seed=12)
        assert tree.approx_batch_knn(pts, 3) == oracle.batch_knn(pts, 3)


# -- planner routing ------------------------------------------------------------


class TestAccuracyRouting:
    def setup_sessions(self, n=1200, seed=21):
        items = shaped_items("clustered", n=n, seed=seed)
        tree, oracle = build(items, tau=0.25, leaf_size=48)
        return tree, oracle, QuerySession(tree), QuerySession(oracle)

    def test_exact_accuracy_is_bit_identical_to_oracle_session(self):
        tree, _, session, oracle_session = self.setup_sessions()
        pts = [tuple(p) for p in query_points(300, seed=22)]
        got = session.knn(pts, 8)  # accuracy defaults to 'exact'
        want = oracle_session.knn(pts, 8)
        assert got == want
        assert session.stats.batch.approx_descents == 0

    def test_float_accuracy_routes_defeatist_and_records_telemetry(self):
        tree, _, session, _ = self.setup_sessions()
        pts = query_points(300, seed=23)
        expected = tree.approx_batch_knn(pts, 8)
        got = session.knn([tuple(p) for p in pts], 8, accuracy=0.5)
        assert got == expected
        stats = session.stats.batch
        assert stats.approx_descents == len(pts)
        assert stats.leaves_scanned > 0
        assert 0.0 < stats.recall_estimate <= 1.0
        assert "approx:" in query_session_report(session)

    def test_unreachable_target_falls_back_to_exact(self):
        tree, _, session, oracle_session = self.setup_sessions()
        pts = [tuple(p) for p in query_points(200, seed=24)]
        assert tree.estimated_recall(8) < 1.0  # the target below is unmeetable
        got = session.knn(pts, 8, accuracy=1.0)
        assert got == oracle_session.knn(pts, 8)
        assert session.stats.batch.approx_descents == 0

    def test_non_approx_index_ignores_accuracy(self):
        items = make_items(400, seed=25)
        grid = UniformGrid(universe=UNIVERSE_3D, cell_size=10.0)
        grid.bulk_load(items)
        oracle = LinearScan()
        oracle.bulk_load(items)
        session = QuerySession(grid)
        pts = [tuple(p) for p in query_points(100, seed=26)]
        got = session.knn(pts, 4, accuracy=0.5)
        assert got == QuerySession(oracle).knn(pts, 4)
        assert session.stats.batch.approx_descents == 0

    def test_deferred_handles_carry_accuracy(self):
        tree, _, session, _ = self.setup_sessions()
        pts = query_points(64, seed=27)
        expected = tree.approx_batch_knn(pts, 6)
        handles = [
            session.submit(KNNQuery(tuple(p), k=6, accuracy=0.5)) for p in pts
        ]
        session.flush()
        assert [h.result() for h in handles] == expected

    def test_mixed_accuracy_groups_stay_isolated(self):
        tree, oracle, session, _ = self.setup_sessions()
        pts = query_points(64, seed=28)
        exact_handles = [session.submit(KNNQuery(tuple(p), k=6)) for p in pts]
        approx_handles = [
            session.submit(KNNQuery(tuple(p), k=6, accuracy=0.5)) for p in pts
        ]
        session.flush()
        assert [h.result() for h in exact_handles] == oracle.batch_knn(pts, 6)
        assert [h.result() for h in approx_handles] == tree.approx_batch_knn(pts, 6)

    def test_accuracy_validation(self):
        for bad in (0.0, -0.5, 1.5, "mostly"):
            with pytest.raises(ValueError, match="accuracy"):
                KNNQuery((0.0, 0.0, 0.0), k=2, accuracy=bad)
        session = QuerySession(LinearScan())
        with pytest.raises(ValueError, match="accuracy"):
            session.knn([(0.0, 0.0, 0.0)], 2, accuracy=2.0)

    def test_registry_and_capability_probe(self):
        assert INDEX_REGISTRY["spill_tree"] is SpillTree
        assert SpillTree().supports_batch_kind("approx_knn")
        assert not LinearScan().supports_batch_kind("approx_knn")


# -- hypothesis: insert-then-query update programs ------------------------------


def _coord(draw):
    return float(draw(st.integers(min_value=0, max_value=20)))


@st.composite
def update_programs(draw):
    """Random mutate/query interleavings on a small integer grid (integer
    coordinates provoke distance ties, exercising the (distance, id)
    tie-break in both tiers)."""
    ops = []
    alive: set[int] = set()
    next_eid = 0
    for _ in range(draw(st.integers(min_value=3, max_value=25))):
        choice = draw(st.sampled_from(["insert", "insert", "delete", "query"]))
        if choice == "insert":
            point = tuple(_coord(draw) for _ in range(2))
            ops.append(("insert", next_eid, point))
            alive.add(next_eid)
            next_eid += 1
        elif choice == "delete" and alive:
            eid = draw(st.sampled_from(sorted(alive)))
            ops.append(("delete", eid, None))
            alive.discard(eid)
        else:
            point = tuple(_coord(draw) for _ in range(2))
            ops.append(("query", draw(st.integers(min_value=1, max_value=6)), point))
    return ops


class TestUpdatePrograms:
    @settings(max_examples=40)
    @given(program=update_programs())
    def test_program_stays_exact_and_well_formed(self, program):
        tree = SpillTree(tau=0.3, leaf_size=4)
        oracle = LinearScan()
        state: dict[int, tuple[float, ...]] = {}
        for op, arg, payload in program:
            if op == "insert":
                box = AABB(payload, payload)
                tree.insert(arg, box)
                oracle.insert(arg, box)
                state[arg] = payload
            elif op == "delete":
                box = AABB(state[arg], state[arg])
                tree.delete(arg, box)
                oracle.delete(arg, box)
                del state[arg]
            else:
                k, point = arg, payload
                assert tree.knn(point, k) == oracle.knn(point, k)
                if state:
                    approx = tree.approx_knn(point, k)
                    assert approx == sorted(approx)
                    assert {eid for _, eid in approx} <= set(state)
                    exact_ids = {eid for _, eid in oracle.knn(point, k)}
                    assert recall(oracle.knn(point, k), approx) >= 0.0
                    assert len(approx) <= min(k, len(state))
                    # Defeatist results are a subset of the truth whenever
                    # the tree degenerated to a single hybrid leaf.
                    if tree.leaves == 1:
                        assert {eid for _, eid in approx} == exact_ids
