"""Shared fixtures and helpers for the test suite.

The central correctness idea: :class:`~repro.indexes.linear_scan.LinearScan`
is the oracle.  ``assert_same_range_results`` and ``assert_same_knn`` compare
any index against it; the property suites drive those comparisons with
hypothesis-generated datasets and queries.  kNN comparisons are exact ordered
``(distance, id)`` lists — the deterministic tie-break contract pinned in
``repro/indexes/base.py`` makes sorting-before-comparing unnecessary.
"""

from __future__ import annotations

import os

import numpy as np
import pytest
from hypothesis import settings

from repro.datasets.neuroscience import NeuronDataset, generate_neurons
from repro.geometry.aabb import AABB
from repro.indexes.base import Item, SpatialIndex
from repro.indexes.linear_scan import LinearScan
from repro.instrumentation.costmodel import MemoryCostModel
from repro.instrumentation.counters import Counters

# The default profile is "ci": derandomized (fixed seed) examples, so the
# tier-1 command — which sets no profile — gives the same result run to run.
# HYPOTHESIS_PROFILE=dev opts into the random search.
settings.register_profile("ci", derandomize=True, deadline=None)
settings.register_profile("dev", deadline=None)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "ci"))

UNIVERSE_3D = AABB((0.0, 0.0, 0.0), (100.0, 100.0, 100.0))
UNIVERSE_2D = AABB((0.0, 0.0), (100.0, 100.0))


def make_items(
    n: int,
    universe: AABB = UNIVERSE_3D,
    max_extent: float = 4.0,
    seed: int = 0,
    points: bool = False,
) -> list[Item]:
    """Random boxes (or points) inside ``universe``."""
    rng = np.random.default_rng(seed)
    lo = np.asarray(universe.lo)
    hi = np.asarray(universe.hi)
    items: list[Item] = []
    for eid in range(n):
        start = rng.uniform(lo, hi)
        if points:
            items.append((eid, AABB(start, start)))
            continue
        extent = rng.uniform(0.05, max_extent, size=universe.dims)
        end = np.minimum(start + extent, hi)
        items.append((eid, AABB(start, end)))
    return items


def make_queries(count: int, universe: AABB = UNIVERSE_3D, extent: float = 15.0, seed: int = 1):
    rng = np.random.default_rng(seed)
    lo = np.asarray(universe.lo)
    hi = np.asarray(universe.hi)
    queries = []
    for _ in range(count):
        start = rng.uniform(lo, hi)
        end = np.minimum(start + extent, hi)
        queries.append(AABB(start, end))
    return queries


def assert_same_range_results(index: SpatialIndex, items: list[Item], queries) -> None:
    oracle = LinearScan()
    oracle.bulk_load(items)
    for query in queries:
        got = sorted(index.range_query(query))
        expected = sorted(oracle.range_query(query))
        assert got == expected, (
            f"range mismatch for {query}: got {len(got)} ids, expected {len(expected)}"
        )


def knn_pairs(result) -> list[tuple[float, int]]:
    """Canonicalize a KNNResult for exact comparison.

    Distances are rounded to 10 significant digits (not decimal places, so
    large magnitudes normalize too): scalar ``math.hypot`` and the
    vectorized sqrt-of-squares kernels may differ in the last ulp.
    """
    return [(float(f"{d:.9e}"), e) for d, e in result]


def assert_same_knn(index: SpatialIndex, items: list[Item], points, k: int) -> None:
    """kNN answers must match the oracle *exactly* — the (distance, id)
    tie-break contract (indexes/base.py) makes the full ordered pair list
    comparable, not just the distance multiset."""
    oracle = LinearScan()
    oracle.bulk_load(items)
    for point in points:
        got = knn_pairs(index.knn(point, k))
        expected = knn_pairs(oracle.knn(point, k))
        assert got == expected, f"knn mismatch at {point}: {got} != {expected}"


def recall(oracle_pairs, approx_pairs) -> float:
    """Fraction of the oracle's neighbor ids an approximate answer found.

    Works on one ``KNNResult`` or on parallel lists of them (a batch):
    distances are ignored — recall is an id-set measure, the standard
    figure of merit for defeatist search — and an empty oracle counts as
    perfect recall.
    """
    if oracle_pairs and isinstance(oracle_pairs[0], tuple):
        oracle_pairs, approx_pairs = [oracle_pairs], [approx_pairs]
    hits = total = 0
    for oracle_result, approx_result in zip(oracle_pairs, approx_pairs, strict=True):
        want = {eid for _, eid in oracle_result}
        got = {eid for _, eid in approx_result}
        hits += len(want & got)
        total += len(want)
    return hits / total if total else 1.0


@pytest.fixture(name="recall")
def recall_fixture():
    """The shared recall measure as a fixture (import ``recall`` directly
    for use outside test functions)."""
    return recall


@pytest.fixture(scope="session")
def small_neurons() -> NeuronDataset:
    """The paper exhibits' neuron tissue at tier-1 scale (2 400 segments)."""
    return generate_neurons(neurons=60, segments_per_neuron=40, seed=42)


def modeled_query_cost(index: SpatialIndex, queries) -> tuple[float, Counters, int]:
    """(memory-cost-model seconds, counter diff, total hits) of one scalar
    pass over ``queries`` — a deterministic price, unlike wall clock."""
    before = index.counters.snapshot()
    hits = sum(len(index.range_query(query)) for query in queries)
    counters = index.counters.diff(before)
    return MemoryCostModel().seconds(counters), counters, hits


@pytest.fixture
def items_3d() -> list[Item]:
    return make_items(400, seed=7)


@pytest.fixture
def queries_3d():
    return make_queries(12, seed=11)


@pytest.fixture(scope="module")
def closed_pool():
    """A ``WorkerPool`` whose infrastructure is gone: every job offered to
    it raises, so a sharded executor over it must answer in-process."""
    from repro.serving.pool import WorkerPool

    pool = WorkerPool(workers=2)
    pool.close()
    return pool


def overlay_cells(snap) -> dict[int, list[tuple[int, int]]]:
    """A grid snapshot's overlay entry columns regrouped as cell key ->
    ``(overlay row, first mask)`` entries in append order: the dict the
    snapshot kept before the columns, for the frozen reference kernels."""
    cells: dict[int, list[tuple[int, int]]] = {}
    for key, idx, first in zip(snap.extra_keys, snap.extra_rows, snap.extra_first):
        cells.setdefault(key, []).append((idx, first))
    return cells


def grid_windows(grid) -> dict[int, tuple[int, ...]]:
    """A ``UniformGrid``'s live cell windows by id, in placement order, read
    from its store's window matrix once the move log is settled."""
    grid._settle()
    store = grid._store
    if store is None:
        return {}
    eids, _, alive = store.tables()
    live = np.flatnonzero(alive)
    return dict(zip(eids[live].tolist(), map(tuple, store.window_table()[live].tolist())))


def placed_items(grid) -> list:
    """A ``UniformGrid``'s ``(eid, box)`` items in placement order (store
    order): what a fresh ``bulk_load`` needs to answer batch queries with the
    same ids in the same order."""
    return [(eid, grid._boxes[eid]) for eid in grid_windows(grid)]
