"""The array-native result plane (ISSUE 20).

Hits and pairs stay arrays from the grid kernel to the session boundary:

* the snapshot's one box store is columnar (``(2, d, n)``), the ``(n, 2, d)``
  form a view of it, and every patch lands in both;
* ``batch_range_hits`` is the kernel's product — a CSR ``(offsets, ids)`` pair
  — and ``batch_range_query`` its list form, ids, order and counters equal to
  the frozen per-cell reference kernel;
* ``batch_knn`` cuts the queries a round resolves with one ``lexsort`` and is
  list-identical to the per-query loop it replaced;
* every join strategy's pairs travel as one ``(k, 2)`` int64 array and become
  ``list[tuple[int, int]]`` of Python ints once, in ``JoinSession._execute``;
* non-finite probes and a non-finite ε are refused up front.
"""

from __future__ import annotations

import asyncio
import json
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from test_grid_single_store import axis_ordered_squares
from test_snapshot_maintenance import per_cell_gather
from repro.core import uniform_grid
from repro.core.uniform_grid import UniformGrid, _cell_coords
from repro.datasets.neuroscience import generate_neurons
from repro.geometry.aabb import AABB, as_point_array
from repro.indexes.base import SpatialIndex
from repro.indexes.linear_scan import LinearScan
from repro.instrumentation.counters import Counters
from repro.joins import (
    JOIN_REGISTRY,
    CallableJoin,
    DistanceJoinSpec,
    JoinSession,
    PairJoinSpec,
    SelfJoinSpec,
    SynapseJoinSpec,
    make_join_strategy,
)
from repro.joins.strategies import PairArray, pair_array
from repro.serving import ServingSession, WorkerPool
from repro.serving.snapshots import SnapshotGridIndex, export_index_payload

UNIVERSE = AABB((0.0, 0.0, 0.0), (24.0, 24.0, 17.0))  # 17/2: a ragged top cell


def random_box(rng, max_extent: float) -> AABB:
    lo = rng.uniform(-1.0, [24.0, 24.0, 17.0])
    return AABB(lo, lo + rng.uniform(0.0, max_extent, size=3))


def loaded_grid(rng, n=300) -> tuple[UniformGrid, dict[int, AABB]]:
    state = {eid: random_box(rng, 3.0) for eid in range(n)}
    grid = UniformGrid(universe=UNIVERSE, cell_size=2.0)
    grid.bulk_load(list(state.items()))
    grid.batch_range_query([UNIVERSE])  # pack the snapshot
    return grid, state


def csr_lists(hits) -> list[list[int]]:
    offsets, ids = hits
    assert offsets.dtype == ids.dtype == np.int64 and offsets[0] == 0
    return [ids[lo:hi].tolist() for lo, hi in zip(offsets[:-1], offsets[1:])]


def finishes(call, seconds=20.0):
    """``call()``'s outcome — ``("ok", value)`` or ``("raised", error)`` —
    or ``("hung", None)``: a kernel that spins must fail a test, not stall
    the suite."""
    outcome = ["hung", None]

    def run():
        try:
            outcome[:] = "ok", call()
        except Exception as error:
            outcome[:] = "raised", error

    thread = threading.Thread(target=run, daemon=True)
    thread.start()
    thread.join(seconds)
    return tuple(outcome)


# -- (a) the column store and the CSR kernel -------------------------------------------


def assert_one_box_store(grid: UniformGrid) -> None:
    grid._settle()  # place logged scalar updates first
    snap = grid._snapshot
    assert snap.columns.flags.c_contiguous and snap.columns.shape == (2, 3, len(snap.eids))
    assert np.shares_memory(snap.boxes, snap.columns)
    assert np.array_equal(snap.boxes, np.moveaxis(snap.columns, -1, 0))
    eids, boxes, alive = snap.tables()
    assert np.moveaxis(boxes, 0, -1).flags.c_contiguous  # merged tables are columnar too
    for eid, box, live in zip(eids.tolist(), boxes.tolist(), alive.tolist()):
        if live:
            assert AABB(*box) == grid._boxes[eid]
    assert sorted(eids[alive].tolist()) == sorted(grid._boxes)


class TestColumnStore:
    def test_patches_write_through_the_view(self, monkeypatch):
        monkeypatch.setattr(uniform_grid, "_SNAPSHOT_DIRTY_MIN", 1 << 30)  # never compact
        rng = np.random.default_rng(5)
        grid, state = loaded_grid(rng)
        assert_one_box_store(grid)

        def nudged(eid):  # stays in its cell window: an in-place rewrite
            box = state[eid]
            return AABB(box.lo, np.add(box.lo, np.subtract(box.hi, box.lo) * 0.999))

        state[7], old = nudged(7), state[7]
        grid.update(7, old, state[7])  # logged; the read below rewrites its row in place
        assert grid.in_place_updates == 1
        assert_one_box_store(grid)

        stay = [(eid, state[eid], nudged(eid)) for eid in range(20, 60)]
        switch = [(eid, state[eid], random_box(rng, 3.0)) for eid in range(100, 140)]
        grid.apply_moves(stay + switch)  # patch_rewrite + patch_relocate
        state.update({eid: new for eid, _, new in stay + switch})
        assert grid.cell_switches > 0 and grid.snapshot_rebuilds == 1
        assert_one_box_store(grid)

        state[100], old = nudged(100), state[100]
        grid.update(100, old, state[100])  # an overlay row, rewritten in place
        assert_one_box_store(grid)
        assert grid._boxes == state

    def test_export_carries_the_columns_and_workers_adopt_them(self):
        grid, _ = loaded_grid(np.random.default_rng(6))
        kind, arrays, scalars = export_index_payload(grid)
        assert kind == "grid" and "boxes" not in arrays
        assert arrays["columns"] is grid._snapshot.columns
        worker = SnapshotGridIndex(arrays, scalars["cell"])
        assert np.shares_memory(worker._snapshot.columns, arrays["columns"])
        windows = np.stack([np.zeros((4, 3)), np.full((4, 3), 9.0)], axis=1)
        assert worker.batch_range_query(windows) == grid.batch_range_query(windows)


class TestRangeHits:
    """CSR == lists == the frozen per-cell reference, counters included."""

    def answers(self, index, windows):
        before = index.counters.snapshot()
        lists = index.batch_range_query(windows)
        spent = index.counters.diff(before)
        return lists, (spent.elem_tests, spent.cells_probed)

    def check(self, grid: UniformGrid, windows) -> None:
        lists, counts = self.answers(grid, windows)
        before = grid.counters.snapshot()
        assert csr_lists(grid.batch_range_hits(windows)) == lists
        spent = grid.counters.diff(before)
        assert (spent.elem_tests, spent.cells_probed) == counts
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(grid, "_gather_candidates", lambda *args: per_cell_gather(grid, *args))
            assert (lists, counts) == self.answers(grid, windows)
        oracle = LinearScan()
        oracle.bulk_load(list(grid._boxes.items()))
        assert [sorted(hits) for hits in lists] == [
            sorted(hits) for hits in oracle.batch_range_query(windows)
        ]

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_clean_patched_and_moved_snapshots(self, seed):
        rng = np.random.default_rng(seed)
        grid, state = loaded_grid(rng)
        lo = rng.uniform(-2.0, 22.0, size=(40, 3))
        windows = np.stack([lo, lo + rng.uniform(0.0, 6.0, size=(40, 3))], axis=1)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(uniform_grid, "_SNAPSHOT_DIRTY_MIN", 1 << 30)  # never compact
            self.check(grid, windows)  # clean

            for eid in rng.choice(300, size=20, replace=False).tolist():
                grid.delete(eid, state.pop(eid))
            for eid in range(1000, 1040):
                state[eid] = random_box(rng, 5.0)
                grid.insert(eid, state[eid])
            for eid in rng.choice(sorted(state), size=40, replace=False).tolist():
                box = random_box(rng, 3.0)
                grid.update(eid, state[eid], box)
                state[eid] = box
            assert grid._snapshot.extra_keys and not grid._snapshot.alive.all()
            self.check(grid, windows)  # patched overlay

            movers = rng.choice(sorted(state), size=120, replace=False).tolist()
            moves = [(eid, state[eid], random_box(rng, 3.0)) for eid in movers]
            grid.apply_moves(moves)
            state.update({eid: new for eid, _, new in moves})
            self.check(grid, windows)  # post-apply_moves
        assert grid.snapshot_rebuilds == 1 and grid._boxes == state

    def test_read_only_grid_and_the_list_adapting_default(self):
        grid, _ = loaded_grid(np.random.default_rng(9))
        lo = np.random.default_rng(10).uniform(-2.0, 22.0, size=(30, 3))
        windows = np.stack([lo, lo + 4.0], axis=1)
        expected, counts = self.answers(grid, windows)
        _, arrays, scalars = export_index_payload(grid)
        worker = SnapshotGridIndex(arrays, scalars["cell"])
        assert self.answers(worker, windows) == (expected, counts)
        assert csr_lists(worker.batch_range_hits(windows)) == expected
        # An index with no array kernel adapts its own lists.
        scan = LinearScan()
        scan.bulk_load(list(grid._boxes.items()))
        assert csr_lists(SpatialIndex.batch_range_hits(scan, windows)) == scan.batch_range_query(
            windows
        )

    def test_degenerate_batches(self):
        grid, _ = loaded_grid(np.random.default_rng(11), n=10)
        empty = UniformGrid(universe=UNIVERSE, cell_size=2.0)
        nothing = np.empty((0, 2, 3))
        for index in (grid, empty):
            assert csr_lists(index.batch_range_hits(nothing)) == index.batch_range_query(nothing) == []
        far = [AABB((40.0,) * 3, (41.0,) * 3)] * 3
        assert csr_lists(grid.batch_range_hits(far)) == grid.batch_range_query(far) == [[], [], []]
        assert csr_lists(empty.batch_range_hits(far)) == empty.batch_range_query(far) == [[], [], []]

    def test_windows_wider_than_the_occupied_cells_stay_exact(self):
        """The universe window holds more cells than the cell table holds
        keys, so it gathers from the occupied keys and probes only those."""
        grid, state = loaded_grid(np.random.default_rng(12), n=60)
        windows = [UNIVERSE, AABB((1.0,) * 3, (9.0,) * 3)]
        snap = grid._ensure_snapshot()
        corners = np.array([[box.lo, box.hi] for box in windows])
        lo_cells, hi_cells = (_cell_coords(corners[:, at], snap.origin, snap.cell, snap.tops)
                              for at in (0, 1))
        volume = np.prod(hi_cells - lo_cells + 1, axis=1)
        assert volume[0] > len(snap.keys) >= volume[1]
        scan = LinearScan()
        scan.bulk_load(list(state.items()))
        before = grid.counters.snapshot()
        hits = csr_lists(grid.batch_range_hits(windows))
        probed = grid.counters.diff(before).cells_probed
        assert probed <= len(snap.keys) + volume[1] < volume[0]  # not every cell of the first
        assert [sorted(ids) for ids in hits] == [
            sorted(ids) for ids in scan.batch_range_query(windows)
        ]
        assert grid.batch_range_query(windows) == [grid.range_query(box) for box in windows] == hits


# -- (b) batch kNN against the loop it replaced ----------------------------------------


def head_batch_knn(grid: UniformGrid, points, k: int):
    """``UniformGrid.batch_knn`` as it was before the one-lexsort tail: one
    ``searchsorted`` + ``lexsort`` + ``zip`` per resolved query.  The frozen
    reference for results and ``heap_ops``; its distances follow the
    library's one formula, squares summed in axis order."""
    pts = as_point_array(points)
    m = pts.shape[0]
    snap = grid._ensure_snapshot()
    cell = snap.cell
    eids_all, boxes_all, _ = snap.tables()
    n_rows = eids_all.shape[0]
    kk = min(k, len(grid))
    lo_u, hi_u = np.asarray(grid.universe.lo), np.asarray(grid.universe.hi)
    corner_gaps = np.maximum(np.abs(pts - lo_u), np.abs(pts - hi_u))
    limits = np.sqrt(axis_ordered_squares(corner_gaps)) + cell
    results = [[] for _ in range(m)]
    active = np.arange(m)
    radius = cell
    rounds = 0
    while active.size:
        rounds += 1
        apts = pts[active]
        lo_cells = _cell_coords(apts - radius, snap.origin, cell, snap.tops)
        hi_cells = _cell_coords(apts + radius, snap.origin, cell, snap.tops)
        pair_q, rows = grid._gather_candidates(snap, lo_cells, hi_cells)
        combined = np.sort(pair_q.astype(np.int64) * n_rows + rows)
        cand_q = combined // n_rows
        cand_rows = combined % n_rows
        cand_boxes = boxes_all[cand_rows]
        p = apts[cand_q]
        gaps = np.maximum(np.maximum(cand_boxes[:, 0, :] - p, p - cand_boxes[:, 1, :]), 0.0)
        dists = np.sqrt(axis_ordered_squares(gaps))
        grid.counters.elem_tests += combined.size
        confirmed = np.bincount(cand_q[dists <= radius], minlength=active.size)
        done = (confirmed >= kk) | (radius > limits[active])
        for local in np.nonzero(done)[0].tolist():
            start, end = np.searchsorted(cand_q, [local, local + 1])
            slice_d = dists[start:end]
            slice_e = eids_all[cand_rows[start:end]]
            order = np.lexsort((slice_e, slice_d))[:kk]
            results[int(active[local])] = list(zip(slice_d[order].tolist(), slice_e[order].tolist()))
            grid.counters.heap_ops += int(order.shape[0])
        active = active[~done]
        radius *= 2.0
    return results, rounds


class TestBatchKnnTail:
    def both(self, grid, points, k):
        before = grid.counters.snapshot()
        got = grid.batch_knn(points, k)
        spent = grid.counters.diff(before)
        before = grid.counters.snapshot()
        want, rounds = head_batch_knn(grid, points, k)
        reference = grid.counters.diff(before)
        assert got == want  # floats bit for bit, ids, order
        assert (spent.heap_ops, spent.elem_tests, spent.cells_probed) == (
            reference.heap_ops, reference.elem_tests, reference.cells_probed)
        return got, rounds

    def test_duplicate_boxes_resolve_equal_distances_by_id(self):
        rng = np.random.default_rng(21)
        boxes = [random_box(rng, 2.0) for _ in range(40)]
        # Every box five times, ids interleaved so row order is not id order.
        items = [(copy * 40 + at if copy % 2 else 1000 - copy * 40 - at, box)
                 for copy in range(5) for at, box in enumerate(boxes)]
        grid = UniformGrid(universe=UNIVERSE, cell_size=2.0)
        grid.bulk_load(items)
        points = rng.uniform(0.0, [24.0, 24.0, 17.0], size=(30, 3))
        for k in (1, 3, 7):
            got, _ = self.both(grid, points, k)
            for result in got:
                assert result == sorted(result) and len(result) == k
        oracle = LinearScan()
        oracle.bulk_load(items)
        assert [[e for _, e in r] for r in grid.batch_knn(points, 7)] == [
            [e for _, e in r] for r in oracle.batch_knn(points, 7)
        ]

    def test_k_beyond_the_population_returns_everyone(self):
        grid, state = loaded_grid(np.random.default_rng(22), n=9)
        points = np.array([[1.0, 1.0, 1.0], [23.0, 23.0, 16.0], [-5.0, 30.0, 8.0]])
        got, _ = self.both(grid, points, 50)
        assert all(sorted(e for _, e in result) == sorted(state) for result in got)

    def test_mixed_resolve_rounds_on_a_patched_snapshot(self, monkeypatch):
        monkeypatch.setattr(uniform_grid, "_SNAPSHOT_DIRTY_MIN", 1 << 30)
        rng = np.random.default_rng(23)
        # A dense corner and an empty expanse: probes resolve in different rounds.
        state = {eid: AABB(lo, lo + 0.3) for eid, lo in enumerate(rng.uniform(0.0, 4.0, size=(200, 3)))}
        grid = UniformGrid(universe=UNIVERSE, cell_size=1.0)
        grid.bulk_load(list(state.items()))
        grid.batch_range_query([UNIVERSE])
        for eid in range(0, 40):
            grid.delete(eid, state.pop(eid))
        for eid in range(500, 520):
            state[eid] = random_box(rng, 1.0)
            grid.insert(eid, state[eid])
        points = np.concatenate([rng.uniform(0.0, 4.0, size=(15, 3)),
                                 rng.uniform(8.0, [24.0, 24.0, 17.0], size=(15, 3))])
        for k in (1, 8):
            _, rounds = self.both(grid, points, k)
            assert rounds >= 3
        assert grid.snapshot_rebuilds == 1


# -- non-finite probes --------------------------------------------------------------------


def _read_only(grid: UniformGrid) -> SnapshotGridIndex:
    _, arrays, scalars = export_index_payload(grid)
    return SnapshotGridIndex(arrays, scalars["cell"])


class TestNonFiniteProbes:
    @pytest.fixture(params=["grid", "read_only"])
    def index(self, request):
        grid, _ = loaded_grid(np.random.default_rng(31))
        return grid if request.param == "grid" else _read_only(grid)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_knn_probe_is_refused_not_spun_on(self, index, bad):
        points = np.array([[1.0, 1.0, 1.0], [bad, 1.0, 1.0]])
        state, error = finishes(lambda: index.batch_knn(points, 3))
        assert state == "raised" and isinstance(error, ValueError)
        assert "query coordinates must be finite" in str(error)

    def test_nan_window_is_refused_like_the_scalar_query(self, index):
        windows = np.array([[[1.0, 1.0, 1.0], [2.0, 2.0, 2.0]], [[1.0, np.nan, 1.0], [2.0, 2.0, 2.0]]])
        for kernel in (index.batch_range_query, index.batch_range_hits):
            with pytest.raises(ValueError, match="query coordinates must be finite"):
                kernel(windows)

    def test_infinite_corners_still_clamp_to_the_universe(self, index):
        everything = np.array([[[-np.inf] * 3, [np.inf] * 3], [[5.0, -np.inf, 5.0], [9.0, np.inf, 9.0]]])
        slab = AABB((5.0, -50.0, 5.0), (9.0, 50.0, 9.0))
        got = index.batch_range_query(everything)
        assert got == index.batch_range_query([UNIVERSE.expanded(5.0), slab])
        assert len(got[0]) == len(index) and got[1]

    @pytest.mark.serving
    def test_serving_client_gets_the_error_and_the_next_frame_is_answered(self):
        grid, _ = loaded_grid(np.random.default_rng(32))
        good = np.random.default_rng(33).uniform(0.0, 17.0, size=(8, 3))
        bad = good.copy()
        bad[3, 1] = np.nan

        async def main():
            with WorkerPool(workers=2) as pool:
                async with ServingSession(grid, pool=pool, workers=2) as serving:
                    frame = await serving.query_executor.submit_knns(bad, 3)
                    with pytest.raises(ValueError, match="query coordinates must be finite"):
                        await asyncio.wait_for(_settled(frame), 30.0)
                    with pytest.raises(ValueError, match="query coordinates must be finite"):
                        await asyncio.wait_for(serving.knn((np.nan, 1.0, 1.0), 3), 30.0)
                    window = np.array([[[0.0, np.nan, 0.0], [5.0, 5.0, 5.0]]])
                    frame = await serving.query_executor.submit_ranges(window)
                    with pytest.raises(ValueError, match="query coordinates must be finite"):
                        await asyncio.wait_for(_settled(frame), 30.0)
                    frame = await serving.query_executor.submit_knns(good, 3)
                    return await asyncio.wait_for(_settled(frame), 30.0)

        assert asyncio.run(main()) == grid.batch_knn(good, 3)


async def _settled(handle):
    return await handle


# -- (c) the pair plane --------------------------------------------------------------------


def _boxes(n, seed, offset=0, side=14.0):
    rng = np.random.default_rng(seed)
    lo = rng.uniform(0.0, side, size=(n, 3))
    # Extents within 2.5x of each other keep tiny_cell affordable.
    hi = lo + rng.uniform(0.8, 2.0, size=(n, 3))
    return [(eid + offset, AABB(l, h)) for eid, (l, h) in enumerate(zip(lo.tolist(), hi.tolist()))]


def assert_plain_pairs(result) -> None:
    assert type(result) is list
    assert all(type(pair) is tuple and len(pair) == 2 for pair in result)
    assert all(type(eid) is int for pair in result for eid in pair)
    assert [tuple(pair) for pair in json.loads(json.dumps(result))] == result
    assert result == sorted(result)


STRATEGY_KINDS = [
    (name, kind)
    for name in sorted(JOIN_REGISTRY)
    for kind in ("self", "distance_self", "pair", "distance_pair")
    if JOIN_REGISTRY[name].binary or not kind.endswith("pair")
]


class TestPairPlane:
    A = _boxes(220, seed=41)
    B = _boxes(200, seed=42, offset=5000)
    EPSILON = 0.4

    def specs(self, name):
        specs = {"self": SelfJoinSpec(self.A), "distance_self": DistanceJoinSpec(self.A, None, self.EPSILON)}
        if JOIN_REGISTRY[name].binary:
            specs["pair"] = PairJoinSpec(self.A, self.B)
            specs["distance_pair"] = DistanceJoinSpec(self.A, self.B, self.EPSILON)
        return specs

    @pytest.fixture(scope="class")
    def oracle(self):
        with JoinSession(strategy="block_nested") as session:
            answers = {kind: session.run(spec) for kind, spec in self.specs("block_nested").items()}
        assert all(answers.values())
        return answers

    @pytest.mark.parametrize("name, kind", STRATEGY_KINDS)
    def test_every_strategy_and_kind_equals_the_oracle(self, name, kind, oracle):
        with JoinSession(strategy=name) as session:
            result = session.run(self.specs(name)[kind])
            assert result == oracle[kind], (name, kind)
            assert_plain_pairs(result)
            assert session.stats.pairs == len(result) <= session.stats.candidates

    @pytest.mark.parametrize("name", sorted(JOIN_REGISTRY))
    def test_strategy_output_lands_on_the_plane_through_one_adapter(self, name):
        strategy = make_join_strategy(name)
        raw = strategy.self_join(self.A, Counters())
        pairs = pair_array(raw)
        assert type(pairs) is PairArray and pairs.dtype == np.int64 and pairs.shape == (len(raw), 2)
        assert bool(pairs) and not pair_array([]) and pair_array([]).shape == (0, 2)
        with pytest.raises(ValueError):  # only the pair array itself is truthy-by-length
            bool(pairs[:, 0] < pairs[:, 1])

    def test_refine_callback_sees_python_ints(self):
        seen = []

        def refine(a, b):
            seen.append((type(a), type(b)))
            return (a + b) % 2 == 0

        with JoinSession() as session:
            result = session.run(DistanceJoinSpec(self.A, None, self.EPSILON, refine=refine))
            assert session.stats.refined == session.stats.candidates == len(seen)
        with JoinSession(strategy="block_nested") as oracle:
            candidates = oracle.run(DistanceJoinSpec(self.A, None, self.EPSILON, refine=lambda a, b: True))
        assert result == [pair for pair in candidates if sum(pair) % 2 == 0] and result
        assert set(seen) == {(int, int)}
        assert_plain_pairs(result)

    def test_callable_join_duplicates_are_dropped_for_synapses(self):
        dataset = generate_neurons(6, 30, seed=3)
        with JoinSession() as session:
            expected = session.run(SynapseJoinSpec(dataset, epsilon=0.5))
        assert expected

        def twice(items_a, items_b, counters):
            pairs = make_join_strategy("nested_loop").join(items_a, items_b, counters)
            return pairs + pairs[::-1]  # a plain list, every pair twice

        with JoinSession(strategy=CallableJoin(twice)) as session:
            assert session.run(SynapseJoinSpec(dataset, epsilon=0.5)) == expected
            assert session.stats.candidates >= 2 * len(expected)

    @pytest.mark.parametrize("name", sorted(JOIN_REGISTRY))
    def test_empty_and_single_inputs_answer_an_empty_list(self, name):
        one = self.A[:1]
        specs = [SelfJoinSpec([]), SelfJoinSpec(one), DistanceJoinSpec(one, None, 1.0),
                 DistanceJoinSpec([], None, 1.0)]
        if JOIN_REGISTRY[name].binary:
            specs += [PairJoinSpec([], self.B), PairJoinSpec(self.A, []), PairJoinSpec([], []),
                      DistanceJoinSpec(self.A, [], 1.0)]
        with JoinSession(strategy=name) as session:
            for spec in specs:
                result = session.run(spec)
                assert result == [] and type(result) is list


class TestEpsilonContract:
    @pytest.mark.parametrize("epsilon", [float("nan"), float("inf"), -0.1])
    def test_non_finite_epsilon_is_refused_at_construction(self, epsilon):
        dataset = generate_neurons(2, 5, seed=1)
        with pytest.raises(ValueError, match="epsilon must be >= 0"):
            DistanceJoinSpec(dataset.items, None, epsilon)
        with pytest.raises(ValueError, match="epsilon must be >= 0"):
            SynapseJoinSpec(dataset, epsilon=epsilon)
        assert DistanceJoinSpec(dataset.items, None, 0.0).epsilon == 0.0
