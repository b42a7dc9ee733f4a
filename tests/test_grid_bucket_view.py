"""`UniformGrid`'s buckets are a view of its row store's window matrix.

Pinned here:

* a grid whose buckets are first asked for at a random point of a random
  program of `bulk_load` / `apply_moves` / `update` / `insert` / `delete`
  (scalar and batch reads in between) is, from that point on and at every
  read before it, indistinguishable from a twin whose buckets were built
  right after each load: bucket dicts with per-bucket order, scalar
  `range_query` / `knn` lists, batch answers and every counter — whether the
  snapshot was never packed, clean, patched or dropped at that moment;
* the default read paths of the tiers above never ask: a steady-state
  `ContinuousSession` (moves only) and a `ServingSession` answering coalesced
  frames leave the backing grid's buckets unbuilt; a scalar read builds
  them, once, and scalar writes keep them from then on.
"""

from __future__ import annotations

import asyncio

import numpy as np

from conftest import grid_windows, make_items
from repro import (
    AABB,
    ContinuousJoinSpec,
    ContinuousKNNQuery,
    ContinuousRangeQuery,
    ContinuousSession,
    ServingSession,
    UniformGrid,
    WorkerPool,
)
from repro.continuous.policies import IncrementalPolicy

UNIVERSE = AABB((0.0, 0.0, 0.0), (30.0, 30.0, 21.0))  # 21/2: a ragged top cell
OPS = ["load", "moves", "update", "insert", "delete", "range", "knn", "batch"]
WEIGHTS = [0.04, 0.34, 0.06, 0.03, 0.03, 0.03, 0.03, 0.44]


def shifted(rng, box: AABB, reach: float) -> AABB:
    shift = rng.uniform(-reach, reach, size=3)
    return AABB(np.add(box.lo, shift), np.add(box.hi, shift))


def window(rng, width: float) -> AABB:
    lo = rng.uniform(-2.0, 28.0, size=3)
    return AABB(lo, lo + width)


def buckets_in_order(grid: UniformGrid) -> dict:
    return {key: list(bucket) for key, bucket in grid._buckets().items()}


def counters_of(grid: UniformGrid) -> tuple:
    return (
        grid.in_place_updates, grid.cell_switches, grid.snapshot_rebuilds,
        grid.counters.snapshot(),
    )


class Twins:
    """One program, two grids: ``lazy`` as loaded, ``eager`` with its buckets
    forced after every load.  ``asked_at`` collects the snapshot's state each
    time ``lazy``'s buckets were first asked for."""

    def __init__(self, rng, asked_at: set[str]) -> None:
        self.rng = rng
        self.asked_at = asked_at
        self.lazy = UniformGrid(universe=UNIVERSE, cell_size=2.0)
        self.eager = UniformGrid(universe=UNIVERSE, cell_size=2.0)
        self.load()

    def both(self, call):
        lazy = self.lazy
        state = self.snapshot_state() if lazy._cells is None else None
        answers = call(lazy), call(self.eager)
        if state is not None and lazy._cells is not None:
            self.asked_at.add(state)  # this call was the first to ask
        assert answers[0] == answers[1]
        assert counters_of(lazy) == counters_of(self.eager)

    def snapshot_state(self) -> str:
        snap = self.lazy._snapshot
        if snap is not None:
            return "patched" if snap.dirty else "clean"
        return "dropped" if self.lazy.snapshot_rebuilds > self.rebuilds_at_load else "none"

    def load(self) -> None:
        size = int(self.rng.integers(150, 300))
        items = make_items(size, universe=UNIVERSE, max_extent=3.0,
                           seed=int(self.rng.integers(1 << 30)))
        self.state = dict(items)
        self.next_id = size
        self.lazy.bulk_load(items)
        self.eager.bulk_load(items)
        self.eager._buckets()
        self.rebuilds_at_load = self.lazy.snapshot_rebuilds
        assert self.lazy._cells is None

    def step(self) -> None:
        rng, state = self.rng, self.state
        op = OPS[rng.choice(len(OPS), p=WEIGHTS)]
        if op == "load":
            self.load()
        elif op == "moves":
            # 5-20 moves patch a packed snapshot, 120 drop it (threshold 64).
            size = min(int(rng.choice([5, 20, 120])), len(state))
            moves = []
            for at, eid in enumerate(rng.choice(sorted(state), size=size, replace=False).tolist()):
                new_box = shifted(rng, state[eid], 0.05 if at % 2 else 5.0)
                moves.append((eid, state[eid], new_box))
                state[eid] = new_box
            self.both(lambda grid: grid.apply_moves(moves))
        elif op == "update":
            eid = int(rng.choice(sorted(state)))
            old, new = state[eid], shifted(rng, state[eid], float(rng.choice([0.05, 5.0])))
            state[eid] = new
            self.both(lambda grid: grid.update(eid, old, new))
        elif op == "insert":
            eid, box = self.next_id, window(rng, 1.5)
            self.next_id += 1
            state[eid] = box
            self.both(lambda grid: grid.insert(eid, box))
        elif op == "delete":
            eid = int(rng.choice(sorted(state)))
            box = state.pop(eid)
            self.both(lambda grid: grid.delete(eid, box))
        elif op == "range":
            box = window(rng, 6.0)
            self.both(lambda grid: grid.range_query(box))
        elif op == "knn":
            point = tuple(rng.uniform(-2.0, 32.0, size=3))
            self.both(lambda grid: grid.knn(point, 5))
        else:
            boxes = [window(rng, 5.0) for _ in range(6)]
            points = rng.uniform(-2.0, 32.0, size=(4, 3))
            self.both(lambda grid: (grid.batch_range_query(boxes), grid.batch_knn(points, 5)))

    def finish(self) -> None:
        """The view itself, asked for wherever the program stopped."""
        self.both(buckets_in_order)
        lazy, eager = self.lazy, self.eager
        assert list(lazy._boxes.items()) == list(eager._boxes.items())
        assert list(grid_windows(lazy).items()) == list(grid_windows(eager).items())
        assert lazy.occupied_cells == eager.occupied_cells
        assert lazy.memory_bytes() == eager.memory_bytes()


class TestBucketsAreAView:
    def test_random_programs_equal_the_eager_twin(self):
        asked_at: set[str] = set()
        for seed in range(60):
            twins = Twins(np.random.default_rng(seed), asked_at)
            for _ in range(30):
                twins.step()
            twins.finish()
        assert asked_at == {"none", "clean", "patched", "dropped"}

    def test_unlinearizable_grid_builds_the_same_view(self):
        # ~2M cells per axis: no int64 cell key, so the build walks the windows.
        rng = np.random.default_rng(5)
        items = [(eid, AABB(p, p + 2e-4)) for eid, p in enumerate(rng.uniform(0.0, 100.0, (80, 3)))]
        bulk = UniformGrid(universe=AABB((0.0,) * 3, (100.0,) * 3), cell_size=5e-5)
        bulk.bulk_load(items)
        assert bulk._cells is None and bulk.batch_range_query([items[0][1]]) == [[0]]
        one_by_one = UniformGrid(universe=bulk.universe, cell_size=5e-5)
        for eid, box in items:
            one_by_one.insert(eid, box)
        assert buckets_in_order(bulk) == buckets_in_order(one_by_one)

    def test_an_empty_load_leaves_built_empty_buckets(self):
        grid = UniformGrid(universe=UNIVERSE, cell_size=2.0)
        grid.bulk_load(make_items(20, universe=UNIVERSE, seed=1))
        grid.bulk_load([])
        assert grid._cells == {} and grid.occupied_cells == 0 and grid.memory_bytes() == 0


class TestTheTiersAboveNeverAsk:
    def test_steady_state_continuous_session(self, monkeypatch):
        """Range + kNN + join subscriptions on the default route, moves only:
        the incremental policy's grid folds every tick in and answers every
        re-probe — kNN invalidations included — without its buckets."""
        probes = []
        real = IncrementalPolicy._knn
        monkeypatch.setattr(
            IncrementalPolicy, "_knn", lambda self, *args: probes.append(args) or real(self, *args)
        )
        items = make_items(600, universe=UNIVERSE, max_extent=1.0, seed=21)
        session = ContinuousSession(items, UNIVERSE)
        rng = np.random.default_rng(22)
        subs = [session.subscribe(ContinuousRangeQuery(window(rng, 8.0))) for _ in range(3)]
        subs += [
            session.subscribe(ContinuousKNNQuery(tuple(rng.uniform(0.0, 21.0, size=3)), k=6))
            for _ in range(6)
        ]
        subs.append(session.subscribe(ContinuousJoinSpec(epsilon=0.2)))
        state = dict(items)
        for _ in range(24):
            moves = []
            for eid in rng.choice(len(items), size=30, replace=False).tolist():
                new_box = shifted(rng, state[eid], 1.0)
                moves.append((eid, state[eid], new_box))
                state[eid] = new_box
            session.tick(moves)
        assert {sub.routed for sub in subs} == {"incremental"} and len(probes) >= 5
        for sub in subs:
            assert sub.result == session.oracle_result(sub)
        grid = session._policies["incremental"]._backing
        assert grid._cells is None and grid.cell_switches > 0 and grid.in_place_updates > 0
        self.assert_a_scalar_call_builds_them_once(grid)

    def test_serving_session_coalesced_frames(self):
        grid = UniformGrid(universe=UNIVERSE)
        grid.bulk_load(make_items(3000, universe=UNIVERSE, max_extent=1.0, seed=23))
        rng = np.random.default_rng(24)
        frames = [
            ([window(rng, 3.0) for _ in range(8)], rng.uniform(0.0, 21.0, size=(5, 3)).tolist())
            for _ in range(6)
        ]

        async def main(pool):
            async with ServingSession(grid, pool=pool) as serving:
                for boxes, points in frames:
                    await asyncio.gather(
                        *[serving.range_query(box) for box in boxes],
                        *[serving.knn(point, 4) for point in points],
                    )
                return serving.queries.stats

        with WorkerPool(workers=2) as pool:
            stats = asyncio.run(main(pool))
        assert stats.submitted == 6 * 13 and stats.flushes < stats.submitted // 5
        assert grid._cells is None and grid.snapshot_rebuilds == 1
        self.assert_a_scalar_call_builds_them_once(grid)

    @staticmethod
    def assert_a_scalar_call_builds_them_once(grid: UniformGrid) -> None:
        grid.range_query(UNIVERSE)
        built = grid._cells
        assert built is not None and len(built) == grid.occupied_cells
        eid, box = next(iter(grid._boxes.items()))
        grid.knn(box.lo, 3)
        grid.update(eid, box, AABB(np.add(box.lo, 9.0), np.add(box.hi, 9.0)))
        assert grid._buckets() is built and grid.cell_switches > 0
