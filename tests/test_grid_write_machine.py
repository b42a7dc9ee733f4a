"""`UniformGrid`'s write path as a state machine.

A hypothesis ``RuleBasedStateMachine`` drives one grid through random
programs of ``insert`` / ``delete`` / ``update`` / ``apply_moves`` — among
them an id updated twice before any read, stale ``old_box``es, wrong-dims
and NaN / ±inf boxes — with scalar and batch range / kNN reads, both
update counters, ``snapshot_rebuilds`` and ``len`` interleaved.  Two
oracles judge every read:

* :class:`~repro.indexes.linear_scan.LinearScan` for the answers (hit sets,
  ordered ``(distance, id)`` kNN lists);
* :class:`PlacementModel`, a dict in placement order that re-appends an
  element on each cell switch (windows from ``_cell_coords``), for what the
  scan cannot say: batch order (placement order), the in-place /
  cell-switch split and when the snapshot is repacked.

Scalar reads are the batch kernels on one row: their range hits equal the
batch answer, and they pack a snapshot as a batch read does.  A refused write
must leave grid, counters and snapshot as they were.  The machine runs with
the compaction threshold low (the snapshot drops often) and out of reach (it
patches forever).
"""

from __future__ import annotations

from itertools import product

import numpy as np
import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, initialize, invariant, precondition, rule

from repro.core import uniform_grid
from repro.core.uniform_grid import UniformGrid, _cell_coords, grid_axes
from repro.geometry.aabb import AABB
from repro.indexes.linear_scan import LinearScan

UNIVERSE = AABB((0.0, 0.0, 0.0), (10.0, 10.0, 7.0))  # 7/2: a ragged top cell
CELL = 2.0
ORIGIN, TOPS = (np.array(side * 2) for side in zip(*grid_axes(UNIVERSE, CELL)))
NON_FINITE = [float("nan"), float("inf"), float("-inf")]


def random_box(rng: np.random.Generator, near: AABB | None = None, reach: float = 0.0) -> AABB:
    """A fresh box that may poke out of the universe, or ``near`` shifted."""
    if near is None:
        lo = rng.uniform(-1.0, 10.0, size=3)
        return AABB(lo, lo + rng.uniform(0.0, 3.0, size=3))
    shift = rng.uniform(-reach, reach, size=3)
    return AABB(np.add(near.lo, shift), np.add(near.hi, shift))


class PlacementModel:
    """Placement order, windows and the snapshot's dirt, as the scalar
    ``update`` loop defines them."""

    def __init__(self) -> None:
        self.order: dict[int, tuple[AABB, tuple[int, ...]]] = {}
        self.in_place = self.switches = self.rebuilds = self.dirt = self.base = 0
        self.packed = False

    @staticmethod
    def window(box: AABB) -> tuple[int, ...]:
        return tuple(_cell_coords(np.array(box.lo + box.hi), ORIGIN, CELL, TOPS).tolist())

    @staticmethod
    def cells(window: tuple[int, ...]):
        return product(*[range(lo, hi + 1) for lo, hi in zip(window[:3], window[3:])])

    def patch(self, dirt: int) -> None:
        """Dirt on a packed snapshot; past the threshold it is dropped."""
        threshold = max(uniform_grid._SNAPSHOT_DIRTY_MIN, self.base // 4)
        self.dirt += dirt
        self.packed = self.packed and self.dirt <= threshold

    def load(self, items) -> None:
        self.order = {eid: (box, self.window(box)) for eid, box in items}
        self.in_place = self.switches = 0
        self.packed = False

    def insert(self, eid: int, box: AABB) -> None:
        self.order[eid] = (box, self.window(box))
        self.patch(len(list(self.cells(self.order[eid][1]))))

    def delete(self, eid: int) -> None:
        del self.order[eid]
        self.patch(1)

    def moves(self, moves) -> None:
        """A batch (or one update): dirt decided for the batch as a whole."""
        dirt = 0
        for eid, box in moves:
            window = self.window(box)
            if window == self.order[eid][1]:
                self.order[eid] = (box, window)
                self.in_place += 1
                dirt += 1
            else:
                del self.order[eid]
                self.order[eid] = (box, window)
                self.switches += 1
                dirt += 1 + len(list(self.cells(window)))
        self.patch(dirt)

    def batch_read(self) -> None:
        if self.order and not self.packed:
            self.rebuilds += 1
            self.packed, self.dirt, self.base = True, 0, len(self.order)

    def batch_order(self, query: AABB) -> list[int]:
        return [eid for eid, (box, _) in self.order.items() if box.intersects(query)]


class GridWriteMachine(RuleBasedStateMachine):
    DIRTY_MIN = 4

    def __init__(self) -> None:
        super().__init__()
        self.saved_min = uniform_grid._SNAPSHOT_DIRTY_MIN
        uniform_grid._SNAPSHOT_DIRTY_MIN = self.DIRTY_MIN
        self.grid = UniformGrid(universe=UNIVERSE, cell_size=CELL)
        self.oracle = LinearScan()
        self.model = PlacementModel()
        self.next_id = 0

    def teardown(self) -> None:
        uniform_grid._SNAPSHOT_DIRTY_MIN = self.saved_min

    # -- helpers ----------------------------------------------------------------

    def pick(self, data) -> int:
        return data.draw(st.sampled_from(sorted(self.model.order)))

    def fingerprint(self):
        """What a refused write must leave alone (read without settling)."""
        grid = self.grid
        return list(grid._boxes.items()), grid.counters.snapshot(), grid._snapshot

    def refused(self, error, call) -> None:
        before = self.fingerprint()
        with pytest.raises(error):
            call()
        after = self.fingerprint()
        assert after[:2] == before[:2] and after[2] is before[2]

    def move(self, eid: int, box: AABB) -> None:
        self.grid.update(eid, self.model.order[eid][0], box)
        self.oracle.update(eid, self.model.order[eid][0], box)
        self.model.moves([(eid, box)])

    # -- writes -----------------------------------------------------------------

    @initialize(seed=st.integers(0, 1 << 16), n=st.integers(0, 120))
    def load(self, seed, n):
        rng = np.random.default_rng(seed)
        items = [(eid, random_box(rng)) for eid in range(n)]
        self.grid.bulk_load(items)
        self.oracle.bulk_load(items)
        self.model.load(items)
        self.next_id = n

    @rule(seed=st.integers(0, 1 << 16))
    def insert(self, seed):
        box = random_box(np.random.default_rng(seed))
        eid, self.next_id = self.next_id, self.next_id + 1
        self.grid.insert(eid, box)
        self.oracle.insert(eid, box)
        self.model.insert(eid, box)

    @precondition(lambda self: self.model.order)
    @rule(data=st.data())
    def delete(self, data):
        eid = self.pick(data)
        self.grid.delete(eid, self.model.order[eid][0])
        self.oracle.delete(eid, self.model.order[eid][0])
        self.model.delete(eid)

    @precondition(lambda self: self.model.order)
    @rule(data=st.data(), reach=st.sampled_from([0.05, 0.5, 4.0]), seed=st.integers(0, 1 << 16))
    def update(self, data, reach, seed):
        eid = self.pick(data)
        self.move(eid, random_box(np.random.default_rng(seed), self.model.order[eid][0], reach))

    @precondition(lambda self: self.model.order)
    @rule(data=st.data(), seed=st.integers(0, 1 << 16))
    def update_twice_before_a_read(self, data, seed):
        eid = self.pick(data)
        rng = np.random.default_rng(seed)
        self.move(eid, random_box(rng, self.model.order[eid][0], 4.0))
        self.move(eid, random_box(rng, self.model.order[eid][0], 0.05))

    @precondition(lambda self: self.model.order)
    @rule(data=st.data(), seed=st.integers(0, 1 << 16),
          fraction=st.sampled_from([0.05, 0.3, 1.0]))
    def apply_moves(self, data, seed, fraction):
        rng = np.random.default_rng(seed)
        ids = sorted(self.model.order)
        chosen = rng.choice(ids, size=max(1, int(len(ids) * fraction)), replace=False).tolist()
        moves = [
            (eid, self.model.order[eid][0],
             random_box(rng, self.model.order[eid][0], 0.05 if at % 3 else 4.0))
            for at, eid in enumerate(chosen)
        ]
        self.grid.apply_moves(moves)
        for eid, old, new in moves:
            self.oracle.update(eid, old, new)
        self.model.moves([(eid, new) for eid, _, new in moves])

    # -- refused writes -----------------------------------------------------------

    @precondition(lambda self: self.model.order)
    @rule(data=st.data())
    def stale_old_box(self, data):
        eid = self.pick(data)
        stale = random_box(np.random.default_rng(eid), self.model.order[eid][0], 1.0)
        fresh = random_box(np.random.default_rng(eid + 1))
        self.refused(KeyError, lambda: self.grid.update(eid, stale, fresh))
        self.refused(KeyError, lambda: self.grid.delete(eid, stale))
        self.refused(KeyError, lambda: self.grid.apply_moves([(eid, stale, fresh)]))

    @precondition(lambda self: self.model.order)
    @rule(data=st.data(), bad=st.sampled_from(NON_FINITE), axis=st.integers(0, 5))
    def bad_boxes(self, data, bad, axis):
        eid = self.pick(data)
        old = self.model.order[eid][0]
        coords = list(old.lo + old.hi)
        coords[axis] = bad
        lo, hi = coords[:3], coords[3:]
        if bad == float("-inf"):  # keep lo <= hi where AABB checks it
            lo[axis % 3] = bad
        elif bad == float("inf"):
            hi[axis % 3] = bad
        non_finite = AABB(lo, hi)
        flat = AABB(old.lo[:2], old.hi[:2])
        # Before the write-behind path a non-finite scalar write died in
        # ``math.floor``: OverflowError for ±inf.  Either way, nothing changes.
        self.refused((ValueError, OverflowError), lambda: self.grid.update(eid, old, non_finite))
        self.refused((ValueError, OverflowError), lambda: self.grid.insert(-1, non_finite))
        self.refused(ValueError, lambda: self.grid.apply_moves([(eid, old, non_finite)]))
        self.refused(ValueError, lambda: self.grid.update(eid, old, flat))
        self.refused(ValueError, lambda: self.grid.insert(-1, flat))
        self.refused(ValueError, lambda: self.grid.apply_moves([(eid, old, flat)]))

    @precondition(lambda self: self.model.order)
    @rule(data=st.data())
    def repeated_id_batch(self, data):
        eid = self.pick(data)
        old = self.model.order[eid][0]
        twice = [(eid, old, random_box(np.random.default_rng(eid))), (eid, old, old)]
        self.refused(ValueError, lambda: self.grid.apply_moves(twice))

    # -- reads --------------------------------------------------------------------

    @rule(seed=st.integers(0, 1 << 16), k=st.integers(1, 6))
    def scalar_reads(self, seed, k):
        rng = np.random.default_rng(seed)
        query = random_box(rng)
        got = self.grid.range_query(query)
        self.model.batch_read()
        assert set(got) == set(self.oracle.range_query(query))
        assert got == self.grid.batch_range_query([query])[0]
        point = rng.uniform(-1.0, 11.0, size=3).tolist()
        assert self.grid.knn(point, k) == self.oracle.knn(point, k)

    @rule(seed=st.integers(0, 1 << 16), k=st.integers(1, 6))
    def batch_reads(self, seed, k):
        rng = np.random.default_rng(seed)
        queries = [random_box(rng) for _ in range(5)] + [UNIVERSE]
        got = self.grid.batch_range_query(queries)
        self.model.batch_read()
        assert got == [self.model.batch_order(query) for query in queries]
        points = rng.uniform(-1.0, 11.0, size=(4, 3))
        for got, want in zip(self.grid.batch_knn(points, k),
                             [self.oracle.knn(point, k) for point in points.tolist()]):
            # Vectorized distances may differ from the scalar ones by an ulp.
            assert [eid for _, eid in got] == [eid for _, eid in want]
            assert np.allclose([d for d, _ in got], [d for d, _ in want], rtol=1e-12)

    @rule(switches_first=st.booleans())
    def counters(self, switches_first):
        grid, model = self.grid, self.model
        # Either counter may be the read that places a pending log.
        if switches_first:
            assert (grid.cell_switches, grid.in_place_updates) == (model.switches, model.in_place)
        else:
            assert (grid.in_place_updates, grid.cell_switches) == (model.in_place, model.switches)
        assert grid.snapshot_rebuilds == model.rebuilds
        oracle = self.oracle.counters
        assert (grid.counters.inserts, grid.counters.deletes, grid.counters.updates) == (
            oracle.inserts, oracle.deletes, oracle.updates)

    @invariant()
    def length(self):
        assert len(self.grid) == len(self.model.order)


def machine(dirty_min: int):
    return type(f"Machine_{dirty_min}", (GridWriteMachine,), {"DIRTY_MIN": dirty_min})


RUN = settings(max_examples=30, stateful_step_count=30, deadline=None)

TestDropping = RUN(machine(4)).TestCase
TestPatching = RUN(machine(1 << 30)).TestCase
