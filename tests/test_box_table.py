"""`BoxTable` and the one-table join plane.

* the value itself: round trips, ``expanded``/``hull`` against the object
  arithmetic, views, read-only arrays, the input contract (hypothesis);
* hostile input through :class:`JoinSession`: one ``ValueError`` wording per
  cause for every registry strategy, refused before any spill file exists,
  with the session usable afterwards;
* identity: every strategy × spec kind answers a spec over Item lists and a
  spec over ``BoxTable.from_arrays`` with the same list and the same
  :class:`JoinStats` numbers;
* the spill join's traffic against values frozen at the pre-table commit;
* spies: one pack per side per run, none on a re-run, no per-item ``AABB``
  inside the array strategies;
* ``GridJoin`` on the read-only grid against the bucket-grid path.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import (
    AABB,
    BoxTable,
    DistanceJoinSpec,
    JoinSession,
    PairJoinSpec,
    SelfJoinSpec,
)
from repro.core import uniform_grid
from repro.datasets.neuroscience import generate_neurons
from repro.exec import pbsm_working_set_bytes
from repro.geometry.aabb import union_all
from repro.instrumentation.counters import Counters
from repro.joins import JOIN_REGISTRY, make_join_strategy
from repro.joins.session import pair_list
from repro.serving.snapshots import SnapshotGridIndex

STRATEGIES = sorted(JOIN_REGISTRY)
STRATEGY_KINDS = [
    (name, kind)
    for name in STRATEGIES
    for kind in ("self", "distance_self", "pair", "distance_pair")
    if JOIN_REGISTRY[name].binary or not kind.endswith("pair")
]


def _boxes(n, dims, seed, offset=0, extent=2.0, side=20.0):
    rng = np.random.default_rng(seed)
    lo = rng.uniform(0.0, side, size=(n, dims))
    # Extents within 2.5x of each other keep tiny_cell (cells under the
    # smallest extent, windows over the largest) affordable.
    hi = lo + rng.uniform(0.8, extent, size=(n, dims))
    return [(eid + offset, AABB(l, h)) for eid, (l, h) in enumerate(zip(lo.tolist(), hi.tolist()))]


def _arrays(items):
    eids = np.array([eid for eid, _ in items], dtype=np.int64)
    boxes = np.array([(box.lo, box.hi) for _, box in items], dtype=np.float64)
    return eids, boxes.reshape(len(items), 2, -1)


@st.composite
def item_lists(draw, min_size=0):
    dims = draw(st.integers(1, 4))
    n = draw(st.integers(min_size, 40))
    coord = st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False)
    ids = draw(st.lists(st.integers(-(2**40), 2**40), min_size=n, max_size=n, unique=True))
    items = []
    for eid in ids:
        a = draw(st.lists(coord, min_size=dims, max_size=dims))
        b = draw(st.lists(coord, min_size=dims, max_size=dims))
        items.append((eid, AABB([min(x, y) for x, y in zip(a, b)], [max(x, y) for x, y in zip(a, b)])))
    return items


# -- (a) the value ---------------------------------------------------------------


class TestBoxTableValue:
    @settings(max_examples=60, deadline=None)
    @given(items=item_lists())
    def test_round_trip_and_sequence_protocol(self, items):
        table = BoxTable.from_items(items)
        assert table.items() is items  # the originating sequence, not a copy
        assert list(table) == items and len(table) == len(items)
        rebuilt = BoxTable.from_arrays(*_arrays(items)) if items else table
        assert list(rebuilt.items()) == items  # AABBs rebuilt from the rows
        assert BoxTable.of(table) is table
        if items:
            assert table[0] == items[0] and table[-1] == items[-1]
            assert table.dims == items[0][1].dims

    @settings(max_examples=60, deadline=None)
    @given(items=item_lists(min_size=1), margin=st.floats(0.0, 1e3))
    def test_expanded_and_hull_equal_the_object_arithmetic(self, items, margin):
        table = BoxTable.from_items(items)
        grown = table.expanded(margin)
        assert list(grown.items()) == [(eid, box.expanded(margin)) for eid, box in items]
        assert np.array_equal(grown.eids, table.eids)
        assert table.hull() == union_all(box for _, box in items)

    def test_negative_expansion_that_inverts_is_refused_like_aabb(self):
        table = BoxTable.from_items([(0, AABB((0.0, 0.0), (1.0, 4.0)))])
        assert list(table.expanded(-0.25).items()) == [(0, AABB((0.25, 0.25), (0.75, 3.75)))]
        with pytest.raises(ValueError):
            table.expanded(-0.75)
        with pytest.raises(ValueError):
            BoxTable.from_items([]).hull()

    @settings(max_examples=40, deadline=None)
    @given(items=item_lists(min_size=2), data=st.data())
    def test_slices_are_views_and_arrays_are_read_only(self, items, data):
        table = BoxTable.from_items(items)
        start = data.draw(st.integers(0, len(items)))
        stop = data.draw(st.integers(start, len(items)))
        for source in (table, BoxTable.from_arrays(*_arrays(items))):
            part = source[start:stop]
            assert isinstance(part, BoxTable)
            assert list(part) == items[start:stop]
            assert np.shares_memory(part.boxes, source.boxes) or stop == start
            assert np.shares_memory(part.eids, source.eids) or stop == start
            for array in (source.eids, source.boxes, part.eids, part.boxes):
                assert not array.flags.writeable
                with pytest.raises(ValueError):
                    array[...] = 0

    def test_slices_share_boxes_the_parent_already_holds(self):
        table = BoxTable.from_arrays(*_arrays(_boxes(10, 3, seed=1)))
        assert table[2:7][0] == table[2]  # rebuilt from the view's own rows
        first, second = table[2:7], table[4:]  # parent items now cached
        assert first[0] is table[2] and second[0] is table[4] is first[2]

    def test_rows_of(self):
        items = _boxes(50, 2, seed=2)
        shuffled = [items[i] for i in np.random.default_rng(3).permutation(50)]
        table = BoxTable.from_items(shuffled)
        wanted = np.array([7, 0, 49, 7])
        assert table.eids[table.rows_of(wanted)].tolist() == wanted.tolist()

    @pytest.mark.parametrize(
        "mutate, message",
        [
            (lambda items: items.__setitem__(3, (3, AABB((0.0, float("nan")), (1.0, 1.0)))),
             "box coordinates must be finite"),
            (lambda items: items.__setitem__(3, (3, AABB((0.0, 0.0), (1.0, float("inf"))))),
             "box coordinates must be finite"),
            (lambda items: items.__setitem__(5, (2, items[5][1])), "duplicate element id 2"),
            (lambda items: items.__setitem__(4, (4, AABB((0.0,) * 3, (1.0,) * 3))),
             "items mix dimensionalities"),
            # Same total coordinate count as a uniform 2-d list: only a
            # per-item check can see it.
            (lambda items: (items.__setitem__(4, (4, AABB((0.0,), (1.0,)))),
                            items.__setitem__(6, (6, AABB((0.0,) * 3, (1.0,) * 3)))),
             "items mix dimensionalities"),
        ],
    )
    def test_from_items_contract(self, mutate, message):
        items = _boxes(8, 2, seed=4)
        mutate(items)
        with pytest.raises(ValueError, match=message):
            BoxTable.from_items(items)
        with pytest.raises(ValueError, match=message):
            BoxTable.from_items(iter(items))

    def test_from_arrays_contract(self):
        eids, boxes = _arrays(_boxes(8, 2, seed=4))
        assert list(BoxTable.from_arrays(eids, boxes)) == _boxes(8, 2, seed=4)
        bad = boxes.copy(); bad[3, 0, 1] = np.nan
        with pytest.raises(ValueError, match="box coordinates must be finite"):
            BoxTable.from_arrays(eids, bad)
        bad = boxes.copy(); bad[3, 0, 1] = bad[3, 1, 1] + 1.0
        with pytest.raises(ValueError, match="lo > hi in row 3"):
            BoxTable.from_arrays(eids, bad)
        dup = eids.copy(); dup[6] = dup[1]
        with pytest.raises(ValueError, match="duplicate element id 1"):
            BoxTable.from_arrays(dup, boxes)
        with pytest.raises(ValueError, match="boxes must have shape"):
            BoxTable.from_arrays(eids, boxes[:5])
        with pytest.raises(ValueError, match="boxes must have shape"):
            BoxTable.from_arrays(eids, boxes.reshape(8, 4))
        with pytest.raises(ValueError, match="eids must be a 1-d integer array"):
            BoxTable.from_arrays(eids.astype(np.float64), boxes)


# -- hostile input through the session -------------------------------------------


def _hostile_specs(binary: bool):
    a, b = _boxes(200, 3, seed=5), _boxes(200, 3, seed=6, offset=1000)
    nan_a = list(a)
    nan_a[7] = (7, AABB((float("nan"), 0.0, 0.0), (1.0, 1.0, 1.0)))
    dup = list(a)
    dup[9] = (3, dup[9][1])
    mixed = list(a)
    mixed[50] = (50, AABB((0.0, 0.0), (1.0, 1.0)))
    if not binary:
        return [
            (SelfJoinSpec(nan_a), "box coordinates must be finite"),
            (SelfJoinSpec(dup), "duplicate element id 3"),
            (SelfJoinSpec(mixed), "items mix dimensionalities"),
        ]
    return [
        (PairJoinSpec(nan_a, b), "box coordinates must be finite"),
        (PairJoinSpec(b, nan_a), "box coordinates must be finite"),
        (DistanceJoinSpec(nan_a, None, 0.5), "box coordinates must be finite"),
        (PairJoinSpec(a, _boxes(200, 2, seed=7, offset=1000)), "join sides differ in dimensionality"),
        (DistanceJoinSpec(a, _boxes(200, 2, seed=7, offset=1000), 0.5),
         "join sides differ in dimensionality"),
        (SelfJoinSpec(dup), "duplicate element id 3"),
        (PairJoinSpec(a, dup), "duplicate element id 3"),
        (PairJoinSpec(mixed, b), "items mix dimensionalities"),
    ]


class TestHostileInput:
    @pytest.mark.parametrize("name", STRATEGIES)
    def test_every_strategy_refuses_with_one_wording(self, name):
        good = SelfJoinSpec(_boxes(120, 3, seed=8))
        with JoinSession(strategy="nested_loop") as oracle:
            expected = oracle.run(good)
        with JoinSession(strategy=name) as session:
            for spec, message in _hostile_specs(JOIN_REGISTRY[name].binary):
                with pytest.raises(ValueError, match=message):
                    session.run(spec)
                assert session.pending == 0
            assert session.run(good) == expected  # still usable
            assert session.stats.joins == 1

    def test_refused_before_any_spill_file_exists(self, tmp_path):
        budget = pbsm_working_set_bytes(200, 200) // 4
        with JoinSession(budget=budget, spill_dir=str(tmp_path)) as session:
            for spec, message in _hostile_specs(binary=True):
                with pytest.raises(ValueError, match=message):
                    session.run(spec)
                assert session._spill is None and not list(tmp_path.iterdir())
            a, b = _boxes(200, 3, seed=5), _boxes(200, 3, seed=6, offset=1000)
            with JoinSession(strategy="nested_loop") as oracle:
                expected = oracle.run(PairJoinSpec(a, b))
            assert session.run(PairJoinSpec(a, b)) == expected
            assert session.stats.strategy_runs == {"pbsm_spill": 1}
            assert session.spill_manager().live_handles == 0



# -- (b) Item-list input vs table input --------------------------------------------


def _stats(session):
    s = session.stats
    return s.candidates, s.pairs, s.comparisons, s.refined


class TestListAndTableInputAgree:
    A = _boxes(260, 3, seed=11)
    B = _boxes(240, 3, seed=12, offset=5000)

    def _specs(self, name, as_table):
        wrap = (lambda items: BoxTable.from_arrays(*_arrays(items))) if as_table else list
        specs = {
            "self": SelfJoinSpec(wrap(self.A)),
            "distance_self": DistanceJoinSpec(wrap(self.A), None, 0.4),
        }
        if JOIN_REGISTRY[name].binary:
            specs["pair"] = PairJoinSpec(wrap(self.A), wrap(self.B))
            specs["distance_pair"] = DistanceJoinSpec(wrap(self.A), wrap(self.B), 0.4)
        return specs

    @pytest.mark.parametrize("name, kind", STRATEGY_KINDS)
    def test_identical_lists_and_stats(self, name, kind):
        with JoinSession(strategy="nested_loop") as oracle:
            expected_pairs = oracle.run(self._specs(name, False)[kind])
        answers = []
        for as_table in (False, True):
            spec = self._specs(name, as_table)[kind]
            with JoinSession(strategy=name) as session:
                answers.append((session.run(spec), _stats(session)))
                assert session.run(spec) == answers[-1][0]  # re-run off the cached table
        assert answers[0] == answers[1], (name, kind)
        assert answers[0][0] == expected_pairs, (name, kind)


# -- (c) spill traffic frozen at the pre-table commit --------------------------------


def _sides(n, seed, extent=2.0):
    rng = np.random.default_rng(seed)
    lo = rng.uniform(0.0, 99.0, size=(n, 3))
    hi = np.minimum(lo + rng.uniform(0.05, extent, size=(n, 3)), 100.0)
    return [(eid, AABB(l, h)) for eid, (l, h) in enumerate(zip(lo, hi))]


class TestSpillTrafficUnchanged:
    @pytest.mark.parametrize("as_table", [False, True], ids=["items", "table"])
    def test_seeded_4k_join_under_quarter_budget(self, as_table):
        a = _sides(4000, 401)
        b = [(eid + 10_000, box) for eid, box in _sides(4000, 402)]
        if as_table:
            spec = PairJoinSpec(BoxTable.from_items(a), BoxTable.from_arrays(*_arrays(b)))
        else:
            spec = PairJoinSpec(a, b)
        with JoinSession(budget=pbsm_working_set_bytes(4000, 4000) // 4) as session:
            pairs = session.run(spec)
            stats = session.stats
            assert stats.strategy_runs == {"pbsm_spill": 1}
            # Measured at the parent of the BoxTable change (Item-list input,
            # three pack passes): the table moved none of them.
            assert stats.tiles_spilled == 144
            assert stats.spill_bytes_written == stats.spill_bytes_read == 724_224
            assert stats.budget_high_water == 149_952
            assert stats.comparisons == 14_582
            assert session.counters.cells_probed == 11_316
            assert len(pairs) == 153
            assert stats.zero_copy_reads > 0  # the merge mapped its runs
        with JoinSession(strategy="pbsm") as memory:
            assert memory.run(spec) == pairs


# -- (d) spies ---------------------------------------------------------------------


@pytest.fixture
def pack_calls(monkeypatch):
    calls = []
    original = BoxTable.from_items.__func__

    def counting(cls, items):
        calls.append(len(items))
        return original(cls, items)

    monkeypatch.setattr(BoxTable, "from_items", classmethod(counting))
    return calls


@pytest.fixture
def aabb_calls(monkeypatch):
    calls = []
    original = AABB.__init__

    def counting(self, lo, hi):
        calls.append(1)
        original(self, lo, hi)

    monkeypatch.setattr(AABB, "__init__", counting)
    return calls


class TestOnePackPerSpec:
    A = _boxes(300, 3, seed=21)
    B = _boxes(280, 3, seed=22, offset=5000)

    @pytest.mark.parametrize("name", STRATEGIES)
    def test_at_most_one_pack_per_side_and_none_on_rerun(self, name, pack_calls):
        specs = [SelfJoinSpec(self.A), DistanceJoinSpec(self.A, None, 0.3)]
        if JOIN_REGISTRY[name].binary:
            specs += [PairJoinSpec(self.A, self.B), DistanceJoinSpec(self.A, self.B, 0.3)]
        with JoinSession(strategy=name) as session:
            for spec in specs:
                sides = 1 if spec.kind == "self" or getattr(spec, "is_self", False) else 2
                del pack_calls[:]
                first = session.run(spec)
                assert len(pack_calls) == sides, (name, spec.kind, pack_calls)
                del pack_calls[:]
                assert session.run(spec) == first
                assert pack_calls == [], (name, spec.kind)

    def test_spill_join_packs_each_side_once(self, pack_calls):
        a, b = _sides(4000, 401), [(e + 10_000, x) for e, x in _sides(4000, 402)]
        with JoinSession(budget=pbsm_working_set_bytes(4000, 4000) // 4) as session:
            session.run(PairJoinSpec(a, b))
            assert session.stats.tiles_spilled > 0
        assert pack_calls == [4000, 4000]

    @pytest.mark.parametrize("name", ["grid", "pbsm", "pbsm_spill", "block_nested", "sweepline"])
    def test_array_strategies_build_no_box_per_item(self, name, aabb_calls):
        table_a = BoxTable.from_arrays(*_arrays(self.A))
        table_b = BoxTable.from_arrays(*_arrays(self.B))
        strategy = make_join_strategy(name)
        del aabb_calls[:]
        strategy.join(table_a, table_b, Counters())
        strategy.self_join(table_a, Counters())
        strategy.distance_candidates(table_a, None, 0.3, Counters())
        strategy.distance_candidates(table_a, table_b, 0.3, Counters())
        # The grid join boxes its hull and universe — a constant, never a
        # box per element; the others build none at all.
        assert len(aabb_calls) <= (40 if name == "grid" else 0), len(aabb_calls)


# -- (e) GridJoin on the read-only grid ----------------------------------------------


class TestGridJoinReadOnlyGrid:
    EPSILON = 0.05

    @pytest.fixture(scope="class")
    def neurons(self):
        return BoxTable.from_items(generate_neurons(125, 80, seed=3).items)

    def _self_join(self, table, monkeypatch, bucket_grid, cell_size=None):
        if bucket_grid:
            monkeypatch.setattr(SnapshotGridIndex, "over", classmethod(lambda cls, *a: None))
        counters = Counters()
        strategy = make_join_strategy("grid", cell_size=cell_size)
        pairs = strategy.distance_candidates(table, None, self.EPSILON, counters)
        monkeypatch.undo()
        return pairs.tolist(), counters.comparisons, counters.cells_probed

    def test_equals_the_bucket_grid_path(self, neurons, monkeypatch):
        built = []
        original = SnapshotGridIndex.over.__func__

        def recording(cls, *args):
            built.append(original(cls, *args))
            return built[-1]

        monkeypatch.setattr(SnapshotGridIndex, "over", classmethod(recording))
        read_only = self._self_join(neurons, monkeypatch, bucket_grid=False)
        assert len(built) == 1 and isinstance(built[0], SnapshotGridIndex)
        assert read_only == self._self_join(neurons, monkeypatch, bucket_grid=True)
        assert read_only[0] and read_only[1] > 0

    def test_pair_join_equals_the_bucket_grid_path(self, monkeypatch):
        a, b = _boxes(400, 3, seed=31), _boxes(300, 3, seed=32, offset=9000)
        results = []
        for bucket_grid in (False, True):
            if bucket_grid:
                monkeypatch.setattr(SnapshotGridIndex, "over", classmethod(lambda cls, *a: None))
            counters = Counters()
            pairs = make_join_strategy("grid").join(a, b, counters)
            results.append((pairs.tolist(), counters.comparisons, counters.cells_probed))
        assert results[0] == results[1]

    def test_probe_windows_wider_than_the_occupied_cells_stay_exact(self, neurons, monkeypatch):
        # An ε past the hull makes every probe window the whole grid, wider
        # than the occupied cells: each gathers from the occupied keys alone.
        part = neurons[:400]
        walked = []
        real = uniform_grid._walk_cells
        monkeypatch.setattr(
            uniform_grid, "_walk_cells",
            lambda table, keys, *rest: walked.append((len(keys), len(table[0])))
            or real(table, keys, *rest),
        )
        epsilon = float(np.max(part.hull().extents()))
        counters = Counters()
        pairs = make_join_strategy("grid").distance_candidates(part, None, epsilon, counters)
        nested = make_join_strategy("nested_loop").distance_candidates(part, None, epsilon, Counters())
        assert pair_list(pairs) == pair_list(nested) and len(pairs) == 400 * 399 // 2
        assert counters.comparisons == len(part) ** 2  # every probe window shares a cell with every row
        assert walked and all(gathered <= occupied for gathered, occupied in walked)

    def test_unlinearizable_universe_uses_the_bucket_grid(self, monkeypatch):
        # 3 axes of ~2M cells each: linear cell keys would overflow int64.
        rng = np.random.default_rng(41)
        points = rng.uniform(0.0, 100.0, size=(60, 3))
        points = np.concatenate([points, points[:20]])  # coincident points pair up
        items = [(eid, AABB(p, p)) for eid, p in enumerate(points.tolist())]
        table = BoxTable.from_items(items)
        universe = table.hull().expanded(1.0)
        assert SnapshotGridIndex.over(table.eids, table.boxes, universe, 5e-5) is None
        counters = Counters()
        pairs = make_join_strategy("grid", cell_size=5e-5).self_join(table, counters)
        assert pair_list(pairs) == pair_list(make_join_strategy("nested_loop").self_join(items, Counters()))
        assert len(pairs) == 20
