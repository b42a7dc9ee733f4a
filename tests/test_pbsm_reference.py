"""PBSM partitions and merges with the uniform grid's gather — the pins.

``pbsm`` and ``pbsm_spill`` replicate boxes into tiles with the grid's window
expansion and merge each tile's replicas with the grid's cell-table walk,
keeping a pair only at the first tile the two windows share.  Pinned here,
against frozen copies of the kernels this replaced (a ``%``/``//`` replica
expansion, a float "owner tile" reference-point dedup and a per-tile slab
loop):

* replica rows and tile keys, in order, and the first mask they carry;
* pair sets and ``comparisons`` (the cross-product size over common tiles)
  of the in-memory kernel, of the spill merge kernel on its packed-key
  segments, and of both strategies through a session for self, pair and
  distance specs — the spill join over two or more runs;
* the spill funnel (tiles spilled, bytes written and read, budget
  high-water) the pre-grid build recorded on a seeded input;
* the slab bound: no slab enumerates more than ``max(slab_pairs, largest
  single-replica tile row)`` entries;
* the tiling guard: a tiling whose packed keys would overflow int64 is
  refused with a ``ValueError`` before anything tile-sized is allocated;
* the spill join's histogram pass: :func:`kernels.tile_histogram` (a
  difference array over the tile windows' corners) counts exactly the
  replicas :func:`kernels.tile_replicas` makes, tile by tile, however the
  rows are cut into chunks.
"""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exec.external_join import SpillPBSMJoin
from repro.geometry.aabb import AABB
from repro.instrumentation.counters import Counters
from repro.joins import (
    DistanceJoinSpec,
    JoinSession,
    PairJoinSpec,
    SelfJoinSpec,
    kernels,
    make_join_strategy,
)
from repro.joins.strategies import PBSMJoin, _default_tiles


# -- the frozen reference: the PBSM kernels before they shared the grid's ----------


def _tile_replicas(boxes, hull_lo, sides, strides, tiles_per_axis):
    lo_idx = np.clip(
        ((boxes[:, 0, :] - hull_lo) / sides).astype(np.int64), 0, tiles_per_axis - 1
    )
    hi_idx = np.clip(
        ((boxes[:, 1, :] - hull_lo) / sides).astype(np.int64), 0, tiles_per_axis - 1
    )
    spans = hi_idx - lo_idx + 1
    counts = spans.prod(axis=1)
    rows, flat = kernels.expand_ranges(np.zeros_like(counts), counts)
    keys = np.zeros(rows.shape[0], dtype=np.int64)
    rep_spans = spans[rows]
    rep_lo = lo_idx[rows]
    for axis in range(boxes.shape[2] - 1, -1, -1):
        coord = rep_lo[:, axis] + flat % rep_spans[:, axis]
        flat //= rep_spans[:, axis]
        keys += coord * strides[axis]
    return rows, keys


def _owning_keys(overlap_lo, hull_lo, sides, strides, tiles_per_axis):
    idx = np.clip(
        ((overlap_lo - hull_lo) / sides).astype(np.int64), 0, tiles_per_axis - 1
    )
    return idx @ strides


def _merge_tiles(
    boxes_a, rows_a, keys_a, boxes_b, rows_b, keys_b,
    hull_lo, sides, strides, tiles_per_axis, counters, slab_pairs,
):
    empty = np.empty(0, dtype=np.int64)
    uniq_a, start_a = np.unique(keys_a, return_index=True)
    uniq_b, start_b = np.unique(keys_b, return_index=True)
    count_a = np.diff(np.append(start_a, keys_a.shape[0]))
    count_b = np.diff(np.append(start_b, keys_b.shape[0]))
    common, ia, ib = np.intersect1d(uniq_a, uniq_b, return_indices=True)
    if common.shape[0] == 0:
        return empty, empty
    ca, cb = count_a[ia], count_b[ib]
    sa, sb = start_a[ia], start_b[ib]
    pair_counts = ca * cb
    out_a, out_b = [], []
    slab_edges = [0]
    running = 0
    for g, p in enumerate(pair_counts):
        running += int(p)
        if running >= slab_pairs:
            slab_edges.append(g + 1)
            running = 0
    if slab_edges[-1] != common.shape[0]:
        slab_edges.append(common.shape[0])
    for lo_g, hi_g in zip(slab_edges[:-1], slab_edges[1:]):
        g_cb = cb[lo_g:hi_g]
        g_pairs = pair_counts[lo_g:hi_g]
        groups, local = kernels.expand_ranges(np.zeros_like(g_pairs), g_pairs)
        total = groups.shape[0]
        if total == 0:
            continue
        ai = sa[lo_g:hi_g][groups] + local // g_cb[groups]
        bi = sb[lo_g:hi_g][groups] + local % g_cb[groups]
        if rows_a is not None:
            ai = rows_a[ai]
        if rows_b is not None:
            bi = rows_b[bi]
        counters.comparisons += total
        la, lb = boxes_a[ai], boxes_b[bi]
        overlap_lo = np.maximum(la[:, 0, :], lb[:, 0, :])
        overlap_hi = np.minimum(la[:, 1, :], lb[:, 1, :])
        intersecting = np.all(overlap_lo <= overlap_hi, axis=1)
        owners = _owning_keys(overlap_lo, hull_lo, sides, strides, tiles_per_axis)
        keep = intersecting & (owners == common[lo_g:hi_g][groups])
        out_a.append(ai[keep])
        out_b.append(bi[keep])
    if not out_a:
        return empty, empty
    return np.concatenate(out_a), np.concatenate(out_b)


def reference_pbsm_pairs(
    boxes_a, boxes_b, hull_lo, hull_hi, tiles_per_axis, counters,
    slab_pairs=kernels._SLAB_PAIRS,
):
    """The former ``pbsm_pairs``: replicate, key-sort, merge tile by tile."""
    sides, strides = kernels.tile_layout(hull_lo, hull_hi, tiles_per_axis)
    rows_a, keys_a = _tile_replicas(boxes_a, hull_lo, sides, strides, tiles_per_axis)
    rows_b, keys_b = _tile_replicas(boxes_b, hull_lo, sides, strides, tiles_per_axis)
    counters.cells_probed += int(keys_a.shape[0] + keys_b.shape[0])
    order_a = np.argsort(keys_a, kind="stable")
    order_b = np.argsort(keys_b, kind="stable")
    return _merge_tiles(
        boxes_a, rows_a[order_a], keys_a[order_a],
        boxes_b, rows_b[order_b], keys_b[order_b],
        hull_lo, sides, strides, tiles_per_axis, counters, slab_pairs,
    )


# -- fixtures ---------------------------------------------------------------------


def random_boxes(n, dims, seed, extent=6.0):
    rng = np.random.default_rng(seed)
    lo = rng.uniform(0.0, 100.0, size=(n, dims))
    hi = np.minimum(lo + rng.uniform(0.0, extent, size=(n, dims)), 100.0)
    return np.stack([lo, hi], axis=1)


def edge_boxes(n, dims, seed):
    """Zero-extent boxes (points and slivers) sitting on the tile edges of
    every tiling of [0, 100]^d up to 13 tiles per axis, plus one box spanning
    the hull so the edges are where the tiling puts them."""
    rng = np.random.default_rng(seed)
    edges = np.unique(np.concatenate([np.linspace(0.0, 100.0, t + 1) for t in range(1, 14)]))
    lo = rng.choice(edges, size=(n, dims))
    hi = lo.copy()
    sliver = rng.random(n) < 0.3  # some boxes run from one edge to a later one
    hi[sliver, 0] = rng.choice(edges, size=int(sliver.sum()))
    hi[sliver, 0] = np.maximum(lo[sliver, 0], hi[sliver, 0])
    boxes = np.stack([lo, hi], axis=1)
    boxes[0] = [np.zeros(dims), np.full(dims, 100.0)]
    return boxes


def one_tile_boxes(n, dims, seed):
    """Everything but one box inside one tile of the default tiling (the slab
    path): the rest are packed near the origin, the one in the far corner
    stretches the hull."""
    rng = np.random.default_rng(seed)
    lo = rng.uniform(0.0, 1.0, size=(n, dims))
    hi = lo + rng.uniform(0.0, 1.0, size=(n, dims))
    boxes = np.stack([lo, hi], axis=1)
    boxes[0] = [np.full(dims, 99.0), np.full(dims, 100.0)]
    return boxes


FIXTURES = {"random": random_boxes, "edges": edge_boxes, "one_tile": one_tile_boxes}


def hull(boxes_a, boxes_b):
    return (
        np.minimum(boxes_a[:, 0, :].min(axis=0), boxes_b[:, 0, :].min(axis=0)),
        np.maximum(boxes_a[:, 1, :].max(axis=0), boxes_b[:, 1, :].max(axis=0)),
    )


def pair_set(ai, bi):
    return sorted(zip(ai.tolist(), bi.tolist()))


def tiling(boxes_a, boxes_b, tiles):
    dims = boxes_a.shape[2]
    return _default_tiles(len(boxes_a) + len(boxes_b), dims) if tiles is None else tiles


CASES = [
    (dims, tiles, fixture)
    for dims in (2, 3)
    for tiles in (1, 2, None)
    for fixture in FIXTURES
]


# -- the kernels against the frozen reference ----------------------------------------


@pytest.mark.parametrize("dims,tiles,fixture", CASES)
class TestPBSMReferenceKernels:
    def _sides(self, dims, fixture):
        make = FIXTURES[fixture]
        return make(400, dims, seed=1), make(300, dims, seed=2)

    def test_replicas_equal_the_frozen_expansion(self, dims, tiles, fixture):
        boxes_a, boxes_b = self._sides(dims, fixture)
        tiles = tiling(boxes_a, boxes_b, tiles)
        hull_lo, hull_hi = hull(boxes_a, boxes_b)
        sides, strides = kernels.tile_layout(hull_lo, hull_hi, tiles)
        for boxes in (boxes_a, boxes_b):
            rows, keys, first = kernels.tile_replicas(boxes, hull_lo, sides, strides, tiles)
            ref_rows, ref_keys = _tile_replicas(boxes, hull_lo, sides, strides, tiles)
            np.testing.assert_array_equal(rows, ref_rows)  # identical, in order
            np.testing.assert_array_equal(keys, ref_keys)
            # Bit a of the first mask: the tile is the box's low tile on axis a.
            coords = (keys[:, None] // strides) % tiles
            low = _tile_replicas(boxes[:, [0, 0], :], hull_lo, sides, strides, tiles)[1]
            low_coords = (low[rows][:, None] // strides) % tiles
            expected = ((coords == low_coords) << np.arange(dims)).sum(axis=1)
            np.testing.assert_array_equal(first, expected)

    @pytest.mark.parametrize("slab_pairs", [kernels._SLAB_PAIRS, 37, 1])
    def test_pairs_and_counters_equal_the_frozen_merge(self, dims, tiles, fixture, slab_pairs):
        boxes_a, boxes_b = self._sides(dims, fixture)
        tiles = tiling(boxes_a, boxes_b, tiles)
        hull_lo, hull_hi = hull(boxes_a, boxes_b)
        got, ref = Counters(), Counters()
        ai, bi = kernels.pbsm_pairs(boxes_a, boxes_b, hull_lo, hull_hi, tiles, got, slab_pairs)
        ra, rb = reference_pbsm_pairs(boxes_a, boxes_b, hull_lo, hull_hi, tiles, ref, slab_pairs)
        assert pair_set(ai, bi) == pair_set(ra, rb)
        assert len(ai) == len(set(zip(ai.tolist(), bi.tolist())))  # no duplicates
        assert got.comparisons == ref.comparisons
        assert got.cells_probed == ref.cells_probed

    def test_spill_merge_on_packed_segments_equals_the_frozen_merge(self, dims, tiles, fixture):
        # One run's replicas as the spill holds them: (eid, box, packed key)
        # per replica, in gather order, here shuffled — the merge takes any order.
        boxes_a, boxes_b = self._sides(dims, fixture)
        tiles = tiling(boxes_a, boxes_b, tiles)
        hull_lo, hull_hi = hull(boxes_a, boxes_b)
        sides, strides = kernels.tile_layout(hull_lo, hull_hi, tiles)
        rng = np.random.default_rng(3)
        segments = []
        for boxes, offset in ((boxes_a, 0), (boxes_b, 10_000)):
            rows, keys, first = kernels.tile_replicas(boxes, hull_lo, sides, strides, tiles)
            shuffle = rng.permutation(len(rows))
            rows, keys, first = rows[shuffle], keys[shuffle], first[shuffle]
            segments.append((rows + offset, boxes[rows], kernels.pack_first(keys, first, dims)))
        got = Counters()
        ids_a, ids_b = kernels.replica_tile_pairs(*segments[0], *segments[1], got, slab_pairs=53)
        ref = Counters()
        ra, rb = reference_pbsm_pairs(boxes_a, boxes_b, hull_lo, hull_hi, tiles, ref)
        assert pair_set(ids_a, ids_b) == pair_set(ra, rb + 10_000)
        assert got.comparisons == ref.comparisons


# -- the strategies against the frozen reference -----------------------------------


def as_items(boxes, offset=0):
    return [(offset + i, AABB(lo, hi)) for i, (lo, hi) in enumerate(boxes.tolist())]


def spec_for(kind, items_a, items_b):
    if kind == "self":
        return SelfJoinSpec(items_a)
    if kind == "pair":
        return PairJoinSpec(items_a, items_b)
    if kind == "distance_self":
        return DistanceJoinSpec(items_a, None, 1.5)
    return DistanceJoinSpec(items_a, items_b, 1.5)


SPEC_KINDS = ["self", "pair", "distance_self", "distance_pair"]


def run_session(strategy, spec):
    with JoinSession(strategy=strategy) as session:
        pairs = session.run(spec)
        return pairs, session.stats


def frozen_run(monkeypatch, spec, tiles):
    """``pbsm`` through a session with the frozen kernel in place of the new one."""
    with monkeypatch.context() as patch:
        patch.setattr(kernels, "pbsm_pairs", reference_pbsm_pairs)
        return run_session(PBSMJoin(tiles_per_axis=tiles), spec)


@pytest.mark.parametrize("kind", SPEC_KINDS)
class TestPBSMReferenceStrategies:
    @pytest.mark.parametrize("dims,tiles,fixture", CASES)
    def test_pbsm_equals_the_frozen_kernel(self, monkeypatch, kind, dims, tiles, fixture):
        make = FIXTURES[fixture]
        items_a = as_items(make(300, dims, seed=4))
        items_b = as_items(make(250, dims, seed=5), offset=10_000)
        spec = spec_for(kind, items_a, items_b)
        ref_pairs, ref_stats = frozen_run(monkeypatch, spec, tiles)
        pairs, stats = run_session(PBSMJoin(tiles_per_axis=tiles), spec)
        assert pairs == ref_pairs
        assert stats.comparisons == ref_stats.comparisons
        assert stats.candidates == ref_stats.candidates

    @pytest.mark.parametrize("dims", [2, 3])
    @pytest.mark.parametrize("tiles", [2, None])
    def test_pbsm_spill_over_runs_equals_the_frozen_kernel(self, monkeypatch, kind, dims, tiles):
        # The spill join's comparisons are the in-memory join's: a tile lives
        # in exactly one run, so the runs' cross products add up to the same.
        items_a = as_items(random_boxes(1200, dims, seed=6))
        items_b = as_items(random_boxes(1100, dims, seed=7), offset=10_000)
        spec = spec_for(kind, items_a, items_b)
        strategy = SpillPBSMJoin(budget=150_000, tiles_per_axis=tiles)
        plan = strategy.plan_tile_runs(items_a, items_b, Counters())
        try:
            assert plan.runs >= 2  # the regime under test
        finally:
            plan.release()
        ref_pairs, ref_stats = frozen_run(monkeypatch, spec, tiles)
        pairs, stats = run_session(strategy, spec)
        assert stats.tiles_spilled > 0
        assert pairs == ref_pairs
        assert stats.comparisons == ref_stats.comparisons
        assert stats.candidates == ref_stats.candidates


class TestPBSMReferenceSpillFunnel:
    """The spill format carries the first mask inside the key column, so a
    budgeted session writes, reads and reserves exactly what the pre-grid
    build did: these counters are that build's, on the same seeded input."""

    FUNNEL = {
        # (dims, kind): pairs, comparisons, tiles_spilled, bytes written (= read), high water
        (2, "pair"): (4469, 18235, 30, 310080, 76800),
        (2, "self"): (2417, 22811, 30, 322464, 76800),
        (2, "distance_pair"): (9692, 39427, 42, 452448, 76800),
        (3, "pair"): (288, 8245, 48, 260608, 98304),
        (3, "self"): (149, 11201, 60, 275072, 98304),
        (3, "distance_pair"): (850, 14001, 72, 338560, 98304),
    }

    @pytest.mark.parametrize("dims,kind", list(FUNNEL))
    def test_spill_funnel_equals_the_pre_grid_build(self, dims, kind):
        items_a = as_items(random_boxes(1200, dims, seed=6))
        items_b = as_items(random_boxes(1100, dims, seed=7), offset=10_000)
        with JoinSession(budget=150_000) as session:
            pairs = session.run(spec_for(kind, items_a, items_b))
            stats = session.stats
        assert stats.strategy_runs == {"pbsm_spill": 1}
        got = (
            len(pairs), stats.comparisons, stats.tiles_spilled,
            stats.spill_bytes_written, stats.budget_high_water,
        )
        assert got == self.FUNNEL[dims, kind]
        assert stats.spill_bytes_read == stats.spill_bytes_written


# -- the slab bound ---------------------------------------------------------------


class TestPBSMSlabBound:
    """No slab enumerates more than ``max(slab_pairs, largest single-replica
    tile row)`` entries, counted at the walk on an input whose every box
    lies in one tile."""

    @pytest.fixture
    def slabs(self, monkeypatch):
        sizes = []
        walk = kernels._walk_cells

        def counting_walk(table, uniq_keys, inverse, qidx, q_first, every_axis):
            keys, _, counts = table[:3]
            pos = np.minimum(np.searchsorted(keys, uniq_keys), len(keys) - 1)
            per_key = np.where(keys[pos] == uniq_keys, counts[pos], 0)
            sizes.append(int(per_key[inverse].sum()))
            return walk(table, uniq_keys, inverse, qidx, q_first, every_axis)

        monkeypatch.setattr(kernels, "_walk_cells", counting_walk)
        return sizes

    @pytest.mark.parametrize("slab_pairs", [1, 150, 299, 300, 1000, 1 << 22])
    def test_one_tile_slabs_stay_bounded(self, slabs, slab_pairs):
        boxes_a, boxes_b = random_boxes(200, 3, seed=8), random_boxes(300, 3, seed=9)
        hull_lo, hull_hi = hull(boxes_a, boxes_b)
        counters = Counters()
        ai, bi = kernels.pbsm_pairs(boxes_a, boxes_b, hull_lo, hull_hi, 1, counters, slab_pairs)
        row = len(boxes_b)  # one tile: each A replica meets all of B
        assert max(slabs) <= max(slab_pairs, row)
        assert sum(slabs) == counters.comparisons == len(boxes_a) * len(boxes_b)
        assert len(slabs) == -(-counters.comparisons // max(slab_pairs // row * row, row))
        ref = reference_pbsm_pairs(boxes_a, boxes_b, hull_lo, hull_hi, 1, Counters())
        assert pair_set(ai, bi) == pair_set(*ref)

    def test_a_tile_row_over_the_bound_is_its_own_slab(self, slabs):
        # One crowded tile among sparse ones: the crowded replicas go one per
        # slab, everything else packs up to the bound.
        crowded = one_tile_boxes(150, 2, seed=10)
        sparse = random_boxes(150, 2, seed=11, extent=1.0)
        boxes = np.concatenate([crowded, sparse])
        hull_lo, hull_hi = hull(boxes, boxes)
        counters = Counters()
        kernels.pbsm_pairs(boxes, boxes, hull_lo, hull_hi, 8, counters, slab_pairs=40)
        sides, strides = kernels.tile_layout(hull_lo, hull_hi, 8)
        _, keys, _ = kernels.tile_replicas(boxes, hull_lo, sides, strides, 8)
        largest = int(np.bincount(keys).max())
        assert largest > 40
        assert max(slabs) <= largest
        assert all(size <= 40 or size in np.bincount(keys) for size in slabs)
        assert sum(slabs) == counters.comparisons


# -- the tiling guard -------------------------------------------------------------


class TestPBSMTilingGuard:
    def _items(self, dims):
        return as_items(random_boxes(50, dims, seed=12))

    @pytest.mark.parametrize(
        "strategy",
        [
            PBSMJoin(tiles_per_axis=3_000_000),
            SpillPBSMJoin(budget=150_000, tiles_per_axis=3_000_000),
        ],
        ids=["pbsm", "pbsm_spill"],
    )
    def test_overflowing_tiling_is_refused_before_allocating(self, strategy):
        items = self._items(3)
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match="int64"):
                strategy.join(items, items, Counters())
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    def test_refused_through_a_session(self):
        items = self._items(3)
        with JoinSession(strategy=PBSMJoin(tiles_per_axis=3_000_000)) as session:
            with pytest.raises(ValueError, match="int64"):
                session.run(PairJoinSpec(items, items))

    def test_the_packed_first_bits_count(self):
        lo, hi = np.zeros(3), np.ones(3)
        kernels.tile_layout(lo, hi, 1 << 19)  # 2^57 tiles, 3 mask bits: 2^60 fits
        with pytest.raises(ValueError, match="int64"):
            kernels.tile_layout(lo, hi, 1 << 20)  # 2^60 tiles fit, 2^63 packed do not
        with pytest.raises(ValueError):
            kernels.tile_layout(lo, hi, 0)
        with pytest.raises(ValueError):
            kernels.tile_layout(np.zeros(9), np.ones(9), 2)  # a uint8 mask holds 8 axes

    def test_a_small_tiling_still_joins(self):
        items = self._items(2)
        for tiles in (1, 3, 1 << 10):
            got = make_join_strategy("pbsm", tiles_per_axis=tiles).join(items, items, Counters())
            assert len(got) >= len(items)  # every box meets itself


# -- the histogram pass ---------------------------------------------------------------


@st.composite
def tiled_boxes(draw):
    """0-40 boxes in 2 or 3 dims on a half-unit lattice (zero-extent boxes
    and repeats are common) with 1-6 tiles per axis over their hull, or over
    a hull cut inside it so windows clamp at both edges, cut into chunks of
    1-41 rows."""
    dims = draw(st.sampled_from([2, 3]))
    n = draw(st.integers(0, 40))
    corner = st.lists(st.integers(-6, 6), min_size=dims, max_size=dims)
    extent = st.lists(st.integers(0, 4), min_size=dims, max_size=dims)
    lo = np.array(draw(st.lists(corner, min_size=n, max_size=n)), dtype=np.float64).reshape(n, dims)
    ext = np.array(draw(st.lists(extent, min_size=n, max_size=n)), dtype=np.float64).reshape(n, dims)
    boxes = np.stack([lo, lo + ext], axis=1) * 0.5
    if n:
        hull_lo, hull_hi = boxes[:, 0].min(axis=0), boxes[:, 1].max(axis=0)
    else:
        hull_lo, hull_hi = np.zeros(dims), np.ones(dims)
    if draw(st.booleans()):
        hull_lo, hull_hi = hull_lo + 0.75, np.maximum(hull_hi - 0.75, hull_lo + 0.75)
    return boxes, hull_lo, hull_hi, draw(st.integers(1, 6)), draw(st.integers(1, 41))


class TestTileHistogram:
    @settings(max_examples=200, deadline=None)
    @given(tiled_boxes())
    def test_equals_the_bincount_of_the_replica_keys(self, case):
        boxes, hull_lo, hull_hi, tiles, chunk = case
        sides, strides = kernels.tile_layout(hull_lo, hull_hi, tiles)
        _, keys, _ = kernels.tile_replicas(boxes, hull_lo, sides, strides, tiles)
        want = np.bincount(keys, minlength=tiles ** boxes.shape[2])
        chunks = (boxes[start : start + chunk] for start in range(0, len(boxes), chunk))
        got = kernels.tile_histogram(chunks, hull_lo, sides, tiles)
        assert got.dtype == np.int64
        np.testing.assert_array_equal(got, want)

    @pytest.mark.parametrize("dims,tiles,fixture", CASES)
    def test_equals_the_bincount_on_the_reference_fixtures(self, dims, tiles, fixture):
        boxes = FIXTURES[fixture](300, dims, seed=dims)
        tiles = tiling(boxes, boxes, tiles)
        hull_lo, hull_hi = hull(boxes, boxes)
        sides, strides = kernels.tile_layout(hull_lo, hull_hi, tiles)
        _, keys, _ = kernels.tile_replicas(boxes, hull_lo, sides, strides, tiles)
        np.testing.assert_array_equal(
            kernels.tile_histogram([boxes], hull_lo, sides, tiles),
            np.bincount(keys, minlength=tiles**dims),
        )
