"""`UniformGrid` stores each fact once — the pins for that representation.

Boxes live in the row store, an element's cell set is its integer window,
and the batch kernels avoid replication duplicates with the first-common-cell
rule instead of removing them afterwards.  Pinned here:

* the rule itself — ``_gather_candidates`` yields every window-sharing
  ``(query, row)`` pair exactly once, on base, dead and overlay rows;
* list identity (ids *and* order) of the batch answers against a frozen copy
  of the duplicate-then-``np.unique`` kernels this replaced, and scalar reads
  as one-row calls of those kernels (same lists, same counters);
* the write-path accounting on the paper's plasticity stream, and that an
  in-place move enumerates no cells;
* the exported ``entry_first`` array serving identically from a worker;
* the gather's passes (``_expand_windows``, ``_walk_cells`` inside
  ``_gather_candidates``) against an ``itertools.product`` enumeration and
  the written rule, pairs *in order* and counters, in 1 to 4 dimensions, with
  windows wider than the occupied cells among them, and against digests of
  what the kernels produced at commit 5df08ea, before the gather was rewritten;
* that no gather lists more keys per window than there are occupied cells
  (one element on 256³ cells, scalar and batch reads);
* the gather's temporary memory per enumerated entry;
* refusal of boxes whose dimensionality differs from the grid's.
"""

from __future__ import annotations

import hashlib
import tracemalloc
from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import grid_windows, make_items, overlay_cells, placed_items
from repro import QuerySession, ShardedExecutor, WorkerPool
from repro.core import uniform_grid
from repro.core.multires_grid import MultiResolutionGrid
from repro.core.uniform_grid import UniformGrid, _cell_coords
from repro.datasets.neuroscience import generate_neurons
from repro.datasets.trajectories import PlasticityMotion
from repro.geometry.aabb import AABB, as_box_array, as_point_array
from repro.serving.snapshots import SnapshotGridIndex, export_index_payload

UNIVERSE = AABB((0.0, 0.0, 0.0), (10.0, 10.0, 7.0))  # 7/2: a ragged top cell


# -- the frozen reference: the kernels as they were before the rule ------------------


def reference_gather(snap, lo_cells, hi_cells):
    """The former ``_gather_candidates``: one pair per *shared cell*, so a
    replicated element repeats, and one Python iteration per overlay cell."""
    qidx, flat_keys, _ = uniform_grid._expand_windows(lo_cells, hi_cells, snap.strides)
    uniq_keys, inverse = np.unique(flat_keys, return_inverse=True)
    pos = np.searchsorted(snap.keys, uniq_keys)
    pos_safe = np.minimum(pos, len(snap.keys) - 1)
    occupied = snap.keys[pos_safe] == uniq_keys
    keep = occupied[inverse]
    q_keep = qidx[keep]
    cell_pos = pos_safe[inverse][keep]
    bucket_counts = snap.counts[cell_pos]
    n_pairs = int(bucket_counts.sum())
    pair_q = np.repeat(q_keep, bucket_counts)
    offset = np.arange(n_pairs, dtype=np.int64) - np.repeat(
        np.cumsum(bucket_counts) - bucket_counts, bucket_counts
    )
    rows = snap.entry_rows[np.repeat(snap.starts[cell_pos], bucket_counts) + offset]
    live = snap.alive[rows]
    pair_q, rows = pair_q[live], rows[live]
    n_base = snap.eids.shape[0]
    res = snap.tops + 1
    extra_q, extra_rows = [pair_q], [rows]
    for key, entries in overlay_cells(snap).items():
        alive_idxs = [idx for idx, _ in entries if snap.extra_alive[idx]]
        coords = (key // snap.strides) % res
        covered = np.nonzero(np.all((lo_cells <= coords) & (coords <= hi_cells), axis=1))[0]
        if not alive_idxs or covered.size == 0:
            continue
        extra_q.append(np.repeat(covered, len(alive_idxs)))
        extra_rows.append(np.tile(np.array(alive_idxs, dtype=np.int64) + n_base, covered.size))
    return np.concatenate(extra_q), np.concatenate(extra_rows)


def reference_batch_range(grid: UniformGrid, boxes) -> list[list[int]]:
    queries = as_box_array(boxes)
    m = queries.shape[0]
    snap = grid._ensure_snapshot()
    lo_cells = _cell_coords(queries[:, 0, :], snap.origin, snap.cell, snap.tops)
    hi_cells = _cell_coords(queries[:, 1, :], snap.origin, snap.cell, snap.tops)
    pair_q, rows = reference_gather(snap, lo_cells, hi_cells)
    eids_all, boxes_all, _ = snap.tables()
    candidates = boxes_all[rows]
    qb = queries[pair_q]
    hit = np.all(
        (qb[:, 0, :] <= candidates[:, 1, :]) & (candidates[:, 0, :] <= qb[:, 1, :]), axis=-1
    )
    n_rows = eids_all.shape[0]
    combined = np.unique(pair_q[hit].astype(np.int64) * n_rows + rows[hit])
    all_ids = eids_all[combined % n_rows].tolist()
    bounds = np.searchsorted(combined, np.arange(1, m) * n_rows).tolist()
    bounds = [0, *bounds, len(all_ids)]
    return [all_ids[bounds[i] : bounds[i + 1]] for i in range(m)]


def axis_ordered_squares(gaps: np.ndarray) -> np.ndarray:
    """The library's distance formula without its range guard (these
    fixtures never leave the normal range): squares summed in axis order."""
    total = gaps[:, 0] * gaps[:, 0]
    for axis in range(1, gaps.shape[1]):
        total += gaps[:, axis] * gaps[:, axis]
    return total


def reference_batch_knn(grid: UniformGrid, points, k: int):
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
    while active.size:
        apts = pts[active]
        lo_cells = _cell_coords(apts - radius, snap.origin, cell, snap.tops)
        hi_cells = _cell_coords(apts + radius, snap.origin, cell, snap.tops)
        pair_q, rows = reference_gather(snap, lo_cells, hi_cells)
        combined = np.unique(pair_q.astype(np.int64) * n_rows + rows)
        cand_q = combined // n_rows
        cand_rows = combined % n_rows
        cand_boxes = boxes_all[cand_rows]
        p = apts[cand_q]
        gaps = np.maximum(np.maximum(cand_boxes[:, 0, :] - p, p - cand_boxes[:, 1, :]), 0.0)
        dists = np.sqrt(axis_ordered_squares(gaps))
        confirmed = np.bincount(cand_q[dists <= radius], minlength=active.size)
        done = (confirmed >= kk) | (radius > limits[active])
        for local in np.nonzero(done)[0].tolist():
            start, end = np.searchsorted(cand_q, [local, local + 1])
            slice_d = dists[start:end]
            slice_e = eids_all[cand_rows[start:end]]
            order = np.lexsort((slice_e, slice_d))[:kk]
            results[int(active[local])] = list(
                zip(slice_d[order].tolist(), slice_e[order].tolist())
            )
        active = active[~done]
        radius *= 2.0
    return results


# -- generators ----------------------------------------------------------------------

# Coordinates reach well outside the universe, sit exactly on its top edge
# and on interior cell boundaries, and span from one cell to all of them.
coordinate = st.one_of(
    st.floats(-6.0, 16.0, allow_nan=False, width=32),
    st.sampled_from([0.0, 2.0, 4.0, 7.0, 10.0, -1e30, 1e30]),
)


@st.composite
def boxes_3d(draw, min_count: int, max_count: int) -> list[AABB]:
    boxes = []
    for _ in range(draw(st.integers(min_count, max_count))):
        a = [draw(coordinate) for _ in range(3)]
        b = [draw(coordinate) for _ in range(3)]
        boxes.append(AABB(list(map(min, a, b)), list(map(max, a, b))))
    return boxes


def churn(grid, state: dict[int, AABB], draw) -> None:
    """Removals, patched-in inserts, relocations and in-place rewrites."""
    for eid in draw(st.lists(st.sampled_from(sorted(state)), max_size=4, unique=True)):
        grid.delete(eid, state.pop(eid))
    for offset, box in enumerate(draw(boxes_3d(0, 5))):
        eid = 1000 + offset
        grid.insert(eid, box)
        state[eid] = box
    movers = st.lists(st.sampled_from(sorted(state)), max_size=5, unique=True) if state else st.just([])
    for eid in draw(movers):
        new_box = draw(boxes_3d(1, 1))[0]
        grid.update(eid, state[eid], new_box)
        state[eid] = new_box


def cell_windows(grid: UniformGrid, boxes) -> tuple[np.ndarray, np.ndarray]:
    snap = grid._ensure_snapshot()
    queries = as_box_array(boxes)
    return (_cell_coords(queries[:, 0, :], snap.origin, snap.cell, snap.tops),
            _cell_coords(queries[:, 1, :], snap.origin, snap.cell, snap.tops))


def assert_gathers_each_sharing_pair_once(grid: UniformGrid, windows: list[AABB]) -> None:
    lo_cells, hi_cells = cell_windows(grid, windows)
    snap = grid._snapshot
    pair_q, rows = grid._gather_candidates(snap, lo_cells, hi_cells)
    got = list(zip(pair_q.tolist(), rows.tolist()))
    assert len(got) == len(set(got)), "a (query, row) pair was gathered twice"

    eids_all, boxes_all, alive = snap.tables()
    elem_lo = _cell_coords(boxes_all[:, 0, :], snap.origin, snap.cell, snap.tops)
    elem_hi = _cell_coords(boxes_all[:, 1, :], snap.origin, snap.cell, snap.tops)
    share = np.all(
        (lo_cells[:, None, :] <= elem_hi[None]) & (elem_lo[None] <= hi_cells[:, None, :]), axis=2
    ) & alive[None]
    assert set(got) == set(zip(*(axis.tolist() for axis in np.nonzero(share))))
    assert sorted(eids_all[alive].tolist()) == sorted(grid._boxes)


class TestFirstCommonCellRule:
    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_every_window_sharing_pair_is_gathered_exactly_once(self, data):
        grid = UniformGrid(universe=UNIVERSE, cell_size=2.0)
        state = dict(enumerate(data.draw(boxes_3d(1, 25))))
        grid.bulk_load(list(state.items()))
        windows = data.draw(boxes_3d(1, 8))
        assert_gathers_each_sharing_pair_once(grid, windows)  # packs the snapshot
        with pytest.MonkeyPatch.context() as patch:
            # Keep the overlay however many cells the patched boxes span.
            patch.setattr(uniform_grid, "_SNAPSHOT_DIRTY_MIN", 1 << 30)
            churn(grid, state, data.draw)
        if state:
            assert grid._snapshot is not None and grid.snapshot_rebuilds == 1
            assert_gathers_each_sharing_pair_once(grid, windows)
            assert grid.batch_range_query(windows) == reference_batch_range(grid, windows)

    @settings(max_examples=25, deadline=None)
    @given(data=st.data())
    def test_level_migration_keeps_both_levels_duplicate_free(self, data):
        grid = MultiResolutionGrid(universe=UNIVERSE, levels=3, coarsest_cell=4.0, ratio=2.0)
        boxes = data.draw(boxes_3d(2, 20))
        grid.bulk_load(list(enumerate(boxes)))
        windows = data.draw(boxes_3d(1, 6))
        grid.batch_range_query(windows)  # every populated level packs its snapshot
        small = AABB((3.9, 3.9, 3.9), (4.1, 4.1, 4.1))
        huge = AABB((-1.0, 1.0, 0.5), (11.0, 9.0, 6.5))
        source = grid._level_of[0]
        target = small if grid._level_for(small) != source else huge
        grid.update(0, boxes[0], target)
        assert grid.level_migrations == 1
        for level in grid._grids:
            if len(level):
                assert_gathers_each_sharing_pair_once(level, windows)


class TestListIdentityWithTheFormerKernels:
    @pytest.fixture
    def patched(self):
        """A replicating grid with dead base rows, overlay rows (some dead
        again) and in-place rewrites on its snapshot."""
        items = make_items(3000, universe=UNIVERSE, max_extent=3.0, seed=5)
        grid = UniformGrid(universe=UNIVERSE, cell_size=1.0)
        grid.bulk_load(items)
        grid.batch_range_query([UNIVERSE])
        rng = np.random.default_rng(6)
        for eid, box in items[:12]:
            shift = rng.uniform(-1.5, 1.5, size=3)
            grid.update(eid, box, AABB(np.add(box.lo, shift), np.add(box.hi, shift)))
        for eid, box in items[40:60]:
            grid.delete(eid, box)
        for eid, box in make_items(8, universe=UNIVERSE, max_extent=4.0, seed=7):
            grid.insert(9000 + eid, box)
        grid.delete(9003, grid._boxes[9003])
        assert grid.replication_factor > 4.0 and grid.snapshot_rebuilds == 1
        assert grid._snapshot is not None and grid._snapshot.extra_keys
        return grid

    def test_batch_range_ids_and_order(self, patched):
        rng = np.random.default_rng(8)
        lo = rng.uniform(-2.0, 9.0, size=(300, 3))
        windows = np.stack([lo, lo + rng.uniform(0.0, 4.0, size=(300, 3))], axis=1)
        got = patched.batch_range_query(windows)
        assert got == reference_batch_range(patched, windows)
        assert sum(map(len, got)) > 1000
        assert patched.snapshot_rebuilds == 1  # answered from the patched snapshot

    def test_batch_knn_ids_distances_and_order(self, patched):
        points = np.random.default_rng(9).uniform(-3.0, 13.0, size=(120, 3))
        for k in (1, 6, 10_000):
            assert patched.batch_knn(points, k) == reference_batch_knn(patched, points, k)

    def test_scalar_reads_are_one_row_kernel_calls(self, patched):
        """A scalar range query answers the one-row batch list, ids and order,
        and a scalar kNN the kernel's ids re-scored by the scalar distance;
        each spends exactly the counters the one-row batch call spends."""
        def spent(call):
            before = patched.counters.snapshot()
            return call(), patched.counters.diff(before)

        rng = np.random.default_rng(10)
        for _ in range(30):
            lo = rng.uniform(-2.0, 9.0, size=3)
            box = AABB(lo, lo + rng.uniform(0.0, 4.0, size=3))
            hits, counted = spent(lambda: patched.range_query(box))
            assert (hits, counted) == spent(lambda: patched.batch_range_query([box])[0])
            point = tuple(rng.uniform(-3.0, 13.0, size=3).tolist())
            nearest, counted = spent(lambda: patched.knn(point, 6))
            kernel, kernel_counted = spent(lambda: patched.batch_knn([point], 6)[0])
            assert counted == kernel_counted and counted.cells_probed > 0
            assert nearest == sorted(
                (patched._boxes[eid].min_distance_to_point(point), eid) for _, eid in kernel
            )
        assert patched.snapshot_rebuilds == 1

    def test_kernels_test_each_pair_once(self, patched):
        """``elem_tests`` counts the pairs actually tested: the number of
        window-sharing (query, element) pairs, not one per shared cell."""
        windows = [AABB((1.0, 1.0, 1.0), (6.0, 6.0, 5.0)), AABB((0.0, 0.0, 0.0), (0.5, 0.5, 0.5))]
        snap = patched._snapshot
        lo_cells, hi_cells = cell_windows(patched, windows)
        with_repeats = reference_gather(snap, lo_cells, hi_cells)[0].shape[0]
        distinct = patched._gather_candidates(snap, lo_cells, hi_cells)[0].shape[0]
        before = patched.counters.elem_tests
        patched.batch_range_query(windows)
        assert patched.counters.elem_tests - before == distinct < with_repeats / 3


# -- the gather's passes against plain enumeration (ISSUE 24) -------------------------


def product_expand(lo_cells, hi_cells, strides):
    """``_expand_windows`` one cell at a time: every window's cells in
    ``itertools.product`` order, keyed and first-masked by the definitions."""
    owner, keys, first = [], [], []
    for row, (lo, hi) in enumerate(zip(lo_cells.tolist(), hi_cells.tolist())):
        for coords in product(*[range(l, h + 1) for l, h in zip(lo, hi)]):
            owner.append(row)
            keys.append(sum(c * s for c, s in zip(coords, strides.tolist())))
            first.append(sum((c == l) << axis for axis, (c, l) in enumerate(zip(coords, lo))))
    return owner, keys, first


def product_gather(snap, lo_cells, hi_cells):
    """``_gather_candidates`` from the written rule alone, reading nothing of
    the cell tables: the base rows' buckets then the overlay rows' (a bucket
    holds the rows whose window covers the cell, ascending), walked query by
    query and cell by cell in ``product`` order; a ``(query, cell, row)``
    survives iff on every axis the cell is the low cell of the query's window
    or of the element's; dead rows drop out last.  A window holding more
    cells than the two bucket sets together lists only the cells some bucket
    holds.  Returns the pairs in that order and what the call adds to
    ``cells_probed``."""
    eids_all, boxes_all, alive = snap.tables()
    elem_lo = _cell_coords(boxes_all[:, 0, :], snap.origin, snap.cell, snap.tops).tolist()
    elem_hi = _cell_coords(boxes_all[:, 1, :], snap.origin, snap.cell, snap.tops).tolist()
    n_base = len(snap.eids)
    live_overlay = [n_base + idx for idx, ok in enumerate(snap.extra_alive) if ok]
    tables: list[dict[tuple, list[int]]] = []
    for table_rows in (range(n_base), live_overlay):
        tables.append({})
        for row in table_rows:
            for cell in product(*[range(l, h + 1) for l, h in zip(elem_lo[row], elem_hi[row])]):
                tables[-1].setdefault(cell, []).append(row)
    bound = sum(map(len, tables))
    pairs, probed = [], set()
    for is_overlay, buckets in enumerate(tables):
        for q, (lo, hi) in enumerate(zip(lo_cells.tolist(), hi_cells.tolist())):
            wide = np.prod([h - l + 1 for l, h in zip(lo, hi)]) > bound
            for cell in product(*[range(l, h + 1) for l, h in zip(lo, hi)]):
                listed = not wide or any(cell in table for table in tables)
                if cell in buckets or (listed and not is_overlay):  # the listed cells, then the overlay's
                    probed.add((is_overlay, cell))
                for row in buckets.get(cell, ()):
                    if all(c == ql or c == el for c, ql, el in zip(cell, lo, elem_lo[row])):
                        pairs.append((q, row))
    return [pair for pair in pairs if alive[pair[1]]], len(probed)


def assert_gather_equals_enumeration(grid: UniformGrid, lo_cells, hi_cells) -> int:
    snap = grid._snapshot
    owner, keys, first = uniform_grid._expand_windows(lo_cells, hi_cells, snap.strides)
    assert (owner.dtype, keys.dtype, first.dtype) == (np.int64, np.int64, np.uint8)
    assert (owner.tolist(), keys.tolist(), first.tolist()) == product_expand(
        lo_cells, hi_cells, snap.strides)
    before = grid.counters.snapshot()
    pair_q, rows = grid._gather_candidates(snap, lo_cells, hi_cells)
    spent = grid.counters.diff(before)
    want, probed = product_gather(snap, lo_cells, hi_cells)
    assert pair_q.dtype == rows.dtype == np.int64
    assert list(zip(pair_q.tolist(), rows.tolist())) == want  # in order
    assert spent.cells_probed == probed
    assert (spent.elem_tests, spent.bytes_touched, spent.heap_ops) == (0, 0, 0)
    return len(want)


def random_boxes(rng, n: int, hi: np.ndarray, max_extent: float) -> list[AABB]:
    """Boxes that start up to one unit outside ``[0, hi]`` on either side."""
    lo = rng.uniform(-1.0, hi + 1.0, size=(n, len(hi)))
    return [AABB(l, l + e) for l, e in zip(lo, rng.uniform(0.0, max_extent, size=lo.shape))]


def patched_grid(
    dims: int, seed: int, n: int = 120, top: tuple[float, ...] = (9.0, 7.0, 5.0, 3.0)
) -> tuple[UniformGrid, AABB, np.random.Generator]:
    """A replicating ``dims``-d grid (ragged top cells) whose snapshot carries
    dead base rows, in-place rewrites, overlay rows and dead overlay rows."""
    rng = np.random.default_rng(seed)
    hi = np.array(top[:dims])
    universe = AABB((0.0,) * dims, hi)
    grid = UniformGrid(universe=universe, cell_size=2.0)
    state = dict(enumerate(random_boxes(rng, n, hi, 3.0)))
    grid.bulk_load(list(state.items()))
    grid.batch_range_query([universe])
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(uniform_grid, "_SNAPSHOT_DIRTY_MIN", 1 << 30)  # keep the overlay
        for eid in range(0, n, 7):
            grid.delete(eid, state.pop(eid))
        for eid, box in enumerate(random_boxes(rng, n // 4, hi, 5.0), start=1000):
            grid.insert(eid, box)
            state[eid] = box
        movers = [eid for eid in list(state) if eid % 3 == 1]
        for eid, box in zip(movers, random_boxes(rng, len(movers), hi, 3.0)):
            grid.update(eid, state[eid], box)
            state[eid] = box
        for eid in range(1000, 1000 + n // 4, 5):
            grid.delete(eid, state.pop(eid))
    snap = grid._snapshot
    assert snap is not None and grid.snapshot_rebuilds == 1
    assert snap.extra_keys and not snap.alive.all() and not all(snap.extra_alive)
    return grid, universe, rng


def digest(*arrays: np.ndarray) -> str:
    sha = hashlib.sha256()
    for array in arrays:
        sha.update(np.ascontiguousarray(array).tobytes())
    return sha.hexdigest()[:16]


def neuron_fixture():
    dataset = generate_neurons(15, 40, seed=5)
    grid = UniformGrid(universe=dataset.universe)
    grid.bulk_load(dataset.items)
    rng = np.random.default_rng(50)
    lo = rng.uniform(dataset.universe.lo, np.asarray(dataset.universe.hi) - 1.5, size=(200, 3))
    return grid, np.stack([lo, lo + 1.5], axis=1), rng.uniform(
        dataset.universe.lo, dataset.universe.hi, size=(50, 3))


def patched_fixture(dims: int, seed: int):
    grid, universe, rng = patched_grid(dims, seed, n=300)
    windows = as_box_array([*random_boxes(rng, 60, np.asarray(universe.hi), 4.0), universe])
    return grid, windows, rng.uniform(-2.0, np.asarray(universe.hi) + 2.0, size=(40, dims))


# What the parent of ISSUE 24 (commit 5df08ea) produced on three seeded
# fixtures, captured before the gather was rewritten: digests of the ordered
# ``(pair_q, rows)`` arrays, of the CSR hits and of the kNN lists, then the
# ``(cells_probed, elem_tests, bytes_touched, heap_ops)`` the three calls cost.
# The kNN digests of the 3-d and 4-d fixtures were re-frozen when the distance
# became the axis-ordered sum: the same ids in the same order, 3 and 8
# distances one ulp apart.
PARENT_KERNELS = {
    "neurons-3d-clean": (neuron_fixture, (
        "d5b52c2bdac25bbc", "c2edddf4e4c646ee", "ab5e36c59bcd6953", (1090, 19041, 910336, 200))),
    "patched-2d": (lambda: patched_fixture(2, 61), (
        "5ea238278f1995f1", "fcffd56310bb6c82", "20c4aa223b03752c", (120, 8580, 186800, 160))),
    "patched-4d": (lambda: patched_fixture(4, 62), (
        "d84fa0c1c20ba94d", "2dc687409e38fb7d", "ed861888d3d2dbaf", (952, 6298, 164376, 160))),
}


# Universes of many cells for 16 small boxes: a window spanning one holds
# more cells than the cell tables hold keys.
SPARSE_TOPS = {1: (300.0,), 2: (60.0, 40.0), 3: (24.0, 20.0, 14.0), 4: (14.0, 12.0, 10.0, 8.0)}


class TestGatherAgainstEnumeration:
    @pytest.mark.parametrize("dims, sparse", [
        *[pytest.param(dims, False, id=str(dims)) for dims in (1, 2, 3, 4)],
        *[pytest.param(dims, True, id=f"{dims}-sparse") for dims in (1, 2, 3, 4)],
    ])
    def test_clean_and_patched_snapshots_in_every_dimensionality(self, dims, sparse):
        """On the sparse grids the two windows spanning the universe are
        wider than the occupied cells and gather from the occupied keys."""
        if sparse:
            grid, universe, rng = patched_grid(dims, seed=50 + dims, n=16, top=SPARSE_TOPS[dims])
        else:
            grid, universe, rng = patched_grid(dims, seed=40 + dims)
        snap = grid._snapshot
        hi = np.asarray(universe.hi)
        tops = snap.tops
        point = AABB(hi / 3.0, hi / 3.0)
        below, above = AABB(hi * 0.0 - 50.0, hi * 0.0 + 0.5), AABB(hi - 0.5, hi + 50.0)
        spanning = AABB(hi * 0.0 - 1e30, hi + 1e30)
        windows = [point, below, above, spanning, universe, *random_boxes(rng, 12, hi, 4.0)]
        lo_cells, hi_cells = cell_windows(grid, windows)
        assert (lo_cells[0] == hi_cells[0]).all()  # a one-cell window
        assert (hi_cells[1] == 0).all() and (lo_cells[2] == tops).all()  # clamped at each edge
        assert (lo_cells[3] == 0).all() and (hi_cells[3] == tops).all()  # the whole grid
        volume = np.prod(hi_cells - lo_cells + 1, axis=1)
        wide = volume > len(snap.keys) + len(snap.overlay_table()[0])
        assert np.flatnonzero(wide).tolist() == ([3, 4] if sparse else [])
        assert assert_gather_equals_enumeration(grid, lo_cells, hi_cells) > len(grid)
        # The same windows on the compacted (clean) snapshot of the same state.
        clean = UniformGrid(universe=universe, cell_size=2.0)
        clean.bulk_load(placed_items(grid))
        assert assert_gather_equals_enumeration(clean, *cell_windows(clean, windows)) > len(grid)
        assert clean.batch_range_query(windows) == grid.batch_range_query(windows)

    @pytest.mark.parametrize("dims", [1, 2, 3, 4])
    def test_empty_batch_and_unoccupied_cells(self, dims):
        grid, universe, _ = patched_grid(dims, seed=44 + dims)
        none = np.empty((0, dims), dtype=np.int64)
        assert assert_gather_equals_enumeration(grid, none, none) == 0
        # Everything lives in the low corner cell; the windows look elsewhere.
        sparse = UniformGrid(universe=universe, cell_size=2.0)
        sparse.bulk_load([(eid, AABB((0.1,) * dims, (0.2 + eid / 10,) * dims)) for eid in range(5)])
        far = [AABB((2.5,) * dims, (2.6,) * dims), AABB((2.5,) * dims, universe.hi)]
        lo_cells, hi_cells = cell_windows(sparse, far)
        assert assert_gather_equals_enumeration(sparse, lo_cells, hi_cells) == 0
        assert sparse.batch_range_query(far) == [[], []]
        sparse.insert(9, AABB((0.3,) * dims, (0.4,) * dims))  # an overlay the windows miss too
        assert assert_gather_equals_enumeration(sparse, lo_cells, hi_cells) == 0

    @pytest.mark.parametrize("name", PARENT_KERNELS)
    def test_pairs_hits_and_counters_equal_the_parents(self, name):
        build, want = PARENT_KERNELS[name]
        grid, windows, points = build()
        lo_cells, hi_cells = cell_windows(grid, windows)
        before = grid.counters.snapshot()
        pairs = grid._gather_candidates(grid._snapshot, lo_cells, hi_cells)
        hits = grid.batch_range_hits(windows)
        nearest = grid.batch_knn(points, 4)
        spent = grid.counters.diff(before)
        got = (
            digest(*pairs), digest(*hits),
            hashlib.sha256(repr(nearest).encode()).hexdigest()[:16],
            (spent.cells_probed, spent.elem_tests, spent.bytes_touched, spent.heap_ops),
        )
        assert got == want


class TestGatherIsBoundedByTheOccupiedCells:
    """One element on 256³ cells: the kNN rings from the far corner and a
    full-universe range query list at most the occupied cells per ring, on
    the scalar path and the batch path alike (a walk of every cell in the
    window took seconds per query)."""

    @pytest.fixture
    def lonely(self, monkeypatch):
        grid = UniformGrid(universe=AABB((0.0,) * 3, (256.0,) * 3), cell_size=1.0)
        grid.bulk_load([(7, AABB((0.2,) * 3, (0.4,) * 3))])
        walked: list[int] = []
        real = uniform_grid._walk_cells
        monkeypatch.setattr(
            uniform_grid, "_walk_cells",
            lambda table, keys, *rest: walked.append(len(keys)) or real(table, keys, *rest),
        )
        return grid, walked

    def test_knn_from_the_far_corner(self, lonely):
        grid, walked = lonely
        far = (255.9,) * 3
        want = [(grid._boxes[7].min_distance_to_point(far), 7)]
        for ask in (lambda: grid.knn(far, 3), lambda: grid.batch_knn([far], 3)[0]):
            walked.clear()
            assert [(round(d, 9), eid) for d, eid in ask()] == [(round(want[0][0], 9), 7)]
            assert len(walked) == 10 and max(walked) <= grid.occupied_cells == 1  # ten rings
        assert grid.knn(far, 3) == want  # the scalar distance, bit for bit

    def test_full_universe_range_query(self, lonely):
        grid, walked = lonely
        before = grid.counters.snapshot()
        assert grid.range_query(grid.universe) == [7]
        assert grid.batch_range_query([grid.universe, grid.universe]) == [[7], [7]]
        assert walked == [1, 1] and grid.counters.diff(before).cells_probed == 2


def test_gather_temporaries_per_enumerated_entry():
    """The gather's ``tracemalloc`` peak over 2 000 monitor windows on the
    10 000-box neuron set, per ``(query, bucket entry)`` it enumerates, stays
    within what it was before ISSUE 24 (15.08 MB over 599 907 entries): one
    more entry-sized column alive at once adds 8 bytes per entry and fails
    here instead of on the ledger's ``peak_rss_mb``."""
    dataset = generate_neurons(125, 80, seed=7)
    grid = UniformGrid(universe=dataset.universe)
    grid.bulk_load(dataset.items)
    rng = np.random.default_rng(24)
    lo = rng.uniform(dataset.universe.lo, np.asarray(dataset.universe.hi) - 1.5, size=(2000, 3))
    lo_cells, hi_cells = cell_windows(grid, np.stack([lo, lo + 1.5], axis=1))
    snap = grid._snapshot
    _, keys, _ = uniform_grid._expand_windows(lo_cells, hi_cells, snap.strides)
    pos = np.minimum(np.searchsorted(snap.keys, keys), len(snap.keys) - 1)
    entries = int(snap.counts[pos][snap.keys[pos] == keys].sum())
    tracemalloc.start()
    try:
        pair_q, _ = grid._gather_candidates(snap, lo_cells, hi_cells)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (entries, len(pair_q)) == (599_907, 200_571)
    assert peak / entries <= 25.14


class TestWritePathAccounting:
    def test_plasticity_stream_counts_are_unchanged(self):
        """Three whole-dataset plasticity steps on the neuron set: the same
        moves count as in-place / cell switch, and the snapshot repacks as
        often, as when cell sets were stored cell by cell."""
        dataset = generate_neurons(125, 80, seed=7)
        grid = UniformGrid(universe=dataset.universe)
        grid.bulk_load(dataset.items)
        state = dict(dataset.items)
        motion = PlasticityMotion(dataset.universe, seed=3)
        probe = np.array([[dataset.universe.lo, dataset.universe.center()]])
        grid.batch_range_query(probe)
        for _ in range(3):
            for eid, old, new in motion.step(state):
                grid.update(eid, old, new)
                state[eid] = new
            grid.batch_range_query(probe)
        assert (grid.in_place_updates, grid.cell_switches) == (24_362, 5_638)
        assert (grid.snapshot_rebuilds, grid.counters.updates) == (4, 30_000)
        assert round(grid.replication_factor, 6) == 5.282

    def test_in_place_move_enumerates_no_cells(self, monkeypatch):
        grid = UniformGrid(universe=UNIVERSE, cell_size=2.0)
        box = AABB((1.0, 1.0, 1.0), (3.0, 3.0, 3.0))
        grid.bulk_load([(1, box), (2, AABB((5.0, 5.0, 5.0), (5.5, 5.5, 5.5)))])
        grid.batch_range_query([UNIVERSE])
        expansions = []
        expand = uniform_grid._expand_windows
        monkeypatch.setattr(
            uniform_grid, "_expand_windows",
            lambda lo, hi, strides: expansions.append(len(lo)) or expand(lo, hi, strides),
        )
        nudged = AABB((1.2, 1.2, 1.2), (3.2, 3.2, 3.2))
        grid.update(1, box, nudged)
        assert (grid.in_place_updates, grid.cell_switches) == (1, 0)  # the read settles
        assert expansions == []
        assert grid.batch_range_query([AABB((3.1, 3.1, 3.1), (3.3, 3.3, 3.3))]) == [[1]]
        expansions.clear()  # the query's own windows
        grid.update(1, nudged, AABB((1.2, 1.2, 1.2), (4.2, 3.2, 3.2)))  # one more cell on x
        assert grid.cell_switches == 1
        # The snapshot entries from one expansion of the one switcher's window.
        assert expansions == [1]

    def test_bulk_load_places_rows_in_input_order(self):
        items = make_items(300, universe=UNIVERSE, max_extent=3.0, seed=11)
        bulk = UniformGrid(universe=UNIVERSE, cell_size=2.0)
        bulk.bulk_load(items)
        one_by_one = UniformGrid(universe=UNIVERSE, cell_size=2.0)
        for eid, box in items:
            one_by_one.insert(eid, box)
        assert list(grid_windows(bulk).items()) == list(grid_windows(one_by_one).items())
        assert (bulk.cell_switches, bulk.in_place_updates) == (0, 0)


class TestExportedFirstMask:
    @pytest.fixture
    def replicated(self):
        grid = UniformGrid(universe=UNIVERSE, cell_size=1.0)
        grid.bulk_load(make_items(600, universe=UNIVERSE, max_extent=3.0, seed=12))
        assert grid.replication_factor > 4.0
        rng = np.random.default_rng(13)
        lo = rng.uniform(-1.0, 9.0, size=(256, 3))
        windows = np.stack([lo, lo + rng.uniform(0.0, 3.0, size=(256, 3))], axis=1)
        return grid, windows, rng.uniform(0.0, 10.0, size=(256, 3))

    def test_worker_index_answers_like_the_live_grid(self, replicated):
        grid, windows, points = replicated
        arrays, cell = export_index_payload(grid)
        assert arrays["entry_first"].dtype == np.uint8
        assert arrays["entry_first"].shape == arrays["entry_rows"].shape
        worker = SnapshotGridIndex(arrays, cell)
        assert worker.batch_range_query(windows) == grid.batch_range_query(windows)
        assert worker.batch_knn(points, 5) == grid.batch_knn(points, 5)

    def test_two_worker_pool_answers_like_the_live_grid(self, replicated):
        grid, windows, points = replicated
        with WorkerPool(workers=2) as pool:
            session = QuerySession(
                grid, executor=ShardedExecutor(workers=2, min_shard=32, pool=pool)
            )
            assert session.range_query(windows) == grid.batch_range_query(windows)
            assert session.knn(points, 5) == grid.batch_knn(points, 5)
            assert pool.exports == 1 and pool.shards_run > 0


class TestDimensionalityIsChecked:
    """A 2-d box on a 3-d grid used to be filed under 2-tuple cell keys,
    matched by scalar queries on the first two axes, and then broke the
    next batch query's reshape."""

    def snapshot_of(self, grid):
        return (
            dict(grid._boxes), grid_windows(grid), grid._snapshot, grid.counters.inserts, grid.counters.updates,
            grid.cell_switches, grid.in_place_updates,
        )

    def test_flat_boxes_are_refused_and_the_grid_is_unchanged(self):
        grid = UniformGrid(universe=UNIVERSE)  # cell size still unset
        flat = AABB((1.0, 1.0), (2.0, 2.0))
        with pytest.raises(ValueError, match="2 dims, index has 3"):
            grid.insert(1, flat)
        with pytest.raises(ValueError, match="2 dims, index has 3"):
            grid.bulk_load([(1, flat)])
        assert len(grid) == 0 and grid.cell_size is None

        solid = AABB((1.0, 1.0, 1.0), (2.0, 2.0, 2.0))
        grid.bulk_load([(1, solid), (2, AABB((4.0, 4.0, 4.0), (9.0, 9.0, 6.0)))])
        grid.batch_range_query([UNIVERSE])
        before = self.snapshot_of(grid)
        refused = [
            lambda: grid.insert(3, flat),
            lambda: grid.bulk_load([(3, flat)]),
            lambda: grid.update(1, solid, flat),
            lambda: grid.update(1, solid, AABB((1.0,) * 4, (2.0,) * 4)),
            lambda: grid.range_query(flat),
            lambda: grid.knn((1.0, 1.0), 1),
            lambda: grid.knn((1.0, 1.0, 1.0, 1.0), 1),
        ]
        for call in refused:
            with pytest.raises(ValueError, match="dims, index has 3"):
                call()
            assert self.snapshot_of(grid) == before
        nan = float("nan")
        for hostile in (AABB((nan,) * 3, (nan,) * 3), AABB((1.0,) * 3, (float("inf"),) * 3)):
            with pytest.raises(ValueError, match="finite"):
                grid.bulk_load([(3, solid), (4, hostile)])
            assert self.snapshot_of(grid) == before
        assert grid.batch_range_query([UNIVERSE]) == [[1, 2]]
        assert grid.range_query(solid) == [1]
