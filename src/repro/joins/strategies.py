"""Join strategies: every join algorithm behind one interface.

Each algorithm the paper surveys (§3.2/3.3/4.3) is a :class:`JoinStrategy`
registered in :data:`JOIN_REGISTRY`.  The contract every strategy honours:

* ``join(items_a, items_b, counters)`` returns **exactly** the ordered pair
  set the nested loop would — every intersecting ``(a, b)`` exactly once;
* ``self_join(items, counters)`` returns every unordered intersecting pair
  exactly once as ``(min_id, max_id)``;
* ``distance_candidates(...)`` returns a complete candidate set for the
  within-ε predicate (a superset of the true answer, refined by the
  session);
* pairwise work is charged to ``counters.comparisons`` — the currency the
  paper argues with ("the number of comparisons (the major bulk of work for
  in-memory spatial joins)").

Inputs are ``Sequence[Item]``; the session hands every strategy the
:class:`~repro.geometry.table.BoxTable` its spec built once, and a table *is*
such a sequence.  Array strategies start with :meth:`BoxTable.of` (a no-op on
a table, one pack on a bare list) and read ``eids``/``boxes``; object-mode
strategies just iterate.

Outputs mirror that: pairs travel as one :class:`PairArray` — ``(k, 2)``
int64 — from the strategy through dedup, refinement and sort, and
become ``list[tuple[int, int]]`` once, at the session boundary
(:func:`repro.joins.session.pair_list`).  Array strategies return the array they already hold;
scalar strategies and :class:`CallableJoin` return the list their loops
append to, which :func:`pair_array` — the single adapter, as
:meth:`BoxTable.of` is for items — converts once.

The scalar strategies (``nested_loop``, ``touch``, ``tiny_cell``) keep the
per-pair Python loops the paper's cost model counts; the vectorized
strategies (``block_nested``, ``sweepline``, ``grid``, ``pbsm``, ``tree``)
run on the array kernels of :mod:`repro.joins.kernels` and the query
engine.  The oracle suite
(``tests/test_join_session.py``) asserts every registry entry agrees with
the nested loop on every dataset shape.
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from itertools import chain
from typing import Callable, Sequence

import numpy as np

from repro.core.resolution import default_cell_size
from repro.core.uniform_grid import UniformGrid
from repro.geometry.aabb import AABB, batch_intersects, union_all
from repro.geometry.table import BoxTable
from repro.indexes.base import Item
from repro.instrumentation.counters import Counters
from repro.joins import kernels


class PairArray(np.ndarray):
    """Id pairs as one ``(k, 2)`` int64 array, truthy iff it holds a pair —
    so ``if not pairs`` and ``pairs or default`` read as they do on the list
    it replaces (the session, user code and the ledger's replay all ask a
    strategy's output that).  Anything else derived from it (a row, a column, the
    boolean result of a comparison) keeps ndarray's refusal to be a truth
    value."""

    def __bool__(self) -> bool:
        if self.ndim == 2 and self.dtype != np.bool_:
            return len(self) > 0
        return super().__bool__()


# What a strategy may return: the array, or (scalar loops, user callables)
# a list of tuples for :func:`pair_array` to convert.
Pairs = PairArray | list[tuple[int, int]]


def pair_array(pairs: Pairs) -> PairArray:
    """The single adapter onto the pair plane: an array passes through, a
    pair list is packed in one flat pass (several times faster than
    ``np.array`` over the tuples)."""
    if isinstance(pairs, np.ndarray):
        return pairs.view(PairArray)
    flat = np.fromiter(chain.from_iterable(pairs), np.int64, 2 * len(pairs))
    return flat.reshape(len(pairs), 2).view(PairArray)


def pair_columns(ids_a: np.ndarray, ids_b: np.ndarray) -> PairArray:
    """Two parallel id columns as one :class:`PairArray`."""
    return np.stack([ids_a, ids_b], axis=1).view(PairArray)


def concat_pairs(parts: Sequence[Pairs]) -> PairArray:
    """Per-sweep (or per-slab) results as one array, in part order."""
    return pair_array(np.concatenate([pair_array(()), *map(pair_array, parts)]))


def ordered_pairs(pairs: Pairs) -> PairArray:
    """The ``a < b`` half of an ordered result: one orientation per
    unordered pair, the diagonal gone."""
    pairs = pair_array(pairs)
    return pairs[pairs[:, 0] < pairs[:, 1]]


class JoinStrategy(ABC):
    """One join algorithm, interchangeable with every other registry entry."""

    #: Registry key; subclasses set it and :func:`register` indexes on it.
    name: str = "strategy"
    #: Whether the strategy answers binary (A ⋈ B) joins.
    binary: bool = True

    @abstractmethod
    def join(self, items_a: Sequence[Item], items_b: Sequence[Item], counters: Counters) -> Pairs:
        """All ``(a, b)`` id pairs of A × B with intersecting boxes, each once."""

    def self_join(self, items: Sequence[Item], counters: Counters) -> Pairs:
        """All unordered intersecting pairs, as ``(min_id, max_id)``, each once.

        Default: run the binary join of the set against itself and keep the
        ``a < b`` half — every unordered pair appears exactly twice in the
        ordered result (once per orientation) plus the ``(i, i)`` diagonal,
        so the filter reports it exactly once, at twice the probe work.
        Strategies with a native self path that tests each pair once
        override this: the nested loop, ``grid``, ``tiny_cell``.
        """
        return ordered_pairs(self.join(items, items, counters))

    def distance_candidates(
        self,
        items_a: Sequence[Item],
        items_b: Sequence[Item] | None,
        epsilon: float,
        counters: Counters,
    ) -> Pairs:
        """Complete candidate pairs for the within-ε predicate.

        Default filter: expand every box by ε/2 per side and run the plain
        intersection join — exact distance ≤ ε implies the expanded boxes
        intersect.  ``items_b=None`` means self-join candidates
        (``a < b``).  Strategies with a native distance filter (the tree's
        bounded traversal) override this with something tighter.
        """
        expanded_a = BoxTable.of(items_a).expanded(epsilon / 2.0)
        if items_b is None:
            return self.self_join(expanded_a, counters)
        return self.join(expanded_a, BoxTable.of(items_b).expanded(epsilon / 2.0), counters)


# -- registry ------------------------------------------------------------------

#: Name → strategy class for every shipped join algorithm.
JOIN_REGISTRY: dict[str, type[JoinStrategy]] = {}


def register(cls: type[JoinStrategy]) -> type[JoinStrategy]:
    JOIN_REGISTRY[cls.name] = cls
    return cls


def available_join_strategies() -> list[str]:
    """Registered strategy names, sorted."""
    return sorted(JOIN_REGISTRY)


def make_join_strategy(name: str, **kwargs: object) -> JoinStrategy:
    """Construct a registered strategy by name (kwargs go to its ``__init__``)."""
    try:
        cls = JOIN_REGISTRY[name]
    except KeyError:
        raise KeyError(
            f"unknown join strategy {name!r}; available: {available_join_strategies()}"
        ) from None
    return cls(**kwargs)  # type: ignore[arg-type]


def _hull(*tables: BoxTable) -> AABB:
    return union_all(table.hull() for table in tables)


# -- nested loop (the oracle) ----------------------------------------------------


@register
class NestedLoopJoin(JoinStrategy):
    """The O(n·m) scalar baseline and correctness oracle.

    "Not using any index structure results in a nested loop join with n²
    comparisons" (§4.3).  Every other strategy is tested against this one.
    """

    name = "nested_loop"

    def join(self, items_a, items_b, counters):
        pairs: Pairs = []
        for eid_a, box_a in items_a:
            for eid_b, box_b in items_b:
                counters.comparisons += 1
                if box_a.intersects(box_b):
                    pairs.append((eid_a, eid_b))
        return pairs

    def self_join(self, items, counters):
        pairs: Pairs = []
        n = len(items)
        for i in range(n):
            eid_a, box_a = items[i]
            for j in range(i + 1, n):
                eid_b, box_b = items[j]
                counters.comparisons += 1
                if box_a.intersects(box_b):
                    pairs.append((eid_a, eid_b) if eid_a < eid_b else (eid_b, eid_a))
        return pairs


@register
class BlockNestedJoin(JoinStrategy):
    """The nested loop on the blocked dense-overlap kernel.

    Same n·m comparisons, executed as bounded bool blocks instead of Python
    iterations — the planner's choice for small inputs where partitioning
    set-up would dominate.
    """

    name = "block_nested"

    def join(self, items_a, items_b, counters):
        if not items_a or not items_b:
            return []
        a, b = BoxTable.of(items_a), BoxTable.of(items_b)
        ai, bi = kernels.block_pairs(a.boxes, b.boxes, counters)
        return pair_columns(a.eids[ai], b.eids[bi])


# -- plane sweep -----------------------------------------------------------------


@register
class SweeplineJoin(JoinStrategy):
    """Sort + plane sweep along axis 0, vectorized.

    One of the two algorithms "specifically designed for use in memory"
    before TOUCH (§3.2).  Both inputs are sorted by their lower x
    coordinate; every intersecting pair has exactly one of its lower-x
    bounds inside the other's x range, so two ``searchsorted`` window sweeps
    enumerate each candidate exactly once, and the remaining axes are tested
    with one array expression per sweep.  The paper's criticism survives
    vectorization unchanged: pruning is only by x, so ``comparisons`` counts
    every x-overlapping pair, however far apart in y/z.
    """

    name = "sweepline"

    def join(self, items_a, items_b, counters):
        if not items_a or not items_b:
            return []
        a, b = BoxTable.of(items_a), BoxTable.of(items_b)
        eids_a, boxes_a, eids_b, boxes_b = a.eids, a.boxes, b.eids, b.boxes
        # Sweep 1: B elements whose lo-x lies within [a.lo_x, a.hi_x].
        forward = self._sweep(eids_a, boxes_a, eids_b, boxes_b, counters, strict=False)
        # Sweep 2 (mirror): A elements whose lo-x lies strictly inside
        # (b.lo_x, b.hi_x] — strict, so ties report only in sweep 1.
        mirror = self._sweep(eids_b, boxes_b, eids_a, boxes_a, counters, strict=True)
        return concat_pairs([forward, mirror[:, ::-1]])

    # Candidate pairs materialized per slab; x-clustered inputs can produce
    # windows far larger than the output, and the slab keeps that bounded.
    _SLAB = 1 << 22

    @classmethod
    def _sweep(cls, eids_out, boxes_out, eids_in, boxes_in, counters, *, strict):
        order = np.argsort(boxes_in[:, 0, 0], kind="stable")
        lo_sorted = boxes_in[order, 0, 0]
        side = "right" if strict else "left"
        starts = np.searchsorted(lo_sorted, boxes_out[:, 0, 0], side=side)
        stops = np.searchsorted(lo_sorted, boxes_out[:, 1, 0], side="right")
        counts = np.maximum(stops - starts, 0)
        cumulative = np.cumsum(counts)
        total = int(cumulative[-1]) if counts.shape[0] else 0
        counters.comparisons += total
        pairs = []
        edges = np.searchsorted(cumulative, np.arange(0, total, cls._SLAB), side="left")
        edges = np.append(edges, counts.shape[0])
        for lo_row, hi_row in zip(edges[:-1], edges[1:]):
            if lo_row == hi_row:
                continue
            rows, cols = kernels.expand_ranges(starts[lo_row:hi_row], stops[lo_row:hi_row])
            if rows.shape[0] == 0:
                continue
            rows = rows + lo_row
            inner = order[cols]
            a, b = boxes_out[rows], boxes_in[inner]
            ok = np.ones(rows.shape[0], dtype=bool)
            for axis in range(1, a.shape[2]):  # axis 0 is the sweep's own
                ok &= a[:, 0, axis] <= b[:, 1, axis]
                ok &= b[:, 0, axis] <= a[:, 1, axis]
            pairs.append(pair_columns(eids_out[rows[ok]], eids_in[inner[ok]]))
        return concat_pairs(pairs)


# -- grid joins ------------------------------------------------------------------


@register
class GridJoin(JoinStrategy):
    """The paper's §4.3 direction on the vectorized kernels.

    Index A in a uniform grid (one linear pass — the preprocessing the paper
    wants cheap), then answer the whole probe side as one
    :meth:`~repro.core.uniform_grid.UniformGrid.batch_range_hits` call, so the
    join rides the grid's vectorized range kernel instead of a per-element
    ``range_query`` loop and its hits never become Python lists.  The grid's
    element tests during the probes are the join's comparisons.  The grid is
    probed once and discarded, so it is built read-only: the dense snapshot
    the batch kernel queries, straight from A's arrays — only an
    unlinearizable resolution gets a live grid, which answers by scanning.

    A self-join has its own path (:func:`repro.joins.kernels.grid_self_pairs`):
    on the same universe and cells, each cell's entries meet each other once
    under the first-common-cell rule, so every unordered pair is tested once
    instead of once per orientation plus the diagonal.
    """

    name = "grid"

    def __init__(self, cell_size: float | None = None) -> None:
        self.cell_size = cell_size

    @staticmethod
    def _universe(*tables: BoxTable) -> AABB:
        hull = _hull(*tables)
        return hull.expanded(max(hull.margin() * 0.005, 1e-9))

    def join(self, items_a, items_b, counters):
        if not items_a or not items_b:
            return []
        from repro.serving.snapshots import SnapshotGridIndex  # repro.serving imports repro.joins

        table_a, probes = BoxTable.of(items_a), BoxTable.of(items_b)
        universe = self._universe(table_a, probes)
        grid = SnapshotGridIndex.over(table_a.eids, table_a.boxes, universe, self.cell_size)
        if grid is None:
            grid = UniformGrid(universe=universe, cell_size=self.cell_size)
            grid.bulk_load(table_a.items())
        scratch = grid.counters = Counters()
        offsets, ids = grid.batch_range_hits(probes.boxes)
        counters.comparisons += scratch.elem_tests
        counters.cells_probed += scratch.cells_probed
        return pair_columns(ids, np.repeat(probes.eids, np.diff(offsets)))

    def self_join(self, items, counters):
        if not items:
            return []
        table = BoxTable.of(items)
        universe = self._universe(table)
        cell = self.cell_size
        if cell is None:
            cell = default_cell_size(len(table), universe)
        found = kernels.grid_self_pairs(table.boxes, universe, cell, counters)
        if found is None:  # unlinearizable: the live grid's scan, both orientations
            return super().self_join(table, counters)
        ids_i, ids_j = table.eids.take(found[0]), table.eids.take(found[1])
        return pair_columns(np.minimum(ids_i, ids_j), np.maximum(ids_i, ids_j))


# -- PBSM ------------------------------------------------------------------------


def _default_tiles(n_total: int, dims: int) -> int:
    target_tiles = max(n_total / 4.0, 1.0)
    return max(1, int(round(target_tiles ** (1.0 / dims))))


@register
class PBSMJoin(JoinStrategy):
    """Partition Based Spatial-Merge (Patel & DeWitt, SIGMOD'96), vectorized.

    The paper recommends exactly this shape for memory: "An approach based
    on a grid (similar to PBSM) optimized for memory ... will certainly
    speed up the preprocessing/indexing and thus the overall join" (§3.3).
    Partition and merge are the uniform grid's own gather kernels applied to
    tile windows (:func:`repro.joins.kernels.pbsm_pairs`): boxes replicate
    into tiles by the grid's window expansion, and a pair is kept only at
    the first tile the two windows share — the grid's first-common-cell
    rule, which on tiles is PBSM's reference-point dedup (the tile holding
    the low corner of the two boxes' intersection) — so replication never
    duplicates output.
    """

    name = "pbsm"

    def __init__(self, tiles_per_axis: int | None = None) -> None:
        self.tiles_per_axis = tiles_per_axis

    def join(self, items_a, items_b, counters):
        if not items_a or not items_b:
            return []
        a, b = BoxTable.of(items_a), BoxTable.of(items_b)
        (lo_a, hi_a), (lo_b, hi_b) = a.bounds(), b.bounds()
        tiles = self.tiles_per_axis
        if tiles is None:
            tiles = _default_tiles(len(a) + len(b), a.dims)
        ai, bi = kernels.pbsm_pairs(
            a.boxes, b.boxes, np.minimum(lo_a, lo_b), np.maximum(hi_a, hi_b), tiles, counters
        )
        return pair_columns(a.eids[ai], b.eids[bi])


def _window_keys(lo: tuple[int, ...], hi: tuple[int, ...]):
    if len(lo) == 1:
        for i in range(lo[0], hi[0] + 1):
            yield (i,)
        return
    for i in range(lo[0], hi[0] + 1):
        for tail in _window_keys(lo[1:], hi[1:]):
            yield (i, *tail)


# -- tree join (carried-set traversal) ---------------------------------------------


class _TreeBacked(JoinStrategy):
    def __init__(self, max_entries: int = 16) -> None:
        if max_entries < 4:
            raise ValueError(f"max_entries must be >= 4, got {max_entries}")
        self.max_entries = max_entries


@register
class TreeJoin(_TreeBacked):
    """STR-packed R-tree join with the batch-kNN carried-set traversal.

    Builds the tree over A and answers the whole probe side in one traversal
    (:func:`repro.joins.kernels.tree_pairs`): each node is expanded at most
    once per batch, carrying exactly the probes whose gap bound reaches its
    MBR — the pruning discipline of the seeded best-first kNN kernel with
    the bound fixed per probe.  For distance joins the bound *is* ε: the
    box-gap filter is complete (the gap lower-bounds the exact distance) and
    strictly tighter than ε-expanded box intersection, so distance joins
    prune with per-probe bounds instead of inflating every box.
    """

    name = "tree"

    def join(self, items_a, items_b, counters):
        return self.distance_candidates(items_a, items_b, 0.0, counters)

    def distance_candidates(self, items_a, items_b, epsilon, counters):
        probe_items = items_a if items_b is None else items_b
        if not items_a or not probe_items:
            return []
        table_p = BoxTable.of(probe_items)
        eids_p = table_p.eids
        bounds = np.full(len(table_p), float(epsilon))
        probes, hits = kernels.tree_pairs(
            items_a, table_p.boxes, bounds, counters, self.max_entries
        )
        pairs = pair_columns(hits, eids_p[probes])
        return ordered_pairs(pairs) if items_b is None else pairs


# -- TOUCH -----------------------------------------------------------------------


@register
class TouchJoin(_TreeBacked):
    """TOUCH: hierarchical data-oriented partitioning, assign-and-probe
    (Nobari, Tauheed, Heinis, Karras, Bressan, Ailamaki — SIGMOD'13).

    The authors' own pre-paper join, cited in §3.2 as outperforming both the
    nested loop and the sweep line in memory: bulk-build an R-tree hierarchy
    over A, *assign* each B element to the lowest node whose subtree could
    hold all its matches, then *probe* each leaf's A elements against the B
    buckets assigned along its ancestor path — spatially distant pairs never
    meet, because containment stopped them at disjoint branches.
    """

    name = "touch"

    def join(self, items_a, items_b, counters):
        if not items_a or not items_b:
            return []
        tree = kernels.str_tree(items_a, self.max_entries)
        table_b = BoxTable.of(items_b)
        # Assign: B descends all at once.  A row moves down while exactly one
        # child MBR intersects its box (only then is its whole candidate set
        # in one subtree), stays where two or more do (testing stops at the
        # second hit) and is dropped where none does: no A element can match.
        buckets: dict[int, np.ndarray] = {}
        stack = [(tree._root, np.arange(len(table_b)))]
        while stack:
            page, rows = stack.pop()
            is_leaf, boxes, refs = tree._node_arrays(page)
            if is_leaf:
                buckets[page] = rows
                continue
            hit = batch_intersects(boxes, table_b.boxes[rows])  # (entries, rows)
            seen = np.cumsum(hit, axis=0)
            many = seen[-1] > 1
            counters.node_tests += int(
                np.where(many, np.argmax(seen > 1, axis=0) + 1, hit.shape[0]).sum()
            )
            if many.any():
                buckets[page] = rows[many]
            sole = np.where(seen[-1] == 1, np.argmax(hit, axis=0), -1)
            for entry_i, child in enumerate(refs.tolist()):
                sub = rows[sole == entry_i]
                if sub.shape[0]:
                    stack.append((child, sub))

        pairs: Pairs = []
        self._probe(tree, tree._root, [], buckets, table_b, pairs, counters)
        return pairs

    def _probe(self, tree, page, ancestors, buckets, table_b, pairs, counters) -> None:
        """Each leaf's A elements against the B rows assigned along its path,
        in tree order, A element by A element."""
        own = buckets.get(page)
        if own is not None:
            ancestors = ancestors + [own]
        is_leaf, boxes, refs = tree._node_arrays(page)
        if not is_leaf:
            for child in refs.tolist():
                self._probe(tree, child, ancestors, buckets, table_b, pairs, counters)
            return
        if ancestors:
            rows = np.concatenate(ancestors)
            counters.comparisons += refs.shape[0] * rows.shape[0]
            a_at, b_at = np.nonzero(batch_intersects(boxes, table_b.boxes[rows]))
            pairs.extend(zip(refs[a_at].tolist(), table_b.eids[rows[b_at]].tolist()))


# -- tiny-cell self join -----------------------------------------------------------


@register
class TinyCellJoin(JoinStrategy):
    """Self-join with cells smaller than the smallest element (§4.3).

    The paper's refinement of the grid direction: "if the grid cell size is
    smaller than the smallest element size, then objects in the same cell
    intersect by definition" — same-cell co-residents are emitted with zero
    comparisons, and only neighbouring-cell pairs are tested.  Self-join
    only; the planner never routes binary specs here.
    """

    name = "tiny_cell"
    binary = False

    def __init__(self, cell_size: float | None = None) -> None:
        self.cell_size = cell_size

    def join(self, items_a, items_b, counters):
        raise NotImplementedError("tiny_cell is a self-join strategy")

    def self_join(self, items, counters):
        if len(items) < 2:
            return []
        dims = items[0][1].dims
        min_extent = min(min(box.extents()) for _, box in items)
        shortcut_valid = min_extent > 0.0
        hull = BoxTable.of(items).hull()
        cell_size = self.cell_size
        if cell_size is None:
            if shortcut_valid:
                cell_size = 0.9 * min_extent
            else:
                cell_size = max(max(hull.extents()) / max(len(items), 1), 1e-9)
        elif cell_size >= min_extent:
            shortcut_valid = False

        def cell_of(box: AABB) -> tuple[int, ...]:
            center = box.center()
            return tuple(
                int(math.floor((center[axis] - hull.lo[axis]) / cell_size))
                for axis in range(dims)
            )

        cells: dict[tuple[int, ...], list[Item]] = {}
        for eid, box in items:
            cells.setdefault(cell_of(box), []).append((eid, box))

        pairs: Pairs = []
        emitted: set[tuple[int, int]] = set()

        # Same-cell pairs: intersect by definition when cells are tiny enough.
        for bucket in cells.values():
            for i in range(len(bucket)):
                eid_a, box_a = bucket[i]
                for j in range(i + 1, len(bucket)):
                    eid_b, box_b = bucket[j]
                    if shortcut_valid:
                        pair = (min(eid_a, eid_b), max(eid_a, eid_b))
                        pairs.append(pair)
                        emitted.add(pair)
                    else:
                        counters.comparisons += 1
                        if box_a.intersects(box_b):
                            pair = (min(eid_a, eid_b), max(eid_a, eid_b))
                            pairs.append(pair)
                            emitted.add(pair)

        # Cross-cell pairs: probe the neighbour window each box can reach.
        # Two intersecting boxes have centres at most (extent_a + extent_b)/2
        # apart per axis, so the window covers half the element's own extent
        # plus half the dataset-wide maximum extent.
        max_extent = [
            max(box.hi[axis] - box.lo[axis] for _, box in items) for axis in range(dims)
        ]
        for eid_a, box_a in items:
            home = cell_of(box_a)
            reach = [
                int(
                    math.ceil(
                        ((box_a.hi[axis] - box_a.lo[axis]) / 2.0 + max_extent[axis] / 2.0)
                        / cell_size
                    )
                )
                + 1
                for axis in range(dims)
            ]
            window = _window_keys(
                tuple(c - r for c, r in zip(home, reach)),
                tuple(c + r for c, r in zip(home, reach)),
            )
            for key in window:
                if key == home:
                    continue
                counters.cells_probed += 1
                for eid_b, box_b in cells.get(key, ()):
                    if eid_a == eid_b:
                        continue
                    pair = (min(eid_a, eid_b), max(eid_a, eid_b))
                    if pair in emitted:
                        continue
                    counters.comparisons += 1
                    if box_a.intersects(box_b):
                        pairs.append(pair)
                        emitted.add(pair)
        return pairs


# -- adapter for user-supplied callables -------------------------------------------


class CallableJoin(JoinStrategy):
    """Adapts a bare ``(items_a, items_b, counters) -> pairs`` callable.

    Lets a caller pin an arbitrary filter, such as a test's failing or
    duplicating join, wherever a strategy is accepted; not registered —
    construct it explicitly.
    """

    name = "callable"

    def __init__(self, fn: Callable[..., Pairs]) -> None:
        self.fn = fn

    def join(self, items_a, items_b, counters):
        return self.fn(items_a, items_b, counters=counters)
