"""External PBSM: the spatial join whose working set obeys a memory budget.

``pbsm_spill`` is the out-of-core member of
:data:`~repro.joins.strategies.JOIN_REGISTRY`.  It is the same Partition
Based Spatial-Merge as the in-memory ``pbsm`` strategy — identical tiling,
the same dedup (the uniform grid's first-common-cell rule on tile windows),
the same merge kernel — but its execution is staged so no phase
materializes more than (a quarter of) the session's
:class:`~repro.exec.budget.MemoryBudget`:

1. **Histogram pass** — both sides arrive as one
   :class:`~repro.geometry.table.BoxTable` each (packed once by the spec, not
   here); bounded *row slices* of the table have their tile replicas only
   *counted*, never made (:func:`~repro.joins.kernels.tile_histogram`: a
   difference array over the tile windows' corners), producing the
   per-tile replica histogram;
2. **Partition pass** — contiguous tile ranges are grouped into *runs* whose
   replica bytes fit the chunk budget, and a second pass over the same row
   slices gathers each slice's replicas and spills them per run through the
   :class:`~repro.exec.spill.SpillManager` (typed ``(eids, boxes, keys)``
   segments over the real on-disk page store, each key the replica's tile
   key with its first mask packed into the low ``dims`` bits);
3. **Merge pass** — runs stream back one at a time as zero-copy mapped
   views and go, unsorted, through
   :func:`repro.joins.kernels.replica_tile_pairs`: B's replicas become a
   grid cell table that A's walk, and the first-common-tile rule — a pair is
   kept only in the tile holding its overlap's low corner — guarantees that
   a pair replicated across tiles *and* runs is still reported exactly once.

Because a tile lives in exactly one run and the dedup rule is global, the
runs are **independent**: merging them in any order yields disjoint pair
sets whose union is the exact nested-loop result.
:meth:`SpillPBSMJoin.plan_tile_runs` exposes passes 1–2 on their own, so a
caller can time partitioning and each run's merge separately.

When the whole working set fits the budget (or no budget is given) the
strategy degrades gracefully to a single in-memory run with zero spill
traffic.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.exec.budget import MemoryBudget
from repro.exec.spill import SpillHandle, SpillManager
from repro.geometry.table import BoxTable
from repro.indexes.base import Item
from repro.instrumentation.counters import Counters
from repro.joins import kernels
from repro.joins.strategies import JoinStrategy, Pairs, _default_tiles, pair_columns, register
from repro.obs import span as _span

#: Below this, chunking is all overhead: the partition passes never shrink
#: their row chunks past it even under tiny budgets.
MIN_CHUNK_BYTES = 1 << 16


def _replica_bytes(dims: int) -> int:
    """Spilled bytes per replica: box + eid + packed tile key."""
    return 2 * dims * 8 + 16


def spill_page_size(chunk_budget: int | None) -> int:
    """Spill page size matched to the partition scale.

    Segments are roughly ``chunk_budget``-sized; pages much larger than a
    segment waste whole slots per spilled array (every segment spills three
    typed arrays), pages much smaller multiply Python-level page loops.
    ~1/16 of the chunk budget, clamped to [16 KiB, 1 MiB] and rounded down
    to a 4 KiB multiple (so zero-copy float64 views over page-aligned
    offsets stay 8-byte aligned), keeps per-segment slot waste under ~20%
    without ballooning the page count.
    """
    if chunk_budget is None:
        return 1 << 20
    return max(1 << 14, min(1 << 20, chunk_budget // 16)) & ~0xFFF


# -- the shared merge ----------------------------------------------------------

#: One gathered segment: ``(eids, boxes, packed keys)`` replica arrays.
Segment = tuple[np.ndarray, np.ndarray, np.ndarray]


@dataclass(frozen=True)
class TileRunLayout:
    """The global tiling the partition passes and every run's merge share.

    Small (three tiny arrays plus scalars): the histogram pass computes it
    once, the gather pass tiles every slice with it, and every run's merge
    reads its ``dims`` and ``slab_pairs``.
    """

    hull_lo: np.ndarray
    sides: np.ndarray
    strides: np.ndarray
    tiles: int
    dims: int
    slab_pairs: int


def concat_segments(parts: list[Segment], dims: int) -> Segment:
    """Concatenate gathered segments fieldwise (empty-safe)."""
    if not parts:
        return (
            np.empty(0, dtype=np.int64),
            np.empty((0, 2, dims), dtype=np.float64),
            np.empty(0, dtype=np.int64),
        )
    if len(parts) == 1:
        return parts[0]
    return tuple(np.concatenate(field) for field in zip(*parts))  # type: ignore[return-value]


# -- the partition plan --------------------------------------------------------


@dataclass
class SpillPlan:
    """Result of the partition passes: per-run replica segments.

    With more than one run the segments are spilled and the plan owns their
    handles (and a strategy-private spill manager); a join that fits one run
    keeps its segments resident.  Callers merge every run with
    :meth:`merge_inline` and only then :meth:`release`.
    """

    layout: TileRunLayout
    runs: int
    #: Per run: SpillHandle triples, or resident Segments when ``runs == 1``.
    segments_a: list[list]
    segments_b: list[list]
    spill: SpillManager
    handles: list[SpillHandle]
    owns_spill: bool
    budget: MemoryBudget
    released: bool = False

    def merge_inline(self, run: int, counters: Counters) -> tuple[np.ndarray, np.ndarray]:
        """Merge one run: pass 3 of the join."""
        spilled = self.runs > 1
        with _span("join.spill.merge", counters=counters, run=run) as merge_span:
            sides: list[Segment] = []
            for segments in (self.segments_a, self.segments_b):
                parts = segments[run]
                if spilled:
                    parts = [tuple(self.spill.read(handle) for handle in seg) for seg in parts]
                sides.append(concat_segments(parts, self.layout.dims))
            run_bytes = sum(arr.nbytes for side in sides for arr in side)
            with self.budget.reserving(run_bytes, force=True):
                ids_a, ids_b = kernels.replica_tile_pairs(
                    *sides[0], *sides[1], counters, slab_pairs=self.layout.slab_pairs
                )
            merge_span.set_attr("pairs", int(ids_a.shape[0]))
        return ids_a, ids_b

    def free_run(self, run: int) -> None:
        """Release one merged run's pages for slot reuse (the merge's id
        columns are gathers, never views of the mapped pages)."""
        if self.runs > 1:
            for segments in (self.segments_a, self.segments_b):
                for seg in segments[run]:
                    for handle in seg:
                        self.spill.free(handle)

    def release(self) -> None:
        """Free every spilled segment; close a private manager.  Idempotent —
        callers run this in a ``finally``, so a merge that dies mid-run on a
        session-shared manager still leaves no handle behind."""
        if self.released:
            return
        self.released = True
        for handle in self.handles:  # free() is idempotent
            self.spill.free(handle)
        if self.owns_spill:
            self.spill.close()


# -- the strategy --------------------------------------------------------------


@register
class SpillPBSMJoin(JoinStrategy):
    """PBSM with budget-bounded phases and spill-to-disk partitions.

    Parameters
    ----------
    budget:
        A :class:`~repro.exec.budget.MemoryBudget`, raw byte limit, or
        ``None`` (unlimited — runs as one in-memory partition, no spill).
        Each phase holds at most ~``limit / 4`` bytes of arrays: one run
        being gathered or merged, plus the kernels' own slab temporaries.
    tiles_per_axis:
        Tiling override (default: the same heuristic as ``pbsm``).
    spill:
        A shared :class:`~repro.exec.spill.SpillManager` (the session
        passes its own, so spill files live until ``session.close()``).
        When omitted, a private manager is created per join call and torn
        down in a ``finally`` — an error mid-join leaves no files behind.
    spill_dir:
        Directory for the private manager's spill file (ignored when
        ``spill`` is supplied).
    """

    name = "pbsm_spill"

    def __init__(
        self,
        budget: MemoryBudget | int | None = None,
        tiles_per_axis: int | None = None,
        spill: SpillManager | None = None,
        spill_dir: str | None = None,
    ) -> None:
        self.budget = MemoryBudget.coerce(budget)
        self.tiles_per_axis = tiles_per_axis
        self.spill = spill
        self.spill_dir = spill_dir

    # -- the join -------------------------------------------------------------

    def join(
        self, items_a: Sequence[Item], items_b: Sequence[Item], counters: Counters
    ) -> Pairs:
        if not items_a or not items_b:
            return []
        plan = self._partition(BoxTable.of(items_a), BoxTable.of(items_b), counters, min_runs=1)
        assert plan is not None
        try:
            # Pass 3: merge runs one at a time.
            merged = []
            for run in range(plan.runs):
                merged.append(plan.merge_inline(run, counters))
                plan.free_run(run)
        finally:
            plan.release()
        return pair_columns(*(np.concatenate(side) for side in zip(*merged)))

    def plan_tile_runs(
        self, items_a: Sequence[Item], items_b: Sequence[Item], counters: Counters
    ) -> SpillPlan | None:
        """Passes 1–2 alone; ``None`` for a join that would not spill.

        Runs the histogram and gather/spill passes and returns a
        :class:`SpillPlan` whose runs are independent merge units, for a
        caller that merges (and times) them one at a time.  Returns ``None``
        when there is no budget or the working set fits one run —
        :meth:`join` answers those in memory.
        """
        if not items_a or not items_b or self.budget.limit is None:
            return None
        return self._partition(BoxTable.of(items_a), BoxTable.of(items_b), counters, min_runs=2)

    def _partition(
        self, table_a: BoxTable, table_b: BoxTable, counters: Counters, min_runs: int
    ) -> SpillPlan | None:
        """Passes 1–2; ``None`` (nothing left open) below ``min_runs`` runs."""
        chunk_budget = self._chunk_budget()
        dims = table_a.dims
        owns_spill = self.spill is None
        spill = (
            self.spill
            if self.spill is not None
            else SpillManager(
                dir=self.spill_dir,
                page_size=spill_page_size(chunk_budget),
                counters=counters,
            )
        )
        # Every handle the gather creates, so an error path — here or in the
        # caller's ``finally: plan.release()`` — can free them all.
        handles: list[SpillHandle] = []
        try:
            with _span(
                "join.spill.partition",
                counters=counters,
                size_a=len(table_a),
                size_b=len(table_b),
            ) as partition_span:
                chunk_rows = self._chunk_rows(chunk_budget, dims)
                # Pass 1: global tiling + per-tile replica histogram.
                layout, histogram, replicas = self._layout_and_histogram(
                    table_a, table_b, chunk_budget, chunk_rows, counters
                )
                runs, run_of_tile = self._partition_runs(
                    histogram, replicas, dims, chunk_budget
                )
                partition_span.set_attr("runs", runs)
                if runs < min_runs:
                    if owns_spill:
                        spill.close()
                    return None
                # Pass 2: gather replicas per run; spill when there is > 1 run.
                segments_a, segments_b = self._gather_segments(
                    table_a, table_b, layout, run_of_tile, runs, chunk_rows,
                    spill, handles, spilling=runs > 1,
                )
            return SpillPlan(
                layout, runs, segments_a, segments_b, spill, handles, owns_spill, self.budget
            )
        except BaseException:
            for handle in handles:
                spill.free(handle)
            if owns_spill:
                spill.close()
            raise

    # -- staged passes ---------------------------------------------------------

    def _layout_and_histogram(
        self,
        table_a: BoxTable,
        table_b: BoxTable,
        chunk_budget: int | None,
        chunk_rows: int,
        counters: Counters,
    ) -> tuple[TileRunLayout, np.ndarray, int]:
        """Pass 1: the global tiling plus the per-tile replica histogram."""
        dims = table_a.dims
        (lo_a, hi_a), (lo_b, hi_b) = table_a.bounds(), table_b.bounds()
        hull_lo, hull_hi = np.minimum(lo_a, lo_b), np.maximum(hi_a, hi_b)
        tiles = (
            self.tiles_per_axis
            if self.tiles_per_axis is not None
            else _default_tiles(len(table_a) + len(table_b), dims)
        )
        sides, strides = kernels.tile_layout(hull_lo, hull_hi, tiles)
        chunks = (
            table.boxes[start : start + chunk_rows]
            for table in (table_a, table_b)
            for start in range(0, len(table), chunk_rows)
        )
        largest = max(table.boxes[:chunk_rows].nbytes for table in (table_a, table_b))
        with self.budget.reserving(largest, force=True):
            histogram = kernels.tile_histogram(chunks, hull_lo, sides, tiles)
        replicas = int(histogram.sum())
        counters.cells_probed += replicas
        layout = TileRunLayout(
            hull_lo=hull_lo,
            sides=sides,
            strides=strides,
            tiles=tiles,
            dims=dims,
            slab_pairs=self._slab_pairs(chunk_budget, dims),
        )
        return layout, histogram, replicas

    def _partition_runs(
        self, histogram: np.ndarray, replicas: int, dims: int, chunk_budget: int | None
    ) -> tuple[int, np.ndarray]:
        """Group contiguous tile ranges into budget-sized runs."""
        tile_count = histogram.shape[0]
        rep_bytes = _replica_bytes(dims)
        total_bytes = replicas * rep_bytes
        if chunk_budget is None or total_bytes <= chunk_budget:
            # Everything fits in one partition: merge in memory, no spill.
            return 1, np.zeros(tile_count, dtype=np.int64)
        # Contiguous tile ranges whose replica bytes fit the chunk budget;
        # a single over-budget tile becomes its own run.
        prefix = np.cumsum(histogram * rep_bytes) - histogram * rep_bytes
        run_of_tile = prefix // chunk_budget
        runs = int(run_of_tile[-1]) + 1 if tile_count else 1
        return runs, run_of_tile

    def _gather_segments(
        self,
        table_a: BoxTable,
        table_b: BoxTable,
        layout: TileRunLayout,
        run_of_tile: np.ndarray,
        runs: int,
        chunk_rows: int,
        spill: SpillManager,
        handles: list[SpillHandle],
        spilling: bool,
    ) -> tuple[list[list], list[list]]:
        """Pass 2: gather replicas per run, one bounded row slice at a time.

        Returns ``(segments_a, segments_b)``; each run's list holds
        ``(eids, boxes, packed keys)`` triples of :class:`SpillHandle`\\ s when
        ``spilling`` else of resident arrays.  Every created handle is also
        appended to ``handles`` so any caller's error path can release them.
        """
        segments_a: list[list] = [[] for _ in range(runs)]
        segments_b: list[list] = [[] for _ in range(runs)]
        for table, segments in ((table_a, segments_a), (table_b, segments_b)):
            for start in range(0, len(table), chunk_rows):
                eids = table.eids[start : start + chunk_rows]
                boxes = table.boxes[start : start + chunk_rows]
                with self.budget.reserving(2 * boxes.nbytes, force=True):
                    rows, keys, first = kernels.tile_replicas(
                        boxes, layout.hull_lo, layout.sides, layout.strides, layout.tiles
                    )
                    # Runs are tile ranges, so key order groups the replicas
                    # by run, and it hands the merge presorted key columns.
                    order = np.argsort(keys)
                    keys, rows = keys.take(order), rows.take(order)
                    packed = kernels.pack_first(keys, first.take(order), layout.dims)
                    ends = np.cumsum(np.bincount(run_of_tile.take(keys), minlength=runs)).tolist()
                    for run, seg_lo, seg_hi in zip(range(runs), [0, *ends], ends):
                        if seg_lo == seg_hi:
                            continue
                        sl = slice(seg_lo, seg_hi)
                        seg = (eids.take(rows[sl]), boxes.take(rows[sl], axis=0), packed[sl])
                        if spilling:
                            spilled = tuple(
                                spill.spill(arr, tag=self.name) for arr in seg
                            )
                            handles.extend(spilled)
                            segments[run].append(spilled)
                        else:
                            segments[run].append(seg)
        return segments_a, segments_b

    # -- sizing ---------------------------------------------------------------

    def _chunk_budget(self) -> int | None:
        """Per-phase byte allowance: a quarter of the budget (one run being
        gathered/merged + input chunk + kernel temporaries + slack)."""
        if self.budget.limit is None:
            return None
        return max(self.budget.limit // 4, MIN_CHUNK_BYTES)

    def _chunk_rows(self, chunk_budget: int | None, dims: int) -> int:
        if chunk_budget is None:
            return 1 << 30
        return max(chunk_budget // _replica_bytes(dims), 256)

    def _slab_pairs(self, chunk_budget: int | None, dims: int) -> int:
        if chunk_budget is None:
            return kernels._SLAB_PAIRS
        # A materialized candidate pair costs two gathered boxes plus the
        # overlap corners and index arrays.
        pair_bytes = 6 * dims * 8 + 4 * 8
        return min(kernels._SLAB_PAIRS, max(chunk_budget // pair_bytes, 1 << 12))
