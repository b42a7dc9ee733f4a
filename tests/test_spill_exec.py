"""The out-of-core execution subsystem: budget, spill, external pipelines.

Covers the four pieces of ``repro/exec/`` and their session wiring:

* :class:`MemoryBudget` reservation accounting and telemetry;
* :class:`SpillManager` typed round-trips and partial row reads;
* the ``pbsm_spill`` strategy — exactness against the in-memory oracle
  under budgets that force spilling, planner routing, stats/report feeds
  (small-scale oracle equality for every dataset shape already runs in
  ``test_join_session.py``, which parametrizes over the whole registry);
* the acceptance pin: |A| = |B| = 100k under a budget ≤ 25% of the
  in-memory working set — exact pairs, bounded slowdown, live counters;
* the chunked external STR bulk load on RTree / R*-tree / DiskRTree;
* the QuerySession budget governor (chunked batches, identical results).
"""

from __future__ import annotations

import os
import sys
import threading
import time

import numpy as np
import pytest

from repro.analysis.session_report import join_report, session_report
from repro.exec import (
    BudgetExceeded,
    MemoryBudget,
    SpillManager,
    external_bulk_load,
    pbsm_working_set_bytes,
)
from repro.exec.external_join import SpillPBSMJoin
from repro.geometry.aabb import AABB
from repro.indexes.linear_scan import LinearScan
from repro.indexes.rstar import RStarTree
from repro.indexes.rtree import RTree
from repro.indexes.disk_rtree import DiskRTree
from repro.instrumentation.counters import Counters
from repro.engine.session import QuerySession
from repro.joins import (
    DistanceJoinSpec,
    JoinSession,
    PairJoinSpec,
    SelfJoinSpec,
    make_join_strategy,
)
from repro.joins.session import pair_list

from conftest import make_items, make_queries, tile_objects, tile_objects_recursive


def _sides(n, seed, extent=2.0):
    rng = np.random.default_rng(seed)
    lo = rng.uniform(0.0, 99.0, size=(n, 3))
    hi = np.minimum(lo + rng.uniform(0.05, extent, size=(n, 3)), 100.0)
    return [(eid, AABB(l, h)) for eid, (l, h) in enumerate(zip(lo, hi))]


def _offset(items, offset):
    return [(eid + offset, box) for eid, box in items]


class TestMemoryBudget:
    def test_reserve_release_high_water(self):
        budget = MemoryBudget(1000)
        budget.reserve(600)
        budget.reserve(300)
        assert budget.in_use == 900
        assert budget.available == 100
        budget.release(500)
        assert budget.in_use == 400
        assert budget.high_water == 900
        assert budget.reservations == 2

    def test_try_reserve_denial(self):
        budget = MemoryBudget(100)
        assert budget.try_reserve(80)
        assert not budget.try_reserve(30)
        assert budget.denials == 1
        assert budget.in_use == 80

    def test_reserve_raises_then_force_overcommits(self):
        budget = MemoryBudget(100)
        with pytest.raises(BudgetExceeded):
            budget.reserve(150)
        budget.reserve(150, force=True)
        assert budget.overcommits == 1
        assert budget.in_use == 150
        assert budget.high_water == 150

    def test_unlimited_admits_everything(self):
        budget = MemoryBudget.unlimited()
        assert budget.limit is None
        assert budget.fits(1 << 60)
        budget.reserve(1 << 40)
        assert budget.high_water == 1 << 40
        assert budget.available is None

    def test_reserving_context_releases_on_error(self):
        budget = MemoryBudget(100)
        with pytest.raises(RuntimeError):
            with budget.reserving(50):
                assert budget.in_use == 50
                raise RuntimeError("boom")
        assert budget.in_use == 0
        assert budget.high_water == 50

    def test_reservations_are_atomic_across_threads(self):
        """A serving session's own-flush reserves beside its queue flush:
        a lost update would leave ``in_use`` off zero, and a fit check
        separated from its admission would push ``high_water`` past the
        limit."""
        budget = MemoryBudget(100)
        admitted = [0] * 4  # more threads than the sizing host has cores
        barrier = threading.Barrier(len(admitted))

        def worker(slot: int) -> None:
            barrier.wait(60.0)
            for _ in range(10_000):
                if budget.try_reserve(60):
                    admitted[slot] += 1
                    budget.release(60)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=worker, args=(slot,)) for slot in range(len(admitted))]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(60.0)
            assert not any(thread.is_alive() for thread in threads)
        finally:
            sys.setswitchinterval(interval)
        assert budget.in_use == 0
        assert budget.high_water <= budget.limit
        assert budget.reservations == sum(admitted)
        assert budget.reservations + budget.denials == 40_000

    def test_coerce(self):
        assert MemoryBudget.coerce(None).limit is None
        assert MemoryBudget.coerce(4096).limit == 4096
        original = MemoryBudget(10)
        assert MemoryBudget.coerce(original) is original

    def test_invalid(self):
        with pytest.raises(ValueError):
            MemoryBudget(0)
        budget = MemoryBudget(10)
        with pytest.raises(ValueError):
            budget.reserve(-1)
        with pytest.raises(ValueError):
            budget.release(-1)


class TestSpillManager:
    def test_roundtrip_preserves_dtype_and_shape(self, tmp_path):
        with SpillManager(dir=str(tmp_path)) as spill:
            for array in (
                np.arange(100, dtype=np.int64),
                np.random.default_rng(0).uniform(size=(40, 2, 3)),
                np.zeros((0, 2, 3)),
                np.array([1.5]),
            ):
                handle = spill.spill(array)
                back = spill.read(handle)
                assert back.dtype == array.dtype
                assert back.shape == array.shape
                np.testing.assert_array_equal(back, array)

    def test_read_rows_partial(self, tmp_path):
        array = np.random.default_rng(1).uniform(size=(1000, 2, 3))
        # Tiny pages so row ranges span many pages.
        with SpillManager(dir=str(tmp_path), page_size=512) as spill:
            handle = spill.spill(array)
            for lo, hi in ((0, 1000), (0, 1), (999, 1000), (250, 750), (10, 10)):
                np.testing.assert_array_equal(spill.read_rows(handle, lo, hi), array[lo:hi])
            with pytest.raises(ValueError):
                spill.read_rows(handle, 500, 100)

    def test_counters_charged(self, tmp_path):
        counters = Counters()
        with SpillManager(dir=str(tmp_path), page_size=1024, counters=counters) as spill:
            array = np.arange(1000, dtype=np.float64)  # 8000 bytes -> 8 pages
            handle = spill.spill(array)
            assert counters.tiles_spilled == 1
            assert counters.spill_bytes_written == array.nbytes
            assert counters.pages_written == 8
            spill.read(handle)
            assert counters.spill_bytes_read == array.nbytes
            assert counters.pages_read == 8

    def test_free_releases_pages_for_reuse(self, tmp_path):
        with SpillManager(dir=str(tmp_path), page_size=1024) as spill:
            first = spill.spill(np.arange(512, dtype=np.float64))
            file_bytes = spill.store.file_bytes
            spill.free(first)
            assert spill.live_handles == 0
            second = spill.spill(np.arange(512, dtype=np.float64))
            assert spill.store.file_bytes == file_bytes  # slots reused
            with pytest.raises(ValueError):
                spill.read(first)
            np.testing.assert_array_equal(
                spill.read(second), np.arange(512, dtype=np.float64)
            )

    def test_close_is_idempotent_and_blocks_use(self, tmp_path):
        spill = SpillManager(dir=str(tmp_path))
        spill.spill(np.arange(10))
        spill.close()
        spill.close()
        with pytest.raises(RuntimeError):
            spill.spill(np.arange(10))

    def test_owned_tmpdir_removed_on_close(self):
        spill = SpillManager()
        path = spill.dir
        assert os.path.isdir(path)
        spill.close()
        assert not os.path.exists(path)

    def test_managers_sharing_a_dir_do_not_clobber_each_other(self, tmp_path):
        # Regression: a fixed spill file name + "w+b" open meant a second
        # manager in the same directory truncated the first's live file.
        first = SpillManager(dir=str(tmp_path))
        array = np.random.default_rng(7).uniform(size=(500, 2, 3))
        handle = first.spill(array)
        second = SpillManager(dir=str(tmp_path))
        second.spill(np.zeros(4096))
        np.testing.assert_array_equal(first.read(handle), array)
        first.close()
        second.close()
        assert os.listdir(tmp_path) == []


class TestSpillPBSMJoin:
    def test_unlimited_budget_never_spills(self):
        items_a = _sides(500, seed=10)
        items_b = _offset(_sides(500, seed=11), 10_000)
        counters = Counters()
        strategy = make_join_strategy("pbsm_spill")
        pairs = pair_list(strategy.join(items_a, items_b, counters))
        oracle = Counters()
        expected = pair_list(make_join_strategy("pbsm").join(items_a, items_b, oracle))
        assert pairs == expected
        assert counters.tiles_spilled == 0
        assert counters.spill_bytes_written == 0

    def test_tiny_budget_spills_and_stays_exact(self):
        items_a = _sides(1200, seed=12)
        items_b = _offset(_sides(1100, seed=13), 10_000)
        counters = Counters()
        strategy = make_join_strategy("pbsm_spill", budget=200_000)
        pairs = pair_list(strategy.join(items_a, items_b, counters))
        expected = pair_list(make_join_strategy("pbsm").join(items_a, items_b, Counters()))
        assert pairs == expected
        assert counters.tiles_spilled > 0
        assert counters.spill_bytes_written > 0
        assert counters.spill_bytes_read == counters.spill_bytes_written

    def test_session_routes_oversized_specs_to_spill(self):
        items_a = _sides(1500, seed=14)
        items_b = _offset(_sides(1500, seed=15), 10_000)
        small_a, small_b = items_a[:100], items_b[:100]
        with JoinSession(budget=150_000) as session:
            pairs = session.run(PairJoinSpec(items_a, items_b))
            session.run(PairJoinSpec(small_a, small_b))
            assert session.stats.strategy_runs.get("pbsm_spill") == 1
            # The small spec stayed on an in-memory strategy.
            assert sum(session.stats.strategy_runs.values()) == 2
            assert session.stats.strategy_runs.get("pbsm_spill", 0) == 1
            expected = pair_list(
                make_join_strategy("pbsm").join(items_a, items_b, Counters())
            )
            assert pairs == expected
            assert session.stats.tiles_spilled > 0
            assert session.stats.spill_bytes_written > 0
            assert session.stats.budget_high_water > 0
            report = join_report(session)
            assert "spill:" in report
            assert "budget-high-water" in report
            spill_dir = session.spill_manager().dir
            assert os.path.isdir(spill_dir)
        assert not os.path.exists(spill_dir)

    def test_self_join_through_session_budget(self):
        items = _sides(1400, seed=16)
        with JoinSession(budget=150_000) as session:
            pairs = session.run(SelfJoinSpec(items))
        expected = pair_list(make_join_strategy("pbsm").self_join(items, Counters()))
        assert pairs == expected

    def test_per_spec_pin_by_name(self):
        items_a = _sides(300, seed=17)
        items_b = _offset(_sides(300, seed=18), 10_000)
        session = JoinSession()
        pairs = session.run(PairJoinSpec(items_a, items_b), strategy="pbsm_spill")
        expected = pair_list(make_join_strategy("pbsm").join(items_a, items_b, Counters()))
        assert pairs == expected
        assert session.stats.strategy_runs == {"pbsm_spill": 1}

    def test_error_path_leaves_no_spill_files(self, tmp_path, monkeypatch):
        from repro.joins import kernels

        items_a = _sides(1200, seed=19)
        items_b = _offset(_sides(1200, seed=20), 10_000)

        def explode(*args, **kwargs):
            raise RuntimeError("merge kernel down")

        monkeypatch.setattr(kernels, "replica_tile_pairs", explode)
        strategy = SpillPBSMJoin(budget=150_000, spill_dir=str(tmp_path))
        with pytest.raises(RuntimeError, match="merge kernel down"):
            strategy.join(items_a, items_b, Counters())
        # The per-join manager tore down its file even though the join died.
        assert os.listdir(tmp_path) == []

    def test_error_on_shared_manager_frees_every_handle(self, monkeypatch):
        # Regression: with a session-shared SpillManager a mid-merge error
        # used to leak every not-yet-consumed run's pages until close().
        from repro.joins import kernels

        items_a = _sides(1200, seed=21)
        items_b = _offset(_sides(1200, seed=22), 10_000)

        def explode(*args, **kwargs):
            raise RuntimeError("merge kernel down")

        monkeypatch.setattr(kernels, "replica_tile_pairs", explode)
        with SpillManager() as shared:
            strategy = SpillPBSMJoin(budget=150_000, spill=shared)
            with pytest.raises(RuntimeError, match="merge kernel down"):
                strategy.join(items_a, items_b, Counters())
            assert shared.live_handles == 0  # pages released for reuse


class TestSpillAcceptance:
    """The ISSUE 5 acceptance pin at |A| = |B| = 100k."""

    def test_100k_quarter_budget_exact_and_bounded(self):
        n = 100_000
        items_a = _sides(n, seed=30, extent=1.0)
        items_b = _offset(_sides(n, seed=31, extent=1.0), 1_000_000)

        memory = JoinSession(strategy="pbsm")
        start = time.perf_counter()
        expected = memory.run(PairJoinSpec(items_a, items_b))
        memory_time = time.perf_counter() - start

        working_set = pbsm_working_set_bytes(n, n)
        budget = working_set // 4
        with JoinSession(budget=budget) as session:
            start = time.perf_counter()
            pairs = session.run(PairJoinSpec(items_a, items_b))
            spill_time = time.perf_counter() - start

            assert pairs == expected
            assert session.stats.strategy_runs == {"pbsm_spill": 1}
            # Spill counters are live and rendered.
            assert session.stats.tiles_spilled > 0
            assert session.stats.spill_bytes_written > 0
            assert session.stats.spill_bytes_read > 0
            assert session.stats.budget_high_water > 0
            report = join_report(session)
            assert "spill: tiles=" in report
        # Within 5x of the in-memory vectorized PBSM (typically ~1.5-2.5x).
        assert spill_time <= 5.0 * max(memory_time, 1e-9), (
            f"spilling PBSM took {spill_time:.2f}s vs {memory_time:.2f}s in memory"
        )


class TestExternalBuild:
    @pytest.fixture(scope="class")
    def workload(self):
        items = make_items(4000, seed=40)
        queries = make_queries(60, seed=41)
        oracle = LinearScan()
        oracle.bulk_load(items)
        expected = [sorted(oracle.range_query(q)) for q in queries]
        return items, queries, expected

    @pytest.mark.parametrize("cls", [RTree, RStarTree, DiskRTree])
    def test_budgeted_build_answers_like_oracle(self, cls, workload):
        items, queries, expected = workload
        tree = cls()
        # Streaming input + a budget far below the entry arrays: must spill.
        tree.bulk_load_external(iter(items), budget=64_000)
        assert len(tree) == len(items)
        assert tree.counters.spill_bytes_written > 0
        got = [sorted(tree.range_query(q)) for q in queries]
        assert got == expected

    @pytest.mark.parametrize("cls", [RTree, DiskRTree])
    def test_unbudgeted_build_matches_and_never_spills(self, cls, workload):
        items, queries, expected = workload
        tree = cls()
        tree.bulk_load_external(items)
        assert tree.counters.spill_bytes_written == 0
        got = [sorted(tree.range_query(q)) for q in queries]
        assert got == expected

    @pytest.mark.parametrize("cls", [RTree, DiskRTree])
    def test_empty_build_resets(self, cls):
        tree = cls()
        tree.bulk_load_external([], budget=64_000)
        assert len(tree) == 0
        assert tree.range_query(AABB((0, 0, 0), (100, 100, 100))) == []

    def test_generic_dispatch(self, workload):
        items, queries, expected = workload
        tree = RTree()
        external_bulk_load(tree, items, budget=64_000)
        assert [sorted(tree.range_query(q)) for q in queries] == expected
        with pytest.raises(TypeError, match="external bulk load"):
            external_bulk_load(LinearScan(), items, budget=64_000)

    def test_streaming_validation_matches_bulk_load(self):
        # bulk_load_external validates while streaming: same errors as the
        # materializing validate_items path.
        good = make_items(50, seed=42)
        with pytest.raises(ValueError, match="duplicate element id"):
            RTree().bulk_load_external(good + [good[0]], budget=64_000)
        mixed = good + [(999, AABB((0.0, 0.0), (1.0, 1.0)))]
        with pytest.raises(ValueError, match="dims"):
            RTree().bulk_load_external(mixed, budget=64_000)

    @pytest.mark.parametrize("kind", ["nan", "inf", "-inf"])
    @pytest.mark.parametrize("budget", [None, 64_000])
    @pytest.mark.parametrize(
        "make",
        [
            pytest.param(lambda: RTree(max_entries=8), id="rtree"),
            pytest.param(lambda: DiskRTree(max_entries=8), id="disk-memory"),
            pytest.param(lambda: DiskRTree(max_entries=8, mapped=True), id="disk-file"),
        ],
    )
    def test_non_finite_box_is_refused_and_the_tree_kept(self, make, budget, kind):
        # A NaN carried into a parent MBR cut its subtree off from every
        # query: the packer refuses the chunk with bulk_load's message, and
        # the tree built before still answers in full.
        bad = {"nan": float("nan"), "inf": float("inf"), "-inf": float("-inf")}[kind]
        items = make_items(400, seed=27)
        box = items[123][1]
        items[123] = (123, AABB((box.lo[0], bad, box.lo[2]), (box.hi[0], bad, box.hi[2])))
        tree = make()
        try:
            tree.bulk_load(make_items(300, seed=26))
            with pytest.raises(ValueError, match="box coordinates must be finite"):
                tree.bulk_load_external(iter(items), budget=budget)
            universe = AABB((0.0, 0.0, 0.0), (100.0, 100.0, 100.0))
            assert sorted(tree.range_query(universe)) == list(range(300))
        finally:
            if isinstance(tree, DiskRTree):
                tree.close()

    def test_budget_high_water_tracked(self, workload):
        items, _, _ = workload
        budget = MemoryBudget(64_000)
        tree = RTree()
        tree.bulk_load_external(items, budget=budget)
        assert budget.high_water > 0
        assert budget.in_use == 0  # every phase released what it reserved


class TestQuerySessionBudget:
    def test_chunked_batches_answer_identically(self):
        items = make_items(3000, seed=50)
        index = RTree()
        index.bulk_load(items)
        queries = make_queries(200, seed=51)
        free = QuerySession(index)
        governed = QuerySession(index, budget=8192)
        expected = free.range_query(queries)
        got = governed.range_query(queries)
        assert [sorted(r) for r in got] == [sorted(r) for r in expected]
        assert governed.stats.batch.budget_chunks > 1
        assert governed.stats.batch.budget_high_water > 0
        report = session_report(governed)
        assert "budget-high-water" in report

    def test_chunked_knn_is_identical(self):
        items = make_items(2000, seed=52)
        index = RTree()
        index.bulk_load(items)
        points = np.random.default_rng(53).uniform(0, 100, size=(300, 3))
        free = QuerySession(index)
        governed = QuerySession(index, budget=4096)
        assert governed.knn(points, k=5) == free.knn(points, k=5)
        assert governed.stats.batch.budget_chunks > 1

    def test_unbudgeted_session_reports_no_spill_line(self):
        items = make_items(500, seed=54)
        index = RTree()
        index.bulk_load(items)
        session = QuerySession(index)
        session.range_query(make_queries(20, seed=55))
        assert "spill:" not in session_report(session)


class TestSpillJoinRuns:
    """The spill join's runs merge one at a time in the session's process.

    A tile lives in exactly one run and the reference-point dedup is global,
    so merging the runs of a :meth:`SpillPBSMJoin.plan_tile_runs` plan one
    by one must reproduce :meth:`SpillPBSMJoin.join` **bit-identically**
    (same order, not just same set), and a budgeted session — which reads
    every run back as zero-copy views of its spill file — must equal the
    ``block_nested`` oracle for every spec kind.
    """

    #: Both force >= 2 runs at these sizes: three runs, then two.
    BUDGETS = [150_000, 400_000]

    def _oracle(self, spec):
        with JoinSession(strategy="block_nested") as oracle:
            return oracle.run(spec)

    def _budgeted(self, spec, budget):
        with JoinSession(budget=budget) as session:
            pairs = session.run(spec)
            assert session.stats.strategy_runs == {"pbsm_spill": 1}
            assert session.stats.tiles_spilled > 0
            assert session.stats.zero_copy_reads > 0
            assert session.stats.mapped_bytes > 0
            report = join_report(session)
        assert "mapped:" in report
        return pairs

    @pytest.mark.parametrize("budget", BUDGETS)
    def test_runs_merged_one_by_one_equal_the_join(self, budget):
        items_a = _sides(1200, seed=60)
        items_b = _offset(_sides(1100, seed=61), 10_000)
        strategy = SpillPBSMJoin(budget=budget)
        join_counters = Counters()
        expected = strategy.join(items_a, items_b, join_counters)
        counters = Counters()
        plan = strategy.plan_tile_runs(items_a, items_b, counters)
        try:
            assert plan.runs >= 2  # the regime under test
            merged = [plan.merge_inline(run, counters) for run in range(plan.runs)]
        finally:
            plan.release()
        got = np.stack([np.concatenate(side) for side in zip(*merged)], axis=1)
        assert got.tolist() == expected.tolist()  # identical order, not just set
        assert counters.spill_bytes_read == join_counters.spill_bytes_read

    @pytest.mark.parametrize("budget", BUDGETS)
    def test_pair_join_equals_block_nested(self, budget):
        items_a = _sides(1500, seed=66)
        items_b = _offset(_sides(1500, seed=67), 10_000)
        spec = PairJoinSpec(items_a, items_b)
        assert self._budgeted(spec, budget) == self._oracle(spec)

    @pytest.mark.parametrize("budget", BUDGETS)
    def test_self_join_equals_block_nested(self, budget):
        spec = SelfJoinSpec(_sides(1400, seed=62))
        assert self._budgeted(spec, budget) == self._oracle(spec)

    @pytest.mark.parametrize("budget", BUDGETS)
    def test_distance_join_equals_block_nested(self, budget):
        spec = DistanceJoinSpec(_sides(1200, seed=63), None, 1.5)
        assert self._budgeted(spec, budget) == self._oracle(spec)

    @pytest.mark.parametrize("budget", BUDGETS)
    def test_distance_pair_join_equals_block_nested(self, budget):
        items_a = _sides(1200, seed=68)
        items_b = _offset(_sides(1100, seed=69), 10_000)
        spec = DistanceJoinSpec(items_a, items_b, 1.5)
        assert self._budgeted(spec, budget) == self._oracle(spec)

    def test_one_run_working_set_plans_none(self):
        # A budget the working set fits in one run declines the plan just
        # as no budget does, and the join answers without spilling.
        items_a = _sides(1200, seed=60)
        items_b = _offset(_sides(1100, seed=61), 10_000)
        strategy = SpillPBSMJoin(budget=4 * pbsm_working_set_bytes(1200, 1100))
        assert strategy.plan_tile_runs(items_a, items_b, Counters()) is None
        counters = Counters()
        got = strategy.join(items_a, items_b, counters)
        assert pair_list(got) == pair_list(
            make_join_strategy("pbsm").join(items_a, items_b, Counters())
        )
        assert counters.tiles_spilled == counters.spill_bytes_written == 0

    def test_resident_joins_plan_none(self):
        # Below-budget inputs never spill: plan_tile_runs declines and the
        # strategy answers in memory.
        items_a = _sides(200, seed=64)
        items_b = _offset(_sides(200, seed=65), 10_000)
        strategy = SpillPBSMJoin(budget=None)
        assert strategy.plan_tile_runs(items_a, items_b, Counters()) is None
        counters = Counters()
        got = strategy.join(items_a, items_b, counters)
        assert pair_list(got) == pair_list(
            make_join_strategy("pbsm").join(items_a, items_b, Counters())
        )
        assert counters.tiles_spilled == 0


# -- the array-native build packs the object pipeline's tree -------------------


def _reference_leaf_groups(items, max_entries, budget):
    """The external STR leaf stream restated over ``AABB`` objects: chunked
    runs sorted by first-axis centre, a stable global merge, slabs gathered
    run by run, each finished by the object tiler.  Kept as the reference
    the array pipeline is compared against, never called by the library.
    Returns ``(leaf groups, run count, slab count)``."""
    from repro.exec.external_build import MIN_CHUNK_BYTES, _entry_bytes, _slab_rows
    n, dims = len(items), items[0][1].dims
    chunk_budget = chunk_rows = None
    if budget is not None:
        chunk_budget = max(budget // 4, MIN_CHUNK_BYTES)
        chunk_rows = max(chunk_budget // _entry_bytes(dims), max_entries)

    def key(item):
        return (item[1].lo[0] + item[1].hi[0]) * 0.5

    runs = [
        sorted(items[start : start + (chunk_rows or n)], key=key)
        for start in range(0, n, chunk_rows or n)
    ]
    merged = sorted(
        ((r, row) for r, run in enumerate(runs) for row in range(len(run))),
        key=lambda at: key(runs[at[0]][at[1]]),
    )
    slab = _slab_rows(n, dims, max_entries, chunk_budget)
    groups = []
    for p0 in range(0, n, slab):
        entries = [
            (runs[r][row][1], runs[r][row][0]) for r, row in sorted(merged[p0 : p0 + slab])
        ]
        tile_objects_recursive(entries, min(1, dims - 1), dims, max_entries, groups)
    return groups, len(runs), -(-n // slab)


def _reference_page_file(leaf_groups, dims, max_entries, page_size):
    """Encode a packed tree the way mapped mode lays it out, from object
    groups: ``int64 [is_leaf, count]``, ``float64`` boxes, ``int64`` refs,
    one zero-padded page per node, leaves first, each level in tile order."""
    import struct

    from repro.geometry.aabb import union_all

    pages = []

    def allocate(is_leaf, group):
        record = struct.pack("<2q", int(is_leaf), len(group))
        for box, _ in group:
            record += struct.pack(f"<{2 * dims}d", *box.lo, *box.hi)
        record += struct.pack(f"<{len(group)}q", *(ref for _, ref in group))
        pages.append(record.ljust(page_size, b"\0"))
        return union_all(box for box, _ in group), len(pages) - 1

    level = [allocate(True, group) for group in leaf_groups]
    while len(level) > 1:
        level = [allocate(False, group) for group in tile_objects(level, dims, max_entries)]
    return b"".join(pages)


def _page_file(tree):
    with open(tree.store.path, "rb") as handle:
        data = handle.read()
    return data.ljust(len(tree.store) * tree.store.page_size, b"\0")


class TestMappedBuildByteIdentity:
    """ISSUE 15: the mapped build is arrays from spill file to page file and
    still writes, byte for byte, the file the object pipeline would have."""

    MAX_ENTRIES = 16
    TIGHT = 200_000  # 12 runs, and slabs the budget halves (see the assert)

    @pytest.fixture(scope="class")
    def items(self):
        # Half-unit coordinates: tied centres and duplicate boxes, so the
        # stable tie-breaks (run-major gather order) are part of the pin.
        rng = np.random.default_rng(150)
        lo = np.round(rng.uniform(0.0, 60.0, size=(12_000, 3)) * 2.0) / 2.0
        hi = lo + np.round(rng.uniform(0.0, 2.0, size=(12_000, 3)) * 2.0) / 2.0
        return [(eid, AABB(l, h)) for eid, (l, h) in enumerate(zip(lo.tolist(), hi.tolist()))]

    def _expected(self, items, budget):
        groups, runs, slabs = _reference_leaf_groups(items, self.MAX_ENTRIES, budget)
        return _reference_page_file(groups, 3, self.MAX_ENTRIES, 4096), (runs, slabs)

    def _built(self, items, **kwargs):
        tree = DiskRTree(max_entries=self.MAX_ENTRIES, mapped=True)
        try:
            tree.bulk_load_external(iter(items), **kwargs)
            return _page_file(tree), tree.counters
        finally:
            tree.close()

    def test_unbudgeted_build_is_the_object_tilers_file(self, items):
        expected, (runs, _) = self._expected(items, None)
        assert runs == 1
        built, counters = self._built(items)
        assert counters.spill_bytes_written == 0
        assert built == expected

    def test_tight_budget_build_is_the_object_tilers_file(self, items):
        expected, (runs, slabs) = self._expected(items, self.TIGHT)
        # The budget is felt twice: many runs to merge, and first-axis
        # slabs cut finer than STR's own (a different tree than unbudgeted).
        assert runs > 2 and slabs > 10
        assert expected != self._expected(items, None)[0]
        built, counters = self._built(items, budget=self.TIGHT)
        assert counters.spill_bytes_written > 0
        assert built == expected

    def test_bulk_load_equals_unbudgeted_external_build(self, items):
        external, _ = self._built(items)
        tree = DiskRTree(max_entries=self.MAX_ENTRIES, mapped=True)
        try:
            tree.bulk_load(items)
            assert _page_file(tree) == external
        finally:
            tree.close()

    @pytest.mark.parametrize("dims", [1, 2])
    def test_low_dimensional_builds(self, dims):
        rng = np.random.default_rng(151 + dims)
        lo = np.round(rng.uniform(0.0, 300.0, size=(3000, dims)))
        hi = lo + np.round(rng.uniform(0.0, 3.0, size=(3000, dims)))
        items = [(eid, AABB(l, h)) for eid, (l, h) in enumerate(zip(lo.tolist(), hi.tolist()))]
        for budget in (None, 70_000):
            groups, _, _ = _reference_leaf_groups(items, 8, budget)
            tree = DiskRTree(max_entries=8, mapped=True)
            try:
                tree.bulk_load_external(iter(items), budget=budget)
                assert _page_file(tree) == _reference_page_file(groups, dims, 8, 4096)
            finally:
                tree.close()

    def test_adapter_streams_the_same_groups_as_objects(self, items):
        from repro.exec.external_build import external_leaf_groups

        got = list(external_leaf_groups(iter(items), self.MAX_ENTRIES, self.TIGHT))
        assert got == _reference_leaf_groups(items, self.MAX_ENTRIES, self.TIGHT)[0]
        assert all(type(eid) is int for group in got for _, eid in group)
