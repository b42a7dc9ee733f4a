"""Workload ``out_of_core``: joins, builds and queries that do not fit.

Two sets of uniform boxes (the legacy ``bench_spill_joins`` geometry).  Each
round, every part timed on its own:

(a) a pair join through a ``JoinSession`` whose budget is a quarter of the
    in-memory PBSM working set, so the planner must spill — sequential spill
    write, then read;
(b) an external (budget-bounded) STR build of a mapped ``DiskRTree`` —
    write-heavy page allocation;
(c) a batch of windows through ``QuerySession(disk_tree)``;
(d) scalar ``disk_tree.range_query`` calls, each timed — random page reads
    through a ``BufferPool`` ~28x smaller than the tree.

``exec`` + ``storage`` (+ ``indexes``) do most of the work.  Write cost, read
cost and space are all reported, so a gain for one use that costs another
shows.  ``serving`` and ``continuous`` do none.
"""

from __future__ import annotations

import time

import numpy as np

import harness
from repro import AABB, DiskRTree, JoinSession, LinearScan, PairJoinSpec, QuerySession
from repro.exec import MemoryBudget, SpillManager, pbsm_working_set_bytes, str_build_working_set_bytes
from repro.exec.budget import item_array_bytes
from repro.exec.external_build import external_leaf_groups
from repro.exec.external_join import SpillPBSMJoin
from repro.instrumentation.counters import Counters

SCALES = {
    # buffer_pages keeps the pool ~28x smaller than the tree at this n.
    "full": dict(n=40_000, batch_windows=4000, scalar_queries=500, buffer_pages=24,
                 rounds=3, traced_rounds=4),
    "quick": dict(n=4_000, batch_windows=400, scalar_queries=100, buffer_pages=4,
                  rounds=2, traced_rounds=2),
}
SIDE = 100.0
WINDOW = 2.0
BUDGET_SHARE = 4  # join budget = working set / 4
BUILD_BUDGET_SHARE = 8  # build budget = in-memory STR working set / 8
FIT_PAGES = 4096  # the contrast tree: pool larger than the tree
ORACLE_QUERIES = 64
PAGE_PROBES = 2000


class OutOfCore:
    name = "out_of_core"

    def __init__(self, scale: str, seed: int) -> None:
        self.cfg = SCALES[scale]
        self.seed = seed
        self.tree: DiskRTree | None = None

    # -- set-up ----------------------------------------------------------------

    def setup(self) -> None:
        n = self.cfg["n"]
        rng = harness.stream(self.seed, 1)
        lo, hi = harness.uniform_box_arrays(rng, 2 * n, SIDE, 0.05, 1.0)
        items = harness.make_items(lo, hi)
        self.side_a, self.side_b = items[:n], items[n:]
        self.spec = PairJoinSpec(self.side_a, self.side_b)
        self.join_budget = pbsm_working_set_bytes(n, n) // BUDGET_SHARE
        self.build_budget = str_build_working_set_bytes(n) // BUILD_BUDGET_SHARE
        self.query_rng = harness.stream(self.seed, 2)
        # Warm-up: one reduced round (an eighth of the data) through every
        # code path — imports, first spill file, first mapped page file.
        slice_a, slice_b = self.side_a[: n // 8], self.side_b[: n // 8]
        with JoinSession(budget=pbsm_working_set_bytes(n // 8, n // 8) // BUDGET_SHARE) as session:
            session.run(PairJoinSpec(slice_a, slice_b))
        tree = self._new_tree(self.cfg["buffer_pages"])
        try:
            tree.bulk_load_external(iter(slice_a), budget=self.build_budget // 8)
            QuerySession(tree).range_query(self._windows(64))
            tree.range_query(AABB((1.0,) * 3, (3.0,) * 3))
        finally:
            tree.close()
        self.round = 0
        self.last = None
        self.join_stats = None

    def teardown(self) -> None:
        if self.tree is not None:
            self.tree.close()
            self.tree = None

    def _new_tree(self, buffer_pages: int) -> DiskRTree:
        return DiskRTree(mapped=True, buffer_pages=buffer_pages)

    def _windows(self, count: int) -> np.ndarray:
        return harness.window_array(self.query_rng, count, SIDE, WINDOW)

    # -- the timed parts -------------------------------------------------------------

    def _spill_join(self) -> list:
        with JoinSession(budget=self.join_budget) as session:
            pairs = session.run(self.spec)
            self.join_stats = session.stats
        return pairs

    def _ext_build(self) -> DiskRTree:
        tree = self._new_tree(self.cfg["buffer_pages"])
        self.tree = tree
        tree.bulk_load_external(iter(self.side_a), budget=self.build_budget)
        return tree

    def _scalar_queries(self, run: harness.Run, tree: DiskRTree, boxes: list,
                        span: str) -> tuple[list[float], list]:
        times, answers = [], []
        for box in boxes:
            elapsed, answer = run.timed(span, tree.range_query, box)
            times.append(elapsed)
            answers.append(answer)
        return times, answers

    def measure(self, run: harness.Run, rounds: int, guard: float | None = None) -> dict:
        cfg = self.cfg
        round_s: list[float] = []
        for _ in range(rounds):
            if guard is not None and time.perf_counter() > guard:
                break
            windows = self._windows(cfg["batch_windows"])
            scalar = self._windows(cfg["scalar_queries"])
            boxes = [AABB(l, h) for l, h in zip(scalar[:, 0].tolist(), scalar[:, 1].tolist())]
            self.teardown()  # the previous round's tree (untimed)

            with run.rec.span("round", op=self.round):
                t_join, pairs = run.timed("exec.spill_join", self._spill_join)
                t_build, tree = run.timed("indexes.ext_build", self._ext_build)
                session = QuerySession(tree)
                t_batch, batch_hits = run.timed("indexes.disk_batch", session.range_query, windows)
                before = tree.counters.snapshot()
                hits_before, misses_before = tree.pool.hits, tree.pool.misses
                with run.rec.span("indexes.disk_queries"):
                    query_s, answers = self._scalar_queries(run, tree, boxes, "indexes.disk_query")
                delta = tree.counters.diff(before)
            t_scalar = sum(query_s)
            run.samples.setdefault("disk_query", []).extend(query_s)
            run.sample("spill_join", t_join)
            run.sample("ext_build", t_build)
            run.sample("disk_batch", t_batch)
            run.sample("disk_scalar", t_scalar)
            round_s.append(t_join + t_build + t_batch + t_scalar)
            pool_hits, pool_misses = tree.pool.hits - hits_before, tree.pool.misses - misses_before
            self.last = {
                "pairs": pairs, "windows": windows, "batch_hits": batch_hits,
                "scalar": scalar, "answers": answers, "boxes": boxes,
                "pages_read": delta.pages_read, "node_tests": delta.node_tests,
                "pool_hits": pool_hits, "pool_misses": pool_misses,
            }
            self.round += 1
        return {"round_s": round_s, "mean_parts": [(round_s, 1.0)]}

    def op_metrics(self, samples: dict) -> dict:
        queries = samples.get("disk_query", [])
        return {
            "spill_join_p50_ms": samples.get("spill_join", []),
            "ext_build_p50_ms": samples.get("ext_build", []),
            "disk_query_p50_ms": queries,
            "disk_query_p99_ms": queries,
        }

    # -- differential replay (traced runs only) -----------------------------------

    def layers(self, run: harness.Run) -> tuple[dict, dict]:
        cfg, last, stats = self.cfg, self.last, self.join_stats
        n = cfg["n"]
        med = run.median_ms
        input_bytes = item_array_bytes(2 * n)
        with run.rec.span("replay"):
            # exec: the spill join's two phases, called one layer below the session.
            strategy = SpillPBSMJoin(budget=MemoryBudget(self.join_budget))
            counters = Counters()
            t_partition, plan = run.timed(
                "replay.exec.partition", strategy.plan_tile_runs, self.side_a, self.side_b, counters)
            t_merge = 0.0
            try:
                for tile_run in range(plan.runs):
                    t_merge += run.timed("replay.exec.merge", plan.merge_inline, tile_run, counters)[0]
            finally:
                plan.release()
            with JoinSession(strategy="pbsm") as memory:
                t_memory, _ = run.timed("replay.joins.pbsm", memory.run, self.spec)

            # storage: raw spill traffic with step (a)'s tile count and mean tile size.
            tile_rows = max(stats.spill_bytes_written // max(stats.tiles_spilled, 1) // 8, 1)
            tile = np.arange(tile_rows, dtype=np.float64)
            with SpillManager() as spill:
                t_write, handles = run.timed(
                    "replay.storage.spill_write",
                    lambda: [spill.spill(tile) for _ in range(stats.tiles_spilled)])
                t_read, _ = run.timed(
                    "replay.storage.spill_read",
                    lambda: [float(spill.read(handle)[-1]) for handle in handles])
            traffic_mb = tile.nbytes * stats.tiles_spilled / 1e6

            # storage: page reads through the tree's own (too small) pool.
            tree = self.tree
            page_ids = tree.store.page_ids()
            rng = harness.stream(self.seed, 3)
            random_ids = rng.choice(page_ids, size=PAGE_PROBES).tolist()
            tree.pool.clear()
            t_miss, _ = run.timed(
                "replay.storage.page_miss", lambda: [tree.pool.read_view(p) for p in random_ids])
            hot = page_ids[0]
            tree.pool.read_view(hot)
            t_hit, _ = run.timed(
                "replay.storage.page_hit", lambda: [tree.pool.read_view(hot) for _ in random_ids])
            space_amp = tree.store.file_bytes / item_array_bytes(n)

            # exec vs indexes inside the build: the leaf-group stream alone.
            t_groups, _ = run.timed(
                "replay.exec.leaf_groups",
                lambda: sum(len(group) for group in external_leaf_groups(
                    iter(self.side_a), tree.max_entries, budget=self.build_budget)))

            # the contrast case: the same scalar queries when the pool fits the tree.
            fit = self._new_tree(FIT_PAGES)
            try:
                fit.bulk_load_external(iter(self.side_a), budget=self.build_budget)
                self._scalar_queries(run, fit, last["boxes"], "replay.storage.fit_warm")
                fit_s, _ = self._scalar_queries(run, fit, last["boxes"], "replay.storage.fit_query")
            finally:
                fit.close()

        queries = cfg["scalar_queries"]
        miss_us = t_miss / PAGE_PROBES * 1e6
        hit_us = t_hit / PAGE_PROBES * 1e6
        spill_ms = med("spill_join")
        out = {
            "exec.partition_ms": t_partition * 1e3,
            "exec.merge_ms": t_merge * 1e3,
            "exec.spill_slowdown": spill_ms / (t_memory * 1e3),
            "exec.tiles_spilled": stats.tiles_spilled,
            "exec.spill_bytes_written": stats.spill_bytes_written,
            "exec.spill_bytes_read": stats.spill_bytes_read,
            "exec.write_amp": stats.spill_bytes_written / input_bytes,
            "exec.budget_high_water": stats.budget_high_water,
            "storage.spill_write_mbps": traffic_mb / t_write,
            "storage.spill_read_mbps": traffic_mb / t_read,
            "storage.pool_hit_rate": last["pool_hits"] / max(last["pool_hits"] + last["pool_misses"], 1),
            "storage.pages_read_per_query": last["pages_read"] / queries,
            "storage.page_miss_us": miss_us,
            "storage.page_hit_us": hit_us,
            "storage.fit_query_ms": harness.median_ms(fit_s),
            "storage.space_amp": space_amp,
            "indexes.disk_node_tests_per_query": last["node_tests"] / queries,
        }
        # Layer split of one round.  Spill traffic inside (a) and page reads
        # inside (c)+(d) are storage; partition/merge compute and the build's
        # leaf-group stream are exec; what is left of build and queries is
        # the disk tree itself (indexes); the session wrapper is joins.
        join_storage = (t_write + t_read) * 1e3
        page_ms = (last["pool_misses"] * miss_us + last["pool_hits"] * hit_us) / 1e3
        page_ms = min(page_ms, med("disk_scalar"))
        exec_join = max((t_partition + t_merge) * 1e3 - join_storage, 0.0)
        per_round = {
            "exec": exec_join + t_groups * 1e3,
            "storage": join_storage + page_ms,
            "indexes": max(med("ext_build") - t_groups * 1e3, 0.0)
            + max(med("disk_scalar") - page_ms, 0.0) + med("disk_batch"),
            "joins": max(spill_ms - (t_partition + t_merge) * 1e3, 0.0),
        }
        return out, per_round

    # -- oracles --------------------------------------------------------------------

    def verify(self, run: harness.Run) -> None:
        last = self.last
        with JoinSession(strategy="pbsm") as memory:
            expected = memory.run(self.spec)
        run.check("spill pair list == in-memory pbsm pair list", last["pairs"] == expected)
        oracle = LinearScan()
        oracle.bulk_load(self.side_a)
        rows = np.linspace(0, len(last["scalar"]) - 1, ORACLE_QUERIES).astype(int)
        for row, want in zip(rows.tolist(), oracle.batch_range_query(last["scalar"][rows])):
            got = last["answers"][row]
            run.check(f"disk scalar query {row}", got is not None and sorted(got) == sorted(want))
        rows = np.linspace(0, len(last["windows"]) - 1, ORACLE_QUERIES).astype(int)
        for row, want in zip(rows.tolist(), oracle.batch_range_query(last["windows"][rows])):
            got = last["batch_hits"][row] if last["batch_hits"] is not None else None
            run.check(f"disk batch window {row}", got is not None and sorted(got) == sorted(want))
