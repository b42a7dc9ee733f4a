"""Workload ``serve_mixed``: steered-simulation serving on a read-only grid.

One static ``UniformGrid`` behind one ``ServingSession`` (default
``FlushPolicy``, a two-worker ``WorkerPool``).  Two concurrent closed-loop
client coroutines in one load-generator process, no generator threads:

* **dash** — one round is a dashboard frame: 32 single ``range_query`` plus
  8 single ``knn(k=8)`` awaited together, no think time;
* **bulk** — 4096-window arrays through ``query_executor.submit_ranges``
  with 50 ms think time, until dash stops.  It is the only traffic large
  enough to shard onto the pool, and its flushes head-of-line-block frames.

Kernel time is a minority of a frame, so ``serving`` + ``engine`` per-request
overhead dominates.  Same grid as ``sim_step`` but read-only: a read-path
gain that taxes updates shows as one workload up, one down.
"""

from __future__ import annotations

import asyncio
import os
import threading
import time
from typing import NamedTuple

import numpy as np

import harness
from repro import (
    AABB,
    KNNQuery,
    LinearScan,
    QuerySession,
    RangeQuery,
    ServingSession,
    ShardedExecutor,
    UniformGrid,
    WorkerPool,
)

SCALES = {
    # ``rounds`` dash frames per measured slice.
    "full": dict(n=100_000, rounds=450, traced_rounds=1000, replay_frames=300,
                 bulk_windows=4096),
    "quick": dict(n=8_000, rounds=40, traced_rounds=60, replay_frames=30,
                  bulk_windows=1024),
}
SIDE = 100.0
WINDOW = 2.0
FRAME_RANGES = 32
FRAME_KNNS = 8
K = 8
THINK_S = 0.05
FRAME_POOL = 1024  # distinct frames generated per run; the dash client cycles them
BULK_POOL = 8
ORACLE_FRAMES = 5  # x 40 answers = the 200-response sample
POOL_BATCH_REPS = 5


class Frame(NamedTuple):
    """One dashboard frame, as request values and as kernel/oracle arrays."""

    boxes: list  # 32 AABB windows
    points: list  # 8 kNN probe tuples
    windows: np.ndarray  # the same windows, (32, 2, 3)
    probes: np.ndarray  # the same probes, (8, 3)


class ServeMixed:
    name = "serve_mixed"

    def __init__(self, scale: str, seed: int) -> None:
        self.cfg = SCALES[scale]
        self.seed = seed
        self.setup_layers: dict[str, float] = {}
        self.loop: asyncio.AbstractEventLoop | None = None
        self.cpus = os.sched_getaffinity(0)

    # -- set-up ----------------------------------------------------------------

    def setup(self) -> None:
        self._pin(self.cpus)  # the workers forked below must not inherit a pin
        rng = harness.stream(self.seed, 1)
        lo, hi = harness.uniform_box_arrays(rng, self.cfg["n"], SIDE, 0.05, 1.0)
        self.items = harness.make_items(lo, hi)
        self.grid = UniformGrid(universe=AABB((0.0,) * 3, (SIDE,) * 3))
        start = time.perf_counter()
        self.grid.bulk_load(self.items)
        self.setup_layers["core.bulk_load_s"] = time.perf_counter() - start

        query_rng = harness.stream(self.seed, 2)
        self.frames = [self._frame(query_rng) for _ in range(FRAME_POOL)]
        self.bulk_batches = [
            harness.window_array(query_rng, self.cfg["bulk_windows"], SIDE, WINDOW)
            for _ in range(BULK_POOL)
        ]

        start = time.perf_counter()
        self.pool = WorkerPool(workers=harness.POOL_WORKERS)
        self.serving = ServingSession(self.grid, pool=self.pool)
        self.loop = asyncio.new_event_loop()
        # First bulk batch: workers start, the grid snapshot is exported once.
        self.loop.run_until_complete(self._bulk_batch(self.bulk_batches[0]))
        self.setup_layers["serving.pool_start_s"] = time.perf_counter() - start
        self._pin({max(self.cpus)})
        # Warm-up frames: lazy snapshot build and first flushes on the request path.
        self.loop.run_until_complete(self._warm_frames())
        self.rebuilds_at_start = self.grid.snapshot_rebuilds
        self.kept: list = []

    @staticmethod
    def _pin(cpus: set[int]) -> None:
        """Keep the serving process's threads (event loop, flush thread) on
        ``cpus``.  On the two-vCPU sizing VM a loop <-> flush-thread hand-off
        that crosses vCPUs costs a wake-up whose latency follows host load,
        and that, not the program, then sets the frame time; pinned to one
        vCPU the frame median repeats to a few percent.  Pool workers are
        forked before the pin and keep every CPU."""
        for thread in threading.enumerate():
            if thread.native_id is not None:
                os.sched_setaffinity(thread.native_id, cpus)

    def teardown(self) -> None:
        if self.loop is None:
            return
        self.loop.run_until_complete(self.serving.aclose())
        self.loop.close()
        self.loop = None
        self.pool.close()

    def _frame(self, rng: np.random.Generator) -> Frame:
        lo = rng.uniform(0.0, SIDE - WINDOW, size=(FRAME_RANGES, 3))
        boxes = [AABB(l, h) for l, h in zip(lo.tolist(), (lo + WINDOW).tolist())]
        probes = rng.uniform(0.0, SIDE, size=(FRAME_KNNS, 3))
        return Frame(boxes, [tuple(p) for p in probes.tolist()],
                     np.stack([lo, lo + WINDOW], axis=1), probes)

    # -- client coroutines -----------------------------------------------------------

    async def _ask_frame(self, frame: Frame) -> list:
        serving = self.serving
        return await asyncio.gather(
            *[serving.range_query(box) for box in frame.boxes],
            *[serving.knn(point, K) for point in frame.points],
            return_exceptions=True,
        )

    async def _bulk_batch(self, windows: np.ndarray) -> list:
        handle = await self.serving.query_executor.submit_ranges(windows)
        return await handle

    async def _warm_frames(self) -> None:
        for frame in self.frames[:20]:
            await self._ask_frame(frame)

    async def _dash(self, run: harness.Run, rounds: int, guard: float | None, state: dict) -> None:
        frames, samples = self.frames, state["frames"]
        try:
            for index in range(rounds):
                if guard is not None and time.perf_counter() > guard:
                    break
                frame = frames[index % len(frames)]
                with run.rec.span("frame", op=index):
                    start = time.perf_counter()
                    answers = await self._ask_frame(frame)
                    samples.append(time.perf_counter() - start)
                run.attempted += len(answers)
                for answer in answers:
                    if isinstance(answer, BaseException):
                        run.fail(f"frame {index}: {type(answer).__name__}: {answer}")
                if index < ORACLE_FRAMES:
                    self.kept.append((frame, answers))
        finally:
            state["done"] = True

    async def _bulk(self, run: harness.Run, state: dict) -> None:
        turn = 0
        while not state["done"]:
            windows = self.bulk_batches[turn % BULK_POOL]
            run.attempted += 1
            with run.rec.span("bulk_batch", op=turn):
                start = time.perf_counter()
                try:
                    answer = await self._bulk_batch(windows)
                except Exception as exc:  # boundary: count the failed batch, keep serving
                    answer = None
                    run.fail(f"bulk batch {turn}: {type(exc).__name__}: {exc}")
                state["bulk"].append(time.perf_counter() - start)
            if turn == 0:
                self.kept_bulk = (windows, answer)
            turn += 1
            await asyncio.sleep(THINK_S)

    async def _phase(self, run, rounds, guard, state) -> float:
        start = time.perf_counter()
        dash = asyncio.ensure_future(self._dash(run, rounds, guard, state))
        bulk = asyncio.ensure_future(self._bulk(run, state))
        await dash
        wall = time.perf_counter() - start
        await bulk
        return wall

    def measure(self, run: harness.Run, rounds: int, guard: float | None = None) -> dict:
        state = {"frames": [], "bulk": [], "done": False}
        stats = self.serving.queries.stats
        before = (stats.flushes, stats.submitted, dict(stats.flush_triggers))
        wall = self.loop.run_until_complete(self._phase(run, rounds, guard, state))
        self.phase_stats = {
            "flushes": stats.flushes - before[0],
            "submitted": stats.submitted - before[1],
            "triggers": {
                cause: count - before[2].get(cause, 0)
                for cause, count in stats.flush_triggers.items()
            },
            "queue_high_water": stats.queue_high_water,
        }
        run.samples["dash_frame"] = state["frames"]
        run.samples["bulk_batch"] = state["bulk"]
        # Mean = wall clock of the two-client phase per frame (1 / throughput):
        # one value per slice, because which frames the bulk client blocks
        # differs from slice to slice.
        frames = state["frames"]
        return {"round_s": frames, "mean_parts": [([wall / len(frames)], 1.0)]}

    def op_metrics(self, samples: dict) -> dict:
        frames = samples.get("dash_frame", [])
        return {
            "dash_frame_p50_ms": frames,
            "dash_frame_p99_ms": frames,
            "bulk_batch_p50_ms": samples.get("bulk_batch", []),
        }

    # -- differential replay (traced runs only) -----------------------------------

    async def _replay_serving(self, run: harness.Run, frames: list) -> list[float]:
        out = []
        for index, frame in enumerate(frames):
            with run.rec.span("replay.serving.frame", op=index):
                start = time.perf_counter()
                await self._ask_frame(frame)
                out.append(time.perf_counter() - start)
        return out

    def layers(self, run: harness.Run) -> tuple[dict, dict]:
        """The recorded frames re-issued one layer lower each time, with the
        bulk client off: ServingSession -> sync QuerySession -> grid kernels."""
        frames = self.frames[: self.cfg["replay_frames"]]
        with run.rec.span("replay"):
            via_serving = self.loop.run_until_complete(self._replay_serving(run, frames))
            session = QuerySession(self.grid)
            via_session, via_kernel = [], []
            for frame in frames:
                queries = ([RangeQuery(box) for box in frame.boxes]
                           + [KNNQuery(point, k=K) for point in frame.points])
                elapsed, _ = run.timed("replay.engine.frame", _submit_and_flush, session, queries)
                via_session.append(elapsed)
                t_range, _ = run.timed(
                    "replay.core.batch_range", self.grid.batch_range_query, frame.windows)
                t_knn, _ = run.timed("replay.core.batch_knn", self.grid.batch_knn, frame.probes, K)
                via_kernel.append(t_range + t_knn)

            batch = self.bulk_batches[0]
            pooled = QuerySession(self.grid, executor=ShardedExecutor(
                workers=harness.POOL_WORKERS, pool=self.pool))
            inline = QuerySession(self.grid)
            pool_s = [run.timed("replay.serving.pool_batch", pooled.range_query, batch)[0]
                      for _ in range(POOL_BATCH_REPS)]
            inline_s = [run.timed("replay.core.bulk_batch", inline.range_query, batch)[0]
                        for _ in range(POOL_BATCH_REPS)]

        serving_ms, session_ms, kernel_ms = (
            harness.median_ms(via_serving), harness.median_ms(via_session),
            harness.median_ms(via_kernel))
        # One dash frame, bulk client off, split by the replays.
        per_round = {"core": kernel_ms, "engine": session_ms - kernel_ms,
                     "serving": serving_ms - session_ms}
        phase = self.phase_stats
        out = {
            "core.snapshot_rebuilds": self.grid.snapshot_rebuilds - self.rebuilds_at_start,
            "core.batch_range_ms": harness.median_ms(inline_s),
            "engine.frame_overhead_ms": session_ms - kernel_ms,
            "serving.frame_overhead_ms": serving_ms - session_ms,
            "serving.batch_size_mean": phase["submitted"] / phase["flushes"] if phase["flushes"] else 0.0,
            "serving.flushes": phase["flushes"],
            "serving.flush_idle": phase["triggers"].get("idle", 0),
            "serving.flush_full": phase["triggers"].get("full", 0),
            "serving.flush_deadline": phase["triggers"].get("deadline", 0),
            "serving.queue_high_water": phase["queue_high_water"],
            "serving.pool_batch_ms": harness.median_ms(pool_s),
            "serving.pool_vs_inline_ratio": harness.median_ms(pool_s) / harness.median_ms(inline_s),
            "serving.pool_exports": self.pool.exports,
        }
        out.update(self.setup_layers)
        return out, per_round

    # -- oracles --------------------------------------------------------------------

    def verify(self, run: harness.Run) -> None:
        oracle = LinearScan()
        oracle.bulk_load(self.items)
        for index, (frame, answers) in enumerate(self.kept):
            expected = oracle.batch_range_query(frame.windows) + oracle.batch_knn(frame.probes, K)
            for slot, (got, want) in enumerate(zip(answers, expected)):
                if slot < FRAME_RANGES:
                    ok = isinstance(got, list) and sorted(got) == sorted(want)
                else:
                    ok = isinstance(got, list) and [e for _, e in got] == [e for _, e in want]
                run.check(f"frame {index} answer {slot}", ok)
        windows, answer = self.kept_bulk
        rows = np.linspace(0, len(windows) - 1, 16).astype(int)
        expected = oracle.batch_range_query(windows[rows])
        for row, want in zip(rows.tolist(), expected):
            run.check(f"bulk window {row}", answer is not None and sorted(answer[row]) == sorted(want))


def _submit_and_flush(session: QuerySession, queries: list) -> list:
    handles = [session.submit(query) for query in queries]
    session.flush()
    return [handle.result() for handle in handles]
