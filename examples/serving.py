"""Serving-tier tour: async clients, one shared worker pool, one index.

A steered simulation (§3.3) is a serving problem: while the solver owns the
model, analysis dashboards, collision monitors and steering probes all want
answers *now*, concurrently.  The serving tier stacks three pieces for that:

* **awaitable handles** — ``await handle`` parks a client task until its
  flush settles it; nothing blocks the event loop;
* **flush policy** — concurrent submissions coalesce: a quiet loop flushes
  immediately (``idle``), a busy one batches until the latency budget
  (``deadline``) or the queue bound (``full``) trips;
* **worker pool** — query flushes shard across long-lived processes that
  attach the index as a shared-memory snapshot once; steady-state requests
  ship only probe arrays and result ids across the process boundary.  Join
  flushes run in-process, on a thread off the loop.

Run with::

    PYTHONPATH=src python examples/serving.py
"""

import asyncio
import os
import random
import sys
import time

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src"))

import numpy as np

from repro import (
    AABB,
    FlushPolicy,
    SelfJoinSpec,
    ServingSession,
    UniformGrid,
    WorkerPool,
)
from repro.analysis.session_report import session_report

UNIVERSE = AABB((0.0, 0.0, 0.0), (100.0, 100.0, 100.0))
CLIENTS = 8
ROUNDS = 40


def build_world(n: int = 50_000, seed: int = 11):
    rng = np.random.default_rng(seed)
    lo = rng.uniform(0.0, 99.0, size=(n, 3))
    hi = lo + rng.uniform(0.1, 1.0, size=(n, 3))
    items = [(eid, AABB(l, h)) for eid, (l, h) in enumerate(zip(lo, hi))]
    grid = UniformGrid(universe=UNIVERSE)
    grid.bulk_load(items)
    return items, grid


async def dashboard(serving: ServingSession, cid: int) -> tuple[int, float]:
    """One client: a monitor polling its region plus nearest neighbours."""
    rng = random.Random(1_000 + cid)
    worst = 0.0
    for _ in range(ROUNDS):
        corner = [rng.uniform(0.0, 92.0) for _ in range(3)]
        window = AABB(corner, [c + 8.0 for c in corner])
        start = time.perf_counter()
        ids = await serving.range_query(window)
        await serving.knn(tuple(c + 4.0 for c in corner), k=8)
        worst = max(worst, time.perf_counter() - start)
        assert all(isinstance(eid, int) for eid in ids)
    return cid, worst


async def collision_monitor(serving: ServingSession, items) -> int:
    """A heavier client: the §2.1 collision self-join over a model slice."""
    slice_items = tuple(items[:4_000])
    pairs = await serving.join(SelfJoinSpec(slice_items))
    return len(pairs)


async def main() -> None:
    items, grid = build_world()
    print(f"world: {len(items):,} boxes in a uniform grid")

    # At least two workers so the shard planner engages the pool even on
    # single-core hosts (WorkerPool() alone sizes to the CPU count).
    with WorkerPool(workers=max(2, os.cpu_count() or 1)) as pool:
        policy = FlushPolicy(max_batch=256, max_delay=0.005)
        async with ServingSession(grid, pool=pool, policy=policy, min_shard=4) as serving:
            start = time.perf_counter()
            results = await asyncio.gather(
                *(dashboard(serving, cid) for cid in range(CLIENTS)),
                collision_monitor(serving, items),
            )
            elapsed = time.perf_counter() - start

            *dashboards, collisions = results
            print(
                f"\n{CLIENTS} dashboards x {ROUNDS} rounds + 1 collision join "
                f"in {elapsed:.2f}s"
            )
            print(f"collision pairs in the model slice: {collisions:,}")
            worst = max(latency for _, latency in dashboards)
            print(f"worst single dashboard round: {worst * 1e3:.1f} ms")
            print(
                f"index snapshots exported: {pool.exports} "
                f"({pool.segment_bytes / 1e6:.1f} MB shared, "
                f"{pool.shards_run} shards run)"
            )

            print("\nquery session telemetry:")
            print(session_report(serving.queries))
            print("\njoin session telemetry:")
            print(session_report(serving.joins))


if __name__ == "__main__":
    asyncio.run(main())
