"""Workload ``continuous_ticks``: standing queries under motion, steady state.

One ``ContinuousSession`` (default auto planner) over uniform boxes with
range, kNN and join subscriptions; each tick moves 5 % of the objects.  One
round is one ``tick()``.  Twelve warm-up ticks run in set-up, so every timed
tick lies past the ``TPRIndex`` horizon (10 ticks) — the first ten ticks are
several times cheaper and would flatter any change.

``continuous`` + ``moving`` do most of the work (predictive route for
range/kNN, incremental for the join); the grid and join kernels ``sim_step``
re-asks are used here for delta maintenance instead.
"""

from __future__ import annotations

import time

import numpy as np

import harness
from repro import (
    AABB,
    ContinuousJoinSpec,
    ContinuousKNNQuery,
    ContinuousRangeQuery,
    ContinuousSession,
    TPRIndex,
    UniformGrid,
)

SCALES = {
    # side keeps the density of 20k boxes in a 60^3 universe.
    "full": dict(n=8_000, side=44.0, ranges=8, knns=32, rounds=10, traced_rounds=8),
    "quick": dict(n=1_500, side=25.0, ranges=4, knns=8, rounds=4, traced_rounds=4),
}
EXTENT = 0.8
RANGE_WIDTH = 12.0
K = 8
EPSILON = 0.1
CHURN = 0.05
STEP = 0.5
WARMUP_TICKS = 12  # past the TPR horizon
TPR_HORIZON = 10


class ContinuousTicks:
    name = "continuous_ticks"

    def __init__(self, scale: str, seed: int) -> None:
        self.cfg = SCALES[scale]
        self.seed = seed

    # -- set-up ----------------------------------------------------------------

    def setup(self) -> None:
        cfg = self.cfg
        side = cfg["side"]
        rng = harness.stream(self.seed, 1)
        self.lo = rng.uniform(0.0, side - EXTENT, size=(cfg["n"], 3))
        self.initial_items = harness.make_items(self.lo, self.lo + EXTENT)
        self.boxes = [box for _, box in self.initial_items]
        self.universe = AABB((0.0,) * 3, (side,) * 3)
        spec_rng = harness.stream(self.seed, 2)
        self.range_boxes = [
            AABB(l, [c + RANGE_WIDTH for c in l])
            for l in spec_rng.uniform(0.0, side - RANGE_WIDTH, size=(cfg["ranges"], 3)).tolist()
        ]
        self.knn_points = [tuple(p) for p in spec_rng.uniform(0.0, side, size=(cfg["knns"], 3)).tolist()]
        self.move_rng = harness.stream(self.seed, 3)
        self.recorded: list[list] = []

        self.session = ContinuousSession(self.initial_items, self.universe)
        self.subs = [self.session.subscribe(spec) for spec in self._specs()]
        for _ in range(WARMUP_TICKS):
            self.session.tick(self._next_updates())

    def teardown(self) -> None:
        self.session = None

    def _specs(self, ranges: bool = True, knns: bool = True, join: bool = True) -> list:
        specs: list = []
        if ranges:
            specs += [ContinuousRangeQuery(box) for box in self.range_boxes]
        if knns:
            specs += [ContinuousKNNQuery(point, k=K) for point in self.knn_points]
        if join:
            specs.append(ContinuousJoinSpec(epsilon=EPSILON))
        return specs

    def _next_updates(self) -> list:
        """One tick's motion: CHURN of the objects shift by U(-STEP, STEP)^3."""
        n, rng = self.cfg["n"], self.move_rng
        moved = rng.choice(n, size=int(n * CHURN), replace=False)
        new_lo = np.clip(
            self.lo[moved] + rng.uniform(-STEP, STEP, size=(len(moved), 3)),
            0.0, self.cfg["side"] - EXTENT,
        )
        updates = []
        for eid, low in zip(moved.tolist(), new_lo.tolist()):
            box = AABB(low, [c + EXTENT for c in low])
            updates.append((eid, self.boxes[eid], box))
            self.boxes[eid] = box
        self.lo[moved] = new_lo
        self.recorded.append(updates)
        return updates

    # -- the timed loop -------------------------------------------------------------

    def measure(self, run: harness.Run, rounds: int, guard: float | None = None) -> dict:
        round_s: list[float] = []
        for _ in range(rounds):
            if guard is not None and time.perf_counter() > guard:
                break
            updates = self._next_updates()
            elapsed, _ = run.timed("continuous.tick", self.session.tick, updates)
            run.sample("tick", elapsed)
            round_s.append(elapsed)
        return {"round_s": round_s, "mean_parts": [(round_s, 1.0)]}

    def op_metrics(self, samples: dict) -> dict:
        return {"tick_p50_ms": samples.get("tick", [])}

    # -- differential replay (traced runs only) -----------------------------------

    def _replay_session(self, run: harness.Run, label: str, specs: list) -> float:
        """The recorded tick sequence on a fresh session holding only
        ``specs``; median of the post-warm-up ticks, in ms."""
        session = ContinuousSession(self.initial_items, self.universe)
        for spec in specs:
            session.subscribe(spec)
        timed = []
        for index, updates in enumerate(self.recorded):
            elapsed, _ = run.timed(f"replay.continuous.{label}", session.tick, updates)
            if index >= WARMUP_TICKS:
                timed.append(elapsed)
        return harness.median_ms(timed)

    def layers(self, run: harness.Run) -> tuple[dict, dict]:
        stats, counters = self.session.stats, self.session.counters
        with run.rec.span("replay"):
            base = self._replay_session(run, "base", [])
            query = self._replay_session(run, "query", self._specs(join=False))
            join = self._replay_session(run, "join", self._specs(ranges=False, knns=False))

            tpr = TPRIndex(max_speed=0.1, horizon=TPR_HORIZON)
            tpr.bulk_load(self.initial_items)
            grid = UniformGrid(universe=self.universe)
            grid.bulk_load(self.initial_items)
            advance, update = [], []
            for index, updates in enumerate(self.recorded):
                moves = sorted(updates, key=lambda move: move[0])
                t_advance, _ = run.timed("replay.moving.tpr_advance", tpr.advance, moves)
                t_update, _ = run.timed("replay.core.update", _apply, grid, moves, count=len(moves))
                if index >= WARMUP_TICKS:
                    advance.append(t_advance)
                    update.append(t_update / len(moves))

        probes = counters.safe_region_hits + counters.safe_region_invalidations
        out = {
            "core.update_us": harness.median_ms(update) * 1e3,
            "continuous.base_tick_ms": base,
            "continuous.query_tick_ms": query,
            "continuous.join_tick_ms": join,
            "continuous.route_predictive": stats.policy_routes.get("predictive", 0),
            "continuous.route_incremental": stats.policy_routes.get("incremental", 0),
            "continuous.route_recompute": stats.policy_routes.get("recompute", 0),
            "continuous.empty_delta_ratio": stats.empty_deltas / stats.deltas if stats.deltas else 0.0,
            "continuous.safe_region_hit_ratio": counters.safe_region_hits / probes if probes else 0.0,
            "moving.tpr_advance_ms": harness.median_ms(advance),
        }
        # One tick, from the replays: the predictive index's share is the
        # direct TPR replay, grid writes are the direct update replay, and the
        # session's own share is what the query-only and join-only sessions
        # spend beyond those.
        moving = out["moving.tpr_advance_ms"]
        core = out["core.update_us"] * int(self.cfg["n"] * CHURN) / 1e3
        session = max(query - moving, 0.0) + max(join - core, 0.0)
        return out, {"continuous": session, "moving": moving, "core": core}

    # -- oracles --------------------------------------------------------------------

    def verify(self, run: harness.Run) -> None:
        """Initial result with every delta folded in == a from-scratch
        recompute of the final state, per subscription."""
        final_items = list(enumerate(self.boxes))
        oracle = ContinuousSession(final_items, self.universe, policy="recompute")
        for index, (sub, spec) in enumerate(zip(self.subs, self._specs())):
            folded = {eid for _, eid in sub.initial} if sub.kind == "knn" else set(sub.initial)
            try:
                for delta in sub.deltas:
                    folded = delta.apply(folded)
            except ValueError as exc:
                run.check(f"subscription {index} ({sub.kind}): {exc}", False)
                continue
            run.check(f"subscription {index} ({sub.kind})",
                      folded == oracle.subscribe(spec).result_set())


def _apply(grid: UniformGrid, moves: list) -> None:
    update = grid.update
    for eid, old, new in moves:
        update(eid, old, new)
