"""Workload ``sim_step``: the paper's section-5 pipeline on one mutable grid.

Every round is one simulation step: all elements move minimally (plasticity
statistics), the grid is maintained by one ``update`` per element, then the
monitors ask a batch of fresh range windows and kNN probes through a
``QuerySession``; every fifth step a within-epsilon self-join of the current
state runs through one persistent ``JoinSession``.  ``core`` does most of the
work (grid writes + batch kernels on a just-mutated snapshot); ``serving``,
``exec``, ``storage`` and ``continuous`` do none.
"""

from __future__ import annotations

import math
import time

import numpy as np

import harness
from repro import AABB, DistanceJoinSpec, JoinSession, LinearScan, QuerySession, UniformGrid
from repro.datasets.neuroscience import generate_neurons
from repro.datasets.trajectories import PlasticityMotion
from repro.geometry.refine import batch_box_gaps
from repro.instrumentation.counters import Counters

SCALES = {
    # n = neurons x segments capsule boxes; ``rounds`` steps per measured slice.
    "full": dict(neurons=125, segments=80, windows=2000, probes=500, rounds=5,
                 traced_rounds=10),
    "quick": dict(neurons=15, segments=40, windows=200, probes=50, rounds=5,
                  traced_rounds=5),
}
WINDOW = 1.5
K = 8
EPSILON = 0.05
JOIN_EVERY = 5
ORACLE_QUERIES = 64
ORACLE_JOIN_SAMPLE = 256
# Per-axis sigma giving PlasticityMotion's Maxwell-mean displacement.
SIGMA = PlasticityMotion.MEAN_DISPLACEMENT_UM * math.sqrt(math.pi / 8.0)


class SimStep:
    name = "sim_step"

    def __init__(self, scale: str, seed: int) -> None:
        self.cfg = SCALES[scale]
        self.seed = seed
        self.setup_layers: dict[str, float] = {}
        self.joins: JoinSession | None = None

    # -- set-up ----------------------------------------------------------------

    def setup(self) -> None:
        cfg = self.cfg
        dataset = generate_neurons(cfg["neurons"], cfg["segments"], seed=self.seed)
        items = dataset.items  # eids are 0..n-1, in order
        self.n = len(items)
        self.boxes = [box for _, box in items]
        self.lo = np.array([box.lo for box in self.boxes])
        self.hi = np.array([box.hi for box in self.boxes])
        self.u_lo = np.asarray(dataset.universe.lo)
        self.u_hi = np.asarray(dataset.universe.hi)
        self.motion_rng = harness.stream(self.seed, 1)
        self.query_rng = harness.stream(self.seed, 2)

        self.grid = UniformGrid(universe=dataset.universe)
        start = time.perf_counter()
        self.grid.bulk_load(items)
        self.setup_layers["core.bulk_load_s"] = time.perf_counter() - start
        self.queries = QuerySession(self.grid)
        self.joins = JoinSession()
        # Warm-up: lazy snapshot build, first flushes, first join plan.
        windows, probes = self._fresh_queries()
        self.queries.range_query(windows)
        self.queries.knn(probes, K)
        self.joins.run(DistanceJoinSpec(items, None, EPSILON))
        # Counts are reported as deltas over the run, net of this warm-up.
        joined = self.joins.stats
        self.counts_at_start = (self.grid.snapshot_rebuilds, self.queries.stats.flushes,
                                joined.candidates, joined.pairs, joined.comparisons)
        self.step = 0
        self.last_queries = None
        self.last_join = None

    def teardown(self) -> None:
        if self.joins is not None:
            self.joins.close()
            self.joins = None

    # -- generators (never inside a timed call) ---------------------------------

    def _fresh_queries(self) -> tuple[np.ndarray, np.ndarray]:
        cfg, rng = self.cfg, self.query_rng
        lo = rng.uniform(self.u_lo, self.u_hi - WINDOW, size=(cfg["windows"], 3))
        probes = rng.uniform(self.u_lo, self.u_hi, size=(cfg["probes"], 3))
        return np.stack([lo, lo + WINDOW], axis=1), probes

    def _next_moves(self) -> list:
        """One plasticity step for every element, vectorised (the repo's
        ``PlasticityMotion`` draws the same jitter one element at a time)."""
        extent = self.hi - self.lo
        jitter = self.motion_rng.normal(0.0, SIGMA, size=self.lo.shape)
        new_lo = np.clip(self.lo + jitter, self.u_lo, self.u_hi)
        new_hi = np.minimum(new_lo + extent, self.u_hi)
        new_lo = np.maximum(new_hi - extent, self.u_lo)
        new_boxes = [AABB(l, h) for l, h in zip(new_lo.tolist(), new_hi.tolist())]
        moves = list(zip(range(self.n), self.boxes, new_boxes))
        self.lo, self.hi, self.boxes = new_lo, new_hi, new_boxes
        return moves

    def _apply(self, moves: list) -> None:
        update = self.grid.update
        for eid, old, new in moves:
            update(eid, old, new)

    # -- the timed loop -------------------------------------------------------------

    def measure(self, run: harness.Run, rounds: int, guard: float | None = None) -> dict:
        round_s: list[float] = []
        join_s: list[float] = []
        for _ in range(rounds):
            if guard is not None and time.perf_counter() > guard:
                break
            gen_start = time.perf_counter()
            moves = self._next_moves()
            windows, probes = self._fresh_queries()
            run.sample("sim.motion", time.perf_counter() - gen_start)

            with run.rec.span("step", op=self.step):
                t_update, _ = run.timed("core.update", self._apply, moves, count=len(moves))
                t_snapshot = 0.0
                if run.tracing:
                    # Absorb the lazy snapshot refresh the updates left behind in
                    # a one-window kernel call, so the session call and its
                    # replay below both see a warm snapshot and their difference
                    # is session overhead alone.
                    t_snapshot, _ = run.timed(
                        "core.snapshot", self.grid.batch_range_query, windows[:1])
                t_range, hits = run.timed("engine.range", self.queries.range_query, windows)
                t_knn, nearest = run.timed("engine.knn", self.queries.knn, probes, K)
            step_s = t_update + t_snapshot + t_range + t_knn
            run.sample("step", step_s)
            run.sample("core.update", t_update)
            round_s.append(step_s)
            self.last_queries = (windows, probes, hits, nearest)
            if run.tracing:
                self._replay_queries(run, windows, probes, t_snapshot, t_range, t_knn)

            if self.step % JOIN_EVERY == JOIN_EVERY - 1:
                spec = DistanceJoinSpec(list(enumerate(self.boxes)), None, EPSILON)
                t_join, pairs = run.timed("joins.run", self.joins.run, spec)
                run.sample("join", t_join)
                join_s.append(t_join)
                self.last_join = (self.boxes, pairs)
                if run.tracing:
                    self._replay_join(run, spec, t_join)
            self.step += 1
        # Total step time: the step plus its share of the periodic join.
        return {"round_s": round_s, "mean_parts": [(round_s, 1.0), (join_s, 1.0 / JOIN_EVERY)]}

    def op_metrics(self, samples: dict) -> dict:
        return {
            "step_p50_ms": samples.get("step", []),
            "join_p50_ms": samples.get("join", []),
        }

    # -- differential replay (traced runs only) -----------------------------------

    def _replay_queries(self, run, windows, probes, t_snapshot, t_range, t_knn) -> None:
        with run.rec.span("replay", op=self.step):
            d_range, _ = run.timed("replay.core.batch_range", self.grid.batch_range_query, windows)
            d_knn, _ = run.timed("replay.core.batch_knn", self.grid.batch_knn, probes, K)
        run.sample("core.batch_range", d_range + t_snapshot)
        run.sample("core.batch_knn", d_knn)
        run.sample("engine.range_overhead", t_range - d_range)
        run.sample("engine.knn_overhead", t_knn - d_knn)

    def _replay_join(self, run, spec, t_join: float) -> None:
        strategy = self.joins.plan(spec).strategy
        with run.rec.span("replay", op=self.step):
            t_filter, candidates = run.timed(
                "replay.joins.filter", strategy.distance_candidates, spec.items_a, None, EPSILON,
                Counters())
            boxes = np.stack([self.lo, self.hi], axis=1)
            rows = np.asarray(candidates or [(0, 0)], dtype=np.int64)
            side_a, side_b = boxes[rows[:, 0]], boxes[rows[:, 1]]
            t_refine, _ = run.timed("replay.geometry.refine", batch_box_gaps, side_a, side_b)
        run.sample("joins.filter", t_filter)
        run.sample("geometry.refine", t_refine)
        run.sample("joins.session_overhead", t_join - t_filter - t_refine)

    def layers(self, run: harness.Run) -> tuple[dict, dict]:
        med = run.median_ms
        joined = self.joins.stats
        rebuilds, flushes, candidates, pairs, comparisons = (
            now - start for now, start in zip(
                (self.grid.snapshot_rebuilds, self.queries.stats.flushes,
                 joined.candidates, joined.pairs, joined.comparisons),
                self.counts_at_start))
        updates = run.samples.get("core.update", [])
        out = {
            "core.update_us": (sum(updates) / (len(updates) * self.n)) * 1e6 if updates else 0.0,
            "core.batch_range_ms": med("core.batch_range"),
            "core.batch_knn_ms": med("core.batch_knn"),
            "core.snapshot_rebuilds": rebuilds,
            "engine.range_overhead_ms": med("engine.range_overhead"),
            "engine.knn_overhead_ms": med("engine.knn_overhead"),
            "engine.flushes": flushes,
            "joins.session_overhead_ms": med("joins.session_overhead"),
            "joins.filter_ms": med("joins.filter"),
            "geometry.refine_ms": med("geometry.refine"),
            "joins.candidates": candidates,
            "joins.pairs": pairs,
            "joins.comparisons": comparisons,
            "joins.refine_ratio": pairs / candidates if candidates else 0.0,
            "sim.motion_ms": med("sim.motion"),
        }
        out.update(self.setup_layers)
        # Timed work per step by layer; the periodic join is amortised over
        # the steps between joins.
        per_round = {
            "core": out["core.update_us"] * self.n / 1e3 + out["core.batch_range_ms"]
            + out["core.batch_knn_ms"],
            "engine": out["engine.range_overhead_ms"] + out["engine.knn_overhead_ms"],
            "joins": (out["joins.filter_ms"] + out["joins.session_overhead_ms"]) / JOIN_EVERY,
            "geometry": out["geometry.refine_ms"] / JOIN_EVERY,
        }
        return out, per_round

    # -- oracles (outside every timed region) -------------------------------------

    def verify(self, run: harness.Run) -> None:
        windows, probes, hits, nearest = self.last_queries
        oracle = LinearScan()
        oracle.bulk_load(list(enumerate(self.boxes)))
        rows = np.linspace(0, len(windows) - 1, min(ORACLE_QUERIES, len(windows))).astype(int)
        expected = oracle.batch_range_query(windows[rows])
        for row, want in zip(rows.tolist(), expected):
            got = hits[row] if hits is not None else None
            run.check(f"range window {row}", got is not None and sorted(got) == sorted(want))
        rows = np.linspace(0, len(probes) - 1, min(ORACLE_QUERIES, len(probes))).astype(int)
        expected = oracle.batch_knn(probes[rows], K)
        for row, want in zip(rows.tolist(), expected):
            got = nearest[row] if nearest is not None else None
            run.check(
                f"knn probe {row}",
                got is not None and [eid for _, eid in got] == [eid for _, eid in want],
            )
        if self.last_join is not None:
            self._verify_join(run)

    def _verify_join(self, run: harness.Run) -> None:
        """The last join's pairs touching a sample of elements vs block_nested."""
        boxes, pairs = self.last_join
        items = list(enumerate(boxes))
        sample = set(np.linspace(0, self.n - 1, min(ORACLE_JOIN_SAMPLE, self.n)).astype(int).tolist())
        with JoinSession(strategy="block_nested") as oracle:
            raw = oracle.run(DistanceJoinSpec([items[eid] for eid in sorted(sample)], items, EPSILON))
        want = {(min(a, b), max(a, b)) for a, b in raw if a != b}
        got = {pair for pair in (pairs or []) if pair[0] in sample or pair[1] in sample}
        run.check("join pairs on the element sample", pairs is not None and got == want)
