"""Continuous queries over moving objects, pinned by a per-tick recompute oracle.

The contract under test: for **every** maintenance policy and **every** spec
kind, the delta stream a :class:`~repro.continuous.ContinuousSession` emits
is *exact* — at every tick

* the subscription's live result equals a from-scratch answer against the
  session's elements (the session's :meth:`oracle_result`: a fresh
  ``LinearScan`` for range and kNN, a nested-loop join for joins — no grid
  code, since both policies read the session's one grid), and
* folding the accumulated deltas into the initial result reproduces that
  same live result (no delta lost, duplicated or misordered).

Workloads cover the shapes the issue names: uniform drift, clustered
teleports, insert/delete churn, and zero-motion ticks — both as seeded
deterministic runs (the policy × kind × workload grid) and as
hypothesis-driven random update programs under the derandomized CI profile.
"""

from __future__ import annotations

import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis import continuous_report, session_report
from repro.continuous import (
    ContinuousJoinSpec,
    ContinuousKNNQuery,
    ContinuousRangeQuery,
    ContinuousSession,
    Delete,
    Delta,
    Insert,
    knn_ids,
    normalize_updates,
)
from repro.datasets.trajectories import BrownianMotion, PlasticityMotion, apply_moves
from repro.geometry.aabb import AABB, boxes_to_array
from repro.geometry.refine import batch_box_gaps
from repro.indexes.linear_scan import LinearScan
from repro.instrumentation.counters import Counters
from repro.joins.strategies import NestedLoopJoin
from repro.registry import INDEX_REGISTRY, make_index
from test_apply_moves import write_state
from tests.conftest import UNIVERSE_2D, UNIVERSE_3D, make_items

pytestmark = pytest.mark.continuous

POLICIES = ["recompute", "incremental"]
KINDS = ["range", "knn", "join"]
WORKLOADS = ["drift", "teleport", "churn", "still"]


# -- workload generators -------------------------------------------------------


def _boxed(rng: random.Random, universe: AABB = UNIVERSE_3D, extent: float = 4.0) -> AABB:
    lo = [rng.uniform(u, v - extent) for u, v in zip(universe.lo, universe.hi)]
    return AABB(lo, [c + rng.uniform(0.3, extent) for c in lo])


def _shift(box: AABB, offset: list[float], universe: AABB = UNIVERSE_3D) -> AABB:
    lo = list(box.lo)
    hi = list(box.hi)
    for axis, delta in enumerate(offset):
        delta = max(universe.lo[axis] - lo[axis], min(delta, universe.hi[axis] - hi[axis]))
        lo[axis] += delta
        hi[axis] += delta
    return AABB(lo, hi)


def workload_updates(name: str, state: dict[int, AABB], rng: random.Random, tick: int, next_eid: list):
    """One tick's raw updates for a named workload shape."""
    updates: list = []
    eids = sorted(state)
    if name == "still":
        # Motion on even ticks only: odd ticks are zero-motion and must be
        # answered entirely from safe regions.
        if tick % 2 == 1:
            return updates
        name = "drift"
    if name == "drift":
        for eid in rng.sample(eids, k=max(1, len(eids) // 10)):
            offset = [rng.uniform(-0.4, 0.4) for _ in range(3)]
            updates.append((eid, state[eid], _shift(state[eid], offset)))
    elif name == "teleport":
        # A clustered subset jumps to one random far-away site.
        cluster = rng.sample(eids, k=max(1, len(eids) // 8))
        site = [rng.uniform(10, 80) for _ in range(3)]
        for eid in cluster:
            target = [c + rng.uniform(-3, 3) for c in site]
            box = state[eid]
            offset = [t - l for t, l in zip(target, box.lo)]
            updates.append((eid, box, _shift(box, offset)))
    elif name == "churn":
        for eid in rng.sample(eids, k=max(1, len(eids) // 12)):
            offset = [rng.uniform(-1.5, 1.5) for _ in range(3)]
            updates.append((eid, state[eid], _shift(state[eid], offset)))
        for _ in range(rng.randint(1, 3)):
            eid = next_eid[0]
            next_eid[0] += 1
            updates.append(Insert(eid, _boxed(rng)))
        moved = {u[0] for u in updates if isinstance(u, tuple)}
        victims = [e for e in eids if e not in moved]
        for eid in rng.sample(victims, k=min(2, len(victims))):
            updates.append(Delete(eid))
    else:  # pragma: no cover - guard against typos in parametrize lists
        raise AssertionError(name)
    return updates


def make_specs(kind: str):
    if kind == "range":
        return [
            ContinuousRangeQuery(AABB((20, 20, 20), (60, 60, 60))),
            ContinuousRangeQuery(AABB((0, 0, 0), (15, 15, 15)), tag="corner"),
        ]
    if kind == "knn":
        return [
            ContinuousKNNQuery((50.0, 50.0, 50.0), k=6),
            ContinuousKNNQuery((5.0, 90.0, 40.0), k=3, tag="edge"),
        ]
    return [ContinuousJoinSpec(epsilon=1.5), ContinuousJoinSpec(epsilon=0.0, tag="touch")]


def assert_exact(session: ContinuousSession, sub) -> None:
    """The two-sided oracle: live result == recompute, accumulation == live."""
    oracle = session.oracle_result(sub)
    if sub.kind == "knn":
        assert sub.result == oracle  # exact ordered (distance, id) lists
        accumulated = set(knn_ids(sub.initial))
    else:
        assert sub.result == oracle
        accumulated = set(sub.initial)
    for delta in sub.deltas:
        accumulated = delta.apply(accumulated)  # raises on any inexact delta
    assert accumulated == sub.result_set()


def drive(session: ContinuousSession, subs, workload: str, ticks: int, seed: int) -> None:
    rng = random.Random(seed)
    next_eid = [10_000]
    for tick in range(ticks):
        state = dict(session.state_items())
        updates = workload_updates(workload, state, rng, tick, next_eid)
        session.tick(updates)
        for sub in subs:
            assert_exact(session, sub)


# -- the (policy × kind × workload) oracle grid --------------------------------


class TestDeltaStreamsExact:
    @pytest.mark.parametrize("workload", WORKLOADS)
    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("policy", POLICIES)
    def test_policy_kind_workload(self, policy, kind, workload):
        items = make_items(150, seed=11)
        session = ContinuousSession(items, UNIVERSE_3D, policy=policy)
        subs = [session.subscribe(spec) for spec in make_specs(kind)]
        drive(session, subs, workload, ticks=10, seed=17)
        assert session.stats.policy_routes.get(policy, 0) > 0

    def test_policies_emit_identical_streams(self):
        """One seeded drift sequence (20 % of 1 000 boxes move per tick, 16
        ticks) through each pinned policy: the delta streams of 8 standing
        ranges and 8 standing kNN queries are identical."""
        rng = np.random.default_rng(43)
        specs = [
            ContinuousRangeQuery(AABB(lo, lo + 20.0)) for lo in rng.uniform(5.0, 75.0, (8, 3))
        ] + [ContinuousKNNQuery(tuple(p), k=8) for p in rng.uniform(10.0, 90.0, (8, 3)).tolist()]
        streams = {}
        for policy in POLICIES:
            lo = np.random.default_rng(17).uniform(0.0, 99.2, size=(1000, 3))
            state = {eid: AABB(lo[eid], lo[eid] + 0.8) for eid in range(1000)}
            session = ContinuousSession(list(state.items()), UNIVERSE_3D, policy=policy)
            subs = [session.subscribe(spec) for spec in specs]
            for tick in range(16):
                tick_rng = np.random.default_rng(29 + tick)
                moved = tick_rng.choice(1000, size=200, replace=False).tolist()
                updates = []
                for eid, step in zip(moved, tick_rng.uniform(-0.5, 0.5, size=(200, 3))):
                    new_lo = np.clip(np.asarray(state[eid].lo) + step, 0.0, 99.2)
                    updates.append((eid, state[eid], AABB(new_lo, new_lo + 0.8)))
                    state[eid] = updates[-1][2]
                session.tick(updates)
            assert session.stats.deltas == 16 * len(specs)
            streams[policy] = [sub.deltas for sub in subs]
        assert streams["incremental"] == streams["recompute"]

    @pytest.mark.parametrize("kind", KINDS)
    def test_auto_planner_stays_exact(self, kind):
        """Auto routing may switch policies tick-to-tick (adopt/forget
        churn); exactness must survive every handoff."""
        items = make_items(120, seed=12)
        session = ContinuousSession(items, UNIVERSE_3D)
        subs = [session.subscribe(spec) for spec in make_specs(kind)]
        for workload, seed in (("drift", 3), ("teleport", 4), ("churn", 5), ("still", 6)):
            drive(session, subs, workload, ticks=4, seed=seed)
        assert sum(session.stats.policy_routes.values()) == session.stats.deltas

    def test_mixed_spec_kinds_one_session(self):
        items = make_items(100, seed=13)
        session = ContinuousSession(items, UNIVERSE_3D)
        subs = [session.subscribe(s) for kind in KINDS for s in make_specs(kind)]
        drive(session, subs, "churn", ticks=8, seed=23)

    @pytest.mark.parametrize("policy", POLICIES)
    def test_zero_motion_ticks_emit_empty_deltas(self, policy):
        items = make_items(80, seed=14)
        session = ContinuousSession(items, UNIVERSE_3D, policy=policy)
        subs = [session.subscribe(s) for kind in KINDS for s in make_specs(kind)]
        before_hits = session.counters.safe_region_hits
        deltas = session.tick([])
        assert all(delta.is_empty for delta in deltas.values())
        for sub in subs:
            assert_exact(session, sub)
        if policy != "recompute":
            assert session.counters.safe_region_hits > before_hits

    def test_knn_ties_invalidate_at_equal_distance(self):
        """A mover landing exactly at the kth distance must displace the
        higher-id member under the (distance, id) order — the ``<=`` in the
        safe-region check."""
        # Point items at known distances from the query point.
        items = [
            (1, AABB((10, 0, 0), (10, 0, 0))),
            (2, AABB((20, 0, 0), (20, 0, 0))),
            (9, AABB((30, 0, 0), (30, 0, 0))),
            (4, AABB((90, 0, 0), (90, 0, 0))),
        ]
        session = ContinuousSession(items, UNIVERSE_3D, policy="incremental")
        sub = session.subscribe(ContinuousKNNQuery((0.0, 0.0, 0.0), k=3))
        assert knn_ids(sub.result) == {1, 2, 9}
        # id 4 moves to distance 30 — exactly d_k.  (30.0, 4) < (30.0, 9).
        session.tick([(4, items[3][1], AABB((30, 0, 0), (30, 0, 0)))])
        assert_exact(session, sub)
        assert knn_ids(sub.result) == {1, 2, 4}

    def test_result_shorter_than_k_grows_with_inserts(self):
        items = [(1, AABB((5, 5, 5), (6, 6, 6))), (2, AABB((40, 40, 40), (41, 41, 41)))]
        session = ContinuousSession(items, UNIVERSE_3D, policy="incremental")
        sub = session.subscribe(ContinuousKNNQuery((0.0, 0.0, 0.0), k=5))
        assert len(sub.result) == 2
        session.tick([Insert(3, AABB((70, 70, 70), (71, 71, 71)))])
        assert_exact(session, sub)
        assert len(sub.result) == 3

    def test_join_refine_callable_consulted_on_reprobe(self):
        """The refine predicate reads *current* geometry: a pair inside the
        box filter but failing refine must stay out after motion."""
        boxes = {}

        def parity_refine(a: int, b: int) -> bool:
            return (a + b) % 2 == 0

        items = make_items(60, seed=16)
        boxes.update(dict(items))
        session = ContinuousSession(items, UNIVERSE_3D, policy="incremental")
        sub = session.subscribe(ContinuousJoinSpec(epsilon=2.0, refine=parity_refine))
        assert all((a + b) % 2 == 0 for a, b in sub.result)
        drive(session, [sub], "drift", ticks=6, seed=41)
        assert all((a + b) % 2 == 0 for a, b in sub.result)


# -- hypothesis: random update programs ----------------------------------------


def _coords(draw, lo=0.0, hi=92.0):
    return [
        draw(st.floats(min_value=lo, max_value=hi, allow_nan=False))
        for _ in range(3)
    ]


@st.composite
def update_programs(draw):
    """(initial items, list of ticks, each a list of raw updates)."""
    n = draw(st.integers(min_value=4, max_value=40))
    items = []
    for eid in range(n):
        lo = _coords(draw)
        extent = draw(st.floats(min_value=0.1, max_value=6.0))
        items.append((eid, AABB(lo, [c + extent for c in lo])))
    alive = {eid for eid, _ in items}
    boxes = dict(items)
    next_eid = n
    ticks = []
    for _ in range(draw(st.integers(min_value=1, max_value=6))):
        updates = []
        touched = set()
        for _ in range(draw(st.integers(min_value=0, max_value=8))):
            op = draw(st.sampled_from(["move", "insert", "delete"]))
            candidates = sorted(alive - touched)
            if op == "move" and candidates:
                eid = draw(st.sampled_from(candidates))
                offset = _coords(draw, lo=-5.0, hi=5.0)
                new = _shift(boxes[eid], offset)
                updates.append((eid, boxes[eid], new))
                boxes[eid] = new
                touched.add(eid)
            elif op == "insert":
                lo = _coords(draw)
                box = AABB(lo, [c + 1.0 for c in lo])
                updates.append(Insert(next_eid, box))
                alive.add(next_eid)
                boxes[next_eid] = box
                touched.add(next_eid)
                next_eid += 1
            elif op == "delete" and len(candidates) > 1:
                eid = draw(st.sampled_from(candidates))
                updates.append(Delete(eid))
                alive.discard(eid)
                del boxes[eid]
                touched.add(eid)
        ticks.append(updates)
    return items, ticks


class TestHypothesisOracle:
    @settings(max_examples=25)
    @given(program=update_programs(), policy=st.sampled_from(POLICIES + ["auto"]))
    def test_any_program_any_policy(self, program, policy):
        items, ticks = program
        session = ContinuousSession(
            items,
            UNIVERSE_3D,
            policy="auto" if policy == "auto" else policy,
        )
        subs = [
            session.subscribe(ContinuousRangeQuery(AABB((10, 10, 10), (70, 70, 70)))),
            session.subscribe(ContinuousKNNQuery((50.0, 50.0, 50.0), k=4)),
            session.subscribe(ContinuousJoinSpec(epsilon=1.0)),
        ]
        for updates in ticks:
            session.tick(updates)
            for sub in subs:
                assert_exact(session, sub)

    @settings(max_examples=15)
    @given(program=update_programs())
    def test_any_program_over_a_live_grid(self, program):
        """A session handed a loaded grid (as a simulation hands over its
        index) keeps exact deltas, and the grid holds its elements."""
        from repro.core import UniformGrid

        items, ticks = program
        grid = UniformGrid(universe=UNIVERSE_3D)
        grid.bulk_load(items)
        session = ContinuousSession(grid)
        subs = [session.subscribe(spec) for kind in KINDS for spec in make_specs(kind)]
        for updates in ticks:
            session.tick(updates)
            for sub in subs:
                assert_exact(session, sub)
        assert dict(session.state_items()) == grid.boxes


# -- update normalization ------------------------------------------------------


class TestNormalizeUpdates:
    STATE = {1: AABB((0, 0, 0), (1, 1, 1)), 2: AABB((5, 5, 5), (6, 6, 6))}

    def test_insert_then_move_nets_to_insert(self):
        a, b = AABB((10, 10, 10), (11, 11, 11)), AABB((12, 12, 12), (13, 13, 13))
        batch = normalize_updates([Insert(7, a), (7, a, b)], dict(self.STATE))
        assert batch.inserted == {7: b} and not batch.moved and not batch.deleted

    def test_insert_then_delete_nets_to_nothing(self):
        a = AABB((10, 10, 10), (11, 11, 11))
        batch = normalize_updates([Insert(7, a), Delete(7)], dict(self.STATE))
        assert batch.is_empty

    def test_move_then_delete_nets_to_delete_at_start_box(self):
        b = AABB((2, 2, 2), (3, 3, 3))
        batch = normalize_updates([(1, self.STATE[1], b), Delete(1)], dict(self.STATE))
        assert batch.deleted == {1: self.STATE[1]} and not batch.moved

    def test_move_chain_folds_and_roundtrip_cancels(self):
        a = self.STATE[1]
        b = AABB((2, 2, 2), (3, 3, 3))
        batch = normalize_updates([(1, a, b), (1, b, a)], dict(self.STATE))
        assert batch.is_empty
        batch = normalize_updates([(1, a, b), (1, b, b.expanded(1.0))], dict(self.STATE))
        assert batch.moved == {1: (a, b.expanded(1.0))}

    def test_validation_rejects_stale_old_box(self):
        with pytest.raises(KeyError):
            normalize_updates([(1, AABB((9, 9, 9), (10, 10, 10)), self.STATE[1])], dict(self.STATE))
        with pytest.raises(ValueError):
            normalize_updates([Insert(1, self.STATE[1])], dict(self.STATE))
        with pytest.raises(KeyError):
            normalize_updates([Delete(99)], dict(self.STATE))

    @pytest.mark.parametrize("bad", [
        AABB((2.0, float("nan"), 2.0), (3.0, float("nan"), 3.0)),
        AABB((2.0, 2.0, 2.0), (3.0, float("inf"), 3.0)),
        AABB((2.0, 2.0), (3.0, 3.0)),
    ], ids=["nan", "inf", "flat"])
    def test_unindexable_boxes_are_refused(self, bad):
        for updates in ([(1, self.STATE[1], bad)], [Insert(7, bad)]):
            with pytest.raises(ValueError, match="finite|dims"):
                normalize_updates(updates, dict(self.STATE))
        with pytest.raises(ValueError, match="finite|dims"):
            normalize_updates([Insert(7, bad)], {}, dims=3 if bad.dims == 2 else None)

    @pytest.mark.parametrize("policy", ["auto", "recompute"])
    def test_a_refused_tick_commits_nothing(self, policy):
        """One NaN move used to reach the session's state, and every later
        tick — valid or not — then died in the grid.  A refused tick leaves
        the grid's whole write state as it was: boxes, windows, snapshot
        patches and counters."""
        items = make_items(60, seed=41)
        session = ContinuousSession(items, UNIVERSE_3D, policy=policy)
        subs = [session.subscribe(spec) for kind in ("range", "knn", "join")
                for spec in make_specs(kind)]
        drive(session, subs, "drift", ticks=2, seed=42)
        before = dict(session.state_items())
        written = write_state(session.grid)
        (eid, box), (other, other_box) = items[0], items[1]
        nan = float("nan")
        moved = _shift(other_box, [1.0, 1.0, 1.0])
        for bad in (AABB((nan, 1.0, 1.0), (nan, 2.0, 2.0)), AABB((1.0, 1.0), (2.0, 2.0))):
            for updates in ([(other, before[other], moved), (eid, before[eid], bad)],
                            [Insert(9_000, bad)]):
                with pytest.raises(ValueError):
                    session.tick(updates)
        assert dict(session.state_items()) == before
        assert write_state(session.grid) == written
        assert (session.ticks, session.stats.faults) == (2, 0)
        drive(session, subs, "drift", ticks=2, seed=43)  # asserts the oracle each tick

    def test_delta_apply_rejects_inconsistency(self):
        delta = Delta(tick=1, added=frozenset({1}), removed=frozenset({2}))
        with pytest.raises(ValueError):
            delta.apply({1, 2})  # adds an element already present
        with pytest.raises(ValueError):
            delta.apply(set())  # removes an element not present


# -- the planner ---------------------------------------------------------------


class TestPlanner:
    def test_high_churn_routes_to_recompute(self):
        items = make_items(60, seed=21)
        session = ContinuousSession(items, UNIVERSE_3D)
        sub = session.subscribe(ContinuousRangeQuery(AABB((10, 10, 10), (50, 50, 50))))
        rng = random.Random(1)
        for _ in range(3):
            state = dict(session.state_items())
            updates = [
                (eid, box, _shift(box, [rng.uniform(-2, 2)] * 3))
                for eid, box in state.items()
            ]
            session.tick(updates)
        assert session.stats.policy_routes.get("recompute", 0) > 0
        assert sub.routed == "recompute"

    @pytest.mark.parametrize("workload", ["drift", "teleport"])
    @pytest.mark.parametrize("kind", ["range", "knn"])
    def test_auto_routes_queries_incremental_and_never_predictive(self, kind, workload):
        """The planner has two routes; under low churn range and kNN
        subscriptions stay incremental for all 15 ticks."""
        items = make_items(60, seed=22)
        session = ContinuousSession(items, UNIVERSE_3D)
        subs = [session.subscribe(spec) for spec in make_specs(kind)]
        drive(session, subs, workload, ticks=15, seed=7)
        assert all(sub.routed == "incremental" for sub in subs)
        assert session.stats.policy_routes == {"incremental": 15 * len(subs)}

    def test_predictive_is_not_a_policy(self):
        """The TPR-backed policy is gone: neither a session-wide nor a
        per-subscription pin reaches it."""
        with pytest.raises(ValueError, match="unknown policy"):
            ContinuousSession(make_items(20, seed=22), UNIVERSE_3D, policy="predictive")
        session = ContinuousSession(make_items(20, seed=22), UNIVERSE_3D)
        with pytest.raises(ValueError, match="unknown policy"):
            session.subscribe(make_specs("range")[0], policy="predictive")
        assert not session.subscriptions

    def test_predictive_displacement_knob_is_gone(self):
        with pytest.raises(TypeError):
            ContinuousSession([], UNIVERSE_3D, predictive_displacement=0.5)

    def test_joins_route_incremental_under_low_churn(self):
        items = make_items(60, seed=23)
        session = ContinuousSession(items, UNIVERSE_3D)
        sub = session.subscribe(ContinuousJoinSpec(epsilon=1.0))
        drive(session, [sub], "drift", ticks=4, seed=8)
        assert sub.routed == "incremental"

    def test_pinned_policy_wins_over_planner(self):
        items = make_items(50, seed=24)
        session = ContinuousSession(items, UNIVERSE_3D)
        pinned = session.subscribe(
            ContinuousRangeQuery(AABB((0, 0, 0), (40, 40, 40))), policy="recompute"
        )
        drive(session, [pinned], "drift", ticks=3, seed=9)
        assert session.stats.policy_routes == {"recompute": 3}

    def test_teleports_keep_range_off_predictive(self):
        items = make_items(60, seed=25)
        session = ContinuousSession(items, UNIVERSE_3D)
        sub = session.subscribe(ContinuousRangeQuery(AABB((10, 10, 10), (80, 80, 80))))
        drive(session, [sub], "teleport", ticks=4, seed=10)
        assert sub.routed == "incremental"


# -- fault injection -----------------------------------------------------------


class Boom(RuntimeError):
    pass


class TestFaultInjection:
    """A policy raising mid-tick must not corrupt the session: the error
    propagates, other subscriptions finish their tick, and the failed one
    re-syncs from recompute next tick with no leaked safe-region state —
    the continuous-tier mirror of the PR 6 spill-tmpdir regression."""

    def _session(self):
        items = make_items(80, seed=31)
        session = ContinuousSession(items, UNIVERSE_3D, policy="incremental")
        victim = session.subscribe(ContinuousJoinSpec(epsilon=1.5, refine=self._refine))
        bystander = session.subscribe(ContinuousRangeQuery(AABB((10, 10, 10), (60, 60, 60))))
        knn = session.subscribe(ContinuousKNNQuery((40.0, 40.0, 40.0), k=5))
        return session, victim, bystander, knn

    def _refine(self, a: int, b: int) -> bool:
        if getattr(self, "_explode", False):
            raise Boom("refine blew up mid-tick")
        return True

    def _tick(self, session, rng):
        # Teleport the sampled elements into one tight cluster: the join's
        # re-probe is then guaranteed candidate pairs, so the refine callable
        # (the fault site) actually runs every tick.
        state = dict(session.state_items())
        updates = []
        for eid in rng.sample(sorted(state), k=8):
            old = state[eid]
            extent = [h - l for l, h in zip(old.lo, old.hi)]
            lo = [50.0 + rng.uniform(-1.0, 1.0) for _ in range(3)]
            new = AABB(lo, [c + e for c, e in zip(lo, extent)])
            updates.append((eid, old, new))
        return session.tick(updates)

    def test_fault_resyncs_next_tick(self):
        session, victim, bystander, knn = self._session()
        rng = random.Random(2)
        self._tick(session, rng)
        emitted_before_fault = list(victim.deltas)
        result_before_fault = set(victim.result)

        self._explode = True
        with pytest.raises(Boom):
            self._tick(session, rng)
        # The faulted subscription: no delta emitted, last result intact,
        # per-spec maintenance state dropped (nothing leaked).
        assert victim.dirty and victim.routed is None
        assert list(victim.deltas) == emitted_before_fault
        assert set(victim.result) == result_before_fault
        incremental = session._policies["incremental"]
        assert victim.spec.cqid not in incremental._partners
        # Bystanders completed the faulted tick and stayed exact.
        assert_exact(session, bystander)
        assert_exact(session, knn)
        assert session.stats.faults == 1

        # Next tick: the victim re-syncs through recompute; its delta spans
        # the missed tick, so accumulation still reconstructs the oracle.
        self._explode = False
        self._tick(session, rng)
        assert not victim.dirty
        assert session.stats.resyncs == 1
        assert session.stats.policy_routes.get("resync") == 1
        assert_exact(session, victim)
        # And per-spec state was rebuilt for the routed policy.
        assert victim.routed == "incremental"
        assert victim.spec.cqid in incremental._partners
        # Fully back to normal maintenance afterwards.
        self._tick(session, rng)
        assert_exact(session, victim)
        assert session.stats.resyncs == 1

    def test_authoritative_state_applies_despite_fault(self):
        session, victim, _, _ = self._session()
        state = dict(session.state_items())
        eid, other = sorted(state)[:2]
        # Land right on another element so the join's re-probe is guaranteed
        # a candidate pair — the refine callable (the fault site) must run.
        new_box = state[other]
        self._explode = True
        with pytest.raises(Boom):
            session.tick([(eid, state[eid], new_box)])
        assert session.state_box(eid) == new_box


# -- kNN distance-slack safe regions -------------------------------------------


class TestKNNSlackSafeRegion:
    """Member motion alone must not invalidate a kNN result: the slack to
    the (k+1)-th neighbor absorbs small drift, and the held result is
    patched to exact distances (pinned against the oracle each tick)."""

    def _neighbourhood(self, rng: random.Random):
        center = (50.0, 50.0, 50.0)
        items: dict[int, AABB] = {}
        for eid in range(6):  # the standing top-k members, within ~3 of center
            lo = [c + rng.uniform(-1.5, 1.5) for c in center]
            items[eid] = AABB(lo, [v + 0.2 for v in lo])
        for eid in range(6, 106):  # a far cloud, always > 25 away
            while True:
                lo = [rng.uniform(0.0, 95.0) for _ in range(3)]
                box = AABB(lo, [v + 0.5 for v in lo])
                if box.min_distance_to_point(center) > 25.0:
                    break
            items[eid] = box
        return center, items

    @pytest.mark.parametrize("policy", ["incremental", "auto"])
    def test_small_drift_holds_safe_region(self, policy):
        rng = random.Random(77)
        center, items = self._neighbourhood(rng)
        session = ContinuousSession(list(items.items()), UNIVERSE_3D, policy=policy)
        sub = session.subscribe(ContinuousKNNQuery(center, k=5))
        ticks = 25
        for _ in range(ticks):
            updates = []
            for eid in range(6):  # every member jitters every tick
                box = session.state_box(eid)
                offset = [rng.uniform(-0.05, 0.05) for _ in range(3)]
                updates.append((eid, box, _shift(box, offset)))
            for eid in rng.sample(range(6, 106), k=12):  # the cloud drifts too
                box = session.state_box(eid)
                offset = [rng.uniform(-0.5, 0.5) for _ in range(3)]
                updates.append((eid, box, _shift(box, offset)))
            session.tick(updates)
            assert_exact(session, sub)  # held results are patched, still exact
        counters = session.counters
        # Members moved on all 25 ticks: the old member-motion rule would
        # have recomputed 25 times.  Only the first evaluation (no slack
        # recorded yet) may invalidate.
        assert counters.safe_region_invalidations <= 1
        assert counters.safe_region_hits >= ticks - 1

    def test_outsider_crossing_slack_invalidates(self):
        rng = random.Random(78)
        center, items = self._neighbourhood(rng)
        session = ContinuousSession(list(items.items()), UNIVERSE_3D, policy="incremental")
        sub = session.subscribe(ContinuousKNNQuery(center, k=5))
        # Establish the slack with one jitter tick...
        box = session.state_box(0)
        session.tick([(0, box, _shift(box, [0.01, 0.0, 0.0]))])
        before = session.counters.safe_region_invalidations
        # ...then teleport a cloud element onto the query point: it lands
        # inside the k-th distance, so the cached membership must change.
        intruder = session.state_box(99)
        offset = [c - l for c, l in zip(center, intruder.lo)]
        delta = session.tick([(99, intruder, _shift(intruder, offset))])[sub.cqid]
        assert session.counters.safe_region_invalidations == before + 1
        assert 99 in delta.added
        assert_exact(session, sub)


# -- the vectorized kNN entrant prefilter ---------------------------------------


def _point(*coords: float) -> AABB:
    return AABB(coords, coords)


class TestKNNEntrantPrefilter:
    """One distance matrix per tick tests every subscription's entrants; it
    must never miss one that would have invalidated the result or tightened
    the slack.  Every tick here has > 64 entrants, and exactness *includes
    distances*."""

    ORIGIN = (0.0, 0.0, 0.0)
    CLOUD = range(100, 180)  # 80 outsiders, always farther than 60 from ORIGIN

    def _session(self, near: dict[int, AABB]):
        """``near`` plus a far cloud; returns (session, kNN sub at ORIGIN, k=3)."""
        rng = random.Random(5)
        items = dict(near)
        for eid in self.CLOUD:
            lo = [rng.uniform(60.0, 95.0) for _ in range(3)]
            items[eid] = AABB(lo, [c + 0.5 for c in lo])
        session = ContinuousSession(sorted(items.items()), UNIVERSE_3D, policy="incremental")
        return session, session.subscribe(ContinuousKNNQuery(self.ORIGIN, k=3)), rng

    def _cloud_jitter(self, session, rng, skip=()):
        """Every cloud element moves (> 64 entrants), none comes near."""
        updates = []
        for eid in self.CLOUD:
            if eid in skip:
                continue
            box = session.state_box(eid)
            lo = [min(max(c + rng.uniform(-0.3, 0.3), 60.0), 95.0) for c in box.lo]
            updates.append((eid, box, AABB(lo, [c + 0.5 for c in lo])))
        return updates

    def _establish_slack(self, session, sub, rng, member: int) -> float:
        """A member's nudge on a slack-less result forces the one full probe
        that records the (k+1)-th distance."""
        box = session.state_box(member)
        nudged = AABB([c + 1e-3 for c in box.lo], [c + 1e-3 for c in box.hi])
        session.tick([(member, box, nudged)] + self._cloud_jitter(session, rng))
        assert_exact(session, sub)
        return session._policies["incremental"]._knn_slack[sub.cqid]

    def test_outsider_exactly_at_kth_distance_invalidates(self):
        """The ``<=`` tie rule: an entrant on the k-th member's distance must
        force a probe.  The distance matrix is the scalar distance bit for
        bit, so it sees the tie exactly."""
        from repro.geometry.aabb import batch_min_distance_to_points, boxes_to_array

        rng = random.Random(11)
        kth = _point(*(rng.uniform(10.0, 40.0) for _ in range(3)))
        exact = kth.min_distance_to_point(self.ORIGIN)
        assert batch_min_distance_to_points(boxes_to_array([kth]), [self.ORIGIN])[0, 0] == exact

        session, sub, rng = self._session({1: _point(1, 0, 0), 2: _point(2, 0, 0), 9: kth})
        assert sub.result[-1] == (exact, 9)
        self._establish_slack(session, sub, rng, member=1)
        before = session.counters.safe_region_invalidations
        # Cloud element 100 lands exactly on the k-th member: (exact, 100)
        # sorts after (exact, 9), so membership holds — but only a full
        # probe may say so (and the next slack becomes the tie itself).
        intruder = session.state_box(100)
        session.tick([(100, intruder, kth)] + self._cloud_jitter(session, rng, skip={100}))
        assert session.counters.safe_region_invalidations == before + 1
        assert_exact(session, sub)
        assert session._policies["incremental"]._knn_slack[sub.cqid] == exact
        # A lower id on the same spot does take the seat.
        session.tick([Insert(3, kth)] + self._cloud_jitter(session, rng))
        assert_exact(session, sub)
        assert sub.result[-1] == (exact, 3)

    def test_outsider_at_the_slack_holds_it_and_just_inside_tightens(self):
        near = {1: _point(10, 0, 0), 2: _point(20, 0, 0), 3: _point(30, 0, 0), 4: _point(40, 0, 0)}
        session, sub, rng = self._session(near)
        slack = self._establish_slack(session, sub, rng, member=1)
        assert slack == 40.0
        policy = session._policies["incremental"]
        invalidations = session.counters.safe_region_invalidations

        at_slack = _point(0, 40, 0)
        box = session.state_box(100)
        session.tick([(100, box, at_slack)] + self._cloud_jitter(session, rng, skip={100}))
        assert policy._knn_slack[sub.cqid] == 40.0  # ``<``: a tie with the slack is no news

        inside = _point(0, math.nextafter(40.0, 0.0), 0)
        session.tick([(100, at_slack, inside)] + self._cloud_jitter(session, rng, skip={100}))
        assert policy._knn_slack[sub.cqid] == math.nextafter(40.0, 0.0)
        assert session.counters.safe_region_invalidations == invalidations
        assert_exact(session, sub)

    def test_short_list_takes_every_entrant(self):
        """``len(result) < k``: d_k is infinite, nothing can be filtered."""
        items = [(1, _point(5, 5, 5)), (2, _point(40, 40, 40))]
        session = ContinuousSession(items, UNIVERSE_3D, policy="incremental")
        sub = session.subscribe(ContinuousKNNQuery(self.ORIGIN, k=70))
        rng = random.Random(3)
        arrivals = [
            Insert(eid, _point(*(rng.uniform(0.0, 99.0) for _ in range(3))))
            for eid in range(10, 76)
        ]
        session.tick(arrivals)  # 66 entrants, all of them belong
        assert_exact(session, sub)
        assert len(sub.result) == 68
        session.tick([Insert(eid, _point(90, 90, eid - 70)) for eid in range(80, 150)])
        assert_exact(session, sub)
        assert len(sub.result) == 70

    def test_freshly_adopted_result_has_no_slack_to_filter_by(self):
        """Before the first probe the slack reads 0.0: entrants beyond d_k
        are hits that record nothing, one inside d_k still invalidates."""
        near = {1: _point(10, 0, 0), 2: _point(20, 0, 0), 3: _point(30, 0, 0), 4: _point(40, 0, 0)}
        session, sub, rng = self._session(near)
        policy_slack = lambda: session._policies["incremental"]._knn_slack
        session.tick(self._cloud_jitter(session, rng))
        assert sub.cqid not in policy_slack()
        assert session.counters.safe_region_invalidations == 0
        # Between d_k (30) and the would-be slack (40): still just a hit.
        box = session.state_box(100)
        session.tick([(100, box, _point(0, 35, 0))] + self._cloud_jitter(session, rng, skip={100}))
        assert sub.cqid not in policy_slack()
        assert session.counters.safe_region_invalidations == 0
        assert_exact(session, sub)
        box = session.state_box(101)
        session.tick([(101, box, _point(0, 0, 25))] + self._cloud_jitter(session, rng, skip={101}))
        assert session.counters.safe_region_invalidations == 1
        assert knn_ids(sub.result) == {1, 2, 101}
        assert_exact(session, sub)

    @settings(max_examples=30)
    @given(
        dims=st.sampled_from([2, 3]),
        seed=st.integers(min_value=0, max_value=2**32),
        ticks=st.integers(min_value=1, max_value=5),
    )
    def test_tick_programs_stay_bit_identical_to_recompute(self, dims, seed, ticks):
        """Crowded ticks (65+ movers, inserts, deletes) with exact ties on
        members and near misses around the query point, in 2-D and 3-D.
        (Hypothesis picks the program's shape and seed; a program this size
        drawn value by value would exhaust its entropy budget.)"""
        rng = random.Random(seed)
        universe = UNIVERSE_2D if dims == 2 else UNIVERSE_3D
        n = rng.randint(80, 130)
        state = {}
        for eid in range(n):
            lo = [rng.uniform(0.0, 95.0) for _ in range(dims)]
            state[eid] = AABB(lo, [c + rng.uniform(0.0, 4.0) for c in lo])
        session = ContinuousSession(sorted(state.items()), universe, policy="incremental")
        center = tuple(rng.uniform(20.0, 80.0) for _ in range(dims))
        subs = [
            session.subscribe(ContinuousKNNQuery(center, k=rng.randint(1, 8))),
            session.subscribe(ContinuousKNNQuery(tuple([0.0] * dims), k=5)),
        ]
        next_eid = n
        for _ in range(ticks):
            updates = []
            movers = rng.sample(sorted(state), k=rng.randint(65, len(state) - 2))
            for eid in movers:
                box, style = state[eid], rng.random()
                if style < 0.1:  # land exactly on a current member: a distance tie
                    target = state.get(rng.choice(sorted(subs[0].result_set())), box)
                    offset = [t - l for t, l in zip(target.lo, box.lo)]
                elif style < 0.3:  # jump next to the query point
                    offset = [c + rng.uniform(-3, 3) - l for c, l in zip(center, box.lo)]
                else:
                    offset = [rng.uniform(-1.0, 1.0) for _ in range(dims)]
                new = _shift(box, offset, universe)
                updates.append((eid, box, new))
                state[eid] = new
            for _ in range(rng.randint(0, 3)):
                lo = [rng.uniform(0.0, 95.0) for _ in range(dims)]
                state[next_eid] = AABB(lo, [c + 1.0 for c in lo])
                updates.append(Insert(next_eid, state[next_eid]))
                next_eid += 1
            still = sorted(set(state) - set(movers) - set(range(next_eid - 3, next_eid)))
            for eid in rng.sample(still, k=min(len(still), rng.randint(0, 2))):
                updates.append(Delete(eid))
                del state[eid]
            session.tick(updates)
            for sub in subs:
                assert sub.result == session.oracle_result(sub)  # distances too


# -- one kernel pass per tick ----------------------------------------------------


def _cube(center, half: float = 0.25) -> AABB:
    return AABB([c - half for c in center], [c + half for c in center])


class TestBatchedTick:
    """A tick hands each policy all of its subscriptions at once: the kNN
    re-probes share one ``batch_knn`` per ``k``, the entrant prefilters one
    distance matrix, and the join re-probe runs on the gap kernel alone.
    Structural pins (call counts, never wall clock), each checked against
    the oracle as well."""

    A = [(20.0, 20.0, 20.0), (22.0, 20.0, 20.0), (20.0, 22.0, 20.0)]
    B = (80.0, 80.0, 80.0)

    def _session(self):
        """Cluster A (eids 0-9) around three kNN points, cluster B (10-19)
        around a fourth, a far cloud (20-59); range, join and kNN specs."""
        rng = random.Random(13)
        items = {}
        for eid in range(10):
            items[eid] = _cube([c + rng.uniform(-2.0, 2.0) for c in self.A[0]])
        for eid in range(10, 20):
            items[eid] = _cube([c + rng.uniform(-2.0, 2.0) for c in self.B])
        for eid in range(20, 60):
            items[eid] = _cube([rng.uniform(45.0, 60.0) for _ in range(3)])
        session = ContinuousSession(sorted(items.items()), UNIVERSE_3D, policy="incremental")
        ranged = session.subscribe(ContinuousRangeQuery(AABB((15, 15, 15), (25, 25, 25))))
        joined = session.subscribe(ContinuousJoinSpec(epsilon=1.0))
        near = [session.subscribe(ContinuousKNNQuery(point, k=3)) for point in self.A]
        far = session.subscribe(ContinuousKNNQuery(self.B, k=3))
        session.tick([])  # instantiates the incremental policy
        return session, ranged, joined, near, far, rng

    def _jiggle(self, session, rng, eids, step: float = 0.3):
        updates = []
        for eid in eids:
            box = session.state_box(eid)
            updates.append((eid, box, _shift(box, [rng.uniform(-step, step) for _ in range(3)])))
        return updates

    def test_invalidated_knn_specs_share_one_batch_knn(self, monkeypatch):
        session, _, _, near, far, rng = self._session()
        grid = session.grid
        calls = []
        original = grid.batch_knn

        def spy(points, k):
            calls.append((len(points), k))
            return original(points, k)

        monkeypatch.setattr(grid, "batch_knn", spy)
        invalidations = session.counters.safe_region_invalidations
        # Every cluster-A member moves: no A spec has a slack yet, so each
        # of the three (same k) must re-probe; the B spec holds.
        session.tick(self._jiggle(session, rng, range(10)))
        assert session.counters.safe_region_invalidations - invalidations >= 3
        assert calls == [(3, 4)]
        for sub in near + [far]:
            assert_exact(session, sub)

    def _matrix_rows(self, monkeypatch) -> list[int]:
        """Spy on the entrant distance matrix: the row count of each call."""
        import repro.continuous.policies as policies

        rows, original = [], policies.batch_min_distance_to_points
        monkeypatch.setattr(policies, "batch_min_distance_to_points",
                            lambda boxes, points: rows.append(len(points)) or original(boxes, points))
        return rows

    def test_entrant_prefilter_is_one_distance_matrix_per_tick(self, monkeypatch):
        session, _, _, near, far, rng = self._session()
        session.tick(self._jiggle(session, rng, range(20)))  # records every slack
        calls = self._matrix_rows(monkeypatch)
        for tick in range(4):
            calls.clear()
            session.tick(self._jiggle(session, rng, range(20, 60)))  # only the cloud
            assert calls == [4]
            for sub in near + [far]:
                assert_exact(session, sub)

    def test_a_crowded_tick_splits_the_matrix_into_row_blocks(self, monkeypatch):
        session, _, _, near, far, rng = self._session()
        session.tick(self._jiggle(session, rng, range(20)))  # records every slack
        crowd = [Insert(eid, _cube([rng.uniform(45.0, 60.0) for _ in range(3)]))
                 for eid in range(100, 1700)]
        calls = self._matrix_rows(monkeypatch)
        session.tick(crowd + self._jiggle(session, rng, range(20, 60)))
        # Several blocks, fewer than one per spec; each spec's row in one block.
        assert 1 < len(calls) < 4 and sum(calls) == 4
        for sub in near + [far]:
            assert_exact(session, sub)

    def test_join_reprobe_never_calls_the_scalar_box_gap(self, monkeypatch):
        session, _, joined, _, _, rng = self._session()
        calls = []
        original = AABB.min_distance_to_box

        def spy(self, other):
            calls.append(1)
            return original(self, other)

        monkeypatch.setattr(AABB, "min_distance_to_box", spy)
        refines = session.counters.refine_tests
        for _ in range(3):
            session.tick(self._jiggle(session, rng, range(60), step=1.0))
        assert session.counters.refine_tests > refines  # the gap test did run
        assert calls == []
        monkeypatch.undo()
        assert_exact(session, joined)

    @pytest.mark.parametrize("spec", [
        ContinuousKNNQuery((1.0, 2.0), k=2), ContinuousRangeQuery(AABB((0, 0), (5, 5)))])
    def test_a_spec_of_other_dims_is_refused_before_it_shares_a_probe(self, spec):
        # An empty grid answers anything, so only the subscribe check stops
        # a 2-D spec from failing every 3-D spec batched with it later.
        session = ContinuousSession([], UNIVERSE_3D, policy="incremental")
        with pytest.raises(ValueError, match="dims"):
            session.subscribe(spec)
        good = session.subscribe(ContinuousKNNQuery((1.0, 2.0, 3.0), k=2))
        session.tick([Insert(eid, _cube((eid, eid, eid))) for eid in range(1, 10)])
        box = session.state_box(1)
        session.tick([(1, box, _shift(box, [0.5, 0.0, 0.0]))])
        assert_exact(session, good)

    def test_failed_knn_reprobe_fails_exactly_its_specs(self, monkeypatch):
        session, ranged, joined, near, far, rng = self._session()
        grid = session.grid
        original = grid.batch_knn
        raised = []

        def once(points, k):
            if not raised:
                raised.append(len(points))
                raise Boom("batch_knn")
            return original(points, k)

        monkeypatch.setattr(grid, "batch_knn", once)
        before = {sub.cqid: (list(sub.result), list(sub.deltas)) for sub in near}
        with pytest.raises(Boom):
            session.tick(self._jiggle(session, rng, range(10)))
        assert raised == [3]
        tick = session.ticks
        for sub in near:
            assert sub.dirty and sub.routed is None
            assert (sub.result, sub.deltas) == before[sub.cqid]
        # Range, join and the held kNN spec still got this tick's delta.
        for sub in (ranged, joined, far):
            assert not sub.dirty and sub.deltas[-1].tick == tick
            assert_exact(session, sub)
        assert session.stats.faults == 3

        session.tick(self._jiggle(session, rng, range(10)))
        assert session.stats.resyncs == 3
        for sub in near + [ranged, joined, far]:
            assert not sub.dirty and sub.routed == "incremental"
            assert_exact(session, sub)


class TestDistanceContract:
    """One distance formula: every index's scalar ``knn(p, k)`` is
    ``batch_knn([p], k)[0]`` and row ``i`` of ``batch_knn(P, k)``, bit for
    bit; the scalar box gap is the ``batch_box_gaps`` row.  The continuous
    layer reports those distances for every policy, whichever executor
    answers, and the join keeps a pair when ``batch_box_gaps <= ε``."""

    @pytest.mark.parametrize("name", list(INDEX_REGISTRY))
    def test_scalar_batch_one_and_batch_n_knn_are_bit_identical(self, name):
        universe = UNIVERSE_2D if name == "quadtree" else UNIVERSE_3D
        items = make_items(400, universe, seed=29, points=name in ("kdtree", "spill_tree"))
        index, oracle = make_index(name), LinearScan()
        index.bulk_load(items)
        oracle.bulk_load(items)
        probes = np.random.default_rng(30).uniform(-5.0, 105.0, size=(40, universe.dims))
        probes[:8] = [box.center() for _, box in items[:8]]  # inside (or on) an element
        for k in (1, 7):
            batch = index.batch_knn(probes, k)
            for point, row in zip(probes.tolist(), batch):
                assert index.knn(point, k) == index.batch_knn([point], k)[0] == row
                assert row == oracle.knn(point, k)

    def test_scalar_box_gap_is_the_kernel_row(self):
        rng = np.random.default_rng(31)
        lo = rng.uniform(0.0, 10.0, size=(2, 500, 3))
        a, b = (np.stack([corner, corner + rng.uniform(0.0, 3.0, size=(500, 3))], axis=1) for corner in lo)
        rows = batch_box_gaps(a, b).tolist()
        assert rows == [AABB(*x).min_distance_to_box(AABB(*y)) for x, y in zip(a, b)]
        assert 0.0 in rows and any(rows)

    def test_join_and_its_oracle_agree_at_the_epsilon_boundary(self):
        # Per-axis gaps on which two formulas once disagreed by one ulp: at
        # ε = the kernel's gap the pair sits exactly on the boundary and
        # both joins keep it; one ulp below, both drop it.
        g = (0.012561257529079892, 0.040329209851472696, 0.033643983317252706)
        items = [(0, AABB((-1.0,) * 3, (0.0,) * 3)), (1, AABB((5.0,) * 3, (6.0,) * 3))]
        items += [(eid, AABB((10.0 + 3 * eid,) * 3, (11.0 + 3 * eid,) * 3)) for eid in range(2, 40)]
        moved = AABB(g, [c + 1 for c in g])
        gap = batch_box_gaps(boxes_to_array([items[0][1]]), boxes_to_array([moved]))[0]
        assert gap == items[0][1].min_distance_to_box(moved)
        for epsilon, pairs in ((gap, {(0, 1)}), (math.nextafter(gap, 0.0), set())):
            session = ContinuousSession(items)
            sub = session.subscribe(ContinuousJoinSpec(epsilon=epsilon))
            session.tick([(1, session.state_box(1), moved)])
            assert session.stats.policy_routes == {"incremental": 1}
            assert sub.result == session.oracle_result(sub) == pairs
            assert_exact(session, sub)

    def test_recompute_and_incremental_knn_are_bit_identical_on_the_batch_kernel(
        self, monkeypatch
    ):
        from functools import partial

        import repro.continuous.session as continuous_session
        from repro.engine import BatchExecutor, QuerySession

        monkeypatch.setattr(
            continuous_session, "QuerySession", partial(QuerySession, executor=BatchExecutor())
        )
        rng = random.Random(23)
        items = make_items(300, seed=23)
        session = ContinuousSession(items, UNIVERSE_3D, policy="incremental")
        subs = [
            session.subscribe(ContinuousKNNQuery(
                tuple(rng.uniform(0.0, 100.0) for _ in range(3)), k=rng.randint(1, 8)))
            for _ in range(200)
        ]
        # Every element moves: no adopted result has a slack yet, so every
        # spec re-probes the session's grid on the batch kernel.
        updates = []
        for eid, box in session.state_items():
            updates.append((eid, box, _shift(box, [rng.uniform(-0.2, 0.2) for _ in range(3)])))
        session.tick(updates)
        assert session.counters.safe_region_invalidations == len(subs)
        for sub in subs:
            assert sub.result == session.oracle_result(sub)
            point = sub.spec.point
            assert sub.result == sorted(
                (session.state_box(eid).min_distance_to_point(point), eid)
                for _, eid in sub.result
            )


# -- telemetry -----------------------------------------------------------------


class TestTelemetry:
    def test_stats_and_counters_flow(self):
        items = make_items(100, seed=41)
        session = ContinuousSession(items, UNIVERSE_3D, policy="incremental")
        subs = [session.subscribe(s) for kind in KINDS for s in make_specs(kind)]
        drive(session, subs, "churn", ticks=6, seed=42)
        stats = session.stats
        assert stats.ticks == 6
        assert stats.deltas == 6 * len(subs)
        assert stats.updates > 0
        checks = session.counters.safe_region_hits + session.counters.safe_region_invalidations
        assert checks > 0
        added = stats.results_added + stats.pairs_added
        removed = stats.results_removed + stats.pairs_removed
        assert added + removed == sum(
            len(d.added) + len(d.removed) for sub in subs for d in sub.deltas
        )

    def test_continuous_report_renders(self):
        items = make_items(60, seed=43)
        session = ContinuousSession(items, UNIVERSE_3D)
        subs = [session.subscribe(s) for s in make_specs("join")]
        drive(session, subs, "drift", ticks=4, seed=44)
        report = continuous_report(session)
        assert "safe regions" in report and "policy" in report
        assert session_report(session) == report  # dispatch on type

    def test_counters_snapshot_diff_cover_new_fields(self):
        from repro.instrumentation import Counters

        counters = Counters()
        counters.safe_region_hits = 3
        counters.safe_region_invalidations = 2
        snap = counters.snapshot()
        counters.safe_region_hits = 10
        diff = counters.diff(snap)
        assert diff.safe_region_hits == 7 and diff.safe_region_invalidations == 0
        assert "safe_region_hits" in counters.as_dict()


# -- the maintained self-join (Sowell et al.'s iterated join) ------------------


def _touch_join(items, universe: AABB, policy: str):
    """A session pinned to ``policy`` maintaining the intersecting pairs."""
    session = ContinuousSession(items, universe, policy=policy)
    return session, session.subscribe(ContinuousJoinSpec(epsilon=0.0))


def _nested_loop_pairs(live: dict) -> set:
    return set(NestedLoopJoin().self_join(list(live.items()), Counters()))


def _nested_loop_pairs_within(live: dict, epsilon: float) -> set:
    """The within-ε self-join by brute force on the scalar box gap."""
    boxes = sorted(live.items())
    return {(a, b) for i, (a, box) in enumerate(boxes) for b, other in boxes[i + 1:]
            if box.min_distance_to_box(other) <= epsilon}


class TestMaintainedSelfJoin:
    """Section 4.1's iterated join — recompute the pairs every step, or
    maintain them — is one ``ContinuousJoinSpec(epsilon=0)`` pinned to
    ``recompute`` or ``incremental``: at ε = 0 the gap is 0 exactly when the
    boxes intersect, so both equal the nested-loop intersection join."""

    def _items(self, n=150, seed=8):
        return [(eid, box.expanded(0.2)) for eid, box in make_items(n, seed=seed, max_extent=2.0)]

    @pytest.mark.parametrize("policy", ["incremental", "recompute"])
    def test_matches_oracle_across_steps(self, policy):
        items = self._items()
        session, sub = _touch_join(items, UNIVERSE_3D, policy)
        live = dict(items)
        motion = BrownianMotion(sigma=0.3, universe=UNIVERSE_3D, seed=9)
        for _ in range(4):
            moves = motion.step(live)
            session.tick(moves)
            apply_moves(live, moves)
            assert sub.result == _nested_loop_pairs(live)
            assert_exact(session, sub)
        assert session.stats.policy_routes == {policy: 4}

    def test_strategies_agree(self):
        items = self._items(seed=10)
        joins = {policy: _touch_join(items, UNIVERSE_3D, policy) for policy in ("incremental", "recompute")}
        live = dict(items)
        motion = PlasticityMotion(universe=UNIVERSE_3D, seed=11)
        for _ in range(3):
            moves = motion.step(live)
            for session, _ in joins.values():
                session.tick(moves)
            apply_moves(live, moves)
        (_, incremental), (_, recompute) = joins.values()
        assert incremental.result == recompute.result == _nested_loop_pairs(live)
        assert incremental.deltas == recompute.deltas

    def _sweep(self, items, universe, fraction, seed):
        """Three steps at ``fraction`` moving through each pinned policy:
        its final pairs and the element box tests the steps charged (both
        policies count them as ``comparisons``, the incremental re-probe as
        the recompute's join does)."""
        pairs, work = {}, {}
        for policy in ("incremental", "recompute"):
            session, sub = _touch_join(items, universe, policy)
            live = dict(items)
            motion = BrownianMotion(sigma=1.0, universe=universe, moving_fraction=fraction, seed=seed)
            before = session.counters.snapshot()
            for _ in range(3):
                moves = motion.step(live)
                session.tick(moves)
                apply_moves(live, moves)
                assert sub.result == _nested_loop_pairs(live)
            spent = session.counters.diff(before)
            pairs[policy], work[policy] = sub.result, spent.comparisons
        return pairs, work

    def test_incremental_does_less_work_when_few_move(self):
        """Maintaining the pair set "will almost always pay off" when few
        elements move: at 5 % moving, the incremental join charges a fraction
        of the recompute's element tests for the same pairs."""
        pairs, work = self._sweep(self._items(seed=15), UNIVERSE_3D, 0.05, seed=16)
        assert pairs["incremental"] == pairs["recompute"]
        assert work["incremental"] < work["recompute"] / 2

    @pytest.mark.parametrize("fraction", [0.05, 0.3, 1.0])
    def test_moving_fraction_sweep_matches_oracle(self, fraction):
        """Few, some or all elements moving: both policies keep the nested
        loop's pair set every step, and both count their element tests."""
        dense = AABB((0.0, 0.0, 0.0), (25.0, 25.0, 25.0))  # tens of pairs
        items = make_items(300, universe=dense, max_extent=2.0, seed=17)
        pairs, work = self._sweep(items, dense, fraction, seed=18)
        assert pairs["incremental"] == pairs["recompute"]
        assert work["incremental"] > 0 and work["recompute"] > 0

    def test_unknown_policy(self):
        with pytest.raises(ValueError, match="unknown policy"):
            ContinuousSession(self._items(), UNIVERSE_3D, policy="magic")


# -- one grid per session -------------------------------------------------------


def _count_grids(monkeypatch) -> list[type]:
    """The type of every grid constructed from now on (``SnapshotGridIndex``
    runs ``UniformGrid.__init__`` too)."""
    from repro.core import UniformGrid

    built, original = [], UniformGrid.__init__

    def counting(self, *args, **kwargs):
        built.append(type(self))
        original(self, *args, **kwargs)

    monkeypatch.setattr(UniformGrid, "__init__", counting)
    return built


class TestOneGrid:
    """A session keeps its elements in one grid: its own, or the live grid it
    is handed.  Both policies read that grid; nothing rebuilds a copy."""

    def test_a_standalone_session_constructs_exactly_one_grid(self, monkeypatch):
        built = _count_grids(monkeypatch)
        session = ContinuousSession(make_items(120, seed=51), UNIVERSE_3D)
        subs = [session.subscribe(spec) for kind in KINDS for spec in make_specs(kind)]
        subs += [session.subscribe(spec, policy="recompute") for kind in KINDS for spec in make_specs(kind)]
        drive(session, subs, "churn", ticks=4, seed=52)
        assert built == [type(session.grid)]
        assert len(session.grid) == len(session) == len(list(session.state_items()))

    @pytest.mark.parametrize("policy", POLICIES)
    @pytest.mark.parametrize("source", ["items", "live grid"])
    def test_an_empty_session_answers_and_grows(self, source, policy):
        """No elements yet: every spec kind answers empty, and the first
        inserts configure the grid (with no universe given, from the boxes)."""
        from repro.core import UniformGrid

        session = ContinuousSession([] if source == "items" else UniformGrid(), policy=policy)
        assert session.universe is None and len(session) == 0
        subs = [session.subscribe(spec) for kind in KINDS for spec in make_specs(kind)]
        assert all(not sub.result for sub in subs)
        rng = random.Random(66)
        session.tick([Insert(eid, _boxed(rng)) for eid in range(40)])
        assert session.universe is not None and len(session) == 40
        for sub in subs:
            assert_exact(session, sub)
        drive(session, subs, "churn", ticks=3, seed=67)

    @pytest.mark.parametrize("kind", KINDS)
    def test_a_cancelled_subscription_gets_no_more_deltas(self, kind):
        session = ContinuousSession(make_items(80, seed=63), UNIVERSE_3D, policy="incremental")
        gone, kept = (session.subscribe(spec) for spec in make_specs(kind))
        drive(session, [gone, kept], "drift", ticks=2, seed=64)
        gone.cancel()
        policy = session._policies["incremental"]
        assert gone.cqid not in policy._partners and gone.cqid not in policy._knn_slack
        drive(session, [kept], "drift", ticks=2, seed=65)
        assert session.subscriptions == [kept]
        assert (len(gone.deltas), len(kept.deltas)) == (2, 4)

    def test_a_mismatched_universe_is_refused_when_the_session_is_built(self):
        items = make_items(10, seed=53)
        with pytest.raises(ValueError, match="3 dims, index has 2"):
            ContinuousSession(items, AABB((0, 0), (10, 10)))

    def test_a_session_over_a_live_grid_writes_it_and_charges_its_counters(self):
        from repro.core import UniformGrid

        items = make_items(100, seed=54)
        grid = UniformGrid(universe=UNIVERSE_3D)
        grid.bulk_load(items)
        session = ContinuousSession(grid, policy="incremental")
        assert session.grid is grid and session.counters is grid.counters
        assert session.universe == UNIVERSE_3D
        subs = [session.subscribe(spec) for kind in KINDS for spec in make_specs(kind)]
        drive(session, subs, "churn", ticks=4, seed=55)
        assert dict(session.state_items()) == grid.boxes
        assert grid.counters.safe_region_hits + grid.counters.safe_region_invalidations > 0
        with pytest.raises(ValueError, match="universe"):
            ContinuousSession(grid, AABB((0, 0, 0), (1, 1, 1)))

    @pytest.mark.parametrize("pin", [None, "recompute"])
    def test_a_simulation_session_shares_the_simulation_grid(self, monkeypatch, pin):
        from repro.core import UniformGrid
        from repro.sim import TimeSteppedSimulation
        from repro.sim.plasticity import PlasticityModel

        items = dict(make_items(150, seed=56, max_extent=2.0))
        grid = UniformGrid(universe=UNIVERSE_3D)
        built = _count_grids(monkeypatch)
        model = PlasticityModel(items, UNIVERSE_3D, neighbourhood_queries=4, moving_fraction=0.1, seed=57)
        sim = TimeSteppedSimulation(model, grid, continuous=True)
        session = sim.continuous
        subs = [session.subscribe(spec, policy=pin) for kind in KINDS for spec in make_specs(kind)]
        reports = sim.run(4)
        assert built == []  # no grid beyond the caller's, no SnapshotGridIndex
        assert session.grid is grid and session.counters is grid.counters
        assert session.stats.policy_routes == {pin or "incremental": 4 * len(subs)}
        assert dict(session.state_items()) == sim.state
        # The join probes charge the index's counters, so the steps report them.
        assert all(report.counters.comparisons > 0 for report in reports)
        for sub in subs:
            assert_exact(session, sub)

    def test_each_tick_writes_the_grid_once(self, monkeypatch):
        """The tick's moves reach the grid as one ``apply_moves``, before any
        policy reads it, whatever is subscribed — range specs too, which
        never probe the grid."""
        from repro.core import UniformGrid
        from repro.sim import TimeSteppedSimulation
        from repro.sim.plasticity import PlasticityModel

        writes = []
        original = UniformGrid.apply_moves
        monkeypatch.setattr(UniformGrid, "apply_moves",
                            lambda grid, moves: writes.append(grid) or original(grid, moves))
        items = dict(make_items(100, seed=60))
        model = PlasticityModel(items, UNIVERSE_3D, neighbourhood_queries=2, moving_fraction=0.1, seed=61)
        sim = TimeSteppedSimulation(model, UniformGrid(universe=UNIVERSE_3D), continuous=True)
        sub = sim.continuous.subscribe(make_specs("range")[0])
        sim.run(3)
        assert writes == [sim.index] * 3
        assert_exact(sim.continuous, sub)

    def test_the_oracle_shares_no_grid_code(self, monkeypatch):
        """A grid that answers wrong cannot pass its own oracle: with every
        grid read broken, ``oracle_result`` still answers each spec kind."""
        from repro.core import UniformGrid

        items = make_items(80, seed=62)
        session = ContinuousSession(items, UNIVERSE_3D)
        specs = [spec for kind in KINDS for spec in make_specs(kind)]
        want = [session.oracle_result(spec) for spec in specs]
        for read in ("batch_range_hits", "batch_range_query", "batch_knn", "range_query", "knn"):
            monkeypatch.setattr(UniformGrid, read, lambda *args, **kwargs: 1 / 0)
        assert [session.oracle_result(spec) for spec in specs] == want
        scan = LinearScan()
        scan.bulk_load(items)
        assert want[0] == set(scan.range_query(specs[0].box))
        assert want[2] == scan.knn(specs[2].point, specs[2].k)
        assert want[4] == _nested_loop_pairs_within(dict(items), specs[4].epsilon)

    def test_a_simulation_over_another_index_is_refused_before_loading(self):
        """The session's state is the simulation's index, so only a grid
        can carry standing queries; nothing is loaded into any other."""
        from repro.indexes.rtree import RTree
        from repro.sim import TimeSteppedSimulation
        from repro.sim.plasticity import PlasticityModel

        items = dict(make_items(150, seed=58, max_extent=2.0))
        model = PlasticityModel(items, UNIVERSE_3D, neighbourhood_queries=4, seed=59)
        index = RTree()
        with pytest.raises(TypeError, match="UniformGrid"):
            TimeSteppedSimulation(model, index, continuous=True)
        assert len(index) == 0

    def test_a_growing_simulation_constructs_only_the_callers_grid(self, monkeypatch):
        """The model's standing synapse join rides the simulation's session."""
        from repro.core import UniformGrid
        from repro.datasets.neuroscience import generate_neurons
        from repro.sim import GrowthModel, TimeSteppedSimulation

        dataset = generate_neurons(neurons=5, segments_per_neuron=4, seed=30)
        built = _count_grids(monkeypatch)
        model = GrowthModel(dataset, join_every=1, epsilon=0.3, seed=9)
        grid = UniformGrid(universe=dataset.universe)
        sim = TimeSteppedSimulation(model, grid, continuous=True)
        sim.run(5)
        assert built == [UniformGrid]
        assert sim.continuous.subscriptions == [model.synapse_subscription]
        assert len(model.synapse_counts) == 5

    def test_a_read_only_grid_is_refused_when_the_session_is_built(self):
        from repro.core import UniformGrid
        from repro.serving.snapshots import SnapshotGridIndex

        grid = UniformGrid(universe=UNIVERSE_3D)
        grid.bulk_load(make_items(50, seed=60))
        with pytest.raises(TypeError, match="does not support item assignment"):
            grid.boxes[0] = grid.boxes[0]
        with pytest.raises(TypeError, match="read-only"):
            ContinuousSession(SnapshotGridIndex(*grid.snapshot_export()))


# -- simulation subscribers ----------------------------------------------------


class TestSimulationSubscribers:
    def test_engine_monitor_subscribes(self):
        from repro.core import UniformGrid
        from repro.sim import ContinuousDensityMonitor, TimeSteppedSimulation
        from repro.sim.plasticity import PlasticityModel

        items = dict(make_items(80, seed=71))
        regions = [AABB((10, 10, 10), (40, 40, 40)), AABB((30, 30, 30), (90, 90, 90))]
        monitor = ContinuousDensityMonitor(regions)
        model = PlasticityModel(items, UNIVERSE_3D, neighbourhood_queries=2, seed=3)
        sim = TimeSteppedSimulation(
            model, UniformGrid(universe=UNIVERSE_3D), monitors=[monitor], continuous=True
        )
        sim.run(5)
        assert len(monitor.history) == 5
        assert len(monitor.delta_sizes) == 5
        for sub, region in zip(monitor._subs, regions):
            assert sub.result == sim.continuous.oracle_result(sub)
            assert monitor.history[-1][regions.index(region)] == len(sub.result)

    @pytest.mark.parametrize("join_every", [1, 2])
    def test_growth_model_continuous_matches_batch_join(self, join_every):
        """The standing synapse join, maintained by the simulation's tick,
        counts what the periodic batch join counts at every join step."""
        from repro.core import UniformGrid
        from repro.datasets.neuroscience import generate_neurons
        from repro.joins import JoinSession
        from repro.joins.spec import SynapseJoinSpec
        from repro.sim import GrowthModel, TimeSteppedSimulation

        epsilon = 0.3
        batch_ds = generate_neurons(neurons=5, segments_per_neuron=4, seed=30)
        cont_ds = generate_neurons(neurons=5, segments_per_neuron=4, seed=30)
        batch = GrowthModel(batch_ds, join_every=join_every, epsilon=epsilon, seed=9)
        cont = GrowthModel(cont_ds, join_every=join_every, epsilon=epsilon, seed=9)
        TimeSteppedSimulation(batch, UniformGrid(universe=batch_ds.universe)).run(6)
        sim = TimeSteppedSimulation(cont, UniformGrid(universe=cont_ds.universe), continuous=True)
        sim.run(6)
        assert len(batch.synapse_counts) == 6 // join_every
        assert batch.synapse_counts == cont.synapse_counts
        assert cont.join_session.stats.joins == 0
        synapses = JoinSession().run(SynapseJoinSpec(cont_ds, epsilon=epsilon))
        assert {(s.segment_a, s.segment_b) for s in synapses} == cont.synapse_subscription.result

    def test_continuous_density_monitor_without_a_session_matches_density_monitor(self):
        from repro.core import UniformGrid
        from repro.sim import ContinuousDensityMonitor, DensityMonitor, TimeSteppedSimulation
        from repro.sim.plasticity import PlasticityModel

        items = dict(make_items(80, seed=72))
        regions = [AABB((10, 10, 10), (40, 40, 40)), AABB((30, 30, 30), (90, 90, 90))]
        standing, asked = ContinuousDensityMonitor(regions), DensityMonitor(regions)
        model = PlasticityModel(items, UNIVERSE_3D, neighbourhood_queries=2, seed=4)
        sim = TimeSteppedSimulation(
            model, UniformGrid(universe=UNIVERSE_3D), monitors=[standing, asked]
        )
        sim.run(4)
        assert sim.continuous is None and len(asked.history) == 4
        assert standing.history == asked.history
