"""The continuous session: submit once, receive exact deltas forever.

:class:`ContinuousSession` keeps its elements in exactly one
:class:`~repro.core.uniform_grid.UniformGrid` — its own, bulk-loaded from
the items it is given, or a live grid it is handed (a simulation's index) —
and that grid is the authoritative ``eid → box`` state.  Each
``tick(updates)``:

1. normalizes the updates into a :class:`~repro.continuous.spec.TickBatch`,
   validated against the grid's ``AABB`` view;
2. writes the batch into the grid once: the moves as one ``apply_moves``,
   then the inserts and deletes;
3. routes each subscription to a policy — the **planner** — hands each
   policy all of its subscriptions in one call (their probes share kernel
   passes, on the same grid), and collects each exact
   :class:`~repro.continuous.spec.Delta`.

Routing is *pin > heuristic*.  The heuristic routes on observed churn
(EWMA-smoothed), two ways:

* churn above :data:`RECOMPUTE_CHURN` → ``recompute`` (when most elements
  change, maintaining the answer costs more than re-answering it — the
  throwaway philosophy);
* everything else → ``incremental`` (range results patched from the
  affected set alone, kNN held by distance-slack safe regions, joins by
  retract-and-reprobe), whatever the spec kind or the shape of the motion.

A session (``ContinuousSession(..., policy="incremental")``) or a
subscription (``subscribe(spec, policy="incremental")``) may pin a policy —
the oracle suite uses this to prove every (policy × spec kind) pair exact
against :meth:`ContinuousSession.oracle_result`, which shares no grid code.

**Fault containment.**  A failed outcome marks only its subscription dirty
(a batched probe that raises fails exactly the subscriptions that needed
it); the grid and every other subscription stay consistent, and the error
propagates after the tick completes.  On the next tick a dirty subscription
re-syncs through the recompute policy — its delta then spans the missed
tick(s), the routed policy re-``adopt``s it (rebuilding safe-region state
from scratch), and nothing of the failed evaluation leaks.
"""

from __future__ import annotations

import time
from typing import Any, Iterable, Iterator

from repro.core.uniform_grid import UniformGrid
from repro.engine import QuerySession
from repro.geometry.aabb import AABB
from repro.indexes.base import Item
from repro.indexes.linear_scan import LinearScan
from repro.joins.session import JoinSession
from repro.joins.spec import DistanceJoinSpec
from repro.obs import MetricsRegistry
from repro.obs import span as _span
from repro.obs.metrics import MetricsView, Read, Tally

from repro.continuous.policies import POLICY_CLASSES, MaintenancePolicy, per_group
from repro.continuous.spec import (
    ContinuousJoinSpec,
    ContinuousKNNQuery,
    ContinuousRangeQuery,
    ContinuousSpec,
    Delta,
    TickBatch,
    Update,
    knn_ids,
    normalize_updates,
)

AUTO = "auto"
RESYNC = "resync"

#: Churn fraction (EWMA of affected/tracked) above which the heuristic
#: falls back to per-tick recompute.
RECOMPUTE_CHURN = 0.3


class ContinuousStats(MetricsView):
    """Session-level telemetry read off the session's registry, the
    continuous analogue of ``JoinStats``.

    ``policy_routes`` counts per-tick routing decisions by policy name
    (plus ``"resync"`` for post-fault recoveries: ``resyncs``); each routed
    evaluation emits one delta, so ``deltas`` is their sum.  Delta volumes
    are split by element kind to mirror the results/pairs vocabulary.
    Safe-region hits/invalidations live in the shared
    :class:`~repro.instrumentation.counters.Counters` (they are primitive
    ops, bumped inside the policies).
    """

    ticks = Read("continuous.ticks")
    updates = Read("continuous.updates")
    empty_deltas = Read("continuous.empty_deltas")
    results_added = Read("continuous.results_added")
    results_removed = Read("continuous.results_removed")
    pairs_added = Read("continuous.pairs_added")
    pairs_removed = Read("continuous.pairs_removed")
    faults = Read("continuous.faults")
    policy_routes = Tally("continuous.route.")

    @property
    def deltas(self) -> int:
        return sum(self.policy_routes.values())

    @property
    def resyncs(self) -> int:
        return self.policy_routes.get(RESYNC, 0)


class Subscription:
    """One standing query's live state inside a session.

    ``result`` is the current exact answer (a set of eids for range, an
    ordered ``(distance, eid)`` list for kNN, a set of ``(low, high)`` pairs
    for joins) and always equals the accumulation of ``deltas`` over the
    initial result.
    """

    def __init__(self, session: "ContinuousSession", spec: ContinuousSpec, pinned: str | None) -> None:
        self.session = session
        self.spec = spec
        self.pinned = pinned
        self.result: Any = None
        self.initial: Any = None
        self.deltas: list[Delta] = []
        self.latest: Delta | None = None
        self.routed: str | None = None  # policy currently holding per-spec state
        self.dirty = False

    @property
    def cqid(self) -> int:
        return self.spec.cqid

    @property
    def kind(self) -> str:
        return self.spec.kind

    def result_set(self) -> set:
        """Membership view of the current result (ids, or id pairs)."""
        return knn_ids(self.result) if self.kind == "knn" else set(self.result)

    def cancel(self) -> None:
        self.session.unsubscribe(self)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Subscription(cqid={self.cqid}, kind={self.kind!r}, "
            f"policy={self.pinned or AUTO!r}, |result|={len(self.result)})"
        )


class ContinuousSession:
    """Standing queries over a moving dataset, with exact per-tick deltas.

    Parameters
    ----------
    items:
        Initial ``(eid, box)`` state, bulk-loaded into the session's own
        grid — or a live :class:`~repro.core.uniform_grid.UniformGrid`,
        which then *is* the session's state: every tick writes into it, and
        nothing else may write it between ticks.
    universe:
        Simulation domain (the grid sizes its cells from it; required only
        for an empty initial state that grows later).  A live grid brings
        its own.
    policy:
        Default routing: ``"auto"`` (the heuristic) or a policy name to pin
        for every subscription that does not pin its own.

    The grid and the policies charge the grid's
    :class:`~repro.instrumentation.counters.Counters` (``counters``): a live
    grid's own, or fresh ones for the session's own grid.  The session owns
    its ``metrics`` registry, which ``stats`` reads.
    """

    def __init__(
        self,
        items: Iterable[Item] | UniformGrid = (),
        universe: AABB | None = None,
        *,
        policy: str = AUTO,
    ) -> None:
        if policy != AUTO and policy not in POLICY_CLASSES:
            raise ValueError(f"unknown policy: {policy!r}")
        if isinstance(items, UniformGrid):
            if universe is not None and universe != items.universe:
                raise ValueError(f"universe {universe} is not the grid's {items.universe}")
            items.boxes  # a read-only grid (a snapshot) has no box view: refused here
            self.grid = items
        else:
            self.grid = UniformGrid(universe=universe)
            self.grid.bulk_load(items)
        self.counters = self.grid.counters
        # Every probe takes the batch kernels (no inline scalar route): one
        # kernel call per probe batch, not one per row.
        self.queries = QuerySession(self.grid, inline_cutoff=0)
        self.policy = policy
        self.metrics = MetricsRegistry()
        self.stats = ContinuousStats(self.metrics)
        self._m_ticks = self.metrics.counter("continuous.ticks")
        self._m_updates = self.metrics.counter("continuous.updates")
        self._m_tick_seconds = self.metrics.histogram("continuous.tick.seconds")
        self._m: dict[str, Any] = {}  # metric name -> counter, filled on first use
        self._subs: dict[int, Subscription] = {}
        self._policies: dict[str, MaintenancePolicy] = {}
        self._churn_ewma: float | None = None
        self._ewma_alpha = 0.3

    @property
    def universe(self) -> AABB | None:
        """The grid's universe (``None`` until a first element fixes it)."""
        return self.grid.universe

    @property
    def ticks(self) -> int:
        """Ticks run so far: the number the last deltas were stamped with."""
        return int(self._m_ticks.value)

    def _count(self, name: str, amount: int = 1) -> None:
        """Bump counter ``name``, looked up in the registry once per session."""
        counter = self._m.get(name)
        if counter is None:
            counter = self._m[name] = self.metrics.counter(name)
        counter.inc(amount)

    # -- authoritative state -----------------------------------------------------

    def state_items(self) -> Iterator[Item]:
        """The authoritative ``(eid, box)`` state, deterministic order."""
        return iter(sorted(self.grid.boxes.items()))

    def state_box(self, eid: int) -> AABB | None:
        return self.grid.boxes.get(eid)

    def __len__(self) -> int:
        return len(self.grid)

    def __contains__(self, eid: int) -> bool:
        return eid in self.grid.boxes

    def _write(self, batch: TickBatch) -> None:
        """Fold one validated tick into the grid: its motion, then the churn."""
        grid = self.grid
        grid.apply_moves(batch.moves())
        for eid, box in sorted(batch.inserted.items()):
            grid.insert(eid, box)
        for eid, box in sorted(batch.deleted.items()):
            grid.delete(eid, box)

    # -- subscriptions -----------------------------------------------------------

    def subscribe(self, spec: ContinuousSpec, policy: str | None = None) -> Subscription:
        """Register a standing query; its initial result is computed now
        (from scratch) and only deltas flow afterwards."""
        if not isinstance(spec, (ContinuousRangeQuery, ContinuousKNNQuery, ContinuousJoinSpec)):
            raise TypeError(f"not a continuous spec: {spec!r}")
        if policy is not None and policy not in POLICY_CLASSES:
            raise ValueError(f"unknown policy: {policy!r}")
        if spec.cqid in self._subs:
            raise ValueError(f"spec {spec.cqid} already subscribed")
        # A spec of the wrong dimensionality would fail every probe it shares.
        coords = spec.box.lo if spec.kind == "range" else getattr(spec, "point", ())
        if coords and self.universe is not None and len(coords) != self.universe.dims:
            raise ValueError(f"spec has {len(coords)} dims, tracked elements have {self.universe.dims}")
        if policy is None and self.policy != AUTO:
            policy = self.policy
        sub = Subscription(self, spec, policy)
        recompute = self._policy("recompute")
        sub.result = recompute.full_result(spec)
        sub.initial = (
            list(sub.result) if spec.kind == "knn" else set(sub.result)
        )
        # _subs stays in cqid order so tick() can iterate it as it is; specs
        # are nearly always subscribed in creation order, so re-sorting is rare.
        in_order = not self._subs or next(reversed(self._subs)) < spec.cqid
        self._subs[spec.cqid] = sub
        if not in_order:
            self._subs = dict(sorted(self._subs.items()))
        return sub

    def unsubscribe(self, sub: Subscription | int) -> None:
        cqid = sub.cqid if isinstance(sub, Subscription) else sub
        gone = self._subs.pop(cqid, None)
        if gone is not None and gone.routed is not None:
            self._policies[gone.routed].forget(gone)

    @property
    def subscriptions(self) -> list[Subscription]:
        return list(self._subs.values())

    # -- the tick ---------------------------------------------------------------

    def tick(self, updates: Iterable[Update] = ()) -> dict[int, Delta]:
        """Fold one tick's updates into every standing result.

        Returns ``cqid → Delta`` for every subscription.  If an evaluation
        fails, the remaining subscriptions still complete, each failed one
        is queued for next-tick resync, and the first error (in cqid order)
        re-raises after the tick's bookkeeping."""
        tick_start = time.perf_counter()
        universe = self.universe
        batch = normalize_updates(
            updates, self.grid.boxes, dims=None if universe is None else universe.dims
        )
        self._m_ticks.inc()
        self._m_updates.inc(batch.size)
        tick = self.ticks
        try:
            with _span(
                "continuous.tick",
                counters=self.counters,
                tick=tick,
                updates=batch.size,
                subscriptions=len(self._subs),
            ):
                self._write(batch)
                self._observe(batch)

                # Route each subscription, then evaluate each policy's share at once.
                subs = self.subscriptions
                for sub in subs:
                    name = "recompute" if sub.dirty else self._route(sub)
                    if sub.routed != name:
                        if sub.routed is not None:
                            self._policies[sub.routed].forget(sub)
                        self._policy(name).adopt(sub)
                        sub.routed = name
                evaluate = lambda group: self._policies[group[0].routed].evaluate(group, batch)
                outcomes = per_group(subs, lambda sub: sub.routed, evaluate)

                deltas: dict[int, Delta] = {}
                first_error: Exception | None = None
                for sub, outcome in zip(subs, outcomes):
                    if isinstance(outcome, Exception):
                        sub.dirty = True
                        self._count("continuous.faults")
                        # Whatever per-spec state the policy half-mutated is
                        # dead: drop it now, and let the resync's adopt()
                        # rebuild it from the last emitted result, which
                        # evaluate() never got far enough to commit.
                        self._policies[sub.routed].forget(sub)
                        sub.routed = None
                        if first_error is None:
                            first_error = outcome
                        continue
                    added, removed = outcome
                    resync = sub.dirty
                    if resync:
                        sub.dirty = False
                        # Hand the subscription straight back: the planner's
                        # policy re-adopts from the freshly committed result,
                        # so the next tick maintains incrementally again
                        # instead of paying a second recompute.
                        target = self._route(sub)
                        if target != sub.routed:
                            self._policies[sub.routed].forget(sub)
                            self._policy(target).adopt(sub)
                            sub.routed = target
                    self._count(f"continuous.route.{RESYNC if resync else sub.routed}")
                    delta = Delta(tick=tick, added=frozenset(added), removed=frozenset(removed))
                    sub.latest = delta
                    sub.deltas.append(delta)
                    deltas[sub.cqid] = delta
                    if delta.is_empty:
                        self._count("continuous.empty_deltas")
                    noun = "pairs" if sub.kind == "join" else "results"
                    self._count(f"continuous.{noun}_added", len(delta.added))
                    self._count(f"continuous.{noun}_removed", len(delta.removed))
                if first_error is not None:
                    raise first_error
                return deltas
        finally:
            self._m_tick_seconds.observe(time.perf_counter() - tick_start)

    # -- the planner -------------------------------------------------------------

    def _observe(self, batch: TickBatch) -> None:
        tracked = max(len(self.grid), 1)
        churn = batch.size / tracked
        if self._churn_ewma is None:
            self._churn_ewma = churn
        else:
            alpha = self._ewma_alpha
            self._churn_ewma = alpha * churn + (1 - alpha) * self._churn_ewma

    def _route(self, sub: Subscription) -> str:
        """Pick this tick's policy: pinned wins, then churn."""
        if sub.pinned is not None:
            return sub.pinned
        if (self._churn_ewma or 0.0) > RECOMPUTE_CHURN:
            return "recompute"
        return "incremental"

    def _policy(self, name: str) -> MaintenancePolicy:
        policy = self._policies.get(name)
        if policy is None:
            policy = POLICY_CLASSES[name](self)
            self._policies[name] = policy
        return policy

    def oracle_result(self, sub: Subscription | ContinuousSpec):
        """A from-scratch answer against the current elements — what the
        accumulated deltas must always reproduce — that shares no grid code:
        a fresh :class:`~repro.indexes.linear_scan.LinearScan` answers range
        and kNN specs, a nested-loop :class:`~repro.joins.JoinSession` joins."""
        spec = sub.spec if isinstance(sub, Subscription) else sub
        items = list(self.state_items())
        if spec.kind == "join":
            joins = JoinSession(strategy="nested_loop")
            pairs = joins.run(DistanceJoinSpec(items, None, spec.epsilon)) if items else []
            return {pair for pair in pairs if spec.refine is None or spec.refine(*pair)}
        scan = LinearScan()
        scan.bulk_load(items)
        if spec.kind == "knn":
            return scan.knn(spec.point, spec.k)
        return set(scan.range_query(spec.box))
