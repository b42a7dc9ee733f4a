"""The continuous session: submit once, receive exact deltas forever.

:class:`ContinuousSession` owns the authoritative ``eid → box`` state of a
moving dataset and a set of standing subscriptions.  Each ``tick(updates)``:

1. normalizes the updates into a :class:`~repro.continuous.spec.TickBatch`
   and folds them into the authoritative state;
2. syncs every instantiated maintenance policy's backing structure;
3. routes each subscription to a policy — the **planner** — and collects
   its exact per-tick :class:`~repro.continuous.spec.Delta`.

Routing is *pin > heuristic*.  The heuristic routes on observed churn
(EWMA-smoothed), two ways:

* churn above :data:`RECOMPUTE_CHURN` → ``recompute`` (when most elements
  change, maintaining the answer costs more than rebuilding it — the
  throwaway philosophy);
* everything else → ``incremental`` (range results patched from the
  affected set alone, kNN held by distance-slack safe regions, joins by
  retract-and-reprobe), whatever the spec kind or the shape of the motion.

A session (``ContinuousSession(..., policy="incremental")``) or a
subscription (``subscribe(spec, policy="incremental")``) may pin a policy —
the oracle suite uses this to prove every (policy × spec kind) pair exact.
``predictive`` (a TPR-tree backing) is **pin-only**: the heuristic never
picks it.  It is the paper's negative exhibit (§3: predictive moving-object
indexes "do not work well for simulations because the movement of objects
cannot be predicted") and the measurements agree — its range specs re-probe
the index every tick where ``incremental`` patches from the affected set,
its kNN shares ``incremental``'s evaluation over a slower backing, and past
the TPR horizon every reported move pays a scalar R-tree delete + insert
(``BENCH_continuous.json``, n=100k: 18–177x incremental's tick past the
horizon and 1.5–2.1x its cumulative cost up to it, at every measured churn
level).

**Fault containment.**  A policy raising mid-``tick`` marks only the failing
subscription dirty; the authoritative state and every other subscription
stay consistent, and the error propagates after the tick completes.  On the
next tick a dirty subscription re-syncs through the recompute policy — its
delta then spans the missed tick(s), the routed policy re-``adopt``s it
(rebuilding safe-region state from scratch), and nothing of the failed
evaluation leaks.
"""

from __future__ import annotations

import time
from typing import Any, Iterable, Iterator

from repro.geometry.aabb import AABB
from repro.indexes.base import Item, validate_items
from repro.instrumentation.counters import Counters
from repro.obs import MetricsRegistry
from repro.obs import span as _span
from repro.obs.metrics import MetricsView, Read, Tally

from repro.continuous.policies import POLICY_CLASSES, MaintenancePolicy, RecomputePolicy
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
        Initial ``(eid, box)`` state.
    universe:
        Simulation domain (grids size their cells from it; required only
        for an empty initial state that grows later).
    policy:
        Default routing: ``"auto"`` (the heuristic) or a policy name to pin
        for every subscription that does not pin its own.
    counters:
        The :class:`~repro.instrumentation.counters.Counters` the policies
        charge (created when omitted).  The session owns its ``metrics``
        registry, which ``stats`` reads.
    """

    def __init__(
        self,
        items: Iterable[Item] = (),
        universe: AABB | None = None,
        *,
        policy: str = AUTO,
        counters: Counters | None = None,
    ) -> None:
        if policy != AUTO and policy not in POLICY_CLASSES:
            raise ValueError(f"unknown policy: {policy!r}")
        materialized = validate_items(items)
        self._state: dict[int, AABB] = dict(materialized)
        self.universe = universe if universe is not None else self._bounds()
        self.policy = policy
        self.counters = counters if counters is not None else Counters()
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

    def _bounds(self) -> AABB | None:
        if not self._state:
            return None
        boxes = iter(self._state.values())
        acc = next(boxes)
        for box in boxes:
            acc = acc.union(box)
        return acc

    def state_items(self) -> Iterator[Item]:
        """The authoritative ``(eid, box)`` state, deterministic order."""
        return iter(sorted(self._state.items()))

    def state_box(self, eid: int) -> AABB | None:
        return self._state.get(eid)

    def __len__(self) -> int:
        return len(self._state)

    def __contains__(self, eid: int) -> bool:
        return eid in self._state

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

        Returns ``cqid → Delta`` for every subscription.  If a maintenance
        policy raises, the remaining subscriptions still complete, the
        failing subscription is queued for next-tick resync, and the first
        error re-raises after the tick's bookkeeping."""
        tick_start = time.perf_counter()
        universe = self.universe
        batch = normalize_updates(
            updates, self._state, dims=None if universe is None else universe.dims
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
                for eid, (_, new) in batch.moved.items():
                    self._state[eid] = new
                self._state.update(batch.inserted)
                for eid in batch.deleted:
                    del self._state[eid]
                for instantiated in self._policies.values():
                    instantiated.apply(batch)
                self._observe(batch)

                deltas: dict[int, Delta] = {}
                first_error: Exception | None = None
                for sub in self.subscriptions:
                    resync = sub.dirty
                    name = "recompute" if resync else self._route(sub)
                    policy = self._policy(name)
                    if sub.routed != name:
                        if sub.routed is not None:
                            self._policies[sub.routed].forget(sub)
                        policy.adopt(sub)
                        sub.routed = name
                    try:
                        added, removed = policy.evaluate(sub, batch)
                    except Exception as exc:
                        sub.dirty = True
                        self._count("continuous.faults")
                        # Whatever per-spec state the policy half-mutated is
                        # dead: drop it now, and let the resync's adopt()
                        # rebuild it from the last emitted result, which
                        # evaluate() never got far enough to commit.
                        policy.forget(sub)
                        sub.routed = None
                        if first_error is None:
                            first_error = exc
                        continue
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
                    routed = RESYNC if resync else name
                    self._count(f"continuous.route.{routed}")
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
        tracked = max(len(self._state), 1)
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

    @property
    def recompute(self) -> RecomputePolicy:
        """The recompute policy doubles as the session's oracle."""
        return self._policy("recompute")  # type: ignore[return-value]

    def oracle_result(self, sub: Subscription | ContinuousSpec):
        """A from-scratch answer against the current authoritative state —
        what the accumulated deltas must always reproduce."""
        spec = sub.spec if isinstance(sub, Subscription) else sub
        return self.recompute.full_result(spec)
