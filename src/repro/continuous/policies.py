"""Maintenance policies: three ways to keep a standing result exact.

The iterated-join literature the paper leans on (Sowell et al.) frames
continuous evaluation as a recompute-vs-maintain trade-off; the moving-object
survey in §3 adds the predictive-index option.  The session's planner routes
each subscription, each tick, to one of the first two; the third runs only
when pinned:

* :class:`RecomputePolicy` — the throwaway philosophy: rebuild a fresh grid
  from the authoritative state and re-answer from scratch.  Always correct,
  pays O(n) per tick, and doubles as the *oracle* every other policy is
  tested against (and the resync path after a mid-tick fault).
* :class:`IncrementalPolicy` — maintain the answer, not the index: an
  incrementally-updated grid absorbs the tick's updates, and each result is
  patched from the tick's *affected set* alone: the iterated join's
  retract-and-reprobe trick, for range / kNN / join specs with per-spec
  safe-region checks.
* :class:`PredictivePolicy` — the TPR bet: a predictive index absorbs
  motion nearly for free, and invalidated results are re-asked against it;
  exactness comes from the index's built-in refinement against exact
  current boxes.

Every policy maintains the same invariant the oracle suite pins: after
``evaluate``, the subscription's result equals a full recompute against the
authoritative state.  Safe-region accounting (hits = results provably
unchanged without re-evaluation; invalidations = safe region violated) flows
into :class:`~repro.instrumentation.counters.Counters`.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Callable, Union

import numpy as np

from repro.core.uniform_grid import UniformGrid
from repro.engine import QuerySession
from repro.geometry.aabb import batch_min_distance_to_points, boxes_to_array
from repro.geometry.refine import batch_box_gaps
from repro.indexes.base import KNNResult, SpatialIndex
from repro.joins.session import JoinSession
from repro.joins.spec import DistanceJoinSpec
from repro.moving.tpr import TPRIndex

from repro.continuous.spec import ContinuousJoinSpec, ContinuousSpec, TickBatch

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.continuous.session import ContinuousSession, Subscription

Pair = tuple[int, int]
Outcome = Union[tuple[set, set], Exception]

def _ordered(a: int, b: int) -> Pair:
    return (a, b) if a < b else (b, a)


class MaintenancePolicy:
    """One maintenance strategy shared by every subscription routed to it.

    ``apply`` runs every tick on every *instantiated* policy — each accepts
    the batch immediately (delta-maintenance policies may fold it into their
    backing lazily, but always before the next probe), so routing can switch
    per tick without a rebuild.  ``adopt`` initializes per-spec state when a subscription
    arrives (from routing or a post-fault resync); ``forget`` drops it.
    ``evaluate`` answers the tick's subscriptions routed here in one call
    (their probes share kernel passes), one outcome each: the exact ``(added,
    removed)`` sets or the exception that failed it.  ``sub.result`` is set
    only as the last act for a subscription, so a failed one keeps its last
    *emitted* result and only per-spec state is suspect (the resync re-adopts).
    """

    name: str = "abstract"

    def __init__(self, session: "ContinuousSession") -> None:
        self.session = session
        self.counters = session.counters

    def apply(self, batch: TickBatch) -> None:  # pragma: no cover - interface
        raise NotImplementedError

    def adopt(self, sub: "Subscription") -> None:
        """Initialize per-spec state from the subscription's current result."""

    def forget(self, sub: "Subscription") -> None:
        """Drop per-spec state for an unsubscribed / re-routed subscription."""

    def evaluate(
        self, subs: list["Subscription"], batch: TickBatch
    ) -> list[Outcome]:  # pragma: no cover - interface
        raise NotImplementedError


def per_group(items: list, key: Callable, answer: Callable[[list], list]) -> list:
    """One outcome per item, in order: ``answer(group)`` runs once per group of
    items sharing a ``key``; an exception it raises is each of their outcomes."""
    groups: dict = {}
    for row, item in enumerate(items):
        groups.setdefault(key(item), []).append(row)
    out: dict = {}
    for rows in groups.values():
        try:
            out.update(zip(rows, answer([items[r] for r in rows])))
        except Exception as exc:
            out.update(dict.fromkeys(rows, exc))
    return [out[row] for row in range(len(items))]


def _commit(sub: "Subscription", new) -> Outcome:
    """Commit ``new`` as ``sub.result`` and return the change (an exception passes)."""
    if isinstance(new, Exception):
        return new
    old = sub.result_set()
    sub.result = new
    now = sub.result_set()
    return now - old, old - now


def _slack_knn(session: QuerySession, specs: list) -> list[tuple[KNNResult, float]]:
    """One ``k + 1`` probe for ``specs`` (all of one ``k``): each top ``k`` (exactly
    the ``k`` probe's answer — the expanding-window search only ever grows
    its candidate pool) plus its next slack, the (k+1)-th distance."""
    out, k = [], specs[0].k
    for row in session.knn([spec.point for spec in specs], k + 1):
        out.append((row[:k], row[k][0] if len(row) > k else math.inf))
    return out


# -- recompute -----------------------------------------------------------------


class RecomputePolicy(MaintenancePolicy):
    """Throwaway rebuild: fresh grid + from-scratch answers, once per tick.

    The rebuilt grid and its :class:`~repro.engine.QuerySession` are shared
    by every subscription evaluated in the same tick (keyed on the tick
    number), so N recompute-routed specs pay one rebuild.  Join specs run a
    :class:`~repro.joins.spec.DistanceJoinSpec` through a persistent
    :class:`~repro.joins.JoinSession`, riding the planner/strategy registry
    and accumulating its telemetry.
    """

    name = "recompute"

    def __init__(self, session: "ContinuousSession") -> None:
        super().__init__(session)
        self.rebuilds = 0
        self._cache: tuple[int, QuerySession] | None = None
        self._joins = JoinSession(counters=self.counters)

    def apply(self, batch: TickBatch) -> None:
        self._cache = None  # state changed; next evaluate rebuilds

    def _query_session(self) -> QuerySession:
        tick = self.session.ticks
        if self._cache is None or self._cache[0] != tick:
            grid = UniformGrid(universe=self.session.universe, counters=self.counters)
            grid.bulk_load(list(self.session.state_items()))
            self.rebuilds += 1
            self._cache = (tick, QuerySession(grid))
        return self._cache[1]

    def full_result(self, spec: ContinuousSpec):
        """The from-scratch answer: a set for range/join, an ordered
        ``(distance, id)`` list for kNN."""
        return self._answers([spec])[0]

    def _answers(self, specs: list[ContinuousSpec]) -> list:
        """:meth:`full_result` for specs of one kind (kNN: of one ``k``; join:
        just one): the ranges in one probe, the kNN in one :func:`_slack_knn`."""
        spec = specs[0]
        if spec.kind == "range":
            return [set(ids) for ids in self._query_session().range_query([s.box for s in specs])]
        if spec.kind == "knn":
            return [knn for knn, _ in _slack_knn(self._query_session(), specs)]
        # A join: the gap-only join (``batch_box_gaps <= ε``), then the user refine
        # (DistanceJoinSpec's refine would *replace* the gap test, on candidates).
        items = tuple(self.session.state_items())
        pairs = self._joins.run(DistanceJoinSpec(items, None, spec.epsilon)) if items else []
        return [{pair for pair in pairs if spec.refine is None or spec.refine(*pair)}]

    def evaluate(self, subs: list["Subscription"], batch: TickBatch) -> list[Outcome]:
        # The ranges share one probe, the kNN specs one per k; each join runs alone.
        key = lambda sub: (sub.kind, sub.cqid if sub.kind == "join" else getattr(sub.spec, "k", 0))
        commit = lambda group: list(map(_commit, group, self._answers([sub.spec for sub in group])))
        return per_group(subs, key, commit)


# -- shared incremental/predictive machinery -----------------------------------


class _DeltaMaintenance(MaintenancePolicy):
    """Maintain answers against a live backing index (never rebuilt).

    Subclasses provide the backing (:meth:`_make_backing` / :meth:`_move`)
    and the per-kind evaluation hooks; the safe-region logic — which results
    provably survived the tick untouched — is shared.
    """

    def __init__(self, session: "ContinuousSession") -> None:
        super().__init__(session)
        self._backing: SpatialIndex = self._make_backing()
        self._backing.bulk_load(list(session.state_items()))
        # Probes always take the batch kernels (no inline scalar route): one
        # kernel call per probe batch, not one per row.
        self._probe_session = QuerySession(self._backing, inline_cutoff=0)
        # Ticks accepted but not yet folded into the backing index — the
        # "maintain the answer, not the index" discipline taken to its
        # conclusion: range results are patched from the affected set alone
        # and never probe, so the backing only pays for updates when a kNN
        # invalidation, join re-probe or predictive re-ask actually needs
        # it (flushed in tick order by :meth:`_sync`).
        self._pending: list[TickBatch] = []
        # Per-join-spec partner adjacency (eid -> set of partners), the
        # retract-and-reprobe working state.
        self._partners: dict[int, dict[int, set[int]]] = {}
        # Per-kNN-spec distance slack: the (k+1)-th neighbor's distance at
        # the last full probe, since tightened by every outsider that came
        # near.  While the patched k-th distance stays strictly below it,
        # no non-member can belong in the top-k, so member motion is
        # absorbed by patching distances instead of invalidating.  Absent
        # entries read as 0.0 — the legacy invalidate-on-any-member-motion
        # behavior — so adopted results start conservative.
        self._knn_slack: dict[int, float] = {}

    def _make_backing(self) -> SpatialIndex:  # pragma: no cover - interface
        raise NotImplementedError

    def _move(self, moves: list) -> None:
        """The tick's motion as one batch (a TPR backing advances instead)."""
        self._backing.apply_moves(moves)

    def _apply(self, batch: TickBatch) -> None:
        """Sync one tick: its motion, then the churn per element."""
        self._move(batch.moves())
        for eid, box in sorted(batch.inserted.items()):
            self._backing.insert(eid, box)
        for eid, box in sorted(batch.deleted.items()):
            self._backing.delete(eid, box)

    def apply(self, batch: TickBatch) -> None:
        self._pending.append(batch)

    def _sync(self) -> None:
        """Fold every deferred tick into the backing index, oldest first.

        A batch leaves the queue only once the backing has taken it: one the
        backing refuses stays at the head (a grid refuses a move batch
        whole, see ``apply_moves``), so every later probe raises again and
        the subscriptions fall back to resync instead of being answered
        from a backing that silently skipped a tick.
        """
        pending = self._pending
        while pending:
            self._apply(pending[0])
            del pending[0]

    # -- per-spec state ---------------------------------------------------------

    def adopt(self, sub: "Subscription") -> None:
        if sub.spec.kind == "join":
            partners: dict[int, set[int]] = {}
            for a, b in sub.result:
                partners.setdefault(a, set()).add(b)
                partners.setdefault(b, set()).add(a)
            self._partners[sub.spec.cqid] = partners
        elif sub.spec.kind == "knn":
            # The adopted result was computed elsewhere; any slack from a
            # previous tenure here is stale geometry.
            self._knn_slack.pop(sub.spec.cqid, None)

    def forget(self, sub: "Subscription") -> None:
        self._partners.pop(sub.spec.cqid, None)
        self._knn_slack.pop(sub.spec.cqid, None)

    # -- evaluation -------------------------------------------------------------

    def evaluate(self, subs: list["Subscription"], batch: TickBatch) -> list[Outcome]:
        if batch.is_empty:
            # Zero-motion tick: nothing can have changed, for any spec kind.
            self.counters.safe_region_hits += len(subs)
            return [(set(), set()) for _ in subs]

        def answer(group: list) -> list:  # the ranges together, the kNN together, joins alone
            if group[0].kind == "join":
                return [self._evaluate_join(group[0], batch)]
            return (self._evaluate_range if group[0].kind == "range" else self._evaluate_knn)(group, batch)

        return per_group(subs, lambda sub: sub.cqid if sub.kind == "join" else sub.kind, answer)

    def _evaluate_range(self, subs: list["Subscription"], batch: TickBatch) -> list[Outcome]:
        """Patch membership from the affected set alone: elements that did
        not change this tick cannot enter or leave a box."""
        affected, outcomes = batch.affected_ids(), []
        for sub, inside in zip(subs, batch.entrants_inside([sub.spec.box for sub in subs])):
            current: set = sub.result
            self.counters.elem_tests += batch.size
            added = inside - current
            # A deleted element is nowhere, hence outside.
            removed = (current & affected) - inside
            if added or removed:
                self.counters.safe_region_invalidations += 1
                sub.result = (current - removed) | added
            else:
                self.counters.safe_region_hits += 1
            outcomes.append((added, removed))
        return outcomes

    def _evaluate_knn(self, subs: list["Subscription"], batch: TickBatch) -> list[Outcome]:
        """Distance-slack safe regions for every kNN spec of the tick at once:
        recompute only when geometry demands.

        The slack for a spec is the (k+1)-th neighbor's distance at the last
        full probe (tightened by every outsider seen since); every
        non-member provably sits at or beyond it.  A tick then invalidates
        the cached ``(distance, id)`` list only when

        (a) a member disappeared,
        (b) member motion pushed the *patched* k-th distance to the slack
            (``>=`` — at the slack a tie could displace a member under the
            ``(distance, id)`` order), or
        (c) an inserted or moved outsider reached within the patched k-th
            distance (``<=``, same tie argument; a short list means every
            tracked element is a member, so any entrant violates).

        Otherwise the tick is a hit: moved members keep their seats with
        freshly patched exact distances, and outsiders that came closer than
        the old slack tighten it.  Three phases: (a) and (b) per spec; one
        distance matrix (in row blocks) testing (c) for every spec still
        valid; one :meth:`_knn` per distinct ``k`` for the invalidated specs
        (a failed probe fails just those).  The matrix is the point–box
        kernel, so its distances are the scalar ``min_distance_to_point``
        bit for bit, as a recompute reports.
        """
        ids, packed = batch.entrants
        checks = []  # per spec: [invalid, patched, d_k]
        for sub in subs:
            spec, current = sub.spec, sub.result
            slack = self._knn_slack.get(spec.cqid, 0.0)
            invalid = any(eid in batch.deleted for _, eid in current)
            patched = current
            moved = [eid for _, eid in current if eid in batch.moved]
            if not invalid and moved:
                self.counters.elem_tests += len(moved)
                moved_d = {eid: batch.moved[eid][1].min_distance_to_point(spec.point) for eid in moved}
                patched = sorted((moved_d.get(eid, d), eid) for d, eid in current)
                invalid = len(patched) == spec.k and patched[-1][0] >= slack
            checks.append([invalid, patched, patched[-1][0] if len(patched) == spec.k else math.inf])

        tested = [i for i, (invalid, _, _) in enumerate(checks) if ids and not invalid]
        self.counters.elem_tests += len(ids) * len(tested)
        column = {eid: at for at, eid in enumerate(ids)}
        # Row blocks of at most 2**12 point-entrant gaps keep the kernel's
        # temporaries near one spec's size however many specs there are.
        step = max(1, (1 << 12) // max(len(ids), 1))
        for at in range(0, len(tested), step):
            rows = tested[at:at + step]
            for i, dists in zip(rows, batch_min_distance_to_points(packed, [subs[i].spec.point for i in rows])):
                check, cqid = checks[i], subs[i].spec.cqid
                # A moved member was patched above; it is not an entrant.
                dists = np.delete(dists, [column[eid] for _, eid in check[1] if eid in column])
                nearest = dists.min() if dists.size else math.inf
                if nearest <= check[2]:
                    check[0] = True
                elif nearest < self._knn_slack.get(cqid, 0.0):
                    self._knn_slack[cqid] = float(nearest)

        outcomes: list = [None] * len(subs)
        probe: list[int] = []
        for i, (sub, (invalid, patched, _)) in enumerate(zip(subs, checks)):
            if invalid:
                self.counters.safe_region_invalidations += 1
                probe.append(i)
                continue
            self.counters.safe_region_hits += 1
            sub.result = patched
            outcomes[i] = (set(), set())

        stale = [subs[i] for i in probe]
        answers = per_group(stale, lambda sub: sub.spec.k, self._knn)
        for i, sub, new in zip(probe, stale, answers):
            if not isinstance(new, Exception):
                new, self._knn_slack[sub.cqid] = new  # the top k, the next slack
            outcomes[i] = _commit(sub, new)
        return outcomes

    def _knn(self, subs: list["Subscription"]) -> list[tuple[KNNResult, float]]:
        """:func:`_slack_knn` for ``subs`` (all of one ``k``) on the synced backing."""
        self._sync()
        return _slack_knn(self._probe_session, [s.spec for s in subs])

    def _evaluate_join(self, sub: "Subscription", batch: TickBatch) -> tuple[set, set]:
        """The iterated self-join, with deltas: retract every pair
        touching a changed element, re-probe the changed survivors' (ε-
        expanded) boxes as one ``batch_range_hits`` call, and report the
        difference.  Pairs between untouched elements carry over — their
        geometry is frozen, so the predicate's value is too.

        Candidates (self-hits dropped, deduplicated on ``(low, high)``) pass
        on ``batch_box_gaps <= ε``, :class:`RecomputePolicy`'s predicate too
        (at ε = 0 the probe has decided it); a user ``refine`` sees only those."""
        spec: ContinuousJoinSpec = sub.spec
        partners = self._partners[spec.cqid]
        affected = batch.affected_ids()

        before: set[Pair] = set()
        for eid in affected:
            for other in partners.get(eid, ()):
                before.add(_ordered(eid, other))
        for a, b in before:
            partners[a].discard(b)
            partners[b].discard(a)
        for eid in batch.deleted:
            partners.pop(eid, None)

        # The changed survivors are the tick's entrants, already packed:
        # probe their boxes grown by ε as ``AABB.expanded`` does.
        ids, packed = batch.entrants
        after: set[Pair] = set()
        if ids:
            eps = spec.epsilon
            self._sync()
            tested = self.counters.elem_tests  # the join's comparisons, as in GridJoin
            offsets, hits = self._backing.batch_range_hits(packed + np.array([[-eps], [eps]]))
            tested = self.counters.elem_tests - tested
            self.counters.elem_tests -= tested
            self.counters.comparisons += tested
            rows = np.repeat(np.arange(len(ids)), np.diff(offsets))
            mine = np.asarray(ids, dtype=np.int64)[rows]
            rows, mine, hits = rows[hits != mine], mine[hits != mine], hits[hits != mine]
            # Packed (low, high) keys, over id ranks so that no product overflows.
            ranks, inverse = np.unique([np.minimum(mine, hits), np.maximum(mine, hits)], return_inverse=True)
            low, high = inverse.reshape(2, -1)
            _, first = np.unique(low * len(ranks) + high, return_index=True)
            rows, hits = rows[first], hits[first]
            if eps and len(rows):
                self.counters.refine_tests += len(rows)
                others = boxes_to_array([self.session.state_box(eid) for eid in hits.tolist()])
                close = batch_box_gaps(packed[rows], others) <= eps
                rows, hits = rows[close], hits[close]
            found = [_ordered(ids[at], eid) for at, eid in zip(rows.tolist(), hits.tolist())]
            if spec.refine is not None:
                self.counters.refine_tests += len(found)
                found = [pair for pair in found if spec.refine(*pair)]
            after.update(found)
            for a, b in after:
                partners.setdefault(a, set()).add(b)
                partners.setdefault(b, set()).add(a)

        added, removed = after - before, before - after
        if added or removed:
            self.counters.safe_region_invalidations += 1
            sub.result = (sub.result - removed) | added
        else:
            self.counters.safe_region_hits += 1
        return added, removed


class IncrementalPolicy(_DeltaMaintenance):
    """Incremental maintenance over a live uniform grid.

    The grid absorbs each tick's updates in place (cheap cell switches under
    simulation motion — the paper's own argument for grids) and serves the
    join re-probes and kNN recomputes; range results never touch it at all,
    being patched from the affected set by pure membership tests.
    """

    name = "incremental"

    def _make_backing(self) -> SpatialIndex:
        return UniformGrid(universe=self.session.universe, counters=self.counters)


class PredictivePolicy(_DeltaMaintenance):
    """Predictive evaluation on a TPR-tree backing index
    (``TPRIndex(max_speed=0.1, horizon=10)``).

    The index absorbs motion without structural work — swept boxes cover
    predicted positions until the horizon — and invalidated results are
    *re-asked* against it (the index refines candidates against exact
    current boxes, so answers stay exact even under wild misprediction;
    mispredictions cost time, never correctness).  Range specs are
    re-evaluated from the index whenever the tick is non-empty: that is the
    predictive bet — evaluation is cheap because maintenance was.

    The bet loses on simulation motion (``BENCH_continuous.json``), so the
    heuristic never routes here; the policy runs only when a session or a
    subscription pins it.
    """

    name = "predictive"

    def _make_backing(self) -> SpatialIndex:
        return TPRIndex(max_speed=0.1, horizon=10, counters=self.counters)

    def _move(self, moves: list) -> None:
        # advance() owns the clock: one bump per tick, then the tick's true
        # motion (prediction escapes re-anchor inside).
        self._backing.advance(moves)

    def _evaluate_range(self, subs: list["Subscription"], batch: TickBatch) -> list[Outcome]:
        self._sync()
        found = self._probe_session.range_query([sub.spec.box for sub in subs])
        outcomes = [_commit(sub, set(ids)) for sub, ids in zip(subs, found)]
        changed = sum(1 for added, removed in outcomes if added or removed)
        self.counters.safe_region_invalidations += changed
        self.counters.safe_region_hits += len(outcomes) - changed
        return outcomes


POLICY_CLASSES: dict[str, type[MaintenancePolicy]] = {
    RecomputePolicy.name: RecomputePolicy,
    IncrementalPolicy.name: IncrementalPolicy,
    PredictivePolicy.name: PredictivePolicy,
}
