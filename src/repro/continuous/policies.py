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
  patched from the tick's *affected set* alone, generalizing
  :class:`~repro.joins.iterated.IteratedSelfJoin`'s retract-and-reprobe trick
  to range / kNN / join specs with per-spec safe-region checks.
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
from typing import TYPE_CHECKING, Sequence

import numpy as np

from repro.core.uniform_grid import UniformGrid
from repro.engine import QuerySession
from repro.geometry.aabb import batch_min_distance_to_points
from repro.indexes.base import KNNResult, SpatialIndex
from repro.joins.session import JoinSession
from repro.joins.spec import DistanceJoinSpec
from repro.moving.tpr import TPRIndex

from repro.continuous.spec import (
    ContinuousJoinSpec,
    ContinuousSpec,
    TickBatch,
    knn_ids,
)

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.continuous.session import ContinuousSession, Subscription

Pair = tuple[int, int]

# The kNN entrant prefilter keeps every entrant whose *vectorized* distance
# is within this factor of the bound it is tested against.  The vectorized
# kernel (sqrt of summed squares) and the scalar one (``math.hypot``) see
# identical per-axis gaps and disagree only in rounding the norm — a few
# ulps, ~1e-15 relative — so a 1e-9 margin is a million times wider than any
# disagreement and still admits no one who is not practically on the
# boundary.  Where the kernel underflows (gaps below ~1e-154) it reads low,
# which only ever keeps more; where it overflows (gaps above ~1e154) it
# reads ``inf``, which the prefilter hands to the scalar test as well.
_ENTRANT_MARGIN = 1.0 + 1e-9


def _ordered(a: int, b: int) -> Pair:
    return (a, b) if a < b else (b, a)


class MaintenancePolicy:
    """One maintenance strategy shared by every subscription routed to it.

    ``apply`` runs every tick on every *instantiated* policy — each accepts
    the batch immediately (delta-maintenance policies may fold it into their
    backing lazily, but always before the next probe), so routing can switch
    per tick without a rebuild.  ``adopt`` initializes per-spec state when a subscription
    arrives (from routing or a post-fault resync); ``forget`` drops it.
    ``evaluate`` returns the tick's exact ``(added, removed)`` sets and must
    commit ``sub.result`` only as its final action — the session relies on
    ``sub.result`` always equaling the last *emitted* result, so a policy
    that raises mid-evaluation leaves only its own internal state suspect
    (discarded by the resync's ``adopt``).
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
        self, sub: "Subscription", batch: TickBatch
    ) -> tuple[set, set]:  # pragma: no cover - interface
        raise NotImplementedError


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
        if spec.kind == "range":
            return set(self._query_session().range_query([spec.box])[0])
        if spec.kind == "knn":
            return self._query_session().knn([spec.point], spec.k)[0]
        items = tuple(self.session.state_items())
        if not items:
            return set()
        refine = spec.refine
        if refine is not None and spec.epsilon:
            # ContinuousJoinSpec's refine *sharpens* the box-gap predicate;
            # DistanceJoinSpec's refine *replaces* it (candidates are only
            # strategy-dependent supersets).  Fold the gap test in so the
            # oracle's pair set is strategy-independent and matches the
            # incremental path.
            state, eps, user = self.session._state, spec.epsilon, refine
            refine = lambda a, b: (
                state[a].min_distance_to_box(state[b]) <= eps and user(a, b)
            )
        return set(
            self._joins.run(DistanceJoinSpec(items, None, spec.epsilon, refine))
        )

    def evaluate(self, sub: "Subscription", batch: TickBatch) -> tuple[set, set]:
        new = self.full_result(sub.spec)
        new_set = knn_ids(new) if sub.spec.kind == "knn" else new
        old_set = sub.result_set()
        added, removed = new_set - old_set, old_set - new_set
        sub.result = new
        return added, removed


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

    def evaluate(self, sub: "Subscription", batch: TickBatch) -> tuple[set, set]:
        if batch.is_empty:
            # Zero-motion tick: nothing can have changed, for any spec kind.
            self.counters.safe_region_hits += 1
            return set(), set()
        kind = sub.spec.kind
        if kind == "range":
            return self._evaluate_range(sub, batch)
        if kind == "knn":
            return self._evaluate_knn(sub, batch)
        return self._evaluate_join(sub, batch)

    def _evaluate_range(self, sub: "Subscription", batch: TickBatch) -> tuple[set, set]:
        """Patch membership from the affected set alone: elements that did
        not change this tick cannot enter or leave the box."""
        current: set = sub.result
        inside = batch.entrants_inside(sub.spec.box)
        self.counters.elem_tests += batch.size
        added = inside - current
        # A deleted element is nowhere, hence outside.
        removed = (current & batch.affected_ids()) - inside
        if added or removed:
            self.counters.safe_region_invalidations += 1
            sub.result = (current - removed) | added
        else:
            self.counters.safe_region_hits += 1
        return added, removed

    def _evaluate_knn(self, sub: "Subscription", batch: TickBatch) -> tuple[set, set]:
        """Distance-slack safe region: recompute only when geometry demands.

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
        the old slack tighten it.  Distances are patched with the same
        scalar ``min_distance_to_point`` the probe path uses, so a held
        result stays bit-identical to a recompute.
        """
        spec = sub.spec
        cqid = spec.cqid
        current: KNNResult = sub.result
        members = knn_ids(current)
        slack = self._knn_slack.get(cqid, 0.0)

        invalid = any(eid in batch.deleted for eid in members)
        patched = current
        moved_members = [eid for eid in members if eid in batch.moved]
        if not invalid and moved_members:
            moved_d = {}
            for eid in moved_members:
                self.counters.elem_tests += 1
                moved_d[eid] = batch.moved[eid][1].min_distance_to_point(spec.point)
            patched = sorted((moved_d.get(eid, d), eid) for d, eid in current)
            if len(patched) == spec.k and patched[-1][0] >= slack:
                invalid = True
        if not invalid and (batch.inserted or batch.moved):
            d_k = patched[-1][0] if len(patched) == spec.k else math.inf
            ids, boxes, packed = batch.entrants
            # Only an entrant at or inside max(d_k, slack) can invalidate
            # or tighten, so one vectorized pass picks those out and the
            # scalar test below — the sole authority on (distance, id)
            # order — runs on them alone.
            limit = max(d_k, slack) * _ENTRANT_MARGIN
            if limit < math.inf:
                self.counters.elem_tests += len(ids)
                rough = batch_min_distance_to_points(packed, [spec.point])[0]
                near = np.flatnonzero((rough <= limit) | np.isinf(rough)).tolist()
            else:
                near = range(len(ids))
            nearest = math.inf
            for i in near:
                if ids[i] in members:
                    continue  # a moved member: patched above, not an entrant
                self.counters.elem_tests += 1
                dist = boxes[i].min_distance_to_point(spec.point)
                if dist <= d_k:
                    invalid = True
                    break
                nearest = min(nearest, dist)
            if not invalid and nearest < slack:
                self._knn_slack[cqid] = nearest
        if not invalid:
            self.counters.safe_region_hits += 1
            if patched is not current:
                sub.result = patched
            return set(), set()
        self.counters.safe_region_invalidations += 1
        new, new_slack = self._knn(spec.point, spec.k)
        self._knn_slack[cqid] = new_slack
        new_members = knn_ids(new)
        added, removed = new_members - members, members - new_members
        sub.result = new
        return added, removed

    def _knn(self, point: Sequence[float], k: int) -> tuple[KNNResult, float]:
        """Full probe, plus the next slack: the (k+1)-th neighbor's distance.

        One ``k+1`` probe serves both — its first ``k`` entries are exactly
        the ``k`` probe's answer (per-element distances don't depend on
        ``k``, and the expanding-window search only ever *grows* its
        candidate pool, whose extra candidates all sit beyond the window
        radius that confirmed the first ``k``).  The batch kernel's norm
        can differ from the scalar ``min_distance_to_point`` in the last ulp,
        so the returned ids are re-scored with the scalar one — what
        :class:`RecomputePolicy` and the patching above report — and
        re-sorted as ``(distance, id)``."""
        self._sync()
        box_of = self.session.state_box
        probe = sorted(
            (box_of(eid).min_distance_to_point(point), eid)
            for _, eid in self._probe_session.knn([point], k + 1)[0]
        )
        slack = probe[k][0] if len(probe) > k else math.inf
        return probe[:k], slack

    def _evaluate_join(self, sub: "Subscription", batch: TickBatch) -> tuple[set, set]:
        """The IteratedSelfJoin trick, with deltas: retract every pair
        touching a changed element, re-probe the changed survivors' (ε-
        expanded) boxes as one batch, and report the difference.  Pairs
        between untouched elements carry over — their geometry is frozen, so
        the predicate's value is too."""
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
        # probe their boxes in id order, grown by ε as ``AABB.expanded`` does.
        ids, boxes, packed = batch.entrants
        after: set[Pair] = set()
        if ids:
            eps = spec.epsilon
            order = np.argsort(ids)
            probes = packed[order]
            if eps:
                probes[:, 0, :] -= eps
                probes[:, 1, :] += eps
            hits = self._probe_candidates(probes)
            for at, candidates in zip(order.tolist(), hits):
                eid, my_box = ids[at], boxes[at]
                for other in candidates:
                    if other == eid:
                        continue
                    pair = _ordered(eid, other)
                    if pair in after:
                        continue
                    if eps:
                        self.counters.refine_tests += 1
                        if my_box.min_distance_to_box(self.session.state_box(other)) > eps:
                            continue
                    if spec.refine is not None:
                        self.counters.refine_tests += 1
                        if not spec.refine(*pair):
                            continue
                    after.add(pair)
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

    def _probe_candidates(self, boxes: np.ndarray) -> list[list[int]]:
        """Ids whose stored box intersects each probe box, one batch."""
        self._sync()
        return self._probe_session.range_query(boxes)


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

    def _evaluate_range(self, sub: "Subscription", batch: TickBatch) -> tuple[set, set]:
        self._sync()
        new = set(self._probe_session.range_query([sub.spec.box])[0])
        old = sub.result
        added, removed = new - old, old - new
        if added or removed:
            self.counters.safe_region_invalidations += 1
        else:
            self.counters.safe_region_hits += 1
        sub.result = new
        return added, removed


POLICY_CLASSES: dict[str, type[MaintenancePolicy]] = {
    RecomputePolicy.name: RecomputePolicy,
    IncrementalPolicy.name: IncrementalPolicy,
    PredictivePolicy.name: PredictivePolicy,
}
