"""Maintenance policies: two ways to keep a standing result exact.

The iterated-join literature the paper leans on (Sowell et al.) frames
continuous evaluation as a recompute-vs-maintain trade-off.  The session's
planner routes each subscription, each tick, to one of two policies, and
both read the session's one grid (§3.3: one in-memory grid serves every
query type), which the session has already brought up to date:

* :class:`RecomputePolicy` — the throwaway philosophy: re-answer from
  scratch on the grid.  Pays for the whole answer every tick, never for
  per-spec state, and is the resync path after a mid-tick fault.
* :class:`IncrementalPolicy` — maintain the answer, not the index: each
  result is patched from the tick's *affected set* alone — the iterated
  join's retract-and-reprobe trick, for range / kNN / join specs with
  per-spec safe-region checks.

Both policies maintain the invariant the oracle suite pins: after
``evaluate``, the subscription's result equals a from-scratch answer
against the session's elements.  Safe-region accounting (hits = results
provably unchanged without re-evaluation; invalidations = safe region
violated) flows into :class:`~repro.instrumentation.counters.Counters`.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Callable, Sequence, Union

import numpy as np

from repro.engine import QuerySession
from repro.geometry.aabb import batch_min_distance_to_points, boxes_to_array
from repro.geometry.refine import batch_box_gaps
from repro.indexes.base import KNNResult

from repro.continuous.spec import ContinuousJoinSpec, ContinuousSpec, TickBatch

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.continuous.session import ContinuousSession, Subscription

Pair = tuple[int, int]
Outcome = Union[tuple[set, set], Exception]

def _ordered(a: int, b: int) -> Pair:
    return (a, b) if a < b else (b, a)


class MaintenancePolicy:
    """One maintenance strategy shared by every subscription routed to it.

    ``adopt`` initializes per-spec state when a subscription arrives (from
    routing or a post-fault resync); ``forget`` drops it.  ``evaluate``
    answers the tick's subscriptions routed here in one call (their probes
    share kernel passes), one outcome each: the exact ``(added, removed)``
    sets or the exception that failed it.  ``sub.result`` is set only as the
    last act for a subscription, so a failed one keeps its last *emitted*
    result and only per-spec state is suspect (the resync re-adopts).
    """

    name: str = "abstract"

    def __init__(self, session: "ContinuousSession") -> None:
        self.session = session
        self.counters = session.counters

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


def _join_probe(
    session: "ContinuousSession", spec: ContinuousJoinSpec, ids: Sequence[int], packed: np.ndarray
) -> list[Pair]:
    """Every pair of the join that touches an element of ``ids`` (boxes
    ``packed``): one ``batch_range_hits`` call on the boxes grown by ε as
    ``AABB.expanded`` does, self-hits dropped, candidates deduplicated on
    ``(low, high)``, kept on ``batch_box_gaps <= ε`` (at ε = 0 the probe has
    decided it); a user ``refine`` sees only those.  The probe's element
    tests are the join's ``comparisons``, as in ``GridJoin``."""
    if not len(ids):
        return []
    eps, counters, grid = spec.epsilon, session.counters, session.grid
    ids = np.asarray(ids, dtype=np.int64)
    tested = counters.elem_tests
    offsets, hits = grid.batch_range_hits(packed + np.array([[-eps], [eps]]))
    tested = counters.elem_tests - tested
    counters.elem_tests -= tested
    counters.comparisons += tested
    rows = np.repeat(np.arange(len(ids)), np.diff(offsets))
    mine = ids[rows]
    rows, mine, hits = rows[hits != mine], mine[hits != mine], hits[hits != mine]
    low, high = np.minimum(mine, hits), np.maximum(mine, hits)
    # Packed (low, high) keys, over id ranks so that no product overflows.
    ranks, inverse = np.unique([low, high], return_inverse=True)
    low_rank, high_rank = inverse.reshape(2, -1)
    _, first = np.unique(low_rank * len(ranks) + high_rank, return_index=True)
    rows, hits, low, high = rows[first], hits[first], low[first], high[first]
    if eps and len(rows):
        counters.refine_tests += len(rows)
        boxes = grid.boxes
        others = boxes_to_array([boxes[eid] for eid in hits.tolist()])
        close = batch_box_gaps(packed[rows], others) <= eps
        low, high = low[close], high[close]
    found = list(zip(low.tolist(), high.tolist()))
    if spec.refine is not None:
        counters.refine_tests += len(found)
        found = [pair for pair in found if spec.refine(*pair)]
    return found


# -- recompute -----------------------------------------------------------------


class RecomputePolicy(MaintenancePolicy):
    """Throwaway answers: every routed subscription is re-answered from
    scratch on the session's grid, which needs no rebuild — the session
    wrote the tick into it.  The ranges share one probe, the kNN specs one
    per ``k``; a join probes every element's ε-grown box once (the
    incremental join's probe, over all elements instead of the changed ones).
    """

    name = "recompute"

    def full_result(self, spec: ContinuousSpec):
        """The from-scratch answer: a set for range/join, an ordered
        ``(distance, id)`` list for kNN."""
        return self._answers([spec])[0]

    def _answers(self, specs: list[ContinuousSpec]) -> list:
        """:meth:`full_result` for specs of one kind (kNN: of one ``k``; join:
        just one)."""
        spec, queries = specs[0], self.session.queries
        if spec.kind == "range":
            return [set(ids) for ids in queries.range_query([s.box for s in specs])]
        if spec.kind == "knn":
            return [knn for knn, _ in _slack_knn(queries, specs)]
        return [set(_join_probe(self.session, spec, *self.session.grid.export_items()))]

    def evaluate(self, subs: list["Subscription"], batch: TickBatch) -> list[Outcome]:
        # The ranges share one probe, the kNN specs one per k; each join runs alone.
        key = lambda sub: (sub.kind, sub.cqid if sub.kind == "join" else getattr(sub.spec, "k", 0))
        commit = lambda group: list(map(_commit, group, self._answers([sub.spec for sub in group])))
        return per_group(subs, key, commit)


# -- incremental ---------------------------------------------------------------


class IncrementalPolicy(MaintenancePolicy):
    """Maintain answers from the tick's affected set.

    Range results never probe the grid: they are patched by membership
    tests on the tick's entrants.  kNN results are held by distance-slack
    safe regions and re-probed on the grid only when geometry demands; joins
    retract every pair touching a changed element and re-probe the changed
    survivors.
    """

    name = "incremental"

    def __init__(self, session: "ContinuousSession") -> None:
        super().__init__(session)
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
        valid; one :func:`_slack_knn` probe per distinct ``k`` for the
        invalidated specs (a failed probe fails just those).  The matrix is
        the point–box kernel, so its distances are the scalar
        ``min_distance_to_point`` bit for bit, as a recompute reports.
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
        knn = lambda group: _slack_knn(self.session.queries, [sub.spec for sub in group])
        answers = per_group(stale, lambda sub: sub.spec.k, knn)
        for i, sub, new in zip(probe, stale, answers):
            if not isinstance(new, Exception):
                new, self._knn_slack[sub.cqid] = new  # the top k, the next slack
            outcomes[i] = _commit(sub, new)
        return outcomes

    def _evaluate_join(self, sub: "Subscription", batch: TickBatch) -> tuple[set, set]:
        """The iterated self-join, with deltas: retract every pair
        touching a changed element, re-probe the changed survivors (the
        tick's entrants, already packed) with :func:`_join_probe`, and report
        the difference.  Pairs between untouched elements carry over — their
        geometry is frozen, so the predicate's value is too."""
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

        after = set(_join_probe(self.session, spec, *batch.entrants))
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


POLICY_CLASSES: dict[str, type[MaintenancePolicy]] = {
    RecomputePolicy.name: RecomputePolicy,
    IncrementalPolicy.name: IncrementalPolicy,
}
