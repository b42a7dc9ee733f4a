"""Continuous-query values, tick updates and the delta vocabulary.

A continuous query is submitted **once** and answered **forever**: the
paper's plasticity workload runs the same range / nearest-neighbour /
synapse-join analyses against neurons that move every simulation step.
Instead of re-asking, a client subscribes a spec value to a
:class:`~repro.continuous.session.ContinuousSession` and receives, per
``tick(updates)``, an exact :class:`Delta` — what entered the result and
what left it — never a full result set.

This module is the value layer:

* the spec values (:class:`ContinuousRangeQuery`, :class:`ContinuousKNNQuery`,
  :class:`ContinuousJoinSpec`), mirroring the one-shot
  :class:`~repro.engine.session.Query` / :class:`~repro.joins.spec.JoinSpec`
  vocabulary;
* the update vocabulary — plain ``(eid, old_box, new_box)`` move tuples
  (the :data:`~repro.sim.models.Move` convention used everywhere else) plus
  :class:`Insert` / :class:`Delete` records for churn;
* :class:`TickBatch` — one tick's updates normalized into net moved /
  inserted / deleted maps, the unit every maintenance policy consumes;
* :class:`Delta` — the per-tick result change, exact by the oracle suite's
  definition: folding every delta into the initial result reproduces a full
  recompute at every tick.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from functools import cached_property
from typing import Any, Callable, Iterable, Sequence, Union

import numpy as np

from repro.geometry.aabb import AABB, boxes_to_array
from repro.indexes.base import Move

_cqid_counter = itertools.count(1)


def _next_cqid() -> int:
    return next(_cqid_counter)


# -- spec values ---------------------------------------------------------------


@dataclass(frozen=True)
class ContinuousRangeQuery:
    """A standing range query: which elements intersect ``box`` right now.

    The result is a set of element ids; deltas carry ids entering and
    leaving the box as elements move, appear and disappear.
    """

    box: AABB
    tag: Any = None
    cqid: int = field(default_factory=_next_cqid, compare=False)

    kind = "range"


@dataclass(frozen=True)
class ContinuousKNNQuery:
    """A standing k-nearest-neighbour query under the ``(distance, id)``
    deterministic tie-break contract shared with the one-shot engine.

    The subscription's ``current`` is the ordered ``[(distance, eid), ...]``
    list; deltas carry *membership* changes (the set of eids entering and
    leaving the top-k).  Distances of surviving members are exact on every
    tick: member motion is patched in place while the distance slack to the
    (k+1)-th neighbor proves the membership unchanged, and only a slack
    violation (or an outsider reaching the k-th distance) forces a
    recompute.
    """

    point: tuple[float, ...]
    k: int
    tag: Any = None
    cqid: int = field(default_factory=_next_cqid, compare=False)

    kind = "knn"

    def __post_init__(self) -> None:
        if self.k < 1:
            raise ValueError(f"k must be >= 1, got {self.k}")
        object.__setattr__(self, "point", tuple(float(c) for c in self.point))


@dataclass(frozen=True)
class ContinuousJoinSpec:
    """A standing self-join over the session's tracked elements.

    ``epsilon=0`` is the collision join (boxes intersect); ``epsilon > 0``
    is the within-ε distance join (box gap ≤ ε, the
    :class:`~repro.joins.spec.DistanceJoinSpec` predicate).  ``refine(a, b)``
    optionally sharpens the predicate on the ids — e.g. exact capsule gaps
    with same-neuron pairs excluded, the synapse-detection rule.  The refine
    callable must read *current* geometry (it is re-consulted whenever
    either endpoint changes).

    Results and deltas are unordered ``(low id, high id)`` pairs.
    """

    epsilon: float = 0.0
    refine: Callable[[int, int], bool] | None = None
    tag: Any = None
    cqid: int = field(default_factory=_next_cqid, compare=False)

    kind = "join"

    def __post_init__(self) -> None:
        if self.epsilon < 0:
            raise ValueError(f"epsilon must be >= 0, got {self.epsilon}")


ContinuousQuery = Union[ContinuousRangeQuery, ContinuousKNNQuery]
ContinuousSpec = Union[ContinuousRangeQuery, ContinuousKNNQuery, ContinuousJoinSpec]


# -- updates -------------------------------------------------------------------


@dataclass(frozen=True)
class Insert:
    """A new element appearing this tick (growth, in the paper's terms)."""

    eid: int
    box: AABB


@dataclass(frozen=True)
class Delete:
    """An element disappearing this tick (pruning / apoptosis)."""

    eid: int


Update = Union[Move, Insert, Delete]


@dataclass(frozen=True)
class TickBatch:
    """One tick's updates, normalized against the tick-start state.

    ``moved`` maps eid → ``(old_box, new_box)`` for elements present before
    and after the tick whose box changed; ``inserted`` maps eid → box for
    elements absent before; ``deleted`` maps eid → last box for elements
    absent after.  An element touched several times within one tick folds to
    its *net* effect (insert-then-move is an insert at the final box;
    move-then-delete is a delete), so every policy sees each eid at most
    once per tick.
    """

    moved: dict[int, tuple[AABB, AABB]]
    inserted: dict[int, AABB]
    deleted: dict[int, AABB]

    @property
    def is_empty(self) -> bool:
        return not (self.moved or self.inserted or self.deleted)

    @property
    def size(self) -> int:
        return len(self.moved) + len(self.inserted) + len(self.deleted)

    def affected_ids(self) -> set[int]:
        """Every eid whose membership or geometry changed this tick."""
        return set(self.moved) | set(self.inserted) | set(self.deleted)

    def moves(self) -> list[Move]:
        """The net motion as ``(eid, old, new)`` tuples (deterministic order)."""
        return [(eid, old, new) for eid, (old, new) in sorted(self.moved.items())]

    @cached_property
    def entrants(self) -> tuple[list[int], np.ndarray]:
        """Every element that may have come nearer to something this tick —
        inserted, then moved at its new box — as parallel ``(ids, (m, 2, d)
        array)``.  Packed once per tick and shared by every kNN
        subscription's entrant test."""
        boxes = [*self.inserted.values(), *(new for _, new in self.moved.values())]
        return [*self.inserted, *self.moved], boxes_to_array(boxes)

    def entrants_inside(self, boxes: list[AABB]) -> list[set[int]]:
        """Per box, the ids of the entrants whose box now intersects it: the
        scalar ``AABB.intersects`` comparisons, for every box in one pass
        over the packed array."""
        ids, packed = self.entrants
        if not ids:
            return [set() for _ in boxes]
        windows = boxes_to_array(boxes)[:, None]  # (boxes, 1, 2, d) against (m, d)
        apart = (packed[:, 0, :] > windows[..., 1, :]) | (windows[..., 0, :] > packed[:, 1, :])
        return [{ids[at] for at in np.flatnonzero(row).tolist()} for row in ~apart.any(axis=2)]


def _other_dims(box: AABB, dims: int | None) -> int:
    """Called when ``box`` is not ``dims``-dimensional: fine only while
    nothing is tracked yet, and then the box decides."""
    if dims is not None:
        raise ValueError(f"box has {box.dims} dims, tracked elements have {dims}")
    return box.dims


def normalize_updates(
    updates: Iterable[Update], state: dict[int, AABB], dims: int | None = None
) -> TickBatch:
    """Fold a raw update sequence into a :class:`TickBatch`.

    ``state`` is the authoritative tick-start ``eid → box`` map; updates are
    validated against it in order (a move's ``old_box`` must match the
    element's current box, inserts must be fresh ids, deletes must exist),
    matching the strictness of every index's ``update`` contract.  So are
    the boxes themselves: one of another dimensionality than the tracked
    elements (``dims``, when the caller knows it while ``state`` is empty)
    or, in the net batch, with a non-finite coordinate is refused here —
    every backing index would refuse it, but only after the session had
    committed the tick to its state.
    """
    moved: dict[int, tuple[AABB, AABB]] = {}
    inserted: dict[int, AABB] = {}
    deleted: dict[int, AABB] = {}
    if dims is None and state:
        dims = next(iter(state.values())).dims

    def current_box(eid: int) -> AABB | None:
        if eid in inserted:
            return inserted[eid]
        if eid in moved:
            return moved[eid][1]
        if eid in deleted:
            return None
        return state.get(eid)

    for update in updates:
        if isinstance(update, Insert):
            eid, box = update.eid, update.box
            if current_box(eid) is not None:
                raise ValueError(f"insert of element {eid} already present")
            if len(box.lo) != dims:
                dims = _other_dims(box, dims)
            if eid in deleted:
                # delete-then-insert within one tick nets to a move.
                old = deleted.pop(eid)
                if old != box:
                    moved[eid] = (state[eid], box) if eid in state else (old, box)
                continue
            inserted[eid] = box
        elif isinstance(update, Delete):
            eid = update.eid
            box = current_box(eid)
            if box is None:
                raise KeyError(f"delete of unknown element {update.eid}")
            if eid in inserted:
                del inserted[eid]  # insert-then-delete nets to nothing
                continue
            moved.pop(eid, None)
            deleted[eid] = state[eid]
        else:
            eid, old_box, new_box = update
            have = current_box(eid)
            if have is not old_box and (have is None or have != old_box):
                raise KeyError(f"element {eid} with box {old_box} not tracked")
            if len(new_box.lo) != dims:
                dims = _other_dims(new_box, dims)
            if eid in inserted:
                inserted[eid] = new_box  # insert-then-move nets to one insert
                continue
            start = moved[eid][0] if eid in moved else state[eid]
            if start == new_box:
                moved.pop(eid, None)  # moved back: no net change
            else:
                moved[eid] = (start, new_box)
    batch = TickBatch(moved=moved, inserted=inserted, deleted=deleted)
    if not np.isfinite(batch.entrants[1]).all():  # packed here, read by every policy
        raise ValueError("box coordinates must be finite")
    return batch


# -- deltas --------------------------------------------------------------------


@dataclass(frozen=True)
class Delta:
    """The exact change to one standing result over one tick.

    For range / kNN specs the elements are eids; for join specs they are
    ``(low id, high id)`` pairs.  ``added`` and ``removed`` are disjoint;
    an unchanged result yields an empty delta (and safe-region maintenance
    proves many of those without touching the index).
    """

    tick: int
    added: frozenset
    removed: frozenset

    @property
    def is_empty(self) -> bool:
        return not self.added and not self.removed

    def apply(self, current: set) -> set:
        """Fold this delta into a result set (the oracle-suite accumulator)."""
        if self.removed - current:
            raise ValueError(f"delta removes elements not in the result: {self.removed - current}")
        if self.added & current:
            raise ValueError(f"delta adds elements already in the result: {self.added & current}")
        return (current - self.removed) | self.added


def delta_between(tick: int, old: set, new: set) -> Delta:
    """The exact delta turning ``old`` into ``new``."""
    return Delta(tick=tick, added=frozenset(new - old), removed=frozenset(old - new))


def knn_ids(result: Sequence[tuple[float, int]]) -> set[int]:
    """Membership view of an ordered ``(distance, eid)`` kNN result."""
    return {eid for _, eid in result}
