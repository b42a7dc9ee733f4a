"""Join specifications: first-class values describing one spatial join.

Mirroring the query side (:mod:`repro.engine.session`, where queries are
``RangeQuery``/``KNNQuery``/``PointQuery`` values), a join is described by a
**spec** and executed by a :class:`~repro.joins.session.JoinSession`:

* :class:`SelfJoinSpec` — all unordered intersecting pairs within one
  dataset (the paper's collision-detection use: "the entire model needs to
  be spatially joined with itself at every simulation step");
* :class:`PairJoinSpec` — A ⋈ B: all ``(a, b)`` pairs with intersecting
  boxes;
* :class:`DistanceJoinSpec` — pairs within distance ε, via the
  expand-filter-refine pipeline (§2.2's synapse join is the motivating
  workload);
* :class:`SynapseJoinSpec` — the full neuroscience predicate: a within-ε
  self-join over a neuron dataset's capsule segments, excluding same-neuron
  pairs, materializing :class:`Synapse` records.

Item sides are ``(eid, AABB)`` sequences or
:class:`~repro.geometry.table.BoxTable` tables; the spec exposes them as tables
(``table`` / ``table_a`` / ``table_b``), packed and contract-checked on first
execution — never at construction — and cached, so a re-run packs nothing.

Specs carry a unique ``jid`` and an optional caller ``tag`` so telemetry
(:class:`JoinStats`, :func:`repro.analysis.session_report.join_report`) can
attribute work, exactly as query values do.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Any, Callable, Sequence, Union

from repro.datasets.neuroscience import NeuronDataset
from repro.geometry.primitives import Capsule
from repro.geometry.table import BoxTable
from repro.indexes.base import Item
from repro.obs.metrics import MetricsView, Read, Seconds, Tally

_JIDS = itertools.count()


def _next_jid() -> int:
    return next(_JIDS)


def _as_items(items: Sequence[Item]) -> "tuple[Item, ...] | BoxTable":
    return items if isinstance(items, BoxTable) else tuple(items)


def _table_of(field_name: str) -> cached_property:
    """The named item field as a :class:`BoxTable`, built on first read.
    ``cached_property`` writes the instance dict directly, which a frozen
    dataclass allows: the table is derived state, not a field."""

    def build(spec: Any) -> BoxTable | None:
        items = getattr(spec, field_name)
        return None if items is None else BoxTable.of(items)

    return cached_property(build)


# -- specs ---------------------------------------------------------------------


@dataclass(frozen=True)
class SelfJoinSpec:
    """All unordered intersecting pairs ``(a, b)`` with ``a < b`` in one set."""

    items: "tuple[Item, ...] | BoxTable"
    tag: Any = None
    jid: int = field(default_factory=_next_jid, compare=False)

    kind = "self"

    def __post_init__(self) -> None:
        object.__setattr__(self, "items", _as_items(self.items))

    table = _table_of("items")


@dataclass(frozen=True)
class PairJoinSpec:
    """All ``(a, b)`` pairs of A × B whose boxes intersect."""

    items_a: "tuple[Item, ...] | BoxTable"
    items_b: "tuple[Item, ...] | BoxTable"
    tag: Any = None
    jid: int = field(default_factory=_next_jid, compare=False)

    kind = "pair"

    def __post_init__(self) -> None:
        object.__setattr__(self, "items_a", _as_items(self.items_a))
        object.__setattr__(self, "items_b", _as_items(self.items_b))

    table_a = _table_of("items_a")
    table_b = _table_of("items_b")


@dataclass(frozen=True)
class DistanceJoinSpec:
    """Pairs within distance ``epsilon``, by expand-filter-refine.

    ``items_b=None`` makes it a self-join (unordered pairs, ``a < b``).
    ``refine(a, b)`` decides the exact predicate on the ids; when ``None``
    the stored boxes *are* the geometry and the exact predicate is the box
    gap (``AABB.min_distance_to_box``) — refined with the vectorized
    :func:`repro.geometry.refine.batch_box_gaps` kernel.
    """

    items_a: "tuple[Item, ...] | BoxTable"
    items_b: "tuple[Item, ...] | BoxTable | None"
    epsilon: float
    refine: Callable[[int, int], bool] | None = None
    tag: Any = None
    jid: int = field(default_factory=_next_jid, compare=False)

    kind = "distance"

    def __post_init__(self) -> None:
        if not 0 <= self.epsilon < math.inf:  # NaN fails every comparison
            raise ValueError(f"epsilon must be >= 0, got {self.epsilon}")
        object.__setattr__(self, "items_a", _as_items(self.items_a))
        if self.items_b is not None:
            object.__setattr__(self, "items_b", _as_items(self.items_b))

    @property
    def is_self(self) -> bool:
        return self.items_b is None

    table_a = _table_of("items_a")
    table_b = _table_of("items_b")  # ``None`` for a self-join


@dataclass(frozen=True)
class SynapseJoinSpec:
    """Synapse detection: within-ε capsule self-join over a neuron dataset.

    "wherever two neurons are within a given distance of each other, they
    will form a synapse to communicate with each other" (§2.2).  Same-neuron
    segment pairs are excluded; the result is a list of :class:`Synapse`
    records ordered by ``(segment_a, segment_b)``.
    """

    dataset: NeuronDataset
    epsilon: float = 0.05
    tag: Any = None
    jid: int = field(default_factory=_next_jid, compare=False)

    kind = "synapse"

    def __post_init__(self) -> None:
        if not 0 <= self.epsilon < math.inf:  # NaN fails every comparison
            raise ValueError(f"epsilon must be >= 0, got {self.epsilon}")


JoinSpec = Union[SelfJoinSpec, PairJoinSpec, DistanceJoinSpec, SynapseJoinSpec]


# -- results -------------------------------------------------------------------


@dataclass
class Synapse:
    """A detected apposition between two neuron segments."""

    segment_a: int
    segment_b: int
    neuron_a: int
    neuron_b: int
    gap: float
    location: tuple[float, float, float]


def apposition_point(a: Capsule, b: Capsule) -> tuple[float, float, float]:
    """Midpoint between the two segment midpoints — a stable, cheap stand-in
    for the exact closest-approach point (sufficient for placement stats)."""
    mid_a = a.axis.midpoint()
    mid_b = b.axis.midpoint()
    return tuple((p + q) / 2.0 for p, q in zip(mid_a, mid_b))  # type: ignore[return-value]


# -- stats ---------------------------------------------------------------------


class JoinStats(MetricsView):
    """Shared accounting across every join strategy, read off the session's
    registry beside the session core's queue/flush fields.

    ``comparisons`` is the paper's currency ("the number of comparisons (the
    major bulk of work for in-memory spatial joins)"); ``candidates`` counts
    filter-phase output pairs and ``refined`` the exact-geometry tests run on
    them, so the filter/refine split is visible per session.  ``joins`` is
    the ``join.specs`` count, and the routing map ``strategy_runs`` mirrors
    :attr:`~repro.engine.session.SessionStats.executor_runs` —
    :func:`repro.analysis.session_report.join_report` renders it the same
    way.

    Out-of-core execution adds the spill funnel: ``tiles_spilled`` counts
    tile/partition arrays evicted through the session's
    :class:`~repro.exec.spill.SpillManager`, ``spill_bytes_written`` /
    ``spill_bytes_read`` the logical bytes shipped out and back, and
    ``budget_high_water`` the closest the session's
    :class:`~repro.exec.budget.MemoryBudget` came to its limit (a gauge).

    The zero-copy fields complete the funnel: ``zero_copy_reads`` /
    ``mapped_bytes`` count spill reads served as NumPy views over the
    mmap-backed page store (and the bytes they exposed without a copy).
    """

    flushes = Read("join.flushes")
    queue_high_water = Read("join.queue.high_water")
    flush_seconds = Seconds("join.flush.seconds")
    flush_triggers = Tally("serving.flush.trigger.")
    joins = Read("join.specs")
    candidates = Read("join.candidates")
    pairs = Read("join.pairs")
    refined = Read("join.refined")
    comparisons = Read("join.comparisons")
    tiles_spilled = Read("join.tiles_spilled")
    spill_bytes_written = Read("join.spill_bytes_written")
    spill_bytes_read = Read("join.spill_bytes_read")
    zero_copy_reads = Read("join.zero_copy_reads")
    mapped_bytes = Read("join.mapped_bytes")
    budget_high_water = Read("join.budget_high_water")
    strategy_runs = Tally("join.strategy.")
