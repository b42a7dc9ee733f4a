"""JoinSession: the declarative front door for every spatial join.

* Joins are **first-class values** — :class:`~repro.joins.spec.SelfJoinSpec`,
  :class:`~repro.joins.spec.PairJoinSpec`,
  :class:`~repro.joins.spec.DistanceJoinSpec` and
  :class:`~repro.joins.spec.SynapseJoinSpec` describe *what* to join;
* ``session.submit(spec)`` returns a deferred :class:`JoinHandle`
  (flush-on-read); ``session.run(spec)`` is the immediate form.  The handle,
  the buffer and the flush loop are the session core
  (:mod:`repro.engine.core`) the query session runs on too; here each spec
  is a group of its own;
* a small **planner** picks the strategy per spec — tiny inputs run the
  scalar nested loop (partitioning set-up would dominate), everything else
  the vectorized grid join — overridable by pinning a ``strategy`` per
  session or per spec, with every algorithm in
  :data:`~repro.joins.strategies.JOIN_REGISTRY` interchangeable;
* the filter phase runs **in-process**: the session calls the planned
  strategy directly (a budgeted spec spills through the session's
  :class:`~repro.exec.spill.SpillManager` and reads its runs back as
  zero-copy views; a serving front end moves the whole flush off its event
  loop with a thread);
* **refinement** (the exact-geometry phase of distance and synapse joins)
  runs on the vectorized pair kernels of :mod:`repro.geometry.refine` —
  one array expression over all candidates instead of a Python call per
  pair.

Every strategy receives the spec's :class:`~repro.geometry.table.BoxTable`
tables — built (and contract-checked) once per spec at the top of execution,
before planning can open a spill directory — so nothing downstream re-packs
the items.  Accounting flows into the session's metrics registry, read
through :class:`~repro.joins.spec.JoinStats`, which
:func:`repro.analysis.session_report.join_report` renders.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Any, NamedTuple

import numpy as np

from repro.engine.core import Buffer, Handle, SessionCore
from repro.exec.budget import MemoryBudget, pbsm_working_set_bytes
from repro.obs import span as _span
from repro.exec.external_join import SpillPBSMJoin, spill_page_size
from repro.exec.spill import SpillManager
from repro.geometry.refine import batch_box_gaps, batch_capsule_gaps, pack_segments
from repro.geometry.table import BoxTable
from repro.instrumentation.counters import Counters
from repro.joins.spec import (
    DistanceJoinSpec,
    JoinSpec,
    JoinStats,
    PairJoinSpec,
    SelfJoinSpec,
    Synapse,
    SynapseJoinSpec,
    apposition_point,
)
from repro.joins.strategies import (
    JOIN_REGISTRY,
    JoinStrategy,
    Pairs,
    make_join_strategy,
    pair_array,
)

# -- deferred results ----------------------------------------------------------


class JoinHandle(Handle):
    """A deferred join result (the session core's :class:`Handle`).

    The value is the spec's natural result: sorted id pairs for
    box/distance joins, :class:`~repro.joins.spec.Synapse` records for
    synapse specs.
    """

    __slots__ = ("spec",)

    def __init__(self, session: "JoinSession", spec: JoinSpec) -> None:
        super().__init__(session, spec.tag)
        self.spec = spec


class _Submission(NamedTuple):
    """One buffered spec: its handle and its per-spec strategy pin."""

    spec: JoinSpec
    handle: JoinHandle
    strategy: JoinStrategy | None


# -- planning ------------------------------------------------------------------

#: Specs whose total input size is at or below this run the scalar nested
#: loop: partitioning/packing set-up would outweigh the quadratic scan.
INLINE_JOIN_CUTOFF = 64


@dataclass(frozen=True)
class JoinPlan:
    """One planning decision: which strategy answers a spec."""

    spec: JoinSpec
    strategy: JoinStrategy


def _spec_tables(spec: JoinSpec) -> tuple[BoxTable, BoxTable | None]:
    """The spec's sides as tables (``None`` for the absent side of a self
    join) — the first thing execution does, so a contract violation is
    refused while the session holds no spill file."""
    if spec.kind == "self":
        return spec.table, None
    if spec.kind == "synapse":
        return BoxTable.of(spec.dataset.items), None
    table_a, table_b = spec.table_a, spec.table_b
    if table_b is not None and len(table_a) and len(table_b) and table_a.dims != table_b.dims:
        raise ValueError(
            f"join sides differ in dimensionality: A has {table_a.dims} dims, B has {table_b.dims}"
        )
    return table_a, table_b


def pair_list(pairs: Pairs) -> list[tuple[int, int]]:
    """The one materialisation: sorted ``(a, b)`` tuples of Python ints."""
    pairs = pair_array(pairs)
    if not len(pairs):
        return []
    a, b = _sorted_columns(pairs)
    return list(zip(a.tolist(), b.tolist()))


def _sorted_columns(pairs: np.ndarray, unique: bool = False) -> tuple[np.ndarray, np.ndarray]:
    """The ``(a, b)`` columns of non-empty ``pairs`` in ``(a, b)`` order,
    each pair once when ``unique``.

    Non-negative ids sort as one int64 key ``a · (max_b + 1) + b`` while it
    fits — a plain sort (or ``unique``) of one column, several times faster
    than the two-key ``lexsort`` or row-wise ``unique`` every other input
    takes — and decode from it."""
    a, b = pairs[:, 0], pairs[:, 1]
    base = int(b.max()) + 1
    if int(a.min()) >= 0 and int(b.min()) >= 0 and int(a.max()) * base + base - 1 < 1 << 63:
        key = a * base + b
        return np.divmod(np.unique(key) if unique else np.sort(key), base)
    if unique:
        pairs = np.unique(pairs, axis=0)
        return pairs[:, 0], pairs[:, 1]
    order = np.lexsort((b, a))
    return a.take(order), b.take(order)


def _spec_size(spec: JoinSpec) -> int:
    if spec.kind == "self":
        return len(spec.items)
    if spec.kind == "pair":
        return len(spec.items_a) + len(spec.items_b)
    if spec.kind == "distance":
        return len(spec.items_a) + (len(spec.items_b) if spec.items_b is not None else 0)
    return len(spec.dataset)


# -- the session ---------------------------------------------------------------


class JoinSession(SessionCore):
    """The single public entry point for spatial joins.

    Parameters
    ----------
    strategy:
        Pin every spec to one strategy — a registry name (``"pbsm"``) or a
        :class:`~repro.joins.strategies.JoinStrategy` instance — bypassing
        the planner.
    counters:
        Shared :class:`~repro.instrumentation.counters.Counters` the
        strategies charge (one is created when omitted).
    budget:
        A :class:`~repro.exec.budget.MemoryBudget` (or raw byte limit)
        governing the session's join working sets.  When a spec's estimated
        working set exceeds the limit, the planner routes it to the
        out-of-core ``pbsm_spill`` strategy, which partitions through the
        session's :class:`~repro.exec.spill.SpillManager`; spill traffic
        and the budget high-water surface in :attr:`stats`.
    spill_dir:
        Directory for the session's spill files (default: a private tmpdir
        created on first spill).  Either way, :meth:`close` — or leaving a
        ``with`` block — removes them.

    Deferred and immediate styles, mirroring :class:`~repro.engine.QuerySession`::

        session = JoinSession()
        handle = session.submit(SelfJoinSpec(items))       # deferred
        pairs = handle.result()                            # flush-on-read

        pairs = session.run(PairJoinSpec(items_a, items_b))  # immediate
        synapses = session.run(SynapseJoinSpec(dataset, epsilon=0.05))

        with JoinSession(budget=256 * 1024 * 1024) as session:   # out-of-core
            pairs = session.run(PairJoinSpec(huge_a, huge_b))    # spills
    """

    _PREFIX = "join"
    _GROUPS = "specs"

    def __init__(
        self,
        *,
        strategy: str | JoinStrategy | None = None,
        counters: Counters | None = None,
        budget: MemoryBudget | int | None = None,
        spill_dir: str | None = None,
    ) -> None:
        super().__init__(Buffer(), JoinStats)
        if isinstance(strategy, str):
            strategy = make_join_strategy(strategy)
        self._pinned = strategy
        self.counters = counters if counters is not None else Counters()
        self.budget = MemoryBudget.coerce(budget)
        self._m_spec_seconds = self.metrics.histogram("join.spec.seconds")
        self._spill_dir = spill_dir
        self._spill: SpillManager | None = None
        self._spill_strategy: SpillPBSMJoin | None = None
        self._small = make_join_strategy("nested_loop")
        self._default = make_join_strategy("grid")

    # -- lifecycle ------------------------------------------------------------

    def close(self) -> None:
        """Release the session's spill files (idempotent; also runs on
        ``with`` exit).  The session remains usable — a later spill simply
        opens a fresh manager."""
        if self._spill is not None:
            self._spill.close()
            self._spill = None
            self._spill_strategy = None

    def __enter__(self) -> "JoinSession":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def spill_manager(self) -> SpillManager:
        """The session's spill manager (created on first use)."""
        if self._spill is None or self._spill.closed:
            chunk_budget = self.budget.limit // 4 if self.budget.limit else None
            self._spill = SpillManager(
                dir=self._spill_dir,
                page_size=spill_page_size(chunk_budget),
                counters=self.counters,
            )
            self._spill_strategy = None
        return self._spill

    # -- planning -------------------------------------------------------------

    def estimated_working_set(self, spec: JoinSpec) -> int:
        """Bytes the in-memory partitioned join would hold for ``spec``."""
        if spec.kind in ("pair", "distance"):
            items, items_b = spec.items_a, spec.items_b
            n_a = len(items)
            n_b = n_a if items_b is None else len(items_b)
            if not n_a and spec.kind == "pair":
                items = items_b
        else:
            items = spec.items if spec.kind == "self" else spec.dataset.items
            n_a = n_b = len(items)
        dims = 3
        if len(items):  # read off the table; never unpack one just to ask
            dims = items.dims if isinstance(items, BoxTable) else items[0][1].dims
        return pbsm_working_set_bytes(n_a, n_b, dims)

    def choose_strategy(self, spec: JoinSpec) -> JoinStrategy:
        """The planner: tiny inputs scan, in-memory sets ride the grid, and
        working sets over the session budget spill.

        A pinned ``strategy`` overrides this entirely; any
        :data:`~repro.joins.strategies.JOIN_REGISTRY` entry is a valid
        answer because all strategies return identical pair sets.
        """
        if self._pinned is not None:
            return self._pinned
        if _spec_size(spec) <= INLINE_JOIN_CUTOFF:
            return self._small
        if self.budget.limit is not None and self.estimated_working_set(spec) > self.budget.limit:
            if self._spill_strategy is None:
                self._spill_strategy = SpillPBSMJoin(
                    budget=self.budget, spill=self.spill_manager()
                )
            return self._spill_strategy
        return self._default

    def plan(self, spec: JoinSpec, strategy: str | JoinStrategy | None = None) -> JoinPlan:
        """The planning decision for ``spec``, without executing it.

        ``strategy`` overrides the planner for this one spec (a registry
        name or an instance) — the per-call analogue of pinning.
        """
        if isinstance(strategy, str):
            strategy = make_join_strategy(strategy)
        if strategy is None:
            strategy = self.choose_strategy(spec)
        return JoinPlan(spec=spec, strategy=strategy)

    # -- submission -----------------------------------------------------------

    def submit(self, spec: JoinSpec, strategy: str | JoinStrategy | None = None) -> JoinHandle:
        """Buffer one join spec; returns its deferred handle.

        ``strategy`` pins this one spec to a registry name or instance,
        bypassing the planner for it alone.
        """
        if getattr(spec, "kind", None) not in ("self", "pair", "distance", "synapse"):
            raise TypeError(f"not a join spec: {spec!r}")
        if isinstance(strategy, str):
            strategy = make_join_strategy(strategy)
        handle = JoinHandle(self, spec)
        with self._lock:
            self._enqueue(_Submission(spec, handle, strategy), 1)
        return handle

    # ``flush()`` is the core's; each spec runs as a group of its own.

    def _run_group(self, group: list[_Submission], alone: bool) -> None:
        [(spec, handle, strategy)] = group
        handle._resolve(self._execute(spec, strategy))

    def _group_failed(self) -> None:
        """A spec that fails while the spill manager is open releases the
        spill files at once: a strategy that dies mid-merge leaves
        partitions parked on disk, and deferring cleanup to :meth:`close`
        would leak the tmpdir for the session's whole remaining lifetime.
        The next over-budget spec simply opens a fresh manager."""
        self.close()

    def run(self, spec: JoinSpec, strategy: str | JoinStrategy | None = None) -> Any:
        """Submit + flush + read: the immediate surface."""
        return self.submit(spec, strategy).result()

    # -- execution ------------------------------------------------------------

    def _execute(self, spec: JoinSpec, strategy: str | JoinStrategy | None = None) -> Any:
        table_a, table_b = _spec_tables(spec)
        strategy = self.plan(spec, strategy).strategy
        before = self.counters.snapshot()
        spec_start = time.perf_counter()
        with _span(
            "join.spec",
            counters=self.counters,
            kind=spec.kind,
            strategy=strategy.name,
            size=_spec_size(spec),
        ):
            if spec.kind in ("self", "pair"):
                if table_b is None:
                    pairs = strategy.self_join(table_a, self.counters)
                else:
                    pairs = strategy.join(table_a, table_b, self.counters)
                self.metrics.counter("join.candidates").inc(len(pairs))
                result: Any = pair_list(pairs)
                self.metrics.counter("join.pairs").inc(len(result))
            elif spec.kind == "distance":
                result = self._execute_distance(spec, strategy)
            else:
                result = self._execute_synapse(spec, strategy, table_a)
        self._m_spec_seconds.observe(time.perf_counter() - spec_start)
        self.metrics.counter(f"join.strategy.{strategy.name}").inc()
        self.metrics.counter("join.specs").inc()
        delta = self.counters.diff(before)
        for attr in ("comparisons", "tiles_spilled", "spill_bytes_written",
                     "spill_bytes_read", "zero_copy_reads", "mapped_bytes"):
            self.metrics.counter(f"join.{attr}").inc(getattr(delta, attr))
        self.metrics.gauge("join.budget_high_water").track_max(self.budget.high_water)
        return result

    def _execute_distance(
        self, spec: DistanceJoinSpec, strategy: JoinStrategy
    ) -> list[tuple[int, int]]:
        table_a, table_b = spec.table_a, spec.table_b
        candidates = pair_array(
            strategy.distance_candidates(table_a, table_b, spec.epsilon, self.counters)
        )
        self.metrics.counter("join.candidates").inc(len(candidates))
        if not candidates:
            return []
        self.metrics.counter("join.refined").inc(len(candidates))
        self.counters.refine_tests += len(candidates)
        if spec.refine is not None:
            verdicts = (spec.refine(a, b) for a, b in candidates.tolist())  # Python ints
            keep = np.fromiter(verdicts, dtype=bool, count=len(candidates))
        else:
            # Boxes are the geometry: refine with the vectorized box-gap
            # kernel (one array expression over all candidates).
            table_b = table_a if table_b is None else table_b
            keep = batch_box_gaps(
                table_a.boxes.take(table_a.rows_of(candidates[:, 0]), axis=0),
                table_b.boxes.take(table_b.rows_of(candidates[:, 1]), axis=0),
            ) <= spec.epsilon
        result = pair_list(candidates[keep])
        self.metrics.counter("join.pairs").inc(len(result))
        return result

    def _execute_synapse(
        self, spec: SynapseJoinSpec, strategy: JoinStrategy, table: BoxTable
    ) -> list[Synapse]:
        dataset = spec.dataset
        candidates = pair_array(
            strategy.distance_candidates(table, None, spec.epsilon, self.counters)
        )
        self.metrics.counter("join.candidates").inc(len(candidates))
        if not candidates:
            return []

        eids = np.fromiter(dataset.capsules.keys(), dtype=np.int64, count=len(dataset.capsules))
        order = np.argsort(eids)
        eids_sorted = eids[order]
        capsules_sorted = [dataset.capsules[int(e)] for e in eids_sorted]
        neurons_sorted = np.fromiter(
            (dataset.neuron_of[int(e)] for e in eids_sorted), dtype=np.int64, count=eids_sorted.shape[0]
        )
        starts, ends, radii = pack_segments(capsules_sorted)

        # Registry strategies emit each pair exactly once, but a
        # user-supplied CallableJoin carries no such guarantee — and the
        # synapse contract promises duplicate unordered pairs are excluded.
        cand_a, cand_b = _sorted_columns(candidates, unique=True)
        rows_a = np.searchsorted(eids_sorted, cand_a)
        rows_b = np.searchsorted(eids_sorted, cand_b)

        # Same-neuron pairs never form synapses — exclude before the (more
        # expensive) exact-geometry refinement.
        cross = neurons_sorted[rows_a] != neurons_sorted[rows_b]
        rows_a, rows_b = rows_a[cross], rows_b[cross]
        if rows_a.shape[0] == 0:
            return []
        gaps = batch_capsule_gaps(
            starts[rows_a], ends[rows_a], radii[rows_a],
            starts[rows_b], ends[rows_b], radii[rows_b],
        )
        self.metrics.counter("join.refined").inc(int(rows_a.shape[0]))
        self.counters.refine_tests += int(rows_a.shape[0])
        keep = np.nonzero(gaps <= spec.epsilon)[0]

        synapses: list[Synapse] = []
        for i in keep.tolist():
            ra, rb = int(rows_a[i]), int(rows_b[i])
            ea, eb = int(eids_sorted[ra]), int(eids_sorted[rb])
            if ea > eb:
                ea, eb = eb, ea
                ra, rb = rb, ra
            synapses.append(
                Synapse(
                    segment_a=ea,
                    segment_b=eb,
                    neuron_a=int(neurons_sorted[ra]),
                    neuron_b=int(neurons_sorted[rb]),
                    gap=float(gaps[i]),
                    location=apposition_point(capsules_sorted[ra], capsules_sorted[rb]),
                )
            )
        synapses.sort(key=lambda s: (s.segment_a, s.segment_b))
        self.metrics.counter("join.pairs").inc(len(synapses))
        return synapses

