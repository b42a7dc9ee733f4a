"""The Figure 1 loop: compute → maintain index → monitor.

Each step runs three phases, individually timed and counter-attributed:

1. **compute** — the model advances one step, issuing update queries (kNN,
   range, join partners) against the index;
2. **maintenance** — the step's updates are folded into the index: each
   :class:`~repro.continuous.spec.Insert` (growth) through ``insert``, the
   moves as one ``apply_moves`` batch.  With ``continuous=True`` over a
   :class:`~repro.core.uniform_grid.UniformGrid` the continuous session's
   state *is* the index, and the phase is one ``tick`` of that session,
   which writes the index once and then maintains the standing queries;
   over any other index the session keeps its own grid, ticked beside the
   index's writes.  Either way the session charges the index's counters,
   so a step's report includes the standing queries' work;
3. **monitor** — in-situ analysis queries run against the fresh state
   ("thousands of range queries ... at locations that cannot be
   anticipated").

The model owns the elements; the engine keeps no copy of them
(:attr:`TimeSteppedSimulation.state` is the model's ``items()``).  The
per-step :class:`StepReport` is the timeline Figure 1 sketches; the
``bench_fig1_timeline.py`` exhibit records it.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Iterable, Protocol, Sequence

from repro.continuous import ContinuousSession
from repro.core.uniform_grid import UniformGrid
from repro.engine import QuerySession
from repro.geometry.aabb import AABB
from repro.indexes.base import SpatialIndex
from repro.instrumentation.counters import Counters
from repro.sim.models import Insert, Move, SimulationModel


class Monitor(Protocol):
    """An in-situ analysis task run against the index every step.

    Monitors that additionally implement
    ``observe_batch(session: QuerySession, step: int)`` get handed the
    simulation's query session instead, so a step's whole query volume runs
    through the session's executors (all shipped monitors do).
    """

    def observe(self, index: SpatialIndex, step: int) -> None: ...


@dataclass
class StepReport:
    """Timing and accounting for one simulation step."""

    step: int
    compute_seconds: float
    maintenance_seconds: float
    monitor_seconds: float
    moves: int
    counters: Counters = field(default_factory=Counters)

    @property
    def total_seconds(self) -> float:
        return self.compute_seconds + self.maintenance_seconds + self.monitor_seconds


class TimeSteppedSimulation:
    """Drives a :class:`~repro.sim.models.SimulationModel` against an index.

    Parameters
    ----------
    model:
        The physics.
    index:
        Any :class:`~repro.indexes.base.SpatialIndex`.
    monitors:
        In-situ analysis tasks (may be empty).
    continuous:
        Carry a :class:`~repro.continuous.ContinuousSession` for standing
        queries (monitors subscribe through ``subscribe_continuous``).  It
        shares the index when the index is a
        :class:`~repro.core.uniform_grid.UniformGrid`; over any index it
        charges the index's counters.
    """

    def __init__(
        self,
        model: SimulationModel,
        index: SpatialIndex,
        monitors: Iterable[Monitor] = (),
        continuous: bool = False,
    ) -> None:
        self.model = model
        self.index = index
        self.session = QuerySession(index)
        self.monitors = list(monitors)
        items = list(model.items().items())
        self.index.bulk_load(items)
        # Standing queries: a ContinuousSession ticked with each step's
        # updates during the maintenance phase, so subscriber monitors read
        # exact delta-maintained results for free in the monitor phase.
        self.continuous = None
        if continuous:
            if isinstance(index, UniformGrid):
                self.continuous = ContinuousSession(index)
            else:
                self.continuous = ContinuousSession(
                    items, universe=model.universe(), counters=index.counters
                )
            for monitor in self.monitors:
                hook = getattr(monitor, "subscribe_continuous", None)
                if hook is not None:
                    hook(self.continuous)
        self.reports: list[StepReport] = []
        self._step = 0

    def run(self, steps: int) -> list[StepReport]:
        """Execute ``steps`` steps, returning their reports."""
        if steps < 0:
            raise ValueError(f"steps must be >= 0, got {steps}")
        for _ in range(steps):
            self.reports.append(self._one_step())
        return self.reports[-steps:] if steps else []

    # -- internals ------------------------------------------------------------------

    def _one_step(self) -> StepReport:
        step = self._step
        before = self.index.counters.snapshot()

        start = time.perf_counter()
        updates = self.model.advance(self.index, step)
        compute_seconds = time.perf_counter() - start

        start = time.perf_counter()
        moves = self._maintain(updates)
        maintenance_seconds = time.perf_counter() - start

        start = time.perf_counter()
        for monitor in self.monitors:
            observe_batch = getattr(monitor, "observe_batch", None)
            if observe_batch is not None:
                observe_batch(self.session, step)
            else:
                monitor.observe(self.index, step)
        monitor_seconds = time.perf_counter() - start

        self._step += 1
        return StepReport(
            step=step,
            compute_seconds=compute_seconds,
            maintenance_seconds=maintenance_seconds,
            monitor_seconds=monitor_seconds,
            moves=len(moves),
            counters=self.index.counters.diff(before),
        )

    def _maintain(self, updates: Sequence[Move | Insert]) -> list[Move]:
        """Fold one step's updates into the standing queries and the index
        (one write when the continuous session's grid is the index)."""
        moves = [update for update in updates if not isinstance(update, Insert)]
        if self.continuous is not None:
            self.continuous.tick(updates)
            if self.continuous.grid is self.index:
                return moves
        for update in updates:
            if isinstance(update, Insert):
                self.index.insert(update.eid, update.box)
        self.index.apply_moves(moves)
        return moves

    @property
    def state(self) -> dict[int, AABB]:
        """The current id → box state: the model's (the engine keeps no copy)."""
        return self.model.items()
