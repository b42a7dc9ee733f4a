"""The Figure 1 loop: compute → maintain index → monitor.

Each step runs three phases, individually timed and counter-attributed:

1. **compute** — the model advances one step, issuing update queries (kNN,
   range, join partners) against the index;
2. **maintenance** — the step's updates are folded into the index: each
   :class:`~repro.continuous.spec.Insert` (growth) through ``insert``, the
   moves as one ``apply_moves`` batch.  With ``continuous=True`` (which
   requires a :class:`~repro.core.uniform_grid.UniformGrid` index) the
   simulation carries one continuous session whose state *is* the index,
   and the phase is one ``tick`` of that session, which writes the index
   once and then maintains the model's and the monitors' standing queries;
   the session charges the index's counters, so a step's report includes
   the standing queries' work;
3. **monitor** — in-situ analysis queries run against the fresh state
   through the simulation's :class:`~repro.engine.QuerySession` ("thousands
   of range queries ... at locations that cannot be anticipated").

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
    """An in-situ analysis task run every step through the simulation's
    query session, so a step's whole query volume runs through the
    session's executors.  A monitor (or model) that also has
    ``subscribe_continuous(session)`` is handed the simulation's
    :class:`~repro.continuous.ContinuousSession` when there is one.
    """

    def observe(self, session: QuerySession, step: int) -> None: ...


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
        Any :class:`~repro.indexes.base.SpatialIndex` (a
        :class:`~repro.core.uniform_grid.UniformGrid` when ``continuous``).
    monitors:
        In-situ analysis tasks (may be empty).
    continuous:
        Carry one :class:`~repro.continuous.ContinuousSession` for standing
        queries: the model and every monitor with a
        ``subscribe_continuous`` hook subscribe through it.  Its state is
        the index, so the index must be a
        :class:`~repro.core.uniform_grid.UniformGrid` (any other is refused
        before anything is loaded), and it charges the index's counters.
    """

    def __init__(
        self,
        model: SimulationModel,
        index: SpatialIndex,
        monitors: Iterable[Monitor] = (),
        continuous: bool = False,
    ) -> None:
        if continuous and not isinstance(index, UniformGrid):
            raise TypeError(
                "continuous=True needs a UniformGrid index (the continuous "
                f"session's state is the index), got {type(index).__name__}"
            )
        self.model = model
        self.index = index
        self.session = QuerySession(index)
        self.monitors = list(monitors)
        self.index.bulk_load(list(model.items().items()))
        # Standing queries: one ContinuousSession over the index, ticked with
        # each step's updates during the maintenance phase, so subscribers
        # read exact delta-maintained results for free afterwards.
        self.continuous = None
        if continuous:
            self.continuous = ContinuousSession(index)
            for subscriber in (model, *self.monitors):
                hook = getattr(subscriber, "subscribe_continuous", None)
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
        # The model has moved on: the step is taken even if maintenance or a
        # monitor fails, so a continuous session's tick t stays step t - 1.
        self._step += 1

        start = time.perf_counter()
        moves = self._maintain(updates)
        maintenance_seconds = time.perf_counter() - start

        start = time.perf_counter()
        for monitor in self.monitors:
            monitor.observe(self.session, step)
        monitor_seconds = time.perf_counter() - start

        return StepReport(
            step=step,
            compute_seconds=compute_seconds,
            maintenance_seconds=maintenance_seconds,
            monitor_seconds=monitor_seconds,
            moves=len(moves),
            counters=self.index.counters.diff(before),
        )

    def _maintain(self, updates: Sequence[Move | Insert]) -> list[Move]:
        """Fold one step's updates into the index: one ``tick`` of the
        continuous session (whose grid is the index), or the inserts and
        one ``apply_moves``."""
        moves = [update for update in updates if not isinstance(update, Insert)]
        if self.continuous is not None:
            self.continuous.tick(updates)
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
