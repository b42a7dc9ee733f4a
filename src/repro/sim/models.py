"""The simulation model protocol.

A model owns the elements (id → box, plus whatever richer state it needs) and
knows how to advance one time step *given an index over the current state* —
that index access is the "multitude of analysis & update queries" of
Figure 1.  The engine owns phase timing and index maintenance; models stay
pure physics.
"""

from __future__ import annotations

from abc import ABC, abstractmethod

from repro.continuous.spec import Insert
from repro.geometry.aabb import AABB, union_all
from repro.indexes.base import Move, SpatialIndex  # Move: (eid, old_box, new_box)


class SimulationModel(ABC):
    """Base class for simulated systems."""

    @abstractmethod
    def items(self) -> dict[int, AABB]:
        """Current id → bounding box state (the engine bulk-loads this)."""

    @abstractmethod
    def advance(self, index: SpatialIndex, step: int) -> list[Move | Insert]:
        """Compute one time step, using ``index`` for neighbourhood queries,
        and return the step's updates: the motion performed, at most one
        move per element, plus an :class:`~repro.continuous.spec.Insert` per
        new element.

        Implementations must *not* mutate the index — the engine applies the
        returned updates in its maintenance phase, timed apart from compute.
        """

    def universe(self) -> AABB:
        """The simulation domain (defaults to the current hull)."""
        return union_all(self.items().values())
