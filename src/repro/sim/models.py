"""The simulation model protocol.

A model owns the elements (id → box, plus whatever richer state it needs) and
knows how to advance one time step *given an index over the current state* —
that index access is the "multitude of analysis & update queries" of
Figure 1.  The engine owns phase timing and index maintenance; models stay
pure physics.
"""

from __future__ import annotations

from abc import ABC, abstractmethod

from repro.geometry.aabb import AABB
from repro.indexes.base import Move, SpatialIndex  # Move: (eid, old_box, new_box)


class SimulationModel(ABC):
    """Base class for simulated systems."""

    @abstractmethod
    def items(self) -> dict[int, AABB]:
        """Current id → bounding box state (the engine bulk-loads this)."""

    @abstractmethod
    def advance(self, index: SpatialIndex, step: int) -> list[Move]:
        """Compute one time step, using ``index`` for neighbourhood queries,
        and return the motion performed, at most one move per element.

        Implementations must *not* mutate the index — the engine applies the
        returned moves in its maintenance phase, timed apart from compute.
        """

    def universe(self) -> AABB:
        """The simulation domain (defaults to the current hull)."""
        boxes = list(self.items().values())
        if not boxes:
            raise ValueError("empty model has no universe")
        hull = boxes[0]
        for box in boxes[1:]:
            hull = hull.union(box)
        return hull
