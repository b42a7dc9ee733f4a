"""Neural plasticity: the Section 4.1 workload.

"In neural plasticity simulations ... all elements change position in every
step of the simulation, yet each element only shifts minimally."  The model
wraps a neuron dataset (or any item set) with
:class:`~repro.datasets.trajectories.PlasticityMotion`, whose displacement
statistics match the paper's measured trace (mean 0.04 µm, <0.5 % beyond
0.1 µm).

The compute phase also exercises the paper's update-query pattern: each step
samples a population of elements and asks the index for their neighbourhood
(the plasticity rule inputs — local density modulates growth/retraction),
making the workload both update- and query-heavy like the original.
"""

from __future__ import annotations

import numpy as np

from repro.datasets.trajectories import PlasticityMotion, apply_moves
from repro.geometry.aabb import AABB
from repro.indexes.base import SpatialIndex
from repro.sim.models import Move, SimulationModel


class PlasticityModel(SimulationModel):
    """Jittering tissue with density-dependent bookkeeping.

    Parameters
    ----------
    items:
        Initial id → box state (e.g. a
        :class:`~repro.datasets.neuroscience.NeuronDataset`'s items).
    universe:
        Simulation domain.
    neighbourhood_queries:
        How many elements per step sample their local density through the
        index (the update-query load of the compute phase).
    neighbourhood_radius:
        Radius of the density probe around each sampled element.
    """

    def __init__(
        self,
        items: dict[int, AABB],
        universe: AABB,
        neighbourhood_queries: int = 32,
        neighbourhood_radius: float = 1.0,
        moving_fraction: float = 1.0,
        seed: int = 0,
    ) -> None:
        if not items:
            raise ValueError("plasticity model needs at least one element")
        self._items = dict(items)
        self._universe = universe
        self.neighbourhood_queries = neighbourhood_queries
        self.neighbourhood_radius = neighbourhood_radius
        self._motion = PlasticityMotion(
            universe=universe, moving_fraction=moving_fraction, seed=seed
        )
        self._rng = np.random.default_rng(seed + 1)
        self.density_samples: list[int] = []

    def items(self) -> dict[int, AABB]:
        return dict(self._items)

    def universe(self) -> AABB:
        return self._universe

    def advance(self, index: SpatialIndex, step: int) -> list[Move]:
        # Update queries: sample local densities that modulate plasticity.
        eids = list(self._items)
        sample_size = min(self.neighbourhood_queries, len(eids))
        chosen = self._rng.choice(len(eids), size=sample_size, replace=False)
        for slot in chosen:
            center = self._items[eids[slot]].center()
            probe = AABB.from_center(center, self.neighbourhood_radius)
            self.density_samples.append(len(index.range_query(probe)))
        # Motion: everything shifts minimally.
        moves = self._motion.step(self._items)
        apply_moves(self._items, moves)
        return moves
