"""The paper's proposed research direction, realized.

Section 3.3 and Section 5 of the paper sketch what a spatial index for the
simulation sciences should look like: grid-based (no tree traversal),
cache-friendly, cheap to update when almost every element moves a little, and
governed by an analytical resolution model.  This package is that sketch,
built out:

* :class:`~repro.core.uniform_grid.UniformGrid` — a single uniform grid with
  O(1) incremental updates (elements that stay inside their cells cost a
  dictionary write, nothing more);
* :class:`~repro.core.multires_grid.MultiResolutionGrid` — "several uniform
  grids each with a different resolution", elements assigned by size, queries
  fanned across levels;
* :mod:`~repro.core.resolution` — the analytical model the paper calls for,
  predicting query cost as a function of cell size and picking the optimum;
* :mod:`~repro.core.amortization` — the Section 4.1 economics: when does
  updating beat rebuilding beat not indexing at all.
"""

from repro.core.uniform_grid import UniformGrid
from repro.core.multires_grid import MultiResolutionGrid
from repro.core.resolution import GridCostModel, optimal_cell_size
from repro.core.amortization import MaintenanceCosts

__all__ = [
    "UniformGrid",
    "MultiResolutionGrid",
    "GridCostModel",
    "optimal_cell_size",
    "MaintenanceCosts",
]
