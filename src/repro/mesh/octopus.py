"""OCTOPUS (Tauheed, Heinis, Ailamaki — ICDE'14): mesh queries in memory,
concave meshes included.

"OCTOPUS takes the DLS ideas into memory but also supports concave meshes.
To ensure that query execution still retrieves the entire range query result
in face of concave meshes, OCTOPUS takes as start point several elements on
the surface."

Strategy implemented here:

* seeds are **surface (boundary) cells** — cheap to enumerate from the mesh
  itself, no auxiliary structure to maintain under deformation;
* a query launches DLS's directed walk
  (:func:`~repro.mesh.dls.directed_walk`) from the nearest surface seeds in
  turn; walks blocked by a hole simply fail over to the next seed (walks
  from enough directions cannot all be blocked by the same hole), where
  DLS would raise;
* every walk that reaches the query region floods it
  (:func:`~repro.mesh.dls.flood`, skipping cells already flooded); flooding
  from multiple entry points also covers query regions the holes disconnect
  — the case a single-start flood provably misses.
"""

from __future__ import annotations

from repro.geometry.aabb import AABB
from repro.instrumentation.counters import Counters
from repro.mesh.connectivity import Mesh
from repro.mesh.dls import _distance, directed_walk, flood


class Octopus:
    """Multi-surface-seed directed search over (possibly concave) meshes.

    Parameters
    ----------
    mesh:
        The mesh; queried through live geometry.
    max_seeds:
        Upper bound on surface seeds tried per query.  More seeds raise the
        cost floor but harden against adversarial hole layouts; 8 covers
        every carved benchmark mesh.
    """

    def __init__(
        self,
        mesh: Mesh,
        max_seeds: int = 8,
        counters: Counters | None = None,
    ) -> None:
        if max_seeds < 1:
            raise ValueError(f"max_seeds must be >= 1, got {max_seeds}")
        self.mesh = mesh
        self.max_seeds = max_seeds
        self.counters = counters if counters is not None else Counters()
        self._surface = mesh.boundary_cells

    def range_query(self, box: AABB) -> list[int]:
        """All cell ids intersecting ``box``, concave meshes included."""
        mesh = self.mesh
        target = box.center()
        seeds = sorted(
            self._surface,
            key=lambda cid: _distance(mesh.centroid(cid), target),
        )[: self.max_seeds]

        results: set[int] = set()
        flooded: set[int] = set()
        for seed in seeds:
            _, entry = directed_walk(mesh, box, seed, self.counters)
            if entry is None or entry in flooded:
                continue
            results.update(flood(mesh, box, entry, flooded, self.counters))
        return sorted(results)
