"""DLS — Directed Local Search (Papadomanolakis et al., SIGMOD'06).

"DLS uses an approximate index as well as the mesh connectivity to execute
range queries: the approximate index (which only needs to be updated
infrequently) is used to find a start point near the query range and the mesh
connectivity is used to a) find the query range and b) to find all results in
the range.  DLS, however, only works for convex meshes (without holes)."

Implementation:

* the **approximate index** is a coarse uniform bucket grid holding one
  representative cell id per bucket, built once and refreshed only on demand
  (:meth:`DLS.refresh_seeds`) — deliberately allowed to go stale under mesh
  deformation;
* a query picks the nearest seeded bucket, **directed-walks** the adjacency
  graph greedily toward the query centre, then **floods** the connected
  region of intersecting cells.

On concave meshes the greedy walk can strand in a local minimum next to a
hole; :meth:`DLS.range_query` then raises :class:`WalkStuckError` rather than
silently returning partial results (OCTOPUS is the fix — see
:mod:`repro.mesh.octopus`).
"""

from __future__ import annotations

import math

from repro.geometry.aabb import AABB
from repro.instrumentation.counters import Counters
from repro.mesh.connectivity import Mesh


class WalkStuckError(RuntimeError):
    """The directed walk reached a local minimum outside the query range
    (the concave-mesh failure mode DLS is documented not to handle)."""


class DLS:
    """Directed local search over a mesh.

    Parameters
    ----------
    mesh:
        The mesh (queried through its live geometry — no copies).
    seed_resolution:
        Buckets per axis of the approximate seed grid.
    """

    def __init__(
        self,
        mesh: Mesh,
        seed_resolution: int = 8,
        counters: Counters | None = None,
    ) -> None:
        if seed_resolution < 1:
            raise ValueError(f"seed_resolution must be >= 1, got {seed_resolution}")
        self.mesh = mesh
        self.seed_resolution = seed_resolution
        self.counters = counters if counters is not None else Counters()
        self._seeds: dict[tuple[int, ...], int] = {}
        self._seed_hull: AABB | None = None
        self.refresh_seeds()

    # -- the approximate index ----------------------------------------------------

    def refresh_seeds(self) -> None:
        """Rebuild the coarse seed grid ("updated infrequently")."""
        self._seed_hull = self.mesh.hull()
        self._seeds = {}
        for cell in self.mesh.cells:
            key = self._bucket(self.mesh.centroid(cell.cid))
            # First cell wins: one representative per bucket is enough.
            self._seeds.setdefault(key, cell.cid)

    def _bucket(self, point: tuple[float, ...]) -> tuple[int, ...]:
        assert self._seed_hull is not None
        hull = self._seed_hull
        key = []
        for axis in range(hull.dims):
            extent = hull.hi[axis] - hull.lo[axis]
            if extent <= 0.0:
                key.append(0)
                continue
            idx = int((point[axis] - hull.lo[axis]) / extent * self.seed_resolution)
            key.append(max(0, min(self.seed_resolution - 1, idx)))
        return tuple(key)

    def _seed_for(self, point: tuple[float, ...]) -> int:
        """Nearest seeded bucket's representative (ring search outward)."""
        home = self._bucket(point)
        if home in self._seeds:
            return self._seeds[home]
        for radius in range(1, self.seed_resolution + 1):
            best = None
            for key, cid in self._seeds.items():
                self.counters.hash_probes += 1
                if max(abs(a - b) for a, b in zip(key, home)) <= radius:
                    best = cid
                    break
            if best is not None:
                return best
        # Mesh is non-empty by construction, so some seed always exists.
        return next(iter(self._seeds.values()))

    # -- query ------------------------------------------------------------------------

    def range_query(self, box: AABB) -> list[int]:
        """All cell ids whose bounds intersect ``box``.

        Raises :class:`WalkStuckError` when the directed walk cannot reach
        the query region (concave mesh), and returns ``[]`` when the walk
        terminates *at* the query region but no cell intersects (query in
        empty space outside the mesh).
        """
        mesh = self.mesh
        stranded, entry = directed_walk(mesh, box, self._seed_for(box.center()), self.counters)
        if entry is not None:
            return flood(mesh, box, entry, set(), self.counters)
        # Nothing intersecting close by.  Arriving next to the query, or a
        # query that misses the mesh hull, is a legitimately empty result;
        # otherwise a hole blocked the path — the documented convex-only
        # limitation, reported loudly.
        gap = mesh.bounds(stranded).min_distance_to_point(box.center())
        if gap <= _walk_slack(mesh, stranded) or not mesh.hull().intersects(box):
            return []
        raise WalkStuckError(
            f"directed walk stranded at cell {stranded}, "
            f"{gap:.3g} away from the query; mesh is likely concave — use Octopus"
        )


# -- the walk and the flood (shared with Octopus) ------------------------------------


def directed_walk(
    mesh: Mesh, box: AABB, start: int, counters: Counters
) -> tuple[int, int | None]:
    """Greedy descent from ``start`` by centroid distance to the query
    centre, then, where it strands, a search of the neighbourhood.

    Returns ``(stranded, entry)``: the cell the descent stopped at and the
    first cell found that intersects ``box``, or ``None``.  The descent
    stops at the cell whose centroid is locally nearest the query centre;
    queries clipping the mesh edge-on can still intersect *other* nearby
    cells, so the stranded walk breadth-searches the cells within an
    inflated probe box.
    """
    target = box.center()
    current = start
    current_dist = _distance(mesh.centroid(current), target)
    visited = {current}
    while True:
        counters.elem_tests += 1
        if mesh.bounds(current).intersects(box):
            return current, current
        best = None
        best_dist = current_dist
        for neighbor in mesh.neighbors(current):
            counters.pointer_follows += 1
            if neighbor in visited:
                continue
            dist = _distance(mesh.centroid(neighbor), target)
            if dist < best_dist:
                best = neighbor
                best_dist = dist
        if best is None:
            break
        visited.add(best)
        current = best
        current_dist = best_dist
    gap = mesh.bounds(current).min_distance_to_point(target)
    probe = box.expanded(gap + _walk_slack(mesh, current))
    stack = [current]
    seen = {current}
    while stack:
        cid = stack.pop()
        counters.elem_tests += 1
        if mesh.bounds(cid).intersects(box):
            return current, cid
        for neighbor in mesh.neighbors(cid):
            if neighbor in seen:
                continue
            counters.pointer_follows += 1
            if mesh.bounds(neighbor).intersects(probe):
                seen.add(neighbor)
                stack.append(neighbor)
    return current, None


def flood(mesh: Mesh, box: AABB, start: int, seen: set[int], counters: Counters) -> list[int]:
    """The cells of the connected region intersecting ``box`` that are
    reachable from ``start`` without passing a cell in ``seen``; every
    reached cell is added to ``seen``."""
    results = []
    stack = [start]
    seen.add(start)
    while stack:
        cid = stack.pop()
        results.append(cid)
        for neighbor in mesh.neighbors(cid):
            if neighbor in seen:
                continue
            counters.elem_tests += 1
            if mesh.bounds(neighbor).intersects(box):
                seen.add(neighbor)
                stack.append(neighbor)
    return results


def _distance(a: tuple[float, ...], b: tuple[float, ...]) -> float:
    return math.sqrt(sum((x - y) ** 2 for x, y in zip(a, b)))


def _walk_slack(mesh: Mesh, cid: int) -> float:
    """How close counts as 'arrived': a couple of local cell diameters."""
    bounds = mesh.bounds(cid)
    return 2.0 * math.sqrt(sum(e * e for e in bounds.extents()))
