"""In-situ simulation monitoring (§2.2's analysis queries).

"The most important application that needs to execute range queries is the
in-situ visualization of the progressing simulation.  For visualizations, as
well as analyses, thousands of range queries need to be executed between two
simulation steps at locations that cannot be anticipated."

Every monitor has one method, ``observe(session, step)``: it reads the fresh
state through the simulation's :class:`~repro.engine.QuerySession`, so a
step's whole query volume runs as batches through the session's executors.
"""

from __future__ import annotations

import numpy as np

from repro.continuous import ContinuousRangeQuery
from repro.engine import QuerySession
from repro.geometry.aabb import AABB


class RangeMonitor:
    """Random-window analysis: ``queries_per_step`` range queries at
    unpredictable locations, recording result counts."""

    def __init__(
        self,
        universe: AABB,
        queries_per_step: int = 50,
        extent: float = 1.0,
        seed: int = 0,
    ) -> None:
        if queries_per_step < 0:
            raise ValueError(f"queries_per_step must be >= 0, got {queries_per_step}")
        self.universe = universe
        self.queries_per_step = queries_per_step
        self.extent = extent
        self._rng = np.random.default_rng(seed)
        self.result_counts: list[int] = []

    def _draw_boxes(self) -> np.ndarray:
        """The step's query windows as an ``(m, 2, d)`` array, all centers
        drawn with one ``uniform`` call."""
        lo = np.asarray(self.universe.lo)
        hi = np.asarray(self.universe.hi)
        centers = self._rng.uniform(lo, hi, size=(self.queries_per_step, len(lo)))
        half = self.extent / 2.0
        return np.stack([centers - half, centers + half], axis=1)

    def observe(self, session: QuerySession, step: int) -> None:
        self.result_counts.extend(
            len(hits) for hits in session.range_query(self._draw_boxes())
        )


class NearestNeighborMonitor:
    """Nearest-synapse probes: batched kNN at unpredictable locations.

    Synapse detection and segment-proximity analyses are kNN-shaped — every
    probe asks for the ``k`` nearest elements to a sample point.  The step's
    whole probe set goes to :meth:`~repro.engine.session.QuerySession.knn`,
    whose executor runs the index's vectorized batch-kNN kernel.  Per step,
    the monitor appends one list of k-th-neighbour distances (the local
    "proximity field") and one list of nearest ids.
    """

    def __init__(
        self,
        universe: AABB,
        probes_per_step: int = 50,
        k: int = 4,
        seed: int = 0,
    ) -> None:
        if probes_per_step < 0:
            raise ValueError(f"probes_per_step must be >= 0, got {probes_per_step}")
        if k < 1:
            raise ValueError(f"k must be >= 1, got {k}")
        self.universe = universe
        self.probes_per_step = probes_per_step
        self.k = k
        self._rng = np.random.default_rng(seed)
        self.kth_distances: list[list[float]] = []
        self.nearest_ids: list[list[int]] = []

    def _draw_points(self) -> np.ndarray:
        lo = np.asarray(self.universe.lo)
        hi = np.asarray(self.universe.hi)
        return self._rng.uniform(lo, hi, size=(self.probes_per_step, len(lo)))

    def observe(self, session: QuerySession, step: int) -> None:
        answers = session.knn(self._draw_points(), self.k)
        self.kth_distances.append(
            [hits[-1][0] if hits else float("inf") for hits in answers]
        )
        self.nearest_ids.append([hits[0][1] if hits else -1 for hits in answers])


class DensityMonitor:
    """Tracks element counts in fixed regions of interest over time —
    "local analysis of tissue density in neuroscience models"."""

    def __init__(self, regions: list[AABB]) -> None:
        if not regions:
            raise ValueError(f"{type(self).__name__} needs at least one region")
        self.regions = regions
        self.history: list[list[int]] = []

    def observe(self, session: QuerySession, step: int) -> None:
        self.history.append(
            [len(hits) for hits in session.range_query(self.regions)]
        )


class ContinuousDensityMonitor(DensityMonitor):
    """A :class:`DensityMonitor` that subscribes instead of re-asking.

    Fixed regions of interest are the canonical continuous workload: the
    windows never move, only the elements do.  When the simulation carries a
    :class:`~repro.continuous.ContinuousSession`, this monitor registers one
    :class:`~repro.continuous.ContinuousRangeQuery` per region and the
    engine's maintenance tick keeps every count exact through delta
    maintenance; the monitor issues no per-step queries at all.  ``history``
    matches :class:`DensityMonitor`'s row-per-step format; ``delta_sizes``
    records per-step maintenance volume (|added| + |removed| summed over
    regions).
    """

    def __init__(self, regions: list[AABB]) -> None:
        super().__init__(regions)
        self.delta_sizes: list[int] = []
        self._subs: list = []

    def subscribe_continuous(self, continuous) -> None:
        """Engine hook: register one standing range query per region."""
        self._subs = [
            continuous.subscribe(ContinuousRangeQuery(region, tag="density"))
            for region in self.regions
        ]

    def observe(self, session: QuerySession, step: int) -> None:
        """Without a continuous session, behave like :class:`DensityMonitor`
        (so the monitor composes with any simulation)."""
        if not self._subs:
            super().observe(session, step)
            return
        self.history.append([len(sub.result) for sub in self._subs])
        self.delta_sizes.append(
            sum(
                len(sub.latest.added) + len(sub.latest.removed)
                for sub in self._subs
                if sub.latest is not None
            )
        )


class VisualizationMonitor:
    """In-situ visualization sampling: a regular grid of small range queries
    forming one density 'frame' per step."""

    def __init__(self, universe: AABB, resolution: int = 8) -> None:
        if resolution < 1:
            raise ValueError(f"resolution must be >= 1, got {resolution}")
        self.universe = universe
        self.resolution = resolution
        self.frames: list[np.ndarray] = []

    def _frame_boxes(self) -> np.ndarray:
        """The full sampling grid as one ``(resolution^d, 2, d)`` batch."""
        dims = self.universe.dims
        lo = np.asarray(self.universe.lo)
        hi = np.asarray(self.universe.hi)
        side = (hi - lo) / self.resolution
        axes = np.indices((self.resolution,) * dims).reshape(dims, -1).T  # (cells, d)
        cell_lo = lo + axes * side
        return np.stack([cell_lo, cell_lo + side], axis=1)

    def observe(self, session: QuerySession, step: int) -> None:
        counts = [len(hits) for hits in session.range_query(self._frame_boxes())]
        self.frames.append(
            np.array(counts, dtype=int).reshape((self.resolution,) * self.universe.dims)
        )
