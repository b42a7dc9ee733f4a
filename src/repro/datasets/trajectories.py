"""Per-step motion models for the massive-update experiments.

Section 4.1's measured trace: "In each of the one thousand simulation steps
..., all elements move, but only by 0.04 µm (in a universe with volume of
285 µm³) on average with less than 0.5 % of elements moving more than
0.1 µm."  :class:`PlasticityMotion` matches those statistics exactly (3-d
Gaussian jitter whose displacement magnitude is Maxwell-distributed: with
σ = mean·√(π/8), the mean is 0.04 and P(>0.1) ≈ 0.04 %).

:class:`LinearMotion` provides the *predictable* trajectories that TPR-style
indexes assume — included so the moving-object benchmark can show exactly why
"these approaches do not work well for simulations" when the motion is
instead Brownian.

A step is array arithmetic: the moving boxes are packed once, the normals
come from one draw, and the clamp to the universe runs on ``(n, d)`` arrays.
Each move pairs the caller's own old box with one new :class:`AABB` built
from a ``tolist()`` row — the ``(eid, old, new)`` list ``apply_moves`` takes.
"""

from __future__ import annotations

import math
from typing import Protocol, Sequence

import numpy as np

from repro.geometry.aabb import AABB, boxes_to_array
from repro.indexes.base import Move


class MotionModel(Protocol):
    """Produces one step of motion for a set of items."""

    def step(self, items: dict[int, AABB]) -> list[Move]: ...


def _placed(
    universe: AABB, eids: list[int], olds: list[AABB], new_lo: np.ndarray, extent: np.ndarray
) -> list[Move]:
    """Pair each old box with its box at ``new_lo`` (``(n, d)``), pushed back
    inside ``universe`` with its ``extent`` kept.  One ``tolist()`` row of
    ``lo`` then ``hi`` per box keeps a box's floats side by side in memory,
    which the index's packing pass reads faster."""
    lo, hi = np.asarray(universe.lo), np.asarray(universe.hi)
    new_hi = np.minimum(new_lo + extent, hi)
    new_lo = np.maximum(new_hi - extent, lo)
    d = universe.dims
    rows = np.concatenate([new_lo, new_hi], axis=1).tolist()
    return [(eid, old, AABB(row[:d], row[d:])) for eid, old, row in zip(eids, olds, rows)]


class BrownianMotion:
    """Gaussian jitter: every element moves a small random amount per step.

    ``sigma`` is the per-axis standard deviation; displacement magnitudes
    follow a Maxwell distribution with mean ``2σ√(2/π) ≈ 1.596σ``.
    ``moving_fraction < 1`` moves only a random subset — the §4.1 crossover
    sweep's control knob.
    """

    def __init__(
        self,
        sigma: float,
        universe: AABB,
        moving_fraction: float = 1.0,
        seed: int = 0,
    ) -> None:
        if sigma < 0:
            raise ValueError(f"sigma must be >= 0, got {sigma}")
        if not 0.0 <= moving_fraction <= 1.0:
            raise ValueError(f"moving_fraction must be in [0,1], got {moving_fraction}")
        self.sigma = sigma
        self.universe = universe
        self.moving_fraction = moving_fraction
        self._rng = np.random.default_rng(seed)

    def step(self, items: dict[int, AABB]) -> list[Move]:
        if not items:
            return []
        eids = list(items)
        if self.moving_fraction < 1.0:
            count = int(round(len(eids) * self.moving_fraction))
            chosen = self._rng.choice(len(eids), size=count, replace=False)
            eids = [eids[i] for i in chosen.tolist()]
        deltas = self._rng.normal(0.0, self.sigma, size=(len(eids), self.universe.dims))
        olds = [items[eid] for eid in eids]
        lo, hi = boxes_to_array(olds, self.universe.dims).swapaxes(0, 1)
        new_lo = np.clip(lo + deltas, self.universe.lo, self.universe.hi)
        return _placed(self.universe, eids, olds, new_lo, hi - lo)


class PlasticityMotion(BrownianMotion):
    """The paper's neural-plasticity trace statistics, exactly.

    Mean displacement 0.04 µm with <0.5 % of elements beyond 0.1 µm: a 3-d
    Gaussian with σ = 0.04·√(π/8) ≈ 0.02507 gives Maxwell-mean 0.04 and
    P(|d| > 0.1) ≈ 0.0004.
    """

    MEAN_DISPLACEMENT_UM = 0.04
    TAIL_THRESHOLD_UM = 0.1

    def __init__(self, universe: AABB, moving_fraction: float = 1.0, seed: int = 0) -> None:
        sigma = self.MEAN_DISPLACEMENT_UM * math.sqrt(math.pi / 8.0)
        super().__init__(
            sigma=sigma, universe=universe, moving_fraction=moving_fraction, seed=seed
        )


class LinearMotion:
    """Constant-velocity motion — the predictable case TPR-trees index.

    An element's velocity is drawn the first step it appears (one draw for
    a step's new elements, in item order); each step translates every
    element by its velocity, and an axis that would leave the universe
    reflects that component and clamps the box to the wall.  So
    trajectory-based indexes need no updates until a bounce.
    """

    def __init__(self, speed: float, universe: AABB, seed: int = 0) -> None:
        if speed < 0:
            raise ValueError(f"speed must be >= 0, got {speed}")
        self.speed = speed
        self.universe = universe
        self._rng = np.random.default_rng(seed)
        self._rows: dict[int, int] = {}  # eid -> its row of _velocities
        self._velocities = np.empty((0, universe.dims))

    def step(self, items: dict[int, AABB]) -> list[Move]:
        eids = list(items)
        fresh = [eid for eid in eids if eid not in self._rows]
        if fresh:
            drawn = self._rng.normal(size=(len(fresh), self.universe.dims))
            norm = np.linalg.norm(drawn, axis=1)
            norm[norm < 1e-12] = 1.0
            self._rows.update(zip(fresh, range(len(self._rows), len(self._rows) + len(fresh))))
            self._velocities = np.concatenate([self._velocities, drawn / norm[:, None] * self.speed])
        rows = np.array([self._rows[eid] for eid in eids], dtype=np.intp)
        velocity = self._velocities[rows]
        olds = [items[eid] for eid in eids]
        lo, hi = boxes_to_array(olds, self.universe.dims).swapaxes(0, 1)
        new_lo = lo + velocity
        bounce = (new_lo < self.universe.lo) | (hi + velocity > self.universe.hi)
        self._velocities[rows] = np.where(bounce, -velocity, velocity)
        new_lo = np.where(bounce, np.clip(new_lo, self.universe.lo, self.universe.hi), new_lo)
        return _placed(self.universe, eids, olds, new_lo, hi - lo)


def apply_moves(items: dict[int, AABB], moves: Sequence[Move]) -> None:
    """Apply one step's motion to the id → box dictionary in place."""
    for eid, _, new_box in moves:
        items[eid] = new_box


def displacement_stats(moves: Sequence[Move]) -> tuple[float, float]:
    """(mean displacement, fraction beyond PlasticityMotion's 0.1 threshold).

    Used by tests to verify the generated trace matches the paper's numbers.
    """
    if not moves:
        return (0.0, 0.0)
    old = boxes_to_array([old for _, old, _ in moves])
    new = boxes_to_array([new for _, _, new in moves])
    displacements = np.linalg.norm((new.sum(axis=1) - old.sum(axis=1)) / 2.0, axis=1)
    tail = displacements > PlasticityMotion.TAIL_THRESHOLD_UM
    return (float(displacements.mean()), float(tail.mean()))
