"""Neuron co-growth with synapse formation (§2.2).

"Neuroscientists simulating the co-growth of neurons ... need to perform a
spatial join to determine the location of synapses: wherever two neurons are
within a given distance of each other, they will form a synapse."

Each step, every neuron's active growth cones extend by one new capsule
segment (an *insert* — this workload exercises growth, not just motion), and
every ``join_every`` steps a within-ε self-join detects new appositions.
The join runs as a :class:`~repro.joins.spec.SynapseJoinSpec` through the
model's persistent :class:`~repro.joins.JoinSession`, so benchmarks can pin
any registry strategy and read the accumulated join telemetry of a living
simulation.  In a simulation with ``continuous=True`` the model instead
subscribes one standing synapse join through the simulation's continuous
session, which the engine's maintenance tick keeps exact as segments grow.
"""

from __future__ import annotations

import numpy as np

from repro.continuous import ContinuousJoinSpec, ContinuousSession, Subscription
from repro.datasets.neuroscience import NeuronDataset
from repro.geometry.aabb import AABB
from repro.geometry.primitives import Capsule
from repro.indexes.base import SpatialIndex
from repro.joins import JoinSession, SynapseJoinSpec
from repro.sim.models import Insert, SimulationModel


class GrowthModel(SimulationModel):
    """Growing morphologies with periodic synapse detection.

    Each new segment is an :class:`~repro.continuous.spec.Insert` in the
    updates :meth:`advance` returns (nothing moves); the engine's
    maintenance phase inserts it into the index.  ``self.grown`` records
    the count per step for accounting.

    Parameters
    ----------
    dataset:
        Starting morphologies (may be tiny stubs).
    segment_length / branch_probability:
        Growth-cone kinematics, as in the dataset generator.
    epsilon:
        Synapse apposition threshold.
    join_every:
        Steps between synapse-detection joins (0 disables).

    ``synapse_counts`` holds the synapse count after each join step's
    inserts, whichever way the join runs.
    """

    def __init__(
        self,
        dataset: NeuronDataset,
        segment_length: float = 0.8,
        branch_probability: float = 0.08,
        epsilon: float = 0.05,
        join_every: int = 5,
        seed: int = 0,
    ) -> None:
        self.dataset = dataset
        self.segment_length = segment_length
        self.branch_probability = branch_probability
        self.epsilon = epsilon
        self.join_every = join_every
        self._rng = np.random.default_rng(seed)
        self._next_eid = max(dataset.capsules, default=-1) + 1
        # One active growth cone per neuron, at its most recent segment tip.
        self._cones: dict[int, list[tuple[np.ndarray, np.ndarray]]] = {}
        for eid, capsule in dataset.capsules.items():
            neuron = dataset.neuron_of[eid]
            tip = np.asarray(capsule.b)
            direction = np.asarray(capsule.b) - np.asarray(capsule.a)
            norm = np.linalg.norm(direction)
            direction = direction / norm if norm > 1e-12 else self._random_unit()
            self._cones.setdefault(neuron, []).append((tip, direction))
        for neuron in self._cones:
            self._cones[neuron] = self._cones[neuron][-1:]
        self.grown: list[int] = []
        self._synapse_counts: list[int] = []
        # One session for the whole simulation: every periodic detection
        # shares the planner, counters and JoinStats, so the run's join
        # telemetry accumulates alongside the query engine's.
        self.join_session = JoinSession()
        self.synapse_subscription: Subscription | None = None

    def items(self) -> dict[int, AABB]:
        return {eid: capsule.bounds() for eid, capsule in self.dataset.capsules.items()}

    def universe(self) -> AABB:
        return self.dataset.universe

    def subscribe_continuous(self, continuous: ContinuousSession) -> None:
        """Engine hook: subscribe the synapse join as one standing
        :class:`~repro.continuous.ContinuousJoinSpec` (refined by the exact
        synapse predicate) in place of the periodic one; the engine's
        maintenance tick then keeps it equal to the
        :class:`~repro.joins.spec.SynapseJoinSpec` result, probing only
        around growth."""
        if self.join_every:
            self.synapse_subscription = continuous.subscribe(
                ContinuousJoinSpec(
                    epsilon=self.epsilon, refine=self._synapse_refine, tag="synapses"
                )
            )

    @property
    def synapse_counts(self) -> list[int]:
        """The synapse count after each join step so far.

        A standing join's count is read off its delta history: the
        subscription is made when the simulation is built, so the delta
        stamped tick ``t`` carries step ``t - 1``'s inserts."""
        sub = self.synapse_subscription
        if sub is None:
            return self._synapse_counts
        count, counts = len(sub.initial), []
        for delta in sub.deltas:
            count += len(delta.added) - len(delta.removed)
            if self._joins_at(delta.tick - 1):
                counts.append(count)
        return counts

    def _joins_at(self, step: int) -> bool:
        return bool(self.join_every) and step % self.join_every == self.join_every - 1

    def _synapse_refine(self, a: int, b: int) -> bool:
        """The synapse predicate on segment ids: cross-neuron, within ε."""
        if self.dataset.neuron_of[a] == self.dataset.neuron_of[b]:
            return False
        return self.dataset.capsules[a].distance_to(self.dataset.capsules[b]) <= self.epsilon

    def advance(self, index: SpatialIndex, step: int) -> list[Insert]:
        lo = np.asarray(self.dataset.universe.lo)
        hi = np.asarray(self.dataset.universe.hi)
        inserts: list[Insert] = []
        for neuron, cones in self._cones.items():
            new_cones = []
            for tip, direction in cones:
                direction = self._perturb(direction, 0.35)
                end = np.clip(tip + direction * self.segment_length, lo, hi)
                capsule = Capsule(tip, end, 0.05)
                eid = self._next_eid
                self._next_eid += 1
                self.dataset.capsules[eid] = capsule
                self.dataset.neuron_of[eid] = neuron
                inserts.append(Insert(eid, capsule.bounds()))
                new_cones.append((end, direction))
                if self._rng.random() < self.branch_probability:
                    new_cones.append((end, self._perturb(direction, 1.2)))
            self._cones[neuron] = new_cones
        self.grown.append(len(inserts))

        if self.synapse_subscription is None and self._joins_at(step):
            synapses = self.join_session.run(
                SynapseJoinSpec(self.dataset, epsilon=self.epsilon)
            )
            self._synapse_counts.append(len(synapses))
        return inserts

    def _random_unit(self) -> np.ndarray:
        v = self._rng.normal(size=3)
        return v / np.linalg.norm(v)

    def _perturb(self, direction: np.ndarray, sigma: float) -> np.ndarray:
        v = direction + self._rng.normal(0.0, sigma, size=3)
        norm = np.linalg.norm(v)
        if norm < 1e-12:
            return self._random_unit()
        return v / norm
