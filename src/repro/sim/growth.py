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
simulation.
"""

from __future__ import annotations

import numpy as np

from repro.continuous import ContinuousJoinSpec, ContinuousSession
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
    """

    def __init__(
        self,
        dataset: NeuronDataset,
        segment_length: float = 0.8,
        branch_probability: float = 0.08,
        epsilon: float = 0.05,
        join_every: int = 5,
        seed: int = 0,
        continuous: bool = False,
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
        self.synapse_counts: list[int] = []
        # One session for the whole simulation: every periodic detection
        # shares the planner, counters and JoinStats, so the run's join
        # telemetry accumulates alongside the query engine's.
        self.join_session = JoinSession()
        # Continuous mode: instead of re-running the synapse join from
        # scratch every join_every steps, subscribe one standing
        # ContinuousJoinSpec whose refine is the synapse predicate (exact
        # capsule gap ≤ ε, same-neuron pairs excluded) and feed each step's
        # new segments as inserts — the maintained pair set equals the
        # SynapseJoinSpec result at every step, probing only around growth.
        self.continuous_session = None
        self.synapse_subscription = None
        if continuous:
            self.continuous_session = ContinuousSession(
                self.items().items(), universe=dataset.universe
            )
            self.synapse_subscription = self.continuous_session.subscribe(
                ContinuousJoinSpec(
                    epsilon=epsilon, refine=self._synapse_refine, tag="synapses"
                )
            )

    def items(self) -> dict[int, AABB]:
        return {eid: capsule.bounds() for eid, capsule in self.dataset.capsules.items()}

    def universe(self) -> AABB:
        return self.dataset.universe

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

        if self.continuous_session is not None:
            self.continuous_session.tick(inserts)
            if self.join_every and step % self.join_every == self.join_every - 1:
                self.synapse_counts.append(len(self.synapse_subscription.result))
        elif self.join_every and step % self.join_every == self.join_every - 1:
            synapses = self.join_session.run(
                SynapseJoinSpec(self.dataset, epsilon=self.epsilon)
            )
            self.synapse_counts.append(len(synapses))
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
