"""Synapse detection: the paper's flagship spatial-join application.

"Neuroscientists simulating the co-growth of neurons ... need to perform a
spatial join to determine the location of synapses: wherever two neurons are
within a given distance of each other, they will form a synapse to
communicate with each other." (§2.2, citing Kozloski et al.)

Since the JoinSession redesign the pipeline lives in the session layer:
:class:`~repro.joins.spec.SynapseJoinSpec` describes the predicate, the
planner picks the filter strategy, and refinement runs on the vectorized
capsule kernel (:func:`repro.geometry.refine.batch_capsule_gaps`).
:class:`SynapseDetector` remains the convenient application wrapper.
"""

from __future__ import annotations

from repro.datasets.neuroscience import NeuronDataset
from repro.joins.session import JoinSession
from repro.joins.spec import Synapse, SynapseJoinSpec
from repro.joins.strategies import JoinStrategy

__all__ = ["Synapse", "SynapseDetector"]


class SynapseDetector:
    """Within-ε self-join over a neuron dataset's capsule segments.

    A thin application wrapper: builds a
    :class:`~repro.joins.spec.SynapseJoinSpec` and runs it through a
    :class:`~repro.joins.JoinSession` (one is created per detector unless
    supplied, so repeated detections share planner telemetry).

    Parameters
    ----------
    dataset:
        The morphologies.
    epsilon:
        Apposition threshold (µm): surfaces closer than this form a synapse
        candidate.
    session:
        An existing :class:`~repro.joins.JoinSession` to run in (shares
        stats/counters with other joins of the same workload).
    """

    def __init__(
        self,
        dataset: NeuronDataset,
        epsilon: float = 0.05,
        session: JoinSession | None = None,
    ) -> None:
        if epsilon < 0:
            raise ValueError(f"epsilon must be >= 0, got {epsilon}")
        self.dataset = dataset
        self.epsilon = epsilon
        self.session = session if session is not None else JoinSession()
        self.counters = self.session.counters

    @property
    def stats(self):
        """The owning session's :class:`~repro.joins.spec.JoinStats`."""
        return self.session.stats

    def detect(self, strategy: str | JoinStrategy | None = None) -> list[Synapse]:
        """Run the join and materialize synapse records.

        Same-neuron segment pairs are excluded (a neuron does not synapse
        onto itself through adjacent segments), as are duplicate unordered
        pairs.  ``strategy`` pins the filter to a
        :data:`~repro.joins.strategies.JOIN_REGISTRY` entry or to a
        :class:`~repro.joins.strategies.JoinStrategy` instance.
        """
        spec = SynapseJoinSpec(self.dataset, epsilon=self.epsilon)
        return self.session.run(spec, strategy=strategy)
