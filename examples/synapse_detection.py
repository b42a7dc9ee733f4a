"""Synapse detection during neuron co-growth — the paper's join application.

Run:  python examples/synapse_detection.py

Grows neuron morphologies step by step (inserting new capsule segments into
the index) and periodically runs the within-epsilon self-join that places
synapses, comparing the join algorithms the paper surveys on the same
workload.
"""

import time

from repro import JoinSession, SynapseJoinSpec, UniformGrid, TimeSteppedSimulation
from repro.analysis.reporting import format_table
from repro.datasets import generate_neurons
from repro.sim import GrowthModel


def main() -> None:
    # Start from small stubs and let them grow into each other.
    dataset = generate_neurons(neurons=30, segments_per_neuron=5, seed=7)
    model = GrowthModel(dataset, epsilon=0.1, join_every=0, seed=8)
    index = UniformGrid(universe=dataset.universe)
    sim = TimeSteppedSimulation(model, index)

    print(f"growing {len(set(dataset.neuron_of.values()))} neurons...")
    sim.run(12)
    print(f"tissue now has {len(dataset)} segments "
          f"(+{sum(model.grown)} grown during co-growth)")

    # Detect synapses with every registry strategy; all must agree.
    rows = []
    reference = None
    for name in ("nested_loop", "sweepline", "pbsm", "touch", "tree", "grid"):
        session = JoinSession(strategy=name)
        start = time.perf_counter()
        synapses = session.run(SynapseJoinSpec(dataset, epsilon=0.1))
        elapsed = time.perf_counter() - start
        keys = [(s.segment_a, s.segment_b) for s in synapses]
        if reference is None:
            reference = keys
        assert keys == reference, f"{name} disagrees"
        rows.append([name, len(synapses), session.counters.comparisons, elapsed])

    print("\nsynapse-detection join (epsilon = 0.1 um):")
    print(format_table(["strategy", "synapses", "comparisons", "wall s"], rows))

    by_pair: dict[tuple[int, int], int] = {}
    for synapse in JoinSession().run(SynapseJoinSpec(dataset, epsilon=0.1)):
        pair = (synapse.neuron_a, synapse.neuron_b)
        by_pair[pair] = by_pair.get(pair, 0) + 1
    connected = sorted(by_pair.items(), key=lambda kv: -kv[1])[:5]
    print("\nmost connected neuron pairs:")
    for (a, b), count in connected:
        print(f"  neuron {a} <-> neuron {b}: {count} synapses")


if __name__ == "__main__":
    main()
