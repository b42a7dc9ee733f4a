"""Tour of the join subsystem: specs, the planner, strategies, spilling.

Run:  python examples/join_session.py

The join counterpart of ``examples/query_session.py``: joins are described
as first-class specs, submitted through a JoinSession whose planner routes
them across the strategy registry, with deferred handles, vectorized
distance refinement, an out-of-core route for specs over a memory budget,
and the telemetry report that shows where every spec went.
"""

import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src"))

import numpy as np

from repro import (
    AABB,
    DistanceJoinSpec,
    JoinSession,
    PairJoinSpec,
    SelfJoinSpec,
    SynapseJoinSpec,
    available_join_strategies,
)
from repro.analysis import join_report
from repro.datasets import generate_neurons
from repro.datasets.points import clustered_boxes, uniform_boxes

UNIVERSE = AABB((0.0, 0.0, 0.0), (100.0, 100.0, 100.0))


def main() -> None:
    rng_seed = 7
    cells = uniform_boxes(5_000, UNIVERSE, 0.2, 1.5, seed=rng_seed)
    vessels = [
        (eid + 100_000, box)
        for eid, box in clustered_boxes(3_000, UNIVERSE, clusters=6, seed=rng_seed + 1)
    ]

    # -- 1. the planner: tiny specs scan, big specs ride the grid ------------
    session = JoinSession()
    tiny = SelfJoinSpec(cells[:20])
    big = SelfJoinSpec(cells)
    print("registry:", ", ".join(available_join_strategies()))
    print(f"planner: {len(tiny.items)} items -> {session.plan(tiny).strategy.name}, "
          f"{len(big.items)} items -> {session.plan(big).strategy.name}")

    # -- 2. deferred handles: submit now, one flush on first read ------------
    collisions = session.submit(big)
    contacts = session.submit(PairJoinSpec(cells, vessels))
    print(f"pending specs: {session.pending}")
    print(f"self-join pairs: {len(collisions.result()):,} "
          f"(flush resolved {contacts.resolved and 'both' or 'one'})")
    print(f"cell-vessel contacts: {len(contacts.result()):,}")

    # -- 3. pin a strategy per spec or per session ---------------------------
    via_pbsm = session.run(SelfJoinSpec(cells), strategy="pbsm")
    assert via_pbsm == collisions.result()
    print(f"pbsm agrees with the planner's choice: {len(via_pbsm):,} pairs")

    # -- 4. distance join with vectorized refinement -------------------------
    near = session.run(DistanceJoinSpec(cells, vessels, epsilon=0.5))
    print(f"within 0.5 um: {len(near):,} cell-vessel pairs")

    # -- 5. the flagship workload: synapse detection -------------------------
    tissue = generate_neurons(neurons=40, segments_per_neuron=30, seed=rng_seed)
    synapses = session.run(SynapseJoinSpec(tissue, epsilon=0.1))
    print(f"synapses at eps=0.1: {len(synapses)} "
          f"(first at {tuple(round(c, 1) for c in synapses[0].location) if synapses else '-'})")

    # -- 6. over a memory budget the planner spills ---------------------------
    with JoinSession(budget=256 * 1024) as budgeted:
        spilled_pairs = budgeted.run(SelfJoinSpec(cells))
        assert spilled_pairs == collisions.result()
        print(f"budgeted session agrees: {len(spilled_pairs):,} pairs via "
              f"{budgeted.stats.strategy_runs}, "
              f"{budgeted.stats.spill_bytes_written:,} bytes spilled")

    # -- 7. telemetry --------------------------------------------------------
    print("\njoin telemetry:")
    print(join_report(session))


if __name__ == "__main__":
    main()
