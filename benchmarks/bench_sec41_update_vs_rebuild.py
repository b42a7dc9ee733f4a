"""Section 4.1 — updating all elements vs rebuilding the R-tree.

Paper: on the plasticity trace (everything moves 0.04 µm/step), updating all
elements of the R-tree takes 130 s/step while rebuilding from scratch takes
48 s; "updating only is faster than a rebuild if less than 38 % of the
dataset change in a time step."

Reproduction: the same sweep over the changed fraction at harness scale,
with real wall-clock measurements of per-element updates and STR rebuilds.
Shape assertions: rebuild beats updating-everything, and the measured
crossover fraction sits strictly between 0 and 1 (the paper's is 0.38; the
exact value depends on the update/bulk-load cost ratio of the substrate).
"""

from __future__ import annotations

import time

from repro.core.amortization import MaintenanceCosts
from repro.datasets.trajectories import PlasticityMotion
from repro.indexes.rtree import RTree

from bench_common import record

FRACTIONS = (0.05, 0.1, 0.2, 0.38, 0.6, 0.8, 1.0)


def test_sec41_update_vs_rebuild(neuron_dataset, benchmark):
    items = neuron_dataset.items
    live = dict(items)
    motion = PlasticityMotion(universe=neuron_dataset.universe, seed=11)
    all_moves = motion.step(live)

    tree = RTree(max_entries=16)

    def rebuild():
        tree.bulk_load(items)

    start = time.perf_counter()
    rebuild()
    rebuild_seconds = time.perf_counter() - start

    # Price one per-element update from a representative sample.
    sample = all_moves[: max(200, len(all_moves) // 20)]
    start = time.perf_counter()
    for eid, old, new in sample:
        tree.update(eid, old, new)
    per_update = (time.perf_counter() - start) / len(sample)
    for eid, old, new in sample:  # restore
        tree.update(eid, new, old)

    full_update_seconds = per_update * len(items)
    crossover = rebuild_seconds / full_update_seconds

    rows = []
    for fraction in FRACTIONS:
        update_cost = per_update * len(items) * fraction
        winner = "update" if update_cost < rebuild_seconds else "rebuild"
        rows.append([f"{fraction:.0%}", update_cost, rebuild_seconds, winner])

    record(
        "sec41_update_vs_rebuild",
        ["changed", "update s", "rebuild s", "winner"],
        rows,
        elements=len(items),
        crossover=crossover,
        full_update_s=full_update_seconds,
        rebuild_s=rebuild_seconds,
        paper="updating is faster than a rebuild below 38 % changed "
        "(200 M elements: full update 130 s vs rebuild 48 s)",
    )

    benchmark.pedantic(rebuild, rounds=1, iterations=1)

    assert full_update_seconds > rebuild_seconds, (
        "updating every element must cost more than one rebuild "
        f"({full_update_seconds:.2f}s vs {rebuild_seconds:.2f}s)"
    )
    assert 0.0 < crossover < 1.0

    # The MaintenanceCosts abstraction must agree with the raw measurement.
    costs = MaintenanceCosts(
        update_per_element=per_update,
        rebuild_fixed=rebuild_seconds,
        query_indexed=0.0,
        query_scan=0.0,
        n_elements=len(items),
    )
    assert abs(costs.crossover_fraction() - crossover) < 1e-9
