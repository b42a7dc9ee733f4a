"""Continuous queries over a plasticity-style workload.

Run:  PYTHONPATH=src python examples/continuous_monitoring.py

The paper's Section 4 workload re-runs the same analyses every step against
neurons that all move a little.  Here the analyses are *standing*: region
monitors, a nearest-neighbour probe and a within-ε contact join are
subscribed once to a :class:`~repro.continuous.ContinuousSession`, and each
simulation tick yields exact deltas — who entered each region, which
contacts formed and dissolved — maintained by whichever policy the planner
routes to (recompute / incremental).  A dashboard reads those deltas
straight off ``tick``'s return value.
"""

from repro import (
    AABB,
    ContinuousJoinSpec,
    ContinuousKNNQuery,
    ContinuousRangeQuery,
    ContinuousSession,
)
from repro.analysis.session_report import continuous_report
from repro.datasets import generate_neurons
from repro.datasets.trajectories import PlasticityMotion, apply_moves

STEPS = 12


def main() -> None:
    dataset = generate_neurons(neurons=80, segments_per_neuron=40, seed=2)
    live = dict(dataset.items)
    print(f"tissue model: {len(live)} segments; plasticity motion every step")

    session = ContinuousSession(live.items(), universe=dataset.universe)
    lo, hi = dataset.universe.lo, dataset.universe.hi
    mid = [(l + h) / 2 for l, h in zip(lo, hi)]
    window = AABB(lo, mid)  # one octant of the tissue
    region = session.subscribe(ContinuousRangeQuery(window, tag="octant"))
    probe = session.subscribe(ContinuousKNNQuery(mid, k=8, tag="soma-probe"))
    contacts = session.subscribe(ContinuousJoinSpec(epsilon=0.05, tag="contacts"))
    print(
        f"subscribed: |octant|={len(region.result)} "
        f"|knn|={len(probe.result)} |contacts|={len(contacts.result)}"
    )

    # Full plasticity motion (every element moves) would route everything to
    # recompute — the paper's own throwaway argument.  A 15% moving fraction
    # is the regime where maintenance wins: the planner sends all three
    # subscriptions to the incremental policy.  (The TPR-backed predictive
    # policy is pin-only, ``subscribe(spec, policy="predictive")``: it
    # measures slower than incremental at every churn level, as the paper's
    # "movement cannot be predicted" objection says it should.)
    motion = PlasticityMotion(universe=dataset.universe, moving_fraction=0.15, seed=6)
    for step in range(STEPS):
        moves = motion.step(live)
        apply_moves(live, moves)
        deltas = session.tick(moves)
        formed = len(deltas[contacts.cqid].added)
        dissolved = len(deltas[contacts.cqid].removed)
        print(
            f"step {step:2d}: octant {len(region.result):4d} "
            f"({deltas[region.cqid]!s:>24}), contacts {len(contacts.result):4d} "
            f"(+{formed}/-{dissolved}), routed {region.routed}/{contacts.routed}"
        )

    print("\n" + continuous_report(session))


if __name__ == "__main__":
    main()
