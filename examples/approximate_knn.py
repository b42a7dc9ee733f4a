"""Approximate kNN through one query session — the accuracy knob.

Run:  PYTHONPATH=src python examples/approximate_knn.py

A :class:`~repro.SpillTree` answers the same ``knn`` calls as every other
index, plus a defeatist (no-backtrack) batch kernel the planner may route
to.  The knob is per call: ``accuracy='exact'`` (the default) keeps the
bit-exact contract, a float is a recall target the session honors only when
the tree's calibrated recall clears it — otherwise the batch silently runs
exact.  This example sweeps the knob from 0.8 to exact over one session and
prints the recall / throughput / leaves-scanned trade the planner is making,
then the session's own telemetry report.
"""

import time

import numpy as np

from repro import QuerySession, SpillTree
from repro.analysis import query_session_report
from repro.analysis.reporting import format_table
from repro.geometry.aabb import AABB

K = 8


def clustered_workload(n: int, m: int, seed: int = 0):
    rng = np.random.default_rng(seed)
    centers = rng.uniform(10.0, 90.0, size=(12, 3))
    pts = centers[rng.integers(0, len(centers), size=n)]
    pts = np.clip(pts + rng.normal(0.0, 3.0, size=(n, 3)), 0.0, 100.0)
    probes = pts[rng.integers(0, n, size=m)] + rng.normal(0.0, 0.5, size=(m, 3))
    return pts, [tuple(p) for p in np.clip(probes, 0.0, 100.0)]


def main() -> None:
    pts, probes = clustered_workload(n=3_000, m=300)
    tree = SpillTree(tau=0.2, leaf_size=64)
    tree.bulk_load([(eid, AABB(p, p)) for eid, p in enumerate(pts.tolist())])
    session = QuerySession(tree)
    print(
        f"spill tree: {len(tree):,} clustered points, {tree.leaves:,} leaves, "
        f"calibrated recall >= {tree.estimated_recall(K):.3f} at k={K}"
    )

    sweep = [0.8, 0.9, 0.99, "exact"]
    answers = {}
    rows = []
    for accuracy in sweep:
        before = session.stats.batch
        descents0, leaves0 = before.approx_descents, before.leaves_scanned
        start = time.perf_counter()
        answers[accuracy] = session.knn(probes, K, accuracy=accuracy)
        seconds = time.perf_counter() - start
        stats = session.stats.batch
        routed_approx = stats.approx_descents > descents0
        rows.append(
            [
                str(accuracy),
                "defeatist" if routed_approx else "exact",
                f"{len(probes) / seconds:,.0f}",
                f"{stats.leaves_scanned - leaves0:,}",
                accuracy,  # recall patched below once the oracle is in
            ]
        )

    oracle = answers["exact"]
    for row, accuracy in zip(rows, sweep):
        got = answers[accuracy]
        hits = sum(
            len({e for _, e in want} & {e for _, e in have})
            for want, have in zip(oracle, got)
        )
        row[-1] = f"{hits / (len(oracle) * K):.3f}"

    print(
        "\nOne session, four accuracy targets (a target above the calibrated\n"
        "recall falls back to the exact kernels — same answers, no surprises):\n"
        + format_table(["accuracy", "routed", "qps", "leaves scanned", "recall"], rows)
    )
    print("\nSession telemetry:\n" + query_session_report(session))


if __name__ == "__main__":
    main()
