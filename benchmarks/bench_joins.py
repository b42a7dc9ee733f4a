"""Sections 3.2/3.3/4.3 — the join strategy field.

Paper claims reproduced, measured through the JoinSession registry:

* partitioned joins (grid / PBSM) do far fewer comparisons than the nested
  loop, and the sweep line "does not ensure that only spatially close
  objects are compared" (asserted: it compares > 3x what PBSM does);
* every algorithm agrees pair-for-pair, at a scale every one of them can
  afford (including the Python-loop TOUCH and the quadratic-candidate
  sweep line).

Usage::

    PYTHONPATH=src python benchmarks/bench_joins.py

Also collectable by pytest (``python -m pytest benchmarks/bench_joins.py``),
where it checks agreement, not wall-clock.
"""

from __future__ import annotations

import os
import sys
import time

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src"))
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import numpy as np

from bench_common import emit
from repro.analysis.reporting import format_table
from repro.geometry.aabb import AABB
from repro.joins import JoinSession, PairJoinSpec

FIELD_N = 4_000  # the scale the Python-loop TOUCH can afford


def join_workload(n: int, seed: int = 0):
    """Two disjoint sets of synapse-scale boxes in the canonical universe."""
    rng = np.random.default_rng(seed)
    lo = rng.uniform(0.0, 99.0, size=(2 * n, 3))
    hi = np.minimum(lo + rng.uniform(0.05, 1.0, size=(2 * n, 3)), 100.0)
    items = [(eid, AABB(l, h)) for eid, (l, h) in enumerate(zip(lo, hi))]
    return items[:n], items[n:]


def timed_join(name: str, items_a, items_b) -> tuple[list, float, int]:
    session = JoinSession(strategy=name)
    counters = session.counters
    start = time.perf_counter()
    pairs = session.run(PairJoinSpec(items_a, items_b))
    elapsed = time.perf_counter() - start
    return pairs, elapsed, counters.comparisons


def run() -> dict[str, int]:
    n = FIELD_N
    side_a, side_b = join_workload(n)
    rows = []
    reference: list | None = None
    comparisons: dict[str, int] = {}
    for name in ("sweepline", "pbsm", "tree", "touch", "grid"):
        pairs, elapsed, cmp_count = timed_join(name, side_a, side_b)
        comparisons[name] = cmp_count
        if reference is None:
            reference = pairs
        else:
            assert pairs == reference, f"{name} disagrees on the field workload"
        rows.append([name, elapsed, cmp_count, len(pairs)])
    emit(
        f"Strategy field — |A| = |B| = {n:,}:\n"
        + format_table(["strategy", "wall s", "comparisons", "pairs"], rows)
        + "\npaper: the sweep line prunes by x only; partitioning prunes by space"
    )
    # Sweep-line criticism, in numbers: x-only pruning compares far more.
    assert comparisons["sweepline"] > 3 * comparisons["pbsm"]
    return comparisons


def test_strategies_agree():
    """Harness smoke: every strategy agrees pair-for-pair."""
    run()


if __name__ == "__main__":
    run()
