"""Continuous queries: the three maintenance policies on one update sequence.

Two claims, both measured by running the *same* seeded update sequence
through sessions with the policy pinned:

* **Maintain, don't rebuild.**  At simulation churn rates (≤ 10 % of objects
  move per tick) maintaining a standing result from the tick's affected set
  alone beats re-answering from a throwaway rebuild — recompute pays O(n) per
  tick no matter how little moved, incremental pays O(churn).  Asserted at
  full scale: incremental sustains ≥ 3x the ticks/second of recompute at
  n=100k, 10 % churn.
* **Keep-or-kill evidence for the predictive policy.**  The planner no longer
  routes to ``predictive`` (it is a pin-only policy); this bench is the
  reason, kept runnable.  It drives ≥ 15 ticks so the TPR horizon (10) is
  crossed — from then on every reported move whose anchor has aged out pays
  a scalar R-tree delete + insert — and reports, per churn level up to the
  planner's 30 % recompute line, each policy's first tick (which builds the
  policy's backing index), its median tick before and after the horizon,
  and its cumulative time through the horizon.  Asserted at full scale, at
  every churn level: predictive's steady state (after the horizon) is no
  faster than incremental's, and neither is its cumulative time through
  the horizon — the two quantities a route could turn into a saving.  If
  that assertion ever fails, the planner deserves a predictive route again
  for that regime.  Windows where predictive's *median* tick alone is lower
  are listed in the result (``predictive_faster_windows``), not hidden.

The three delta streams are asserted identical at every scale and churn
level (the full exactness grid lives in ``tests/test_continuous.py``).  A
full-scale run writes ``BENCH_continuous.json`` at the repo root.

Usage::

    PYTHONPATH=src python benchmarks/bench_continuous.py          # full scale
    PYTHONPATH=src python benchmarks/bench_continuous.py --quick  # CI smoke

Also collectable by pytest (``python -m pytest benchmarks/bench_continuous.py``),
where it runs at quick scale and checks correctness, not wall-clock.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(HERE, "..", "src"))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(HERE, "ledger"))

import numpy as np

from bench_common import emit
from harness import environment  # the ledger's environment block, same schema
from repro import AABB, ContinuousKNNQuery, ContinuousRangeQuery, ContinuousSession
from repro.analysis.reporting import format_table
from repro.analysis.session_report import continuous_report

RESULT_PATH = os.path.join(HERE, "..", "BENCH_continuous.json")
UNIVERSE = AABB((0.0, 0.0, 0.0), (100.0, 100.0, 100.0))
FULL_N, QUICK_N = 100_000, 5_000
POLICIES = ("recompute", "incremental", "predictive")
TPR_HORIZON = 10  # PredictivePolicy's TPRIndex default
TICKS = 16  # ticks 1-9 run before any anchor ages out, 10-16 after
CHURNS = (0.01, 0.05, 0.10, 0.20)  # fraction of objects moved per tick
BAR_CHURN = 0.10  # where the incremental-vs-recompute 3x bar is asserted
EXTENT = 0.8
RANGES = 8
KNNS = 8
K = 8


def build_items(n: int, seed: int = 17) -> list[tuple[int, AABB]]:
    rng = np.random.default_rng(seed)
    lo = rng.uniform(0.0, 100.0 - EXTENT, size=(n, 3))
    return [
        (eid, AABB(lo[eid], lo[eid] + EXTENT)) for eid in range(n)
    ]


def make_tick_updates(
    items: dict[int, AABB], tick: int, churn: float, seed: int = 29
) -> list[tuple[int, AABB, AABB]]:
    """One tick's drift: churn·n objects shift by a small random step."""
    rng = np.random.default_rng(seed + tick)
    n = len(items)
    moved = rng.choice(n, size=int(n * churn), replace=False)
    steps = rng.uniform(-0.5, 0.5, size=(len(moved), 3))
    updates = []
    for eid, step in zip(moved.tolist(), steps):
        old = items[eid]
        lo = np.clip(np.asarray(old.lo) + step, 0.0, 100.0 - EXTENT)
        updates.append((eid, old, AABB(lo, lo + EXTENT)))
    return updates


def subscription_specs(seed: int = 43) -> list:
    rng = np.random.default_rng(seed)
    lo = rng.uniform(5.0, 75.0, size=(RANGES, 3))
    points = rng.uniform(10.0, 90.0, size=(KNNS, 3))
    return [ContinuousRangeQuery(AABB(l, l + 20.0)) for l in lo] + [
        ContinuousKNNQuery(tuple(p), k=K) for p in points.tolist()
    ]


def run_policy(policy: str, n: int, churn: float) -> tuple[list[float], ContinuousSession, list]:
    """Drive TICKS of drift through one pinned-policy session; returns
    (seconds per tick(), the session, per-subscription delta streams)."""
    items = dict(build_items(n))
    session = ContinuousSession(list(items.items()), UNIVERSE, policy=policy)
    subs = [session.subscribe(spec) for spec in subscription_specs()]
    tick_s = []
    for tick in range(TICKS):
        updates = make_tick_updates(items, tick, churn)
        for eid, _, new in updates:
            items[eid] = new
        start = time.perf_counter()
        session.tick(updates)
        tick_s.append(time.perf_counter() - start)
    return tick_s, session, [sub.deltas for sub in subs]


def run(quick: bool = False) -> dict:
    n = QUICK_N if quick else FULL_N
    by_churn: dict[str, dict[str, dict[str, float]]] = {}
    rows = []
    incremental_session = None
    for churn in CHURNS:
        streams = {}
        by_churn[f"{churn:.2f}"] = level = {}
        for policy in POLICIES:
            tick_s, session, streams[policy] = run_policy(policy, n, churn)
            level[policy] = {
                # The first tick instantiates the policy and bulk-loads its
                # backing index; it is reported on its own and counted in
                # the cumulative figures, not in the medians.
                "first_tick_ms": tick_s[0] * 1e3,
                "before_horizon_tick_ms": statistics.median(tick_s[1 : TPR_HORIZON - 1]) * 1e3,
                "after_horizon_tick_ms": statistics.median(tick_s[TPR_HORIZON - 1 :]) * 1e3,
                "through_horizon_s": sum(tick_s[: TPR_HORIZON - 1]),
                "total_s": sum(tick_s),
            }
            rows.append([f"{churn:.0%}", policy, *level[policy].values()])
            if policy == "incremental" and churn == BAR_CHURN:
                incremental_session = session
        # Same update sequence → every policy must emit identical streams.
        for policy in POLICIES[1:]:
            assert streams[policy] == streams["recompute"], (
                f"{policy} and recompute delta streams diverged at {churn:.0%} churn"
            )

    bar = by_churn[f"{BAR_CHURN:.2f}"]
    results = {
        "bench": "continuous",
        "quick": quick,
        "env": environment(),
        "n": n,
        "ticks": TICKS,
        "tpr_horizon": TPR_HORIZON,
        "subscriptions": {"range": RANGES, "knn": KNNS, "k": K},
        "deltas_per_policy": incremental_session.stats.deltas,
        "churn": by_churn,
        "incremental_vs_recompute_speedup": (
            bar["recompute"]["total_s"] / bar["incremental"]["total_s"]
        ),
        # What a route to predictive could turn into a saving: a cheaper
        # steady state, or a cheaper run-up to the horizon.
        "predictive_never_pays": all(
            level["predictive"][figure] >= level["incremental"][figure]
            for level in by_churn.values()
            for figure in ("after_horizon_tick_ms", "through_horizon_s")
        ),
        "predictive_faster_windows": [
            {"churn": churn, "window": window}
            for churn, level in by_churn.items()
            for window in ("before_horizon_tick_ms", "after_horizon_tick_ms")
            if level["predictive"][window] < level["incremental"][window]
        ],
    }
    emit(
        f"Continuous queries — n={n:,}, {TICKS} ticks (TPR horizon {TPR_HORIZON}), "
        f"{RANGES} standing range + {KNNS} standing kNN(k={K}) queries\n"
        + format_table(
            ["churn", "policy", "first tick ms", "tick ms (pre-horizon)",
             "tick ms (post-horizon)", "through horizon (s)", "total (s)"],
            rows,
        )
        + f"\n\nincremental vs recompute at {BAR_CHURN:.0%} churn: "
        f"{results['incremental_vs_recompute_speedup']:.1f}x\n"
        + f"\nincremental session telemetry ({BAR_CHURN:.0%} churn)\n"
        + continuous_report(incremental_session)
    )
    return results


def test_continuous_bench_quick_scale():
    """Harness smoke: all three policies agree delta-for-delta at quick scale."""
    results = run(quick=True)
    assert results["deltas_per_policy"] == TICKS * (RANGES + KNNS)
    assert results["incremental_vs_recompute_speedup"] > 1.0  # maintaining beats rebuilding even small


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--quick", action="store_true", help="CI smoke scale (5k)")
    args = parser.parse_args()
    results = run(quick=args.quick)
    if args.quick:
        return
    with open(RESULT_PATH, "w") as handle:
        json.dump(results, handle, indent=2)
        handle.write("\n")
    # The acceptance bars.  At ≤ 10 % churn and 100k objects, incremental
    # maintenance must be at least 3x faster than per-tick recompute...
    speedup = results["incremental_vs_recompute_speedup"]
    assert speedup >= 3.0, f"incremental speedup {speedup:.1f}x below the 3x bar"
    # ...and the pin-only predictive policy must not have started to pay
    # anywhere: that would be the signal to give it a planner route back.
    assert results["predictive_never_pays"], (
        "predictive beat incremental somewhere — see BENCH_continuous.json"
    )


if __name__ == "__main__":
    main()
