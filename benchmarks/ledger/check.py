"""``run.py --check BASE.json NEW.json``: two result files, metric by metric.

One row per (metric, workload) with both medians, the ratio *and its base*,
the run-to-run spread and a verdict:

* ``ok`` — NEW's median is no worse than BASE's by more than the bound;
* ``regressed`` — it is worse by more than the bound;
* ``unresolved`` — the spread of either side is wider than the bound, so the
  comparison cannot tell (reported, never counted as unchanged).

Exit status is non-zero on any regression, on any exact count (the ``=``
metrics) that differs for the same workload, seed and scale, or when NEW has
a higher share of failed ops.  Gated bounds come from ``BENCHMARK.json``; the
per-op detail rows use the ledger's own ``OP_METRICS`` bounds.
"""

from __future__ import annotations

import json
import statistics

import harness


def _load(path: str) -> list[dict]:
    with open(path) as handle:
        return json.load(handle)["runs"]


def _values(runs: list[dict], workload: str, trace: bool, section: str, name: str) -> list[float]:
    return [
        run[section][name]["value"]
        for run in runs
        if run["workload"] == workload and run["trace"] == trace and name in run[section]
    ]


def _verdict(base: list[float], new: list[float], bound: float, better: str):
    base_med, new_med = statistics.median(base), statistics.median(new)
    ratio = new_med / base_med if base_med else float("inf")
    worse = (ratio - 1.0) if better == "lower" else (1.0 - ratio)
    spreads = [s for s in (harness.spread(base), harness.spread(new)) if s is not None]
    spread = max(spreads) if spreads else None
    if spread is not None and spread > bound:
        verdict = "unresolved"
    elif worse > bound:
        verdict = "regressed"
    else:
        verdict = "ok"
    return base_med, new_med, ratio, spread, verdict


def check_files(base_path: str, new_path: str) -> int:
    base_runs, new_runs = _load(base_path), _load(new_path)
    bench = harness.load_benchmark()
    workloads = [w["name"] for w in bench["workloads"]]
    rows: list[tuple] = []
    problems: list[str] = []

    gated = [(m["name"], m["bound"], m["better"], None) for m in bench["end_to_end"]]
    detail = [(name, bound, "lower", owner) for name, (owner, bound) in harness.OP_METRICS.items()]
    for workload in workloads:
        for name, bound, better, owner in gated + detail:
            if owner is not None and owner != workload:
                continue
            section = "metrics" if owner is None else "ops"
            base = _values(base_runs, workload, False, section, name)
            new = _values(new_runs, workload, False, section, name)
            if not base or not new:
                continue
            base_med, new_med, ratio, spread, verdict = _verdict(base, new, bound, better)
            rows.append((name, workload, base_med, new_med, ratio, bound, spread, verdict,
                         len(base), len(new)))
            if verdict == "regressed":
                problems.append(f"{name} on {workload}: {ratio:.3f}x of BASE exceeds bound {bound}")

    print(f"BASE = {base_path}\nNEW  = {new_path}\n")
    print(f"{'metric':22s} {'workload':17s} {'BASE':>12s} {'NEW':>12s} {'NEW/BASE':>9s} "
          f"{'bound':>6s} {'spread':>7s}  verdict (runs)")
    for name, workload, base_med, new_med, ratio, bound, spread, verdict, n_base, n_new in rows:
        shown = f"{spread:7.3f}" if spread is not None else "    n/a"
        print(f"{name:22s} {workload:17s} {base_med:12.4f} {new_med:12.4f} {ratio:9.3f} "
              f"{bound:6.2f} {shown}  {verdict} ({n_base}/{n_new})")

    # Exact counts: traced runs of the same workload, seed and scale must agree.
    def exact(runs: list[dict]) -> dict[tuple, set]:
        seen: dict[tuple, set] = {}
        for run in runs:
            if not run["trace"]:
                continue
            for name in harness.EXACT_COUNTS:
                key = (name, run["workload"], run["seed"], run["scale"])
                seen.setdefault(key, set()).add(run["metrics"][name]["value"])
        return seen

    base_exact, new_exact = exact(base_runs), exact(new_runs)
    compared = 0
    for key in sorted(set(base_exact) & set(new_exact)):
        compared += 1
        if len(base_exact[key]) != 1 or base_exact[key] != new_exact[key]:
            name, workload, seed, _ = key
            problems.append(
                f"exact count {name} on {workload} (seed {seed}) differs: "
                f"BASE {sorted(base_exact[key])} NEW {sorted(new_exact[key])}")
    print(f"\nexact counts compared: {compared}")

    for workload in workloads:
        shares = []
        for runs in (base_runs, new_runs):
            mine = [r for r in runs if r["workload"] == workload]
            attempted = sum(r["attempted"] for r in mine)
            shares.append(sum(r["failed"] for r in mine) / attempted if attempted else None)
        if None not in shares:
            print(f"failed-op share {workload:17s} BASE {shares[0]:.6f}  NEW {shares[1]:.6f}")
            if shares[1] > shares[0]:
                problems.append(f"failed-op share rose on {workload}: {shares[0]:.6f} -> {shares[1]:.6f}")

    for problem in problems:
        print(f"PROBLEM: {problem}")
    print("\nresult: " + ("FAIL" if problems else "ok"))
    return 1 if problems else 0
