"""The performance ledger: one command, four workloads, every metric by name.

    python3 benchmarks/ledger/run.py                      # all workloads, untraced
    python3 benchmarks/ledger/run.py --trace              # per-layer run + trace files
    python3 benchmarks/ledger/run.py --workload sim_step --seed 7 --seconds 10 --trace 0
    python3 benchmarks/ledger/run.py --check A.json B.json

Each workload runs in its own fresh subprocess.  With one ``--workload`` the
last line of standard output is the JSON object ``BENCHMARK.json``'s contract
asks for; with several it is a one-line summary naming the result file.  See
README.md in this directory for what is measured and why.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

LEDGER_DIR = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, LEDGER_DIR)
sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(LEDGER_DIR)), "src"))

import harness  # noqa: E402

WORKLOAD_CLASSES = {
    "sim_step": "SimStep",
    "serve_mixed": "ServeMixed",
    "out_of_core": "OutOfCore",
    "continuous_ticks": "ContinuousTicks",
}
WORKLOADS = tuple(WORKLOAD_CLASSES)
#: Measured slices (= set-up repetitions) per untraced run.
SLICES = {"full": 4, "quick": 2}
#: A slice that runs this many times over its share of --seconds is cut short,
#: so a pathologically slow host cannot blow the per-run time limit.
GUARD_FACTOR = 4.0


# -- child: one workload, in this process ------------------------------------------


def make_workload(name: str, scale: str, seed: int):
    """Workload modules are imported here, in the child, not at start-up: the
    parent never needs the program under test."""
    module = importlib.import_module(name)
    return getattr(module, WORKLOAD_CLASSES[name])(scale, seed)


def _units(bench: dict, section: str) -> dict[str, str]:
    return {m["name"]: m["unit"] for m in bench[section]}


def _emit(values: dict[str, float], units: dict[str, str]) -> dict[str, dict]:
    undeclared = sorted(set(values) - set(units))
    if undeclared:
        raise RuntimeError(f"metrics not declared in BENCHMARK.json: {undeclared}")
    return {name: {"value": values.get(name, 0), "unit": unit} for name, unit in units.items()}


def _op_detail(workload, slices: list[dict]) -> dict[str, dict]:
    """The issue's per-op latencies from the untraced slices: the median of
    the per-op best over the slices, plus p99 (over all samples, pooled) only
    where the sample supports it (>= 1000 samples, so >= 10 lie beyond it)."""
    out = {}
    per_slice = [workload.op_metrics(samples) for samples in slices]
    for name in per_slice[0]:
        series = [ops[name] for ops in per_slice if ops.get(name)]
        if not series:
            continue
        if name.endswith("_p99_ms"):
            pooled = [value for one in series for value in one]
            if len(pooled) < 1000:
                continue
            value = harness.percentile(pooled, 99) * 1e3
            count = len(pooled)
        else:
            best = harness.best_of(series)
            value = statistics.median(best) * 1e3
            count = len(best)
        out[name] = {"value": value, "unit": "ms", "n": count, "slices": len(series)}
    return out


def _round_mean_s(measured: list[dict]) -> float:
    """Timed work per round: for each part a workload names (its rounds, plus
    e.g. the periodic join at its share), the mean over ops of the best of
    each op's repetitions across the slices."""
    total = 0.0
    for part, (_, weight) in enumerate(measured[0]["mean_parts"]):
        best = harness.best_of([m["mean_parts"][part][0] for m in measured])
        if best:
            total += weight * statistics.fmean(best)
    return total


def run_child(args: argparse.Namespace) -> int:
    scale = "quick" if args.quick else "full"
    calib_start = harness.calib_ms()
    workload = make_workload(args.workload, scale, args.seed)
    tracing = args.trace == "1"
    run = harness.Run(tracing)

    # Untraced: SLICES times (set up from scratch, then measure one slice of
    # the same seeded ops).  Set-up time is the median over the repetitions;
    # op times are the per-op best over the slices (see harness.best_of).
    # Op counts are fixed: sized for run_seconds on the sizing host, scaled in
    # proportion when --seconds asks for more or less.
    bench = harness.load_benchmark()
    reps = 1 if tracing else SLICES[scale]
    sized = workload.cfg["traced_rounds" if tracing else "rounds"]
    rounds = max(1, round(sized * args.seconds / bench["run_seconds"]))
    slice_budget = GUARD_FACTOR * args.seconds / reps
    setups, measured, slices = [], [], []
    try:
        for rep in range(reps):
            if rep:
                workload.teardown()
            start = time.perf_counter()
            workload.setup()
            setups.append(time.perf_counter() - start)
            guard = None if tracing else time.perf_counter() + slice_budget
            measured.append(workload.measure(run, rounds, guard))
            if not tracing:
                slices.append(run.take_samples())
        layer, per_round = workload.layers(run) if tracing else ({}, {})
        rss_mb = harness.peak_rss_mb()  # before the oracles allocate anything
        workload.verify(run)
    finally:
        workload.teardown()

    round_series = [m["round_s"] for m in measured]
    result = {
        "workload": args.workload,
        "seed": args.seed,
        "scale": scale,
        "trace": tracing,
        "seconds": args.seconds,
        "slices": reps,
        "rounds_per_slice": [len(series) for series in round_series],
        "op_counts": dict(workload.cfg),
        "round_ms": [[round(s * 1e3, 4) for s in series] for series in round_series],
    }
    if tracing:
        result["ops"] = _op_detail(workload, [run.samples])
        for name, entry in result["ops"].items():
            layer[f"op.{name}"] = entry["value"]
        layer["obs.bench_trace_overhead_pct"] = (
            100.0 * (run.span_s - run.inner_s) / run.inner_s if run.inner_s else 0.0)
        calib_end = harness.calib_ms()
        layer["host.calib_ms"] = (calib_start + calib_end) / 2.0
        result["metrics"] = _emit(layer, _units(bench, "per_layer"))
        result["layer_ms_per_round"] = per_round
        result["span_self_ms"] = run.rec.self_ms_by_name()
        trace_path = os.path.join(harness.OUT_DIR, f"trace_{args.workload}.json")
        run.rec.export_chrome(trace_path, f"ledger:{args.workload}")
        result["trace_file"] = os.path.relpath(trace_path, harness.REPO_ROOT)
        result["spans"] = len(run.rec.spans)
    else:
        calib_end = harness.calib_ms()
        result["ops"] = _op_detail(workload, slices)
        result["metrics"] = _emit(
            {
                "setup_s": statistics.median(setups),
                "round_p50_ms": statistics.median(harness.best_of(round_series)) * 1e3,
                "round_mean_ms": _round_mean_s(measured) * 1e3,
                "peak_rss_mb": rss_mb,
            },
            _units(bench, "end_to_end"),
        )
        result["setup_samples_s"] = setups
    result["attempted"] = run.attempted
    result["failed"] = run.failed
    result["failures"] = run.failures
    result["calib_ms"] = {"start": calib_start, "end": calib_end}
    with open(args.result, "w") as handle:
        json.dump(result, handle)
    return 0


# -- parent: fresh subprocess per workload, hygiene gate, reporting ----------------


def _shm_segments() -> set[str]:
    try:
        return set(os.listdir("/dev/shm"))
    except OSError:
        return set()


def run_workload(name: str, seed: int, seconds: float, trace: str, quick: bool) -> dict:
    """Run one workload in a fresh subprocess and apply the hygiene gate: no
    shared-memory segment, spill directory or page file may outlive it."""
    os.makedirs(harness.OUT_DIR, exist_ok=True)
    tag = f"{name}-{os.getpid()}"
    tmp_dir = os.path.join(harness.OUT_DIR, "tmp", tag)
    os.makedirs(tmp_dir)
    result_path = os.path.join(harness.OUT_DIR, f"child-{tag}.json")
    command = [
        sys.executable, os.path.abspath(__file__), "--child", "--workload", name,
        "--seed", str(seed), "--seconds", str(seconds), "--trace", trace,
        "--result", result_path,
    ]
    if quick:
        command.append("--quick")
    shm_before = _shm_segments()
    # The program's spill files and mapped page files follow TMPDIR: keep
    # them inside the benchmark's own directory.
    env = dict(os.environ, TMPDIR=tmp_dir)
    try:
        code = subprocess.run(command, env=env, cwd=harness.REPO_ROOT).returncode
        if code != 0:
            raise SystemExit(f"workload {name} exited with code {code}")
        with open(result_path) as handle:
            result = json.load(handle)
        leaks = [f"/dev/shm/{seg}" for seg in sorted(_shm_segments() - shm_before)]
        leaks += [os.path.join(tmp_dir, entry) for entry in sorted(os.listdir(tmp_dir))]
    finally:
        shutil.rmtree(tmp_dir, ignore_errors=True)
        if os.path.exists(result_path):
            os.remove(result_path)
    result["attempted"] += 1  # the hygiene gate is one op
    if leaks:
        result["failed"] += 1
        result["failures"].append("leaked after exit: " + ", ".join(leaks[:5]))
    result["leaks"] = leaks
    return result


def contract_line(result: dict) -> str:
    metrics = {
        name: {"value": entry["value"], "unit": entry["unit"]}
        for name, entry in result["metrics"].items()
    }
    return json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    })


def print_result(result: dict) -> None:
    kind = "per-layer (traced)" if result["trace"] else "end-to-end (untraced)"
    print(f"\n== {result['workload']}  seed={result['seed']}  {kind}  "
          f"rounds={result['rounds_per_slice']}  ops attempted={result['attempted']} "
          f"failed={result['failed']}")
    for name, entry in result["metrics"].items():
        print(f"  {name:34s} {entry['value']:>14.4f} {entry['unit']}")
    if not result["trace"]:
        for name, entry in result["ops"].items():
            print(f"  {name:34s} {entry['value']:>14.4f} {entry['unit']}  "
                  f"(n={entry['n']} x {entry['slices']} slices)")
    else:
        shares = result["layer_ms_per_round"]
        total = sum(shares.values()) or 1.0
        row = "  ".join(f"{layer} {100 * ms / total:.1f}%" for layer, ms in shares.items())
        print(f"  timed work by layer: {row}")
        print(f"  trace: {result['trace_file']} ({result['spans']} spans)")
    for failure in result["failures"]:
        print(f"  FAILED: {failure}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", action="append", choices=WORKLOADS,
                        help="run only this workload (repeatable; default: all four)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measured seconds per untraced run (default: BENCHMARK.json run_seconds)")
    parser.add_argument("--trace", nargs="?", const="1", default="0", choices=("0", "1"),
                        help="record benchmark-owned spans and report the per-layer metrics")
    parser.add_argument("--quick", action="store_true", help="self-test scale (seconds, not minutes)")
    parser.add_argument("--repeat", type=int, default=1, help="runs per workload in one result file")
    parser.add_argument("--out", default=None, help="result file (default: out/result[_trace].json)")
    parser.add_argument("--append", action="store_true", help="add runs to an existing --out file")
    parser.add_argument("--check", nargs=2, metavar=("BASE.json", "NEW.json"),
                        help="compare two result files against the bounds in BENCHMARK.json")
    parser.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--result", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if args.check:
        from check import check_files

        return check_files(*args.check)
    if args.seconds is None:
        args.seconds = harness.load_benchmark()["run_seconds"]
    if args.child:
        args.workload = args.workload[0]
        return run_child(args)

    if not os.path.isdir(os.path.join(harness.REPO_ROOT, "src", "repro")):
        print("ledger: src/repro not found next to benchmarks/ — nothing to measure",
              file=sys.stderr)
        return 2
    names = args.workload or list(WORKLOADS)
    out_path = args.out or os.path.join(
        harness.OUT_DIR, "result_trace.json" if args.trace == "1" else "result.json")
    document = {"env": harness.environment(), "runs": []}
    if args.append and os.path.exists(out_path):
        with open(out_path) as handle:
            document = json.load(handle)
    results = []
    for _ in range(args.repeat):
        for name in names:
            result = run_workload(name, args.seed, args.seconds, args.trace, args.quick)
            print_result(result)
            results.append(result)
    document["runs"].extend(results)
    os.makedirs(os.path.dirname(os.path.abspath(out_path)), exist_ok=True)
    with open(out_path, "w") as handle:
        json.dump(document, handle, indent=1)
    failed = sum(r["failed"] for r in results)
    if len(results) == 1:
        print(contract_line(results[0]))
    else:
        print(json.dumps({
            "correct": failed == 0, "attempted": sum(r["attempted"] for r in results),
            "failed": failed, "result_file": os.path.relpath(out_path, harness.REPO_ROOT),
        }))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
