"""Self-test of the ledger at ``--quick`` scale (well under a minute).

    PYTHONPATH=src python -m pytest benchmarks/ledger -q

Not collected by tier-1 (``pytest.ini`` pins ``testpaths = tests``).  It
checks the harness, not the program: declared metrics are emitted exactly,
exact counts repeat, spans nest, a wrong answer is a failed op, and
``--check`` tells a regression from noise.
"""

from __future__ import annotations

import copy
import json
import os
import re
import subprocess
import sys

import pytest

LEDGER_DIR = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, LEDGER_DIR)

import harness  # noqa: E402

RUN = os.path.join(LEDGER_DIR, "run.py")
BENCH = harness.load_benchmark()
WORKLOADS = [w["name"] for w in BENCH["workloads"]]
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


def ledger(*args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, RUN, *args], capture_output=True, text=True,
        cwd=harness.REPO_ROOT, timeout=300,
    )


def suite(tmp_path_factory, name: str, *args: str) -> list[dict]:
    out = str(tmp_path_factory.mktemp("ledger") / f"{name}.json")
    done = ledger("--quick", "--out", out, *args)
    assert done.returncode == 0, done.stdout[-3000:] + done.stderr[-3000:]
    with open(out) as handle:
        return json.load(handle)["runs"]


@pytest.fixture(scope="module")
def untraced(tmp_path_factory) -> list[dict]:
    return suite(tmp_path_factory, "untraced", "--seed", "5")


@pytest.fixture(scope="module")
def traced(tmp_path_factory) -> list[dict]:
    return suite(tmp_path_factory, "traced", "--seed", "5", "--trace", "--repeat", "2")


@pytest.fixture(scope="module")
def traced_other_seed(tmp_path_factory) -> list[dict]:
    return suite(tmp_path_factory, "traced6", "--seed", "6", "--trace")


def test_benchmark_json_names_and_shape():
    assert len(BENCH["workloads"]) == 4
    names = [m["name"] for m in BENCH["end_to_end"] + BENCH["per_layer"]] + WORKLOADS
    assert len(names) == len(set(names))
    assert all(NAME.match(name) for name in names)
    assert "setup_s" in {m["name"] for m in BENCH["end_to_end"]}
    assert all(0 < m["bound"] <= 0.25 for m in BENCH["end_to_end"])
    assert set(harness.EXACT_COUNTS) <= {m["name"] for m in BENCH["per_layer"]}
    assert {owner for owner, _ in harness.OP_METRICS.values()} == set(WORKLOADS)


@pytest.mark.parametrize("section,fixture", [("end_to_end", "untraced"), ("per_layer", "traced")])
def test_every_declared_metric_emitted_once_per_workload(section, fixture, request):
    runs = request.getfixturevalue(fixture)
    declared = {m["name"]: m["unit"] for m in BENCH[section]}
    assert sorted({run["workload"] for run in runs}) == sorted(WORKLOADS)
    for run in runs:
        emitted = {name: entry["unit"] for name, entry in run["metrics"].items()}
        assert emitted == declared, run["workload"]
        assert run["failed"] == 0 and run["attempted"] >= 1, run["failures"]
        assert run["leaks"] == []
        if section == "end_to_end":
            assert all(entry["value"] > 0 for entry in run["metrics"].values())


def test_single_workload_prints_the_contract_line():
    done = ledger("--quick", "--workload", "continuous_ticks", "--seed", "5", "--trace", "0")
    assert done.returncode == 0, done.stderr[-3000:]
    line = json.loads(done.stdout.strip().splitlines()[-1])
    assert sorted(line) == ["attempted", "correct", "failed", "metrics"]
    assert line["correct"] is True and line["failed"] == 0
    assert sorted(line["metrics"]) == sorted(m["name"] for m in BENCH["end_to_end"])


def _exact(runs: list[dict], workload: str) -> list[tuple]:
    return [
        tuple(run["metrics"][name]["value"] for name in harness.EXACT_COUNTS)
        for run in runs if run["workload"] == workload
    ]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_exact_counts_repeat_for_a_seed(workload, traced):
    first, second = _exact(traced, workload)
    assert first == second


@pytest.mark.parametrize("workload", ["sim_step", "out_of_core"])
def test_data_dependent_counts_change_with_the_seed(workload, traced, traced_other_seed):
    # serve_mixed's and continuous_ticks' exact counts (exports, routes) are
    # fixed by the op counts alone, so only these two can differ by seed.
    assert _exact(traced, workload)[0] != _exact(traced_other_seed, workload)[0]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_span_has_a_parent_that_contains_it(workload, traced):
    path = os.path.join(harness.OUT_DIR, f"trace_{workload}.json")
    with open(path) as handle:
        events = [e for e in json.load(handle)["traceEvents"] if e["ph"] == "X"]
    assert events
    by_id = {event["args"]["id"]: event for event in events}
    slack = 1e-3  # microseconds: ts/dur are rounded from integer nanoseconds
    for event in events:
        parent = event["args"]["parent"]
        if parent == 0:
            continue
        assert parent in by_id, f"{event['name']} has no parent span {parent}"
        outer = by_id[parent]
        assert outer["ts"] <= event["ts"] + slack
        assert event["ts"] + event["dur"] <= outer["ts"] + outer["dur"] + slack


def test_wrong_oracle_answer_is_a_failed_op_not_an_exception():
    from sim_step import SimStep

    workload = SimStep("quick", seed=5)
    workload.setup()
    try:
        run = harness.Run(tracing=False)
        workload.measure(run, rounds=5)
        windows, probes, hits, nearest = workload.last_queries
        hits[0] = list(hits[0]) + [-1]  # an id the oracle cannot return
        before = run.attempted
        workload.verify(run)
    finally:
        workload.teardown()
    assert run.failed == 1 and run.attempted > before
    assert "range window 0" in run.failures[0]


def test_check_tells_agreement_from_regression(tmp_path, untraced, traced):
    document = {"env": harness.environment(), "runs": untraced + traced}
    base = tmp_path / "base.json"
    base.write_text(json.dumps(document))
    same = ledger("--check", str(base), str(base))
    assert same.returncode == 0, same.stdout
    assert "regressed" not in same.stdout

    slower = copy.deepcopy(document)
    for run in slower["runs"]:
        if run["workload"] == "sim_step" and not run["trace"]:
            run["metrics"]["round_p50_ms"]["value"] *= 2.0
    worse = tmp_path / "worse.json"
    worse.write_text(json.dumps(slower))
    regressed = ledger("--check", str(base), str(worse))
    assert regressed.returncode == 1
    assert re.search(r"round_p50_ms\s+sim_step.*regressed", regressed.stdout)

    drifted = copy.deepcopy(document)
    for run in drifted["runs"]:
        if run["workload"] == "sim_step" and run["trace"]:
            run["metrics"]["joins.pairs"]["value"] += 1
    drift = tmp_path / "drift.json"
    drift.write_text(json.dumps(drifted))
    differs = ledger("--check", str(base), str(drift))
    assert differs.returncode == 1 and "exact count joins.pairs" in differs.stdout
