"""Telemetry reports for session workloads — queries *and* joins.

The query session records which executor answered each batch
(:class:`~repro.engine.session.SessionStats`); the join session records
which strategy answered each spec plus the filter/refine
funnel (:class:`~repro.joins.spec.JoinStats`), both read-only views over
the session's metrics registry.  These helpers turn both
into the same plain-text tables the rest of the analysis layer emits, so
benchmarks (and capacity planning) can judge the planners' routing the way
the paper's figures judge the indexes.
"""

from __future__ import annotations

from repro.analysis.reporting import format_table, percent_bar
from repro.continuous.session import ContinuousSession
from repro.engine import QuerySession, SessionStats
from repro.joins.session import JoinSession
from repro.joins.spec import JoinStats


def session_summary_rows(stats: SessionStats) -> list[list[object]]:
    """One row per executor: batches routed there plus the overall tallies."""
    return _routing_rows(stats.executor_runs)


def _routing_rows(runs: dict[str, int]) -> list[list[object]]:
    total_runs = sum(runs.values())
    rows: list[list[object]] = []
    for name, count in sorted(runs.items(), key=lambda kv: -kv[1]):
        share = count / total_runs if total_runs else 0.0
        rows.append([name, count, share * 100.0, percent_bar(share, width=20)])
    return rows


def _spill_line(
    tiles: int, written: int, read: int, high_water: int, chunks: int | None = None
) -> str | None:
    """The out-of-core funnel, rendered only when the governor saw action."""
    if not (tiles or written or read or high_water or chunks):
        return None
    parts = [
        f"spill: tiles={tiles:,}",
        f"written={written:,}B",
        f"read={read:,}B",
        f"budget-high-water={high_water:,}B",
    ]
    if chunks:
        parts.append(f"chunks={chunks:,}")
    return " ".join(parts)


def _mapped_line(views: int, mapped: int) -> str | None:
    """The zero-copy storage funnel, rendered once any read was served as a
    mapped view."""
    if not (views or mapped):
        return None
    return f"mapped: views={views:,} bytes={mapped:,}B"


def _approx_line(stats: SessionStats) -> str | None:
    """The approximate-kNN funnel, rendered once the planner has routed any
    batch through a defeatist kernel."""
    batch = stats.batch
    if not batch.approx_descents:
        return None
    per_query = batch.leaves_scanned / batch.approx_descents
    return (
        f"approx: descents={batch.approx_descents:,} "
        f"leaves-scanned={batch.leaves_scanned:,} ({per_query:.2f}/query) "
        f"recall-est>={batch.recall_estimate:.3f}"
    )


def _serving_line(stats: SessionStats | JoinStats) -> str | None:
    """The async serving-tier telemetry, rendered once an event-loop
    executor has attributed flushes to causes (or anything queued)."""
    triggers, high_water = stats.flush_triggers, stats.queue_high_water
    if not triggers and not high_water:
        return None
    causes = ",".join(
        f"{cause}:{count}" for cause, count in sorted(triggers.items())
    )
    return (
        f"serving: triggers={causes or '-'} "
        f"queue-high-water={high_water:,} "
        f"flush-wall={stats.flush_seconds:.3f}s"
    )


def query_session_report(session: QuerySession) -> str:
    """A formatted executor-mix + dedup summary for one query session."""
    stats = session.stats
    batch = stats.batch
    dedup_share = batch.deduplicated / batch.queries if batch.queries else 0.0
    header = (
        f"queries={batch.queries:,} submitted={stats.submitted:,} "
        f"flushes={stats.flushes:,} batches={batch.batches:,} "
        f"dedup={batch.deduplicated:,} ({dedup_share:.1%})"
    )
    spill = _spill_line(
        batch.tiles_spilled,
        batch.spill_bytes_written,
        batch.spill_bytes_read,
        batch.budget_high_water,
        batch.budget_chunks,
    )
    if spill is not None:
        header = f"{header}\n{spill}"
    mapped = _mapped_line(batch.zero_copy_reads, batch.mapped_bytes)
    if mapped is not None:
        header = f"{header}\n{mapped}"
    approx = _approx_line(stats)
    if approx is not None:
        header = f"{header}\n{approx}"
    serving = _serving_line(stats)
    if serving is not None:
        header = f"{header}\n{serving}"
    table = format_table(
        ["executor", "batches", "share %", "routing"],
        session_summary_rows(stats),
    )
    return f"{header}\n{table}"


def join_summary_rows(stats: JoinStats) -> list[list[object]]:
    """One row per join strategy: specs routed there, with routing bars."""
    return _routing_rows(stats.strategy_runs)


def join_report(session: JoinSession) -> str:
    """A formatted strategy-mix + filter-funnel summary.

    The funnel line is the paper's filter/refine split in numbers: candidate
    pairs out of the filter, exact refinements run on them, result pairs,
    and the box ``comparisons`` the strategies charged.
    """
    stats = session.stats
    header = (
        f"joins={stats.joins:,} candidates={stats.candidates:,} "
        f"refined={stats.refined:,} pairs={stats.pairs:,} "
        f"comparisons={stats.comparisons:,}"
    )
    spill = _spill_line(
        stats.tiles_spilled,
        stats.spill_bytes_written,
        stats.spill_bytes_read,
        stats.budget_high_water,
    )
    if spill is not None:
        header = f"{header}\n{spill}"
    mapped = _mapped_line(stats.zero_copy_reads, stats.mapped_bytes)
    if mapped is not None:
        header = f"{header}\n{mapped}"
    serving = _serving_line(stats)
    if serving is not None:
        header = f"{header}\n{serving}"
    strategy_table = format_table(
        ["strategy", "joins", "share %", "routing"],
        join_summary_rows(stats),
    )
    return f"{header}\n{strategy_table}"


def continuous_report(session: ContinuousSession) -> str:
    """Policy-routing + delta-volume + safe-region summary for one
    continuous session — the maintenance planner's answer sheet.

    The routing table counts per-tick policy decisions (``resync`` rows are
    post-fault recoveries through the recompute oracle); the safe-region
    line splits results that provably survived ticks untouched from those
    whose region was violated and re-evaluated.
    """
    stats = session.stats
    counters = session.counters
    header = (
        f"ticks={stats.ticks:,} subscriptions={len(session.subscriptions):,} "
        f"updates={stats.updates:,} deltas={stats.deltas:,} "
        f"(empty={stats.empty_deltas:,})"
    )
    volume = (
        f"delta volume: results +{stats.results_added:,}/-{stats.results_removed:,} "
        f"pairs +{stats.pairs_added:,}/-{stats.pairs_removed:,}"
    )
    checks = counters.safe_region_hits + counters.safe_region_invalidations
    hit_share = counters.safe_region_hits / checks if checks else 0.0
    safe = (
        f"safe regions: hits={counters.safe_region_hits:,} "
        f"invalidations={counters.safe_region_invalidations:,} "
        f"({hit_share:.1%} held)"
    )
    lines = [header, volume, safe]
    if stats.faults or stats.resyncs:
        lines.append(f"faults={stats.faults:,} resyncs={stats.resyncs:,}")
    table = format_table(
        ["policy", "evaluations", "share %", "routing"],
        _routing_rows(stats.policy_routes),
    )
    return "\n".join(lines) + f"\n{table}"


def session_report(session: QuerySession | JoinSession | ContinuousSession) -> str:
    """Routing telemetry for any session kind, dispatched on type."""
    if isinstance(session, JoinSession):
        return join_report(session)
    if isinstance(session, ContinuousSession):
        return continuous_report(session)
    return query_session_report(session)
