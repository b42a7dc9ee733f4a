"""The serving tier: event-loop front ends over a persistent worker pool.

The paper's motivating workload — neuroscientists interactively probing an
indexed brain model — is a *serving* problem: many concurrent range / kNN /
join requests against a shared index, not one scripted batch.  The session
layer (PRs 3-5) already decouples submission from execution; this package
adds the two missing pieces:

* :class:`~repro.serving.pool.WorkerPool` — a **long-lived** process pool
  whose workers attach :class:`~repro.core.uniform_grid.UniformGrid`
  snapshots through ``multiprocessing.shared_memory``.  A snapshot is
  exported exactly once per (grid, pool); after that, only probe arrays
  and result id arrays cross process boundaries.  It is the only place the
  library starts processes, and only query shards on a grid go there:
  ``ShardedExecutor`` routes through it and runs in-process whatever it
  cannot take, every other index included.  Joins run
  in-process, off the event loop on a worker thread.
* :class:`~repro.serving.async_executor.AsyncExecutor` — an event-loop
  flush policy over one :class:`~repro.engine.QuerySession` or
  :class:`~repro.joins.session.JoinSession`: batch under load, flush on
  submit when the loop goes idle, and never hold a request past the
  latency budget — and never make one wait behind a batch-sized array
  bound for the pool, which flushes on its own.  Handles become
  ``await``-able.

:class:`~repro.serving.async_executor.ServingSession` bundles both into the
"heavy traffic" front door used by the performance ledger's ``serve_mixed``
workload and ``examples/serving.py``.
"""

from repro.serving.async_executor import AsyncExecutor, FlushPolicy, ServingSession
from repro.serving.pool import WorkerPool, default_pool, shutdown_default_pool

__all__ = [
    "AsyncExecutor",
    "FlushPolicy",
    "ServingSession",
    "WorkerPool",
    "default_pool",
    "shutdown_default_pool",
]
