"""Query execution layer.

:mod:`repro.engine.session` is the public surface — declarative
:class:`QuerySession` with deferred :class:`ResultHandle` results and
pluggable executors that call the indexes' kernels directly (the sharded
executor's workers run :class:`BatchExecutor` too).  The session collapses
duplicate rows and counts executor work; ``session.stats.batch`` is the
:class:`BatchStats` read of that count.  :mod:`repro.engine.core` is the
handle, buffer and flush loop the query and join sessions share.
"""

from repro.engine.session import (
    BatchExecutor,
    BatchStats,
    Executor,
    InlineExecutor,
    KNNQuery,
    PointQuery,
    Query,
    QueryBatch,
    QueryBuffer,
    QuerySession,
    RangeQuery,
    ResultHandle,
    SessionStats,
    ShardedExecutor,
)

__all__ = [
    "BatchStats",
    "QuerySession",
    "QueryBuffer",
    "QueryBatch",
    "SessionStats",
    "Query",
    "RangeQuery",
    "KNNQuery",
    "PointQuery",
    "ResultHandle",
    "Executor",
    "InlineExecutor",
    "BatchExecutor",
    "ShardedExecutor",
]
