"""repro — spatial data management for the simulation sciences.

A full reproduction of the systems landscape of *Spatial Data Management
Challenges in the Simulation Sciences* (Heinis, Tauheed, Ailamaki — EDBT
2014): the surveyed indexes, the storage substrates behind the paper's
experiments, the simulation workloads that motivate them, and the paper's
proposed grid-based research direction as a working library.

Quick start::

    from repro import AABB, RTree, UniformGrid
    from repro.datasets import uniform_boxes

    items = uniform_boxes(n=10_000, universe=AABB((0, 0, 0), (100, 100, 100)), seed=1)
    index = UniformGrid()
    index.bulk_load(items)
    hits = index.range_query(AABB((10, 10, 10), (20, 20, 20)))

Analysis workloads issue queries by the million per simulation step; issue
those through a :class:`QuerySession` — the single public query surface over
every index.  Queries are first-class values with deferred results, and the
session's buffer flushes them through pluggable executors: a cost heuristic
routes each batch to the scalar or vectorized-kernel path unless the session
pins one — a sharded process pool, say (``executor=ShardedExecutor(...)``)::

    import numpy as np
    from repro import KNNQuery, QuerySession, RangeQuery

    session = QuerySession(index)

    # declarative: submit query values, read deferred handles (one flush)
    handle = session.submit(RangeQuery(AABB((10, 10, 10), (20, 20, 20))))
    nearest = session.submit(KNNQuery((50.0, 50.0, 50.0), k=8))
    ids, neighbours = handle.result(), nearest.result()

    # array-in / array-out: kernel-speed submission for analysis loops
    boxes = np.random.default_rng(0).uniform(0, 90, size=(10_000, 1, 3))
    boxes = np.concatenate([boxes, boxes + 10.0], axis=1)   # (m, 2, d)
    hit_lists = session.range_query(boxes)                  # one id list per box
    neighbours = session.knn(boxes[:, 0, :], k=8)           # (distance, id) lists
    stabs = session.point_query(boxes[:, 0, :])             # containment per point

Every index supports ``batch_range_query`` / ``batch_knn`` (a naive loop by
default); LinearScan, the grids and the R-tree family override them with
vectorized kernels, and ``supports_batch_kind()`` reports which.  The
session's executors call those kernels directly and only answer; the
session collapses duplicate queries and counts the work (``stats.batch``)
itself.  See ``examples/query_session.py`` for deferred handles and
sharded execution, and ``examples/batch_analysis.py`` for a full batched
synapse-style analysis.  ``INDEX_REGISTRY`` / ``make_index`` enumerate every
shipped index by name.

Spatial joins get the same treatment: describe the join as a spec and
submit it through a :class:`JoinSession`, whose planner routes it to one of
the registered strategies (``JOIN_REGISTRY`` — nested loop, plane sweep,
PBSM, grid, STR-tree traversal, TOUCH, tiny-cell; all returning the exact
nested-loop pair set) unless the session or the spec pins one.  Both
sessions share one deferred handle and one flush loop
(:mod:`repro.engine.core`)::

    from repro import JoinSession, SelfJoinSpec, SynapseJoinSpec

    session = JoinSession()
    pairs = session.run(SelfJoinSpec(items))             # collision self-join
    synapses = session.run(SynapseJoinSpec(dataset, epsilon=0.05))
    pinned = session.run(SelfJoinSpec(items), strategy="pbsm")

Specs take ``(eid, AABB)`` items or a :class:`BoxTable` (``from_arrays`` for
callers already holding arrays); either is packed and checked exactly once.

See ``examples/join_session.py`` for the planner, deferred handles, the
out-of-core spill route and the telemetry report.

For concurrent clients, the serving tier puts both sessions behind the
event loop: a :class:`ServingSession` batches awaitable requests under a
:class:`FlushPolicy`, executes query shards on a persistent shared-memory
:class:`WorkerPool` (indexes cross the process boundary once, as
snapshots — not once per flush) and runs joins in-process off the loop::

    async with ServingSession(index) as serving:
        ids = await serving.range_query(AABB((10, 10, 10), (20, 20, 20)))
        nearest = await serving.knn((50.0, 50.0, 50.0), k=8)
        pairs = await serving.join(SelfJoinSpec(items))

See ``examples/serving.py`` for N concurrent clients over one pool.

Moving datasets — the paper's structural-plasticity workload — get
*continuous* queries: submit a spec once to a :class:`ContinuousSession` and
each ``tick(updates)`` yields an exact delta (results added / removed, pairs
added / dissolved), routed per tick by observed churn between full recompute
and incremental safe-region maintenance, both on the session's one grid (a
simulation's session shares the simulation's grid)::

    from repro import ContinuousSession, ContinuousRangeQuery, ContinuousJoinSpec

    session = ContinuousSession(items, universe)
    region = session.subscribe(ContinuousRangeQuery(box))
    contacts = session.subscribe(ContinuousJoinSpec(epsilon=0.05))
    deltas = session.tick(moves)        # {cqid: Delta(added=…, removed=…)}

See ``examples/continuous_monitoring.py``.
"""

from repro.geometry import AABB, BoxTable, Capsule, Point, Segment, Sphere
from repro.instrumentation import Counters, DiskCostModel, MemoryCostModel, TimeBreakdown
from repro.indexes import (
    CRTree,
    DiskRTree,
    KDTree,
    LinearScan,
    LooseOctree,
    Octree,
    QuadTree,
    RPlusTree,
    RStarTree,
    RTree,
    SpatialIndex,
)
from repro.core import (
    GridCostModel,
    MaintenanceCosts,
    MultiResolutionGrid,
    UniformGrid,
    optimal_cell_size,
)
from repro.engine import (
    BatchExecutor,
    BatchStats,
    InlineExecutor,
    KNNQuery,
    PointQuery,
    Query,
    QuerySession,
    RangeQuery,
    ResultHandle,
    SessionStats,
    ShardedExecutor,
)
from repro.registry import INDEX_REGISTRY, available_indexes, make_index
from repro.joins import (
    DistanceJoinSpec,
    JOIN_REGISTRY,
    JoinSession,
    JoinStats,
    JoinStrategy,
    PairJoinSpec,
    SelfJoinSpec,
    Synapse,
    SynapseDetector,
    SynapseJoinSpec,
    available_join_strategies,
    make_join_strategy,
)
from repro.exec import (
    MemoryBudget,
    SpillManager,
    external_bulk_load,
    pbsm_working_set_bytes,
)
from repro.serving import (
    AsyncExecutor,
    FlushPolicy,
    ServingSession,
    WorkerPool,
    default_pool,
    shutdown_default_pool,
)
from repro.continuous import (
    ContinuousJoinSpec,
    ContinuousKNNQuery,
    ContinuousRangeQuery,
    ContinuousSession,
    ContinuousStats,
    Delete,
    Delta,
    Insert,
    Subscription,
)
from repro.approx import SpillTree
from repro.moving import BottomUpRTree, BufferedRTree, LURTree, TPRIndex
from repro.mesh import DLS, FLAT, Mesh, Octopus
from repro.sim import TimeSteppedSimulation
from repro.obs import (
    MetricsRegistry,
    Tracer,
    disable_tracing,
    enable_tracing,
    get_tracer,
    global_registry,
    render_json,
    render_prometheus,
    span,
    tracing_enabled,
)

__version__ = "1.0.0"

__all__ = [
    "AABB",
    "BoxTable",
    "Point",
    "Sphere",
    "Segment",
    "Capsule",
    "Counters",
    "DiskCostModel",
    "MemoryCostModel",
    "TimeBreakdown",
    "SpatialIndex",
    "QuerySession",
    "SessionStats",
    "Query",
    "RangeQuery",
    "KNNQuery",
    "PointQuery",
    "ResultHandle",
    "InlineExecutor",
    "BatchExecutor",
    "ShardedExecutor",
    "BatchStats",
    "INDEX_REGISTRY",
    "available_indexes",
    "make_index",
    "JoinSession",
    "SelfJoinSpec",
    "PairJoinSpec",
    "DistanceJoinSpec",
    "SynapseJoinSpec",
    "JoinStats",
    "JoinStrategy",
    "JOIN_REGISTRY",
    "available_join_strategies",
    "make_join_strategy",
    "Synapse",
    "SynapseDetector",
    "ContinuousSession",
    "ContinuousStats",
    "ContinuousRangeQuery",
    "ContinuousKNNQuery",
    "ContinuousJoinSpec",
    "Subscription",
    "Delta",
    "Insert",
    "Delete",
    "AsyncExecutor",
    "FlushPolicy",
    "ServingSession",
    "WorkerPool",
    "default_pool",
    "shutdown_default_pool",
    "MemoryBudget",
    "SpillManager",
    "external_bulk_load",
    "pbsm_working_set_bytes",
    "LinearScan",
    "RTree",
    "RStarTree",
    "RPlusTree",
    "DiskRTree",
    "CRTree",
    "KDTree",
    "QuadTree",
    "Octree",
    "LooseOctree",
    "UniformGrid",
    "MultiResolutionGrid",
    "GridCostModel",
    "optimal_cell_size",
    "MaintenanceCosts",
    "SpillTree",
    "LURTree",
    "BufferedRTree",
    "BottomUpRTree",
    "TPRIndex",
    "Mesh",
    "DLS",
    "Octopus",
    "FLAT",
    "TimeSteppedSimulation",
    "MetricsRegistry",
    "Tracer",
    "disable_tracing",
    "enable_tracing",
    "get_tracer",
    "global_registry",
    "render_json",
    "render_prometheus",
    "span",
    "tracing_enabled",
    "__version__",
]
