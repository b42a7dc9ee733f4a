"""The spatial-join subsystem: specs, planner, strategies, kernels.

Spatial joins dominate the paper's workloads — synapse detection (§2.2),
per-step collision self-joins, mesh intersection — and every algorithm it
surveys (§3.2/3.3/4.3) lives here behind one architecture, mirroring the
query side's session design:

``JoinSpec → JoinSession (planner) → JoinStrategy → kernels``

* **Specs** (:mod:`repro.joins.spec`) describe *what* to join:
  :class:`SelfJoinSpec`, :class:`PairJoinSpec`, :class:`DistanceJoinSpec`,
  :class:`SynapseJoinSpec` — first-class values with ids and tags.
* **The session** (:mod:`repro.joins.session`) plans and runs them:
  deferred :class:`JoinHandle` results, a size-based (and budget-aware)
  planner over the strategy registry, in-process execution of the planned
  strategy, vectorized refinement, shared :class:`JoinStats`.
* **Strategies** (:mod:`repro.joins.strategies`) are the algorithms, all
  registered in :data:`JOIN_REGISTRY` and all returning the exact
  nested-loop pair set: ``nested_loop``, ``block_nested``, ``sweepline``,
  ``grid``, ``pbsm``, ``tree``, ``touch``, ``tiny_cell`` (and the
  out-of-core ``pbsm_spill``).
* **Kernels** (:mod:`repro.joins.kernels`,
  :mod:`repro.geometry.refine`) are the NumPy hot paths: blocked all-pairs
  overlap, fully vectorized PBSM tiling, the carried-set STR-tree
  traversal (the batch-kNN pruning discipline with per-probe ε bounds),
  and array-wide capsule/box refinement.

:class:`IteratedSelfJoin` maintains a self-join under per-step motion
(Section 4.1's recompute-vs-incremental trade-off).
"""

from repro.joins.spec import (
    DistanceJoinSpec,
    JoinSpec,
    JoinStats,
    PairJoinSpec,
    SelfJoinSpec,
    Synapse,
    SynapseJoinSpec,
)
from repro.joins.strategies import (
    JOIN_REGISTRY,
    CallableJoin,
    JoinStrategy,
    available_join_strategies,
    make_join_strategy,
)
from repro.joins.session import JoinHandle, JoinPlan, JoinSession
from repro.joins.iterated import IteratedSelfJoin, PairDelta
from repro.joins.synapse import SynapseDetector

__all__ = [
    # the session architecture
    "JoinSession",
    "JoinHandle",
    "JoinPlan",
    "JoinSpec",
    "SelfJoinSpec",
    "PairJoinSpec",
    "DistanceJoinSpec",
    "SynapseJoinSpec",
    "JoinStats",
    "JoinStrategy",
    "JOIN_REGISTRY",
    "available_join_strategies",
    "make_join_strategy",
    "CallableJoin",
    # applications
    "Synapse",
    "SynapseDetector",
    "IteratedSelfJoin",
    "PairDelta",
]
