"""Continuous queries over moving objects — submit once, stream deltas.

The paper's motivating workload (structural plasticity: neurons move while
range and synapse-join analyses run every step) is a *continuous* query
problem.  This package promotes it to a first-class scenario:

* spec values (:class:`ContinuousRangeQuery`, :class:`ContinuousKNNQuery`,
  :class:`ContinuousJoinSpec`) submitted once to a
  :class:`ContinuousSession`;
* exact per-tick :class:`Delta` streams (results-added / results-removed,
  pairs-added / pairs-removed) instead of full result sets;
* one :class:`~repro.core.uniform_grid.UniformGrid` per session as its
  state — its own, or the simulation's index it is handed — written once
  per tick before any policy reads it;
* routing *pin > heuristic*: unpinned specs go per tick, by observed churn,
  to full recompute (throwaway answers on the grid) or incremental
  maintenance (the iterated join's retract-and-reprobe trick, with per-spec
  safe regions, for all spec kinds).

See ``examples/continuous_monitoring.py`` and the "Continuous queries"
section of the README.
"""

from repro.continuous.policies import (
    POLICY_CLASSES,
    IncrementalPolicy,
    MaintenancePolicy,
    RecomputePolicy,
)
from repro.continuous.session import ContinuousSession, ContinuousStats, Subscription
from repro.continuous.spec import (
    ContinuousJoinSpec,
    ContinuousKNNQuery,
    ContinuousQuery,
    ContinuousRangeQuery,
    ContinuousSpec,
    Delete,
    Delta,
    Insert,
    TickBatch,
    delta_between,
    knn_ids,
    normalize_updates,
)

__all__ = [
    "ContinuousSession",
    "ContinuousStats",
    "Subscription",
    "ContinuousQuery",
    "ContinuousSpec",
    "ContinuousRangeQuery",
    "ContinuousKNNQuery",
    "ContinuousJoinSpec",
    "Insert",
    "Delete",
    "Delta",
    "TickBatch",
    "delta_between",
    "knn_ids",
    "normalize_updates",
    "MaintenancePolicy",
    "RecomputePolicy",
    "IncrementalPolicy",
    "POLICY_CLASSES",
]
