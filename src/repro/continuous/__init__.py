"""Continuous queries over moving objects — submit once, stream deltas.

The paper's motivating workload (structural plasticity: neurons move while
range and synapse-join analyses run every step) is a *continuous* query
problem.  This package promotes it to a first-class scenario:

* spec values (:class:`ContinuousRangeQuery`, :class:`ContinuousKNNQuery`,
  :class:`ContinuousJoinSpec`) submitted once to a
  :class:`ContinuousSession`;
* exact per-tick :class:`Delta` streams (results-added / results-removed,
  pairs-added / pairs-removed) instead of full result sets;
* routing *pin > heuristic*: unpinned specs go per tick, by observed churn,
  to full recompute (throwaway rebuild) or incremental maintenance (the
  iterated join's retract-and-reprobe trick, with per-spec safe regions,
  for all spec kinds); predictive evaluation on a TPR-tree
  backing is a pin-only third policy, measured slower at every churn level.

See ``examples/continuous_monitoring.py`` and the "Continuous queries"
section of the README.
"""

from repro.continuous.policies import (
    POLICY_CLASSES,
    IncrementalPolicy,
    MaintenancePolicy,
    PredictivePolicy,
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
    "PredictivePolicy",
    "POLICY_CLASSES",
]
