"""Approximate-kNN tier: the spill tree.

Exactness past recall ~0.9 is wasted work at serving scale; this package
adds the approximate tier behind the same ``SpatialIndex`` surface the
exact indexes share.  :class:`SpillTree` duplicates boundary points into
both children of every split (overlap fraction ``tau``) so a defeatist —
no-backtrack — descent still finds the neighbourhood, and the session
planner routes ``KNNQuery(accuracy=...)`` between the exact kernels and
the defeatist sweep using the tree's measured recall.
"""

from repro.approx.spill_tree import SpillTree

__all__ = ["SpillTree"]
