"""Spatial indexes surveyed by the paper, implemented from scratch.

All indexes share the :class:`~repro.indexes.base.SpatialIndex` interface and
charge their primitive operations to a
:class:`~repro.instrumentation.Counters` object, so the benchmark harness can
reproduce the paper's time-breakdown figures from any of them.

Contents:

* :class:`~repro.indexes.linear_scan.LinearScan` — the no-index baseline of
  Section 4 ("using no index, i.e., a linear scan over the dataset, may be
  faster").
* :class:`~repro.indexes.rtree.RTree` — Guttman's dynamic R-tree (quadratic
  split) over binary node records, plus STR bulk loading.
* :class:`~repro.indexes.rstar.RStarTree` — the R*-tree with forced
  reinsertion and margin-driven splits.
* :class:`~repro.indexes.disk_rtree.DiskRTree` — the same tree with its
  node records in the simulated page store behind an LRU buffer pool.
* :class:`~repro.indexes.crtree.CRTree` — the cache-conscious R-tree with
  quantized relative MBRs and cache-line-multiple nodes: ``RTree``'s
  record plus a quantized entry block, with ``RTree``'s maintenance.
* :class:`~repro.indexes.kdtree.KDTree` — point access method.
* :class:`~repro.indexes.region_tree.RegionTree` — the one
  space-partitioning tree with leaf-level replication of volumetric
  elements, with two cut rules:

  * :class:`~repro.indexes.quadtree.QuadTree` /
    :class:`~repro.indexes.octree.Octree` cut a region into 2^d equal
    children;
  * :class:`~repro.indexes.rplus.RPlusTree` — the R+-tree — cuts it in two
    at the median lower bound on its widest axis.
* :class:`~repro.indexes.loose_octree.LooseOctree` — replication-free variant
  with enlarged (loose) cells.
"""

from repro.indexes.base import Item, KNNResult, SpatialIndex
from repro.indexes.linear_scan import LinearScan
from repro.indexes.rtree import RTree
from repro.indexes.rstar import RStarTree
from repro.indexes.disk_rtree import DiskRTree
from repro.indexes.crtree import CRTree
from repro.indexes.kdtree import KDTree
from repro.indexes.quadtree import QuadTree
from repro.indexes.octree import Octree
from repro.indexes.loose_octree import LooseOctree
from repro.indexes.rplus import RPlusTree

__all__ = [
    "Item",
    "KNNResult",
    "SpatialIndex",
    "LinearScan",
    "RTree",
    "RStarTree",
    "DiskRTree",
    "CRTree",
    "KDTree",
    "QuadTree",
    "Octree",
    "LooseOctree",
    "RPlusTree",
]
