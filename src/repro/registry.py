"""The curated index registry: name → class for every shipped index.

Examples, benchmarks and tests used to deep-import module paths
(``from repro.core.uniform_grid import UniformGrid``) to enumerate the
library; the registry gives them one stable surface::

    from repro import INDEX_REGISTRY, make_index

    for name in available_indexes():
        index = make_index(name)
        index.bulk_load(items)

Keys are short kebab-free snake_case names; values are the classes
themselves, so ``INDEX_REGISTRY["rtree"](max_entries=32)`` and
``make_index("rtree", max_entries=32)`` are equivalent.
"""

from __future__ import annotations

from repro.approx.spill_tree import SpillTree
from repro.core.multires_grid import MultiResolutionGrid
from repro.core.uniform_grid import UniformGrid
from repro.indexes.base import SpatialIndex
from repro.indexes.crtree import CRTree
from repro.indexes.disk_rtree import DiskRTree
from repro.indexes.kdtree import KDTree
from repro.indexes.linear_scan import LinearScan
from repro.indexes.loose_octree import LooseOctree
from repro.indexes.octree import Octree
from repro.indexes.quadtree import QuadTree
from repro.indexes.rplus import RPlusTree
from repro.indexes.rstar import RStarTree
from repro.indexes.rtree import RTree

INDEX_REGISTRY: dict[str, type[SpatialIndex]] = {
    "linear_scan": LinearScan,
    "rtree": RTree,
    "rstar": RStarTree,
    "rplus": RPlusTree,
    "disk_rtree": DiskRTree,
    "crtree": CRTree,
    "kdtree": KDTree,
    "quadtree": QuadTree,
    "octree": Octree,
    "loose_octree": LooseOctree,
    "uniform_grid": UniformGrid,
    "multires_grid": MultiResolutionGrid,
    "spill_tree": SpillTree,
}


def available_indexes() -> list[str]:
    """Registered index names, in registry order."""
    return list(INDEX_REGISTRY)


def make_index(name: str, **kwargs) -> SpatialIndex:
    """Instantiate a registered index by name.

    ``kwargs`` are forwarded to the class constructor.  Unknown names raise
    ``KeyError`` listing the registry, so typos fail loudly.
    """
    try:
        cls = INDEX_REGISTRY[name]
    except KeyError:
        raise KeyError(
            f"unknown index {name!r}; available: {', '.join(INDEX_REGISTRY)}"
        ) from None
    return cls(**kwargs)
