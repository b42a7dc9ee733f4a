"""Out-of-core execution: memory governor, spill files, external pipelines.

The paper's datasets "exceed the memory of a single machine by definition",
yet until this subsystem every join strategy and bulk load materialized its
full working set in RAM.  ``repro.exec`` closes that gap with four pieces:

* :class:`~repro.exec.budget.MemoryBudget` — a per-session byte budget with
  reserve/release accounting and high-water telemetry; the query and join
  planners consult it when routing;
* :class:`~repro.exec.spill.SpillManager` — typed NumPy spill files written
  as pages through the real on-disk
  :class:`~repro.storage.pagestore.MappedPageStore`, with explicit
  lifecycle (tmpdir per manager, cleanup on session close and on error
  paths); contiguous reads come back as zero-copy mmap views, fragmented
  ones through a bounded :class:`~repro.storage.buffer_pool.BufferPool`;
* the **external PBSM** join (:mod:`repro.exec.external_join`, registry name
  ``pbsm_spill``) — partitions both inputs into tile runs, spills runs
  exceeding the budget, and streams them back through the vectorized merge
  kernel, returning the exact nested-loop pair set;
* the **chunked external STR bulk load**
  (:mod:`repro.exec.external_build`) — sort-spills entry runs and merges
  them into leaves so ``RTree``/``DiskRTree`` builds never hold more than
  the budget, and refuses non-finite boxes chunk by chunk.

``repro.exec.external_join`` is imported by :mod:`repro.joins.session` (not
here) to keep the package import-cycle-free; constructing a ``JoinSession``
— or importing ``repro`` — registers ``pbsm_spill``.
"""

from repro.exec.budget import (
    BudgetExceeded,
    MemoryBudget,
    pbsm_working_set_bytes,
    str_build_working_set_bytes,
)
from repro.exec.external_build import (
    external_bulk_load,
    external_leaf_arrays,
    external_leaf_groups,
)
from repro.exec.spill import SpillHandle, SpillManager

__all__ = [
    "BudgetExceeded",
    "MemoryBudget",
    "SpillHandle",
    "SpillManager",
    "external_bulk_load",
    "external_leaf_arrays",
    "external_leaf_groups",
    "pbsm_working_set_bytes",
    "str_build_working_set_bytes",
]
