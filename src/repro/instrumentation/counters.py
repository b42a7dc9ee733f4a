"""Operation counters shared by every index, join and storage component.

Counters are plain integers bumped in hot loops; they are the ground truth
that the cost models interpret.  A counter object can be snapshotted and
diffed, so benchmarks measure exactly one phase (e.g. "the 200 queries" but
not the build).
"""

from __future__ import annotations

from dataclasses import dataclass, fields


@dataclass
class Counters:
    """Mutable tally of the primitive operations an index performs.

    Attributes map one-to-one to the paper's cost categories:

    * ``node_tests`` — MBR intersection tests against *inner tree nodes*
      ("Intersection Tests Tree" in Figure 3);
    * ``elem_tests`` — MBR intersection tests against *element bounding
      boxes* ("Intersection Tests Elements");
    * ``refine_tests`` — exact-geometry refinement tests (counted with
      element tests);
    * ``pointer_follows`` — child/bucket pointer dereferences ("Remaining
      Computation", together with heap and hash operations);
    * ``pages_read`` / ``pages_written`` — disk page transfers ("Reading
      Data" on disk);
    * ``bytes_touched`` — memory traffic over node/element payloads
      ("Reading Data" in memory, converted to cache lines);
    * ``cells_probed`` — grid cells visited;
    * ``hash_probes`` — hash-table probes (the mesh indexes' seed lookups);
    * ``heap_ops`` — kNN priority-queue pushes/pops;
    * ``comparisons`` — pairwise candidate comparisons in joins;
    * ``inserts`` / ``deletes`` / ``updates`` — index maintenance operations;
    * ``tiles_spilled`` / ``spill_bytes_written`` / ``spill_bytes_read`` —
      out-of-core execution: tile/partition arrays evicted to the spill
      store and the logical bytes shipped out and back
      (:mod:`repro.exec.spill`; page-granular transfers land in
      ``pages_read`` / ``pages_written`` as usual);
    * ``safe_region_hits`` / ``safe_region_invalidations`` — continuous-query
      maintenance (:mod:`repro.continuous`): standing results whose cached
      answer provably survived a tick versus those whose safe region was
      violated and had to be re-evaluated;
    * ``approx_descents`` / ``leaves_scanned`` — approximate kNN
      (:mod:`repro.approx`): queries answered by defeatist (no-backtrack)
      spill-tree descent, and the leaf buckets brute-forced to answer them;
    * ``zero_copy_reads`` / ``mapped_bytes`` — reads served as zero-copy
      NumPy views over an mmap-backed page store
      (:class:`~repro.storage.pagestore.MappedPageStore`) and the logical
      bytes those views exposed without a copy.
    """

    node_tests: int = 0
    elem_tests: int = 0
    refine_tests: int = 0
    pointer_follows: int = 0
    pages_read: int = 0
    pages_written: int = 0
    bytes_touched: int = 0
    cells_probed: int = 0
    hash_probes: int = 0
    heap_ops: int = 0
    comparisons: int = 0
    inserts: int = 0
    deletes: int = 0
    updates: int = 0
    tiles_spilled: int = 0
    spill_bytes_written: int = 0
    spill_bytes_read: int = 0
    safe_region_hits: int = 0
    safe_region_invalidations: int = 0
    approx_descents: int = 0
    leaves_scanned: int = 0
    zero_copy_reads: int = 0
    mapped_bytes: int = 0

    def reset(self) -> None:
        """Zero every counter in place."""
        for name in _NAMES:
            setattr(self, name, 0)

    def snapshot(self) -> "Counters":
        """An independent copy of the current tallies."""
        return Counters(**{name: getattr(self, name) for name in _NAMES})

    def diff(self, earlier: "Counters") -> "Counters":
        """Counters accumulated since ``earlier`` (a prior snapshot)."""
        return Counters(**{name: getattr(self, name) - getattr(earlier, name) for name in _NAMES})

    def __add__(self, other: "Counters") -> "Counters":
        """Both tallies summed field by field (``sum(diffs, Counters())``
        totals the work of several runs)."""
        return Counters(**{name: getattr(self, name) + getattr(other, name) for name in _NAMES})

    def total_intersection_tests(self) -> int:
        return self.node_tests + self.elem_tests + self.refine_tests

    def as_dict(self) -> dict[str, int]:
        return {name: getattr(self, name) for name in _NAMES}

    def __str__(self) -> str:
        parts = [f"{name}={value}" for name, value in self.as_dict().items() if value]
        return "Counters(" + ", ".join(parts) + ")"


#: The counter names, in field order: read once, not per snapshot or diff.
_NAMES = tuple(field.name for field in fields(Counters))
