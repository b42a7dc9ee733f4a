"""Self-joins enumerate each unordered pair once.

* the grid join's self path (:func:`repro.joins.kernels.grid_self_pairs`):
  each cell's entries meet each other once (``i < j``) under the
  first-common-cell rule, in bounded slabs — pinned against the scalar
  nested loop on hostile box sets, in 1-4 dims, at any slab cap;
* :meth:`BoxTable.rows_of` is the identity on a ``0..n-1`` table and the
  ``searchsorted`` lookup on any other;
* :func:`repro.joins.session.pair_list` sorts one int64 key where the ids
  allow and two with ``lexsort`` otherwise — the same list either way.
"""

from __future__ import annotations

import functools
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.datasets.neuroscience import generate_neurons
from repro.geometry.aabb import AABB
from repro.geometry.table import BoxTable
from repro.instrumentation.counters import Counters
from repro.joins import (
    DistanceJoinSpec,
    JoinSession,
    SelfJoinSpec,
    SynapseJoinSpec,
    kernels,
    make_join_strategy,
)
from repro.joins.session import pair_list


@st.composite
def box_sets(draw):
    """0-60 boxes in 1-4 dims on a half-unit lattice around the origin:
    duplicates, zero-extent boxes and boxes touching at a face are common,
    and the ids are a shuffled range shifted below zero."""
    dims = draw(st.integers(1, 4))
    n = draw(st.integers(0, 60))
    corner = st.lists(st.integers(-6, 6), min_size=dims, max_size=dims)
    extent = st.lists(st.integers(0, 3), min_size=dims, max_size=dims)
    boxes = [
        AABB([c * 0.5 for c in lo], [(c + e) * 0.5 for c, e in zip(lo, ext)])
        for lo, ext in zip(
            draw(st.lists(corner, min_size=n, max_size=n)),
            draw(st.lists(extent, min_size=n, max_size=n)),
        )
    ]
    if boxes:
        repeats = draw(st.lists(st.integers(0, n - 1), max_size=8))
        boxes += [boxes[i] for i in repeats]
    ids = draw(st.permutations(range(len(boxes))))
    return [(3 * eid - 40, box) for eid, box in zip(ids, boxes)]


def _at_slab_cap(cap):
    return mock.patch.object(
        kernels, "grid_self_pairs", functools.partial(kernels.grid_self_pairs, slab_pairs=cap)
    )


class TestGridSelfPairs:
    @settings(max_examples=150, deadline=None)
    @given(box_sets(), st.sampled_from([0.0, 0.5, 1.25]), st.sampled_from([1, 3, 64]))
    def test_equals_the_nested_loop(self, items, epsilon, cap):
        nested = make_join_strategy("nested_loop")
        want_self = pair_list(nested.self_join(items, Counters()))
        want_distance = pair_list(nested.distance_candidates(items, None, epsilon, Counters()))
        runs = []
        for slab in (cap, kernels._SLAB_PAIRS):
            counters = Counters()
            with _at_slab_cap(slab):
                grid = make_join_strategy("grid")
                got_self = grid.self_join(items, counters)
                got_distance = grid.distance_candidates(items, None, epsilon, counters)
            assert pair_list(got_self) == want_self
            assert pair_list(got_distance) == want_distance
            runs.append((pair_list(got_self), counters.comparisons, counters.cells_probed))
        # The slab cut changes neither what is tested nor what is found.
        assert runs[0] == runs[1]
        n = len(items)
        assert runs[0][1] <= n * (n - 1)  # each unordered pair once per call

    def test_identical_boxes_enumerate_in_bounded_slabs(self, monkeypatch):
        # 200 copies of one box: every window covers every cell, and all
        # 19 900 pairs meet in each of them.
        items = [(eid, AABB((0.0, 0.0, 0.0), (1.0, 1.0, 1.0))) for eid in range(200)]
        tested = []
        real = kernels._overlapping
        monkeypatch.setattr(
            kernels, "_overlapping",
            lambda cols_a, ai, *rest: tested.append(len(ai)) or real(cols_a, ai, *rest),
        )
        counters = Counters()
        with _at_slab_cap(5_000):
            pairs = make_join_strategy("grid").self_join(items, counters)
        assert pair_list(pairs) == [(a, b) for a in range(200) for b in range(a + 1, 200)]
        assert counters.comparisons == 200 * 199 // 2
        # A slab is cut per left entry: at most the cap plus one entry's partners.
        assert len(tested) > 1 and max(tested) <= 5_000 + 199

    def test_counts_the_occupied_cells(self):
        table = BoxTable.from_items([(0, AABB((0.0, 0.0), (1.0, 1.0))),
                                     (1, AABB((9.0, 9.0), (10.0, 10.0)))])
        counters = Counters()
        pairs = make_join_strategy("grid", cell_size=1.0).self_join(table, counters)
        assert pair_list(pairs) == [] and counters.comparisons == 0
        assert counters.cells_probed == 8  # two boxes on cell corners, 2x2 cells each


class TestSessionSelfJoins:
    """Every self-join spec answers the same through the grid's self path as
    through the blocked nested loop, candidates and pairs alike."""

    @pytest.fixture(scope="class")
    def dataset(self):
        return generate_neurons(20, 30, seed=7)

    @pytest.mark.parametrize(
        "make",
        [
            pytest.param(lambda ds: DistanceJoinSpec(ds.items, None, 0.5), id="distance"),
            pytest.param(lambda ds: SelfJoinSpec(ds.items), id="self"),
            pytest.param(lambda ds: SynapseJoinSpec(ds, epsilon=0.5), id="synapse"),
        ],
    )
    def test_grid_equals_block_nested(self, dataset, make):
        answers = []
        for name in ("grid", "block_nested"):
            with JoinSession(strategy=name) as session:
                result = session.run(make(dataset))
                answers.append((result, session.stats.candidates, session.stats.pairs))
        assert answers[0] == answers[1] and answers[0][0]


class TestRowsOf:
    @staticmethod
    def searchsorted_rows(eids, ids):
        order = np.argsort(eids, kind="stable")
        return order[np.searchsorted(eids, ids, sorter=order)]

    @pytest.mark.parametrize(
        "make_eids",
        [
            pytest.param(lambda n, rng: np.arange(n), id="identity"),
            pytest.param(lambda n, rng: rng.permutation(n), id="permuted"),
            pytest.param(lambda n, rng: np.arange(n) + 5, id="offset"),
            pytest.param(lambda n, rng: np.arange(n)[::-1].copy(), id="reversed"),
        ],
    )
    def test_matches_the_searchsorted_lookup(self, make_eids):
        rng = np.random.default_rng(3)
        eids = make_eids(50, rng)
        table = BoxTable.from_arrays(eids, np.zeros((50, 2, 2)))
        ids = rng.choice(eids, size=200)
        for _ in range(2):  # the identity verdict is cached between calls
            assert np.array_equal(table.rows_of(ids), self.searchsorted_rows(eids, ids))
        assert np.array_equal(table.rows_of(ids[:0]), np.empty(0, dtype=np.int64))

    def test_a_slice_of_an_identity_table_is_looked_up(self):
        table = BoxTable.from_arrays(np.arange(20), np.zeros((20, 2, 1)))
        tail = table[5:]
        assert np.array_equal(tail.rows_of(np.array([5, 19, 7])), [0, 14, 2])


class TestPairList:
    @staticmethod
    def reference(pairs):
        return sorted(map(tuple, np.asarray(pairs, dtype=np.int64).reshape(-1, 2).tolist()))

    @settings(max_examples=150, deadline=None)
    @given(
        st.sampled_from([(0, 50), (0, 2**33), (-2**40, 2**40), (2**31 - 3, 2**31 + 3)]),
        st.data(),
    )
    def test_one_key_sort_equals_lexsort(self, bounds, data):
        ids = st.integers(*bounds)
        pairs = data.draw(st.lists(st.tuples(ids, ids), max_size=40))
        got = pair_list(pairs)
        assert got == self.reference(pairs)
        assert all(type(a) is int and type(b) is int for a, b in got)

    @pytest.mark.parametrize(
        "pairs",
        [
            pytest.param([(2**62, 1), (2**62, 0), (0, 1)], id="key-overflows"),
            pytest.param([(1, 2**63 - 1), (0, 2**63 - 1), (1, 0)], id="b-at-int64-max"),
            pytest.param([(3, -1), (3, 2), (-5, 0)], id="negative-b"),
            pytest.param([(2**32, 2**31), (2**31, 2**32), (2**31, 2**31)], id="past-int32"),
            pytest.param([], id="empty"),
        ],
    )
    def test_edges_of_the_one_key_path(self, pairs):
        assert pair_list(pairs) == self.reference(pairs)
        assert pair_list(np.asarray(pairs, dtype=np.int64).reshape(-1, 2)) == self.reference(pairs)
