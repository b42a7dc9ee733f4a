"""Join strategy classes: property tests against the nested-loop oracle.

The deep oracle suite for the subsystem lives in ``test_join_session.py``;
this file keeps the original property coverage running against the strategy
classes directly: random-seed hypothesis sweeps, the tiny-cell shortcut and
comparison budgets.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.datasets.points import clustered_boxes, uniform_boxes
from repro.geometry.aabb import AABB
from repro.instrumentation.counters import Counters
from repro.joins.session import _sorted_columns, pair_list
from repro.joins.strategies import (
    GridJoin,
    NestedLoopJoin,
    PBSMJoin,
    SweeplineJoin,
    TinyCellJoin,
    TouchJoin,
    make_join_strategy,
)

from conftest import UNIVERSE_3D

ORACLE = NestedLoopJoin()
STRATEGIES = [SweeplineJoin, PBSMJoin, TouchJoin, GridJoin]


def _datasets(seed_a=1, seed_b=2, n_a=150, n_b=120):
    a = uniform_boxes(n_a, UNIVERSE_3D, 0.5, 5.0, seed=seed_a)
    b = [(eid + 10_000, box) for eid, box in uniform_boxes(n_b, UNIVERSE_3D, 0.5, 5.0, seed=seed_b)]
    return a, b


class TestBinaryJoins:
    @pytest.mark.parametrize("strategy_cls", STRATEGIES)
    def test_matches_oracle_uniform(self, strategy_cls):
        a, b = _datasets()
        expected = sorted(ORACLE.join(a, b, Counters()))
        assert pair_list(strategy_cls().join(a, b, Counters())) == expected

    @pytest.mark.parametrize("strategy_cls", STRATEGIES)
    def test_elongated_elements(self, strategy_cls):
        """Narrow elements (the Figure 4 shape) must not break dedup."""
        a = clustered_boxes(60, UNIVERSE_3D, elongation=20.0, seed=5)
        b = [(eid + 10_000, box) for eid, box in clustered_boxes(60, UNIVERSE_3D, elongation=20.0, seed=6)]
        expected = sorted(ORACLE.join(a, b, Counters()))
        assert pair_list(strategy_cls().join(a, b, Counters())) == expected

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 10_000), st.integers(0, 10_000))
    def test_property_random_seeds(self, seed_a, seed_b):
        a = uniform_boxes(40, UNIVERSE_3D, 0.5, 8.0, seed=seed_a)
        b = [(eid + 10_000, box) for eid, box in uniform_boxes(35, UNIVERSE_3D, 0.5, 8.0, seed=seed_b)]
        expected = sorted(ORACLE.join(a, b, Counters()))
        for strategy_cls in STRATEGIES:
            assert pair_list(strategy_cls().join(a, b, Counters())) == expected

    def test_comparison_counts_below_nested_loop(self):
        a, b = _datasets(n_a=300, n_b=300)
        nested = Counters()
        ORACLE.join(a, b, nested)
        for name in ("pbsm", "grid"):
            counters = Counters()
            make_join_strategy(name).join(a, b, counters)
            assert counters.comparisons < nested.comparisons / 5


class TestSelfJoins:
    def test_self_join_id_ordering(self):
        items = uniform_boxes(80, UNIVERSE_3D, 1.0, 8.0, seed=7)
        pairs = ORACLE.self_join(items, Counters())
        assert all(a < b for a, b in pairs)

    def test_tiny_cell_matches_oracle(self):
        items = uniform_boxes(150, UNIVERSE_3D, 1.0, 4.0, seed=8)
        expected = sorted(ORACLE.self_join(items, Counters()))
        assert sorted(TinyCellJoin().self_join(items, Counters())) == expected

    def test_tiny_cell_shortcut_skips_tests(self):
        """Same-cell pairs are emitted with ZERO intersection tests."""
        # All boxes are large and tightly clustered: every centre lands in
        # the same (sub-minimum-extent) cell, so every pair is a same-cell
        # pair and the 'intersect by definition' shortcut applies.
        rng = np.random.default_rng(9)
        items = []
        for eid in range(40):
            lo = rng.uniform(0, 0.5, 3)
            items.append((eid, AABB(lo, lo + 5.0)))
        counters = Counters()
        pairs = TinyCellJoin().self_join(items, counters)
        assert sorted(pairs) == sorted(ORACLE.self_join(items, Counters()))
        assert len(pairs) == (40 * 39) // 2
        assert counters.comparisons == 0

    def test_tiny_cell_with_point_elements_falls_back(self):
        rng = np.random.default_rng(10)
        items = [(eid, AABB.from_point(rng.uniform(0, 5, 3))) for eid in range(40)]
        expected = sorted(ORACLE.self_join(items, Counters()))
        assert sorted(TinyCellJoin().self_join(items, Counters())) == expected

    def test_tiny_cell_explicit_cell_size(self):
        items = uniform_boxes(100, UNIVERSE_3D, 1.0, 4.0, seed=11)
        got = TinyCellJoin(cell_size=2.0).self_join(items, Counters())
        assert sorted(got) == sorted(ORACLE.self_join(items, Counters()))


class TestPairOrder:
    @pytest.mark.parametrize("low", [0, -50, 2**40], ids=["one-key", "negative", "wide"])
    @pytest.mark.parametrize("unique", [False, True], ids=["sort", "unique"])
    def test_sorted_columns_match_numpy(self, low, unique):
        """The one-key path and the two-key fallback order (and dedup) pairs
        as numpy's row-wise sort and unique do."""
        pairs = np.random.default_rng(4).integers(low, low + 50, size=(400, 2))
        a, b = _sorted_columns(pairs, unique=unique)
        if unique:
            expected = np.unique(pairs, axis=0)
        else:
            expected = pairs[np.lexsort((pairs[:, 1], pairs[:, 0]))]
        assert np.array_equal(np.stack([a, b], axis=1), expected)
