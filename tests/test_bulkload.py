"""STR bulk-loading properties."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.geometry.aabb import AABB
from repro.indexes.bulkload import tile_arrays
from repro.indexes.rtree import RTree

from conftest import make_items, tile_objects_recursive


def _collect(tree):
    """(item ids, max entries seen, leaf count) of a packed tree."""
    ids = []
    max_fill = 0
    leaves = 0
    stack = [tree._root]
    while stack:
        is_leaf, _, refs = tree._node_arrays(stack.pop())
        max_fill = max(max_fill, refs.shape[0])
        if is_leaf:
            leaves += 1
            ids.extend(refs.tolist())
        else:
            stack.extend(refs.tolist())
    return ids, max_fill, leaves


class TestStrBulkLoad:
    def test_single_item(self):
        tree = RTree(max_entries=8)
        tree.bulk_load(make_items(1))
        assert (tree.height, tree.node_count) == (1, 1)
        assert tree._node_arrays(tree._root)[0]  # the root is a leaf

    @settings(max_examples=30, deadline=None)
    @given(n=st.integers(1, 400), capacity=st.integers(4, 32), seed=st.integers(0, 99))
    def test_preserves_items_and_respects_capacity(self, n, capacity, seed):
        items = make_items(n, seed=seed)
        tree = RTree(max_entries=capacity)
        tree.bulk_load(items)
        ids, max_fill, leaves = _collect(tree)
        assert sorted(ids) == sorted(eid for eid, _ in items)
        assert max_fill <= capacity
        assert tree.height >= 1
        assert leaves <= tree.node_count

    @settings(max_examples=30, deadline=None)
    @given(n=st.integers(1, 200), capacity=st.integers(2, 9), seed=st.integers(0, 99))
    def test_tile_arrays_partitions_rows_within_capacity(self, n, capacity, seed):
        boxes = np.array([[box.lo, box.hi] for _, box in make_items(n, seed=seed)])
        order, bounds = tile_arrays(boxes, 0, capacity)
        assert sorted(order.tolist()) == list(range(n))
        sizes = np.diff(bounds)
        assert bounds[0] == 0 and bounds[-1] == n
        assert sizes.min() >= 1 and sizes.max() <= capacity

    def test_parent_boxes_cover_children(self):
        items = make_items(200, seed=4)
        tree = RTree(max_entries=8)
        tree.bulk_load(items)
        stack = [tree._root]
        while stack:
            is_leaf, boxes, refs = tree._node_arrays(stack.pop())
            if is_leaf:
                continue
            for entry_box, child in zip(boxes, refs.tolist()):
                child_boxes = tree._node_arrays(child)[1]
                assert (entry_box[0] <= child_boxes[:, 0].min(axis=0)).all()
                assert (entry_box[1] >= child_boxes[:, 1].max(axis=0)).all()
                stack.append(child)

    def test_near_minimal_height(self):
        """STR packs nodes full: height must be close to log_M(n)."""
        import math

        items = make_items(1000, seed=5)
        capacity = 10
        tree = RTree(max_entries=capacity)
        tree.bulk_load(items)
        minimal = math.ceil(math.log(1000, capacity))
        assert tree.height <= minimal + 1


class TestTileArrays:
    """``tile_arrays`` is the object tiler over a box array: the same
    groups, in the same order, with the same members in the same order —
    the array-native builders pack the object tiler's tree by construction."""

    @staticmethod
    def _object_groups(boxes, start_axis, max_entries):
        entries = [
            (AABB(lo, hi), row)
            for row, (lo, hi) in enumerate(zip(boxes[:, 0].tolist(), boxes[:, 1].tolist()))
        ]
        groups = []
        tile_objects_recursive(entries, start_axis, boxes.shape[2], max_entries, groups)
        return [[row for _, row in group] for group in groups]

    @staticmethod
    def _array_groups(boxes, start_axis, max_entries):
        order, bounds = tile_arrays(boxes, start_axis, max_entries)
        return [
            order[start:stop].tolist() for start, stop in zip(bounds, bounds[1:])
        ]

    @settings(max_examples=120, deadline=None)
    @given(
        dims=st.integers(1, 3),
        max_entries=st.integers(2, 9),
        multiple=st.integers(0, 12),
        offset=st.integers(-1, 1),
        coords=st.integers(1, 6),
        from_second_axis=st.booleans(),
        seed=st.integers(0, 10_000),
    )
    def test_group_for_group_equal_to_the_object_tiler(
        self, dims, max_entries, multiple, offset, coords, from_second_axis, seed
    ):
        # n sits at or one off a multiple of the capacity; a handful of
        # integer coordinates forces tied centres and duplicate boxes.
        n = max(1, multiple * max_entries + offset)
        rng = np.random.default_rng(seed)
        lo = rng.integers(0, coords, size=(n, dims)).astype(np.float64)
        hi = lo + rng.integers(0, 3, size=(n, dims))
        boxes = np.stack([lo, hi], axis=1)
        start_axis = min(1, dims - 1) if from_second_axis else 0
        assert self._array_groups(boxes, start_axis, max_entries) == (
            self._object_groups(boxes, start_axis, max_entries)
        )

    @pytest.mark.parametrize("dims", [1, 2, 3])
    def test_random_floats_full_scale_slabs(self, dims):
        rng = np.random.default_rng(dims)
        lo = rng.uniform(0.0, 100.0, size=(3000, dims))
        boxes = np.stack([lo, lo + rng.uniform(0.0, 2.0, size=(3000, dims))], axis=1)
        for start_axis in {0, min(1, dims - 1)}:
            assert self._array_groups(boxes, start_axis, 16) == (
                self._object_groups(boxes, start_axis, 16)
            )

    def test_empty_input_has_no_groups(self):
        order, bounds = tile_arrays(np.empty((0, 2, 3)), 0, 8)
        assert order.shape == (0,) and list(bounds) == [0]
