"""Dataset generators: determinism, bounds, paper-matching statistics."""

import math

import numpy as np
import pytest

from repro.datasets.neuroscience import generate_neurons
from repro.datasets.points import (
    clustered_boxes,
    gaussian_cluster_points,
    uniform_boxes,
    uniform_points,
)
from repro.datasets.queries import (
    random_range_queries,
    range_queries_for_selectivity,
    selectivity_to_extent,
)
from repro.datasets.trajectories import (
    BrownianMotion,
    LinearMotion,
    PlasticityMotion,
    apply_moves,
    displacement_stats,
)
from repro.geometry.aabb import AABB

from conftest import UNIVERSE_3D


class TestPointGenerators:
    def test_uniform_points_inside(self):
        for _, box in uniform_points(200, UNIVERSE_3D, seed=1):
            assert UNIVERSE_3D.contains_box(box)
            assert box.is_degenerate()

    def test_uniform_boxes_inside_with_extents(self):
        for _, box in uniform_boxes(200, UNIVERSE_3D, 0.5, 3.0, seed=2):
            assert UNIVERSE_3D.contains_box(box)

    def test_deterministic(self):
        a = uniform_boxes(50, UNIVERSE_3D, seed=3)
        b = uniform_boxes(50, UNIVERSE_3D, seed=3)
        assert a == b
        c = uniform_boxes(50, UNIVERSE_3D, seed=4)
        assert a != c

    def test_clusters_are_clustered(self):
        clustered = gaussian_cluster_points(2000, UNIVERSE_3D, clusters=3, seed=5)
        uniform = uniform_points(2000, UNIVERSE_3D, seed=5)

        def mean_nn_gap(items):
            coords = np.asarray([box.lo for _, box in items])
            sample = coords[:100]
            gaps = []
            for point in sample:
                dists = np.linalg.norm(coords - point, axis=1)
                gaps.append(np.partition(dists, 1)[1])
            return float(np.mean(gaps))

        assert mean_nn_gap(clustered) < mean_nn_gap(uniform)

    def test_elongation(self):
        items = clustered_boxes(100, UNIVERSE_3D, elongation=25.0, max_extent=1.0, seed=6)
        ratios = []
        for _, box in items:
            extents = sorted(box.extents())
            if extents[0] > 0:
                ratios.append(extents[-1] / extents[0])
        assert np.median(ratios) > 3.0

    def test_validation(self):
        with pytest.raises(ValueError):
            uniform_points(-1, UNIVERSE_3D)
        with pytest.raises(ValueError):
            uniform_boxes(10, UNIVERSE_3D, min_extent=5.0, max_extent=1.0)
        with pytest.raises(ValueError):
            clustered_boxes(10, UNIVERSE_3D, elongation=0.5)


class TestNeuronGenerator:
    def test_counts_and_mapping(self):
        ds = generate_neurons(neurons=10, segments_per_neuron=30, seed=7)
        assert len(ds) == 300
        assert set(ds.neuron_of.values()) == set(range(10))
        assert len(ds.items) == 300

    def test_segments_are_elongated_capsules(self):
        ds = generate_neurons(neurons=5, segments_per_neuron=40, seed=8)
        lengths = [c.length() for c in ds.capsules.values()]
        radii = [c.radius for c in ds.capsules.values()]
        # Elements are elongated in the aggregate (the Figure 4 shape); wall
        # clamping may shorten a handful of segments.
        elongated = sum(1 for l, r in zip(lengths, radii) if l > r)
        assert elongated >= 0.95 * len(lengths)

    def test_inside_universe(self):
        ds = generate_neurons(neurons=5, segments_per_neuron=40, seed=9)
        hull = ds.universe.expanded(0.2)  # radius may poke out slightly
        for _, box in ds.items:
            assert hull.contains_box(box)

    def test_extent_stats(self):
        ds = generate_neurons(neurons=5, segments_per_neuron=20, seed=10)
        mean, biggest = ds.element_extent_stats()
        assert 0 < mean <= biggest

    def test_deterministic(self):
        a = generate_neurons(neurons=3, segments_per_neuron=10, seed=11)
        b = generate_neurons(neurons=3, segments_per_neuron=10, seed=11)
        assert [c.bounds() for c in a.capsules.values()] == [
            c.bounds() for c in b.capsules.values()
        ]


class ReferenceBrownian:
    """BrownianMotion.step as a per-element loop: ``np.clip`` on one
    box's 3-vectors at a time, one ``AABB`` per move."""

    def __init__(self, sigma, universe, moving_fraction=1.0, seed=0):
        self.sigma, self.universe, self.moving_fraction = sigma, universe, moving_fraction
        self._rng = np.random.default_rng(seed)

    def step(self, items):
        if not items:
            return []
        eids = list(items)
        if self.moving_fraction < 1.0:
            count = int(round(len(eids) * self.moving_fraction))
            chosen = self._rng.choice(len(eids), size=count, replace=False)
            eids = [eids[i] for i in chosen]
        lo = np.asarray(self.universe.lo)
        hi = np.asarray(self.universe.hi)
        moves = []
        deltas = self._rng.normal(0.0, self.sigma, size=(len(eids), self.universe.dims))
        for eid, delta in zip(eids, deltas):
            old = items[eid]
            new_lo = np.clip(np.asarray(old.lo) + delta, lo, hi)
            extent = np.asarray(old.hi) - np.asarray(old.lo)
            new_hi = np.minimum(new_lo + extent, hi)
            new_lo = np.maximum(new_hi - extent, lo)
            moves.append((eid, old, AABB(new_lo, new_hi)))
        return moves


class ReferenceLinear:
    """LinearMotion.step as a per-element loop, each velocity drawn lazily
    the first time its element appears and bounced one axis at a time.

    The velocity norm is the axis-ordered sum of squares: the row norm the
    model takes over its drawn array.  ``np.linalg.norm`` of one 3-vector
    (a BLAS dot) differs from it in the last bit for about one draw in ten.
    """

    def __init__(self, speed, universe, seed=0):
        self.speed, self.universe = speed, universe
        self._rng = np.random.default_rng(seed)
        self._velocities = {}

    def _velocity_of(self, eid):
        if eid not in self._velocities:
            v = self._rng.normal(size=self.universe.dims)
            total = 0.0
            for c in v.tolist():
                total += c * c
            norm = math.sqrt(total)
            if norm < 1e-12:
                norm = 1.0
            self._velocities[eid] = v / norm * self.speed
        return self._velocities[eid]

    def step(self, items):
        lo = np.asarray(self.universe.lo)
        hi = np.asarray(self.universe.hi)
        moves = []
        for eid, old in items.items():
            velocity = self._velocity_of(eid)
            new_lo = np.asarray(old.lo) + velocity
            new_hi = np.asarray(old.hi) + velocity
            for axis in range(self.universe.dims):
                if new_lo[axis] < lo[axis] or new_hi[axis] > hi[axis]:
                    velocity[axis] = -velocity[axis]
                    new_lo[axis] = min(max(new_lo[axis], lo[axis]), hi[axis])
            extent = np.asarray(old.hi) - np.asarray(old.lo)
            new_hi = np.minimum(new_lo + extent, hi)
            new_lo = np.maximum(new_hi - extent, lo)
            moves.append((eid, old, AABB(new_lo, new_hi)))
        return moves


PLASTICITY_SIGMA = PlasticityMotion.MEAN_DISPLACEMENT_UM * math.sqrt(math.pi / 8.0)

#: (model, its per-element reference) with the same seed.
MOTION_REFERENCES = {
    "plasticity": lambda: (
        PlasticityMotion(universe=UNIVERSE_3D, seed=31),
        ReferenceBrownian(PLASTICITY_SIGMA, UNIVERSE_3D, seed=31),
    ),
    "plasticity_half_moving": lambda: (
        PlasticityMotion(universe=UNIVERSE_3D, moving_fraction=0.5, seed=32),
        ReferenceBrownian(PLASTICITY_SIGMA, UNIVERSE_3D, moving_fraction=0.5, seed=32),
    ),
    "brownian": lambda: (
        BrownianMotion(5.0, UNIVERSE_3D, moving_fraction=0.3, seed=33),
        ReferenceBrownian(5.0, UNIVERSE_3D, moving_fraction=0.3, seed=33),
    ),
    "linear": lambda: (
        LinearMotion(speed=15.0, universe=UNIVERSE_3D, seed=34),
        ReferenceLinear(15.0, UNIVERSE_3D, seed=34),
    ),
}


def move_bits(moves, items):
    """Each move's id, whether its old box is the caller's own object, and
    its new coordinates' exact bits — in move order."""
    return [
        (eid, old is items[eid], tuple(c.hex() for c in new.lo + new.hi))
        for eid, old, new in moves
    ]


class TestMotionModels:
    @pytest.mark.parametrize("name", MOTION_REFERENCES)
    def test_step_equals_the_per_element_reference(self, name):
        """Every step's moves equal the per-element loop's bit for bit:
        the same ids in the same order, the caller's old box objects and the
        same new coordinates — with boxes pinned against both universe
        corners, an empty step between full ones, and (for LinearMotion)
        bounces over several steps."""
        model, reference = MOTION_REFERENCES[name]()
        items = dict(uniform_boxes(300, UNIVERSE_3D, 0.5, 3.0, seed=30))
        items[1_000] = AABB((0.0, 0.0, 0.0), (1.0, 1.0, 1.0))
        items[1_001] = AABB((99.0, 99.0, 99.0), (100.0, 100.0, 100.0))
        mine, theirs = dict(items), dict(items)
        on_wall = 0
        for step in range(8):
            if step == 3:
                assert model.step({}) == reference.step({}) == []
            moves, expected = model.step(mine), reference.step(theirs)
            assert move_bits(moves, mine) == move_bits(expected, theirs)
            assert all(old is mine[eid] for eid, old, _ in moves)
            on_wall += sum(
                0.0 in new.lo or 100.0 in new.hi for _, _, new in moves
            )
            apply_moves(mine, moves)
            apply_moves(theirs, expected)
        assert on_wall > 0

    def test_plasticity_matches_paper_statistics(self):
        """Mean displacement 0.04 with <0.5% beyond 0.1 (§4.1)."""
        items = dict(uniform_points(20_000, UNIVERSE_3D, seed=12))
        motion = PlasticityMotion(universe=UNIVERSE_3D, seed=13)
        moves = motion.step(items)
        mean, tail = displacement_stats(moves)
        assert mean == pytest.approx(0.04, rel=0.05)
        assert tail < 0.005

    def test_all_elements_move(self):
        items = dict(uniform_points(500, UNIVERSE_3D, seed=14))
        moves = PlasticityMotion(universe=UNIVERSE_3D, seed=15).step(items)
        assert len(moves) == 500

    def test_moving_fraction(self):
        items = dict(uniform_points(1000, UNIVERSE_3D, seed=16))
        motion = BrownianMotion(0.1, UNIVERSE_3D, moving_fraction=0.25, seed=17)
        assert len(motion.step(items)) == 250

    def test_extents_preserved_at_walls(self):
        box = AABB((0.0, 0.0, 0.0), (1.0, 1.0, 1.0))  # hugging the corner
        motion = BrownianMotion(5.0, UNIVERSE_3D, seed=18)
        for _ in range(10):
            moves = motion.step({1: box})
            (eid, old, new) = moves[0]
            assert new.extents() == pytest.approx(old.extents())
            assert UNIVERSE_3D.contains_box(new)
            box = new

    def test_linear_motion_is_straight(self):
        items = {1: AABB((50, 50, 50), (50, 50, 50))}
        motion = LinearMotion(speed=0.5, universe=UNIVERSE_3D, seed=19)
        first = motion.step(items)
        apply_moves(items, first)
        second = motion.step(items)
        d1 = np.asarray(first[0][2].center()) - np.asarray(first[0][1].center())
        d2 = np.asarray(second[0][2].center()) - np.asarray(second[0][1].center())
        assert np.allclose(d1, d2)

    def test_apply_moves(self):
        items = dict(uniform_points(50, UNIVERSE_3D, seed=20))
        moves = PlasticityMotion(universe=UNIVERSE_3D, seed=21).step(items)
        apply_moves(items, moves)
        for eid, _, new in moves:
            assert items[eid] == new


class TestQueryGenerators:
    def test_selectivity_to_extent(self):
        extent = selectivity_to_extent(1e-3, UNIVERSE_3D)
        assert (extent / 100.0) ** 3 == pytest.approx(1e-3)

    def test_paper_selectivity(self):
        """5×10⁻⁴ % of the universe — the Fig. 2 query size."""
        extent = selectivity_to_extent(5e-6, UNIVERSE_3D)
        assert 0 < extent < 100

    def test_queries_clipped_to_universe(self):
        for query in random_range_queries(50, UNIVERSE_3D, extent=30.0, seed=22):
            assert UNIVERSE_3D.contains_box(query)

    def test_selectivity_queries(self):
        queries = range_queries_for_selectivity(10, UNIVERSE_3D, 1e-4, seed=23)
        assert len(queries) == 10

    def test_validation(self):
        with pytest.raises(ValueError):
            selectivity_to_extent(0.0, UNIVERSE_3D)
        with pytest.raises(ValueError):
            random_range_queries(-1, UNIVERSE_3D, 1.0)
