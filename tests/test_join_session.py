"""The join subsystem: oracle equality for every strategy, session behaviour.

The contract under test: **every** strategy in ``JOIN_REGISTRY`` returns the
exact nested-loop pair set — for binary joins, self joins and distance
candidates — over every dataset shape (uniform, clustered, degenerate
points, all-overlapping boxes, empty inputs), and so does ``GridJoin``'s
bucket-grid fallback for unlinearizable resolutions.  On top of that, the session
layer: planner routing, deferred handles, per-spec strategy pinning, error
containment, and the JoinStats/telemetry feed.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.datasets.neuroscience import generate_neurons
from repro.datasets.points import clustered_boxes, uniform_boxes
from repro.geometry.aabb import AABB
from repro.instrumentation.counters import Counters
from repro.joins import (
    CallableJoin,
    DistanceJoinSpec,
    JOIN_REGISTRY,
    JoinSession,
    PairJoinSpec,
    SelfJoinSpec,
    SynapseDetector,
    SynapseJoinSpec,
    available_join_strategies,
    make_join_strategy,
)
from repro.analysis import join_report, session_report
from repro.joins import kernels
from repro.joins.session import pair_list
from repro.joins.strategies import NestedLoopJoin
from repro.serving.snapshots import SnapshotGridIndex

from conftest import UNIVERSE_3D

ALL_STRATEGIES = sorted(JOIN_REGISTRY)
BINARY_STRATEGIES = [n for n in ALL_STRATEGIES if JOIN_REGISTRY[n].binary]


def _uniform(n, seed, offset=0):
    return [(eid + offset, box) for eid, box in uniform_boxes(n, UNIVERSE_3D, 0.5, 5.0, seed=seed)]


def _clustered(n, seed, offset=0):
    return [
        (eid + offset, box)
        for eid, box in clustered_boxes(n, UNIVERSE_3D, clusters=4, seed=seed)
    ]


def _points(n, seed, offset=0):
    rng = np.random.default_rng(seed)
    return [(eid + offset, AABB.from_point(rng.uniform(0, 20, 3))) for eid in range(n)]


def _overlapping(n, offset=0):
    # Every box contains the point (5, 5, 5): all pairs intersect.
    return [
        (eid + offset, AABB((4.0 - 0.01 * eid,) * 3, (6.0 + 0.01 * eid,) * 3))
        for eid in range(n)
    ]


DATASETS = {
    "uniform": (_uniform(150, 1), _uniform(120, 2, offset=10_000)),
    "clustered": (_clustered(120, 3), _clustered(90, 4, offset=10_000)),
    "degenerate_points": (_points(80, 5), _points(70, 6, offset=10_000)),
    "all_overlapping": (_overlapping(40), _overlapping(35, offset=10_000)),
    "mixed": (_uniform(100, 7), _points(60, 8, offset=10_000)),
}

ORACLE = NestedLoopJoin()


class TestStrategyOracle:
    @pytest.mark.parametrize("dataset", sorted(DATASETS))
    @pytest.mark.parametrize("name", BINARY_STRATEGIES)
    def test_binary_matches_nested_loop(self, name, dataset):
        a, b = DATASETS[dataset]
        expected = sorted(ORACLE.join(a, b, Counters()))
        got = pair_list(make_join_strategy(name).join(a, b, Counters()))
        assert got == expected

    @pytest.mark.parametrize("dataset", sorted(DATASETS))
    @pytest.mark.parametrize("name", ALL_STRATEGIES)
    def test_self_matches_nested_loop(self, name, dataset):
        items, _ = DATASETS[dataset]
        expected = sorted(ORACLE.self_join(items, Counters()))
        got = pair_list(make_join_strategy(name).self_join(items, Counters()))
        assert got == expected

    @pytest.mark.parametrize("name", BINARY_STRATEGIES)
    def test_empty_inputs(self, name):
        strategy = make_join_strategy(name)
        a, _ = DATASETS["uniform"]
        assert strategy.join([], a, Counters()) == []
        assert strategy.join(a, [], Counters()) == []
        assert strategy.join([], [], Counters()) == []

    @pytest.mark.parametrize("name", ALL_STRATEGIES)
    def test_empty_self(self, name):
        strategy = make_join_strategy(name)
        assert pair_list(strategy.self_join([], Counters())) == []
        assert pair_list(strategy.self_join([(1, AABB((0, 0, 0), (1, 1, 1)))], Counters())) == []

    @pytest.mark.parametrize("name", BINARY_STRATEGIES)
    def test_distance_candidates_complete(self, name):
        """Candidates must be a superset of the true within-ε answer."""
        a, b = DATASETS["uniform"]
        epsilon = 2.0
        boxes = dict(a) | dict(b)
        truth = {
            (ea, eb)
            for ea, ba in a
            for eb, bb in b
            if ba.min_distance_to_box(bb) <= epsilon
        }
        candidates = set(
            pair_list(make_join_strategy(name).distance_candidates(a, b, epsilon, Counters()))
        )
        assert truth <= candidates

    def test_registry_enumeration(self):
        assert available_join_strategies() == ALL_STRATEGIES
        for expected in ("nested_loop", "grid", "pbsm", "sweepline", "touch", "tree", "tiny_cell"):
            assert expected in JOIN_REGISTRY
        with pytest.raises(KeyError):
            make_join_strategy("no_such_join")

    def test_tiny_cell_rejects_binary(self):
        a, b = DATASETS["uniform"]
        with pytest.raises(NotImplementedError):
            make_join_strategy("tiny_cell").join(a, b, Counters())

    def test_partitioned_strategies_cut_comparisons(self):
        a = _uniform(300, 9)
        b = _uniform(300, 10, offset=10_000)
        nested = Counters()
        ORACLE.join(a, b, nested)
        for name in ("pbsm", "grid", "tree"):
            counters = Counters()
            make_join_strategy(name).join(a, b, counters)
            assert counters.comparisons < nested.comparisons / 5, name

    def test_sweepline_compares_over_three_times_pbsm(self):
        """§3.2: the sweep line prunes by x only, so it "does not ensure
        that only spatially close objects are compared" — on synapse-scale
        boxes it compares > 3x what PBSM does, for the same pairs as every
        other partitioned strategy."""
        rng = np.random.default_rng(0)
        lo = rng.uniform(0.0, 99.0, size=(2000, 3))
        hi = np.minimum(lo + rng.uniform(0.05, 1.0, size=(2000, 3)), 100.0)
        items = [(eid, AABB(l, h)) for eid, (l, h) in enumerate(zip(lo, hi))]
        comparisons, answers = {}, {}
        for name in ("sweepline", "pbsm", "tree", "touch", "grid"):
            session = JoinSession(strategy=name)
            answers[name] = session.run(PairJoinSpec(items[:1000], items[1000:]))
            comparisons[name] = session.counters.comparisons
        assert all(pairs == answers["sweepline"] for pairs in answers.values())
        assert comparisons["sweepline"] > 3 * comparisons["pbsm"]


class TestGridJoinBucketGrid:
    """``GridJoin`` over the bucket :class:`UniformGrid` — the path it takes
    when the read-only snapshot (or, self-joined, the self-pair kernel)
    cannot linearize the resolution — against the nested loop on every
    dataset shape."""

    @pytest.fixture(autouse=True)
    def snapshot_requests(self, monkeypatch):
        """Every snapshot request and self-pair kernel call answers
        "unlinearizable"; the list records the snapshot requests."""
        requests = []

        def unlinearizable(cls, eids, boxes, universe, cell_size=None):
            requests.append(len(eids))
            return None

        monkeypatch.setattr(SnapshotGridIndex, "over", classmethod(unlinearizable))
        monkeypatch.setattr(kernels, "grid_self_pairs", lambda *args, **kwargs: None)
        return requests

    @pytest.mark.parametrize("dataset", sorted(DATASETS))
    def test_binary_matches_nested_loop(self, dataset, snapshot_requests):
        a, b = DATASETS[dataset]
        expected = sorted(ORACLE.join(a, b, Counters()))
        assert pair_list(make_join_strategy("grid").join(a, b, Counters())) == expected
        assert snapshot_requests == [len(a)]

    @pytest.mark.parametrize("dataset", sorted(DATASETS))
    def test_self_matches_nested_loop(self, dataset, snapshot_requests):
        items, _ = DATASETS[dataset]
        expected = sorted(ORACLE.self_join(items, Counters()))
        assert pair_list(make_join_strategy("grid").self_join(items, Counters())) == expected
        assert snapshot_requests == [len(items)]

    def test_empty_inputs(self, snapshot_requests):
        strategy = make_join_strategy("grid")
        a, _ = DATASETS["uniform"]
        assert strategy.join([], a, Counters()) == []
        assert strategy.join(a, [], Counters()) == []
        assert pair_list(strategy.self_join([(1, AABB((0, 0, 0), (1, 1, 1)))], Counters())) == []
        assert snapshot_requests == [1]  # only the one-box self join builds a grid

    def test_distance_candidates_equal_the_nested_loop_filter(self, snapshot_requests):
        a, b = DATASETS["uniform"]
        epsilon = 2.0
        expected = sorted(ORACLE.distance_candidates(a, b, epsilon, Counters()))
        got = make_join_strategy("grid").distance_candidates(a, b, epsilon, Counters())
        assert expected and pair_list(got) == expected
        assert snapshot_requests == [len(a)]

    def test_cuts_comparisons(self, snapshot_requests):
        a, b = _uniform(300, 9), _uniform(300, 10, offset=10_000)
        nested, counters = Counters(), Counters()
        ORACLE.join(a, b, nested)
        make_join_strategy("grid").join(a, b, counters)
        assert 0 < counters.comparisons < nested.comparisons / 5
        assert counters.cells_probed > 0 and snapshot_requests == [len(a)]


class TestJoinSession:
    def test_deferred_handles_one_flush(self):
        a, b = DATASETS["uniform"]
        session = JoinSession()
        h_self = session.submit(SelfJoinSpec(a))
        h_pair = session.submit(PairJoinSpec(a, b))
        assert session.pending == 2
        assert h_self.result() == sorted(ORACLE.self_join(a, Counters()))
        assert session.pending == 0  # flush-on-read drained the buffer
        assert h_pair.resolved
        assert h_pair.result() == sorted(ORACLE.join(a, b, Counters()))
        assert session.stats.joins == 2
        assert session.stats.pairs > 0

    def test_planner_routes_by_size(self):
        small = _uniform(10, 11)
        large = _uniform(200, 12)
        session = JoinSession()
        assert session.plan(SelfJoinSpec(small)).strategy.name == "nested_loop"
        assert session.plan(SelfJoinSpec(large)).strategy.name == "grid"

    def test_pinned_strategy_and_per_spec_override(self):
        items = _uniform(150, 13)
        pinned = JoinSession(strategy="pbsm")
        assert pinned.plan(SelfJoinSpec(items)).strategy.name == "pbsm"
        result = pinned.run(SelfJoinSpec(items), strategy="sweepline")
        assert result == sorted(ORACLE.self_join(items, Counters()))
        assert pinned.stats.strategy_runs == {"sweepline": 1}

    def test_every_strategy_through_session(self):
        items, other = DATASETS["clustered"]
        expected_self = sorted(ORACLE.self_join(items, Counters()))
        expected_pair = sorted(ORACLE.join(items, other, Counters()))
        for name in ALL_STRATEGIES:
            session = JoinSession(strategy=name)
            assert session.run(SelfJoinSpec(items)) == expected_self
            if JOIN_REGISTRY[name].binary:
                assert session.run(PairJoinSpec(items, other)) == expected_pair

    def test_error_containment(self):
        """A failing spec settles its own handle; others still resolve."""
        items = _uniform(80, 15)

        class Boom(Exception):
            pass

        def explode(items_a, items_b, counters):
            raise Boom("strategy failed")

        session = JoinSession(strategy="grid")
        good = session.submit(SelfJoinSpec(items))
        bad = session.submit(SelfJoinSpec(items, tag="bad"), strategy=CallableJoin(explode))
        with pytest.raises(Boom):
            session.flush()
        assert good.result() == sorted(ORACLE.self_join(items, Counters()))
        with pytest.raises(Boom):
            bad.result()

    def test_join_stats_funnel(self):
        items = _uniform(200, 16)
        session = JoinSession(strategy="grid")
        pairs = session.run(DistanceJoinSpec(items, None, 1.0))
        stats = session.stats
        assert stats.joins == 1
        assert stats.pairs == len(pairs)
        assert stats.candidates >= len(pairs)
        assert stats.refined == stats.candidates  # box-gap refine runs on all
        assert stats.comparisons > 0
        assert session.counters.refine_tests == stats.refined

    def test_rejects_non_spec(self):
        with pytest.raises(TypeError):
            JoinSession().submit(object())


class TestDistanceJoins:
    @pytest.mark.parametrize("name", ["nested_loop", "grid", "pbsm", "tree", "sweepline"])
    def test_binary_distance_oracle(self, name):
        a = _uniform(80, 17)
        b = _uniform(70, 18, offset=10_000)
        epsilon = 2.5
        expected = sorted(
            (ea, eb)
            for ea, ba in a
            for eb, bb in b
            if ba.min_distance_to_box(bb) <= epsilon
        )
        got = JoinSession(strategy=name).run(DistanceJoinSpec(a, b, epsilon))
        assert got == expected

    @pytest.mark.parametrize("name", ["grid", "pbsm", "tree", "block_nested"])
    def test_self_distance_oracle(self, name):
        items = _clustered(90, 19)
        epsilon = 1.5
        expected = sorted(
            (min(x, y), max(x, y))
            for i, (x, bx) in enumerate(items)
            for y, by in items[i + 1 :]
            if bx.min_distance_to_box(by) <= epsilon
        )
        got = JoinSession(strategy=name).run(DistanceJoinSpec(items, None, epsilon))
        assert got == expected

    def test_refine_callable(self):
        a = _uniform(60, 20)
        b = _uniform(60, 21, offset=10_000)
        boxes = dict(a) | dict(b)

        def refine(ea, eb):
            return boxes[ea].min_distance_to_box(boxes[eb]) <= 3.0

        session = JoinSession()
        got = session.run(DistanceJoinSpec(a, b, 3.0, refine))
        expected = sorted(
            (ea, eb) for ea, ba in a for eb, bb in b if ba.min_distance_to_box(bb) <= 3.0
        )
        assert got == expected
        assert session.stats.refined > 0

    def test_zero_epsilon_is_intersection_join(self):
        items, other = DATASETS["uniform"]
        got = JoinSession(strategy="tree").run(DistanceJoinSpec(items, other, 0.0))
        assert got == sorted(ORACLE.join(items, other, Counters()))

    def test_negative_epsilon_rejected(self):
        with pytest.raises(ValueError):
            DistanceJoinSpec([], [], -1.0)


class TestSynapseSpec:
    @pytest.fixture(scope="class")
    def dataset(self):
        return generate_neurons(neurons=12, segments_per_neuron=25, seed=14)

    @pytest.fixture(scope="class")
    def bruteforce(self, dataset):
        epsilon = 0.25
        expected = set()
        ids = list(dataset.capsules)
        for i in range(len(ids)):
            for j in range(i + 1, len(ids)):
                a, b = ids[i], ids[j]
                if dataset.neuron_of[a] == dataset.neuron_of[b]:
                    continue
                if dataset.capsules[a].distance_to(dataset.capsules[b]) <= epsilon:
                    expected.add((min(a, b), max(a, b)))
        return epsilon, expected

    @pytest.mark.parametrize("name", ["grid", "pbsm", "tree", "nested_loop"])
    def test_matches_bruteforce_under_every_strategy(self, dataset, bruteforce, name):
        epsilon, expected = bruteforce
        synapses = JoinSession(strategy=name).run(SynapseJoinSpec(dataset, epsilon))
        assert {(s.segment_a, s.segment_b) for s in synapses} == expected

    def test_records_are_cross_neuron_and_located(self, dataset):
        for synapse in JoinSession().run(SynapseJoinSpec(dataset, 0.3)):
            assert synapse.neuron_a != synapse.neuron_b
            assert synapse.segment_a < synapse.segment_b
            assert len(synapse.location) == 3
            assert synapse.gap <= 0.3

    def test_detector_wrapper_shares_session(self, dataset, bruteforce):
        epsilon, expected = bruteforce
        session = JoinSession()
        detector = SynapseDetector(dataset, epsilon=epsilon, session=session)
        got = {(s.segment_a, s.segment_b) for s in detector.detect()}
        assert got == expected
        assert session.stats.joins == 1
        assert detector.counters is session.counters

    def test_duplicating_box_join_yields_unique_synapses(self, dataset, bruteforce):
        """The synapse contract excludes duplicate unordered pairs even when
        a user-supplied filter emits the same candidate more than once."""
        epsilon, expected = bruteforce

        def duplicating_join(items_a, items_b, counters):
            pairs = NestedLoopJoin().join(items_a, items_b, counters)
            return pairs + pairs  # a realistic non-deduplicating callable

        synapses = SynapseDetector(dataset, epsilon).detect(strategy=CallableJoin(duplicating_join))
        keys = [(s.segment_a, s.segment_b) for s in synapses]
        assert len(keys) == len(set(keys))
        assert set(keys) == expected

    def test_detector_strategy_pin(self, dataset, bruteforce):
        epsilon, expected = bruteforce
        via_strategy = SynapseDetector(dataset, epsilon).detect(strategy="pbsm")
        assert {(s.segment_a, s.segment_b) for s in via_strategy} == expected


class TestTelemetry:
    def test_join_report_renders_routing(self):
        items = _uniform(200, 28)
        session = JoinSession()
        session.run(SelfJoinSpec(items))
        session.run(SelfJoinSpec(items[:20]))
        report = join_report(session)
        assert "joins=2" in report
        assert "grid" in report and "nested_loop" in report

    def test_session_report_dispatches_on_type(self):
        from repro import QuerySession, UniformGrid

        items = _uniform(100, 29)
        join_session = JoinSession()
        join_session.run(SelfJoinSpec(items))
        assert "candidates=" in session_report(join_session)

        grid = UniformGrid()
        grid.bulk_load(items)
        query_session = QuerySession(grid)
        query_session.range_query([AABB((0, 0, 0), (10, 10, 10))])
        assert "queries=" in session_report(query_session)

    def test_growth_model_accumulates_join_stats(self):
        from repro.sim.growth import GrowthModel

        dataset = generate_neurons(neurons=4, segments_per_neuron=3, seed=30)
        model = GrowthModel(dataset, join_every=1, seed=30)
        from repro.indexes.linear_scan import LinearScan

        index = LinearScan()
        index.bulk_load([(eid, box) for eid, box in model.items().items()])
        for step in range(2):
            model.advance(index, step)
        assert model.join_session.stats.joins == 2
        assert len(model.synapse_counts) == 2


class TestPublicApi:
    def test_curated_exports(self):
        import repro

        for name in (
            "JoinSession",
            "SelfJoinSpec",
            "PairJoinSpec",
            "DistanceJoinSpec",
            "SynapseJoinSpec",
            "JoinStats",
            "JOIN_REGISTRY",
            "make_join_strategy",
            "available_join_strategies",
            "SynapseDetector",
            "Synapse",
        ):
            assert name in repro.__all__, name
            assert hasattr(repro, name)
