"""Counters, cost models and phase timer."""

import pytest

from repro.instrumentation.counters import Counters
from repro.instrumentation.costmodel import (
    ELEM_TESTS,
    READING,
    REMAINING,
    TREE_TESTS,
    DiskCostModel,
    MemoryCostModel,
    TimeBreakdown,
)
from repro.instrumentation.profiler import PhaseTimer


class TestCounters:
    def test_defaults_zero(self):
        assert Counters().total_intersection_tests() == 0

    def test_snapshot_diff(self):
        counters = Counters()
        counters.node_tests = 5
        before = counters.snapshot()
        counters.node_tests += 3
        counters.elem_tests += 2
        delta = counters.diff(before)
        assert delta.node_tests == 3
        assert delta.elem_tests == 2
        assert before.node_tests == 5  # snapshot unaffected

    def test_reset(self):
        counters = Counters(elem_tests=9, bytes_touched=100)
        counters.reset()
        assert counters.as_dict() == Counters().as_dict()

    def test_str_shows_only_nonzero(self):
        text = str(Counters(elem_tests=3))
        assert "elem_tests=3" in text
        assert "node_tests" not in text


class TestTimeBreakdown:
    def test_fractions(self):
        breakdown = TimeBreakdown({READING: 1.0, TREE_TESTS: 3.0})
        assert breakdown.total() == 4.0
        assert breakdown.fraction(READING) == 0.25
        assert breakdown.percent(TREE_TESTS) == 75.0

    def test_empty_fraction_zero(self):
        assert TimeBreakdown().fraction(READING) == 0.0

    def test_coarse_two_categories(self):
        breakdown = TimeBreakdown({READING: 1.0, TREE_TESTS: 2.0, ELEM_TESTS: 1.0})
        coarse = breakdown.coarse()
        assert coarse.seconds[READING] == 1.0
        assert coarse.seconds["computations"] == 3.0

    def test_merged(self):
        a = TimeBreakdown({READING: 1.0})
        b = TimeBreakdown({READING: 2.0, REMAINING: 1.0})
        merged = a.merged(b)
        assert merged.seconds[READING] == 3.0
        assert merged.seconds[REMAINING] == 1.0

    def test_render_contains_categories(self):
        text = TimeBreakdown({READING: 1.0, TREE_TESTS: 1.0}).render("title")
        assert "title" in text
        assert READING in text
        assert "total" in text


class TestMemoryCostModel:
    def test_attribution(self):
        counters = Counters(
            node_tests=100, elem_tests=50, pointer_follows=10, bytes_touched=6400
        )
        breakdown = MemoryCostModel().breakdown(counters)
        assert breakdown.seconds[TREE_TESTS] == pytest.approx(100 * 12e-9)
        assert breakdown.seconds[ELEM_TESTS] == pytest.approx(50 * 12e-9)
        assert breakdown.seconds[READING] == pytest.approx(100 * 1e-9)  # 100 lines
        assert breakdown.seconds[REMAINING] > 0

    def test_refine_tests_priced_higher(self):
        plain = MemoryCostModel().breakdown(Counters(elem_tests=10)).seconds[ELEM_TESTS]
        refine = MemoryCostModel().breakdown(Counters(refine_tests=10)).seconds[ELEM_TESTS]
        assert refine > plain

    def test_compute_dominates_reading_for_tree_workload(self):
        """The Figure 3 shape: in memory, intersection tests dominate."""
        # A realistic node visit: 16 entries tested, ~900 bytes touched.
        counters = Counters(node_tests=16_000, elem_tests=8_000, bytes_touched=900_000)
        breakdown = MemoryCostModel().breakdown(counters)
        assert breakdown.fraction(READING) < 0.15
        tests = breakdown.fraction(TREE_TESTS) + breakdown.fraction(ELEM_TESTS)
        assert tests > 0.7


class TestDiskCostModel:
    def test_page_read_random_vs_sequential(self):
        model = DiskCostModel()
        random = model.page_read_seconds(100)
        sequential = model.page_read_seconds(100, sequential=True)
        assert random > sequential

    def test_reading_dominates_on_disk(self):
        """The Figure 2 shape: on disk, reading data dominates."""
        counters = Counters(
            pages_read=1000, node_tests=16_000, elem_tests=8_000, bytes_touched=900_000
        )
        breakdown = DiskCostModel().breakdown(counters)
        assert breakdown.fraction(READING) > 0.9

    def test_zero_pages_means_cpu_only(self):
        counters = Counters(node_tests=100)
        breakdown = DiskCostModel().breakdown(counters)
        assert breakdown.seconds[READING] == 0.0


class TestPhaseTimer:
    def test_accumulates(self):
        timer = PhaseTimer()
        with timer.phase("a"):
            pass
        with timer.phase("a"):
            pass
        with timer.phase("b"):
            pass
        assert timer.count("a") == 2
        assert timer.count("b") == 1
        assert timer.total() >= timer.seconds("a")

    def test_reset(self):
        timer = PhaseTimer()
        with timer.phase("x"):
            pass
        timer.reset()
        assert timer.total() == 0.0
        assert timer.count("x") == 0

    def test_render(self):
        timer = PhaseTimer()
        with timer.phase("build"):
            pass
        assert "build" in timer.render("header")
