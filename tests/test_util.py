"""Tests for shared utilities: heap, timing, tables."""

import time

import pytest

from repro.util.heap import StableHeap
from repro.util.tables import ascii_plot, format_table
from repro.util.timing import Stopwatch, time_call


class TestStableHeap:
    def test_pops_in_key_order(self):
        heap = StableHeap()
        heap.push(3, "c")
        heap.push(1, "a")
        heap.push(2, "b")
        assert [heap.pop()[1] for _ in range(3)] == ["a", "b", "c"]

    def test_ties_broken_by_insertion_order(self):
        heap = StableHeap()
        heap.push(1, "first")
        heap.push(1, "second")
        assert heap.pop()[1] == "first"
        assert heap.pop()[1] == "second"

    def test_tuple_keys(self):
        heap = StableHeap()
        heap.push((0.5, -1), "x")
        heap.push((0.5, -2), "y")
        assert heap.pop()[1] == "y"

    def test_payloads_never_compared(self):
        class Opaque:
            __lt__ = None

        heap = StableHeap()
        heap.push(1, Opaque())
        heap.push(1, Opaque())
        heap.pop()  # would raise if payloads were compared

    def test_peek(self):
        heap = StableHeap()
        heap.push(2, "b")
        heap.push(1, "a")
        assert heap.peek() == (1, "a")
        assert heap.peek_key() == 1
        assert len(heap) == 2

    def test_empty_behaviour(self):
        heap = StableHeap()
        assert not heap
        assert heap.peek_key() is None
        with pytest.raises(IndexError):
            heap.pop()

    def test_clear_and_items(self):
        heap = StableHeap()
        heap.push(1, "a")
        heap.push(2, "b")
        assert sorted(payload for _k, payload in heap.items()) == ["a", "b"]
        heap.clear()
        assert len(heap) == 0

    def test_retain_keeps_tie_order(self):
        heap = StableHeap()
        for payload in ["a", "drop-1", "b", "drop-2", "c"]:
            heap.push(1, payload)
        heap.push(0, "drop-3")
        heap.retain(lambda payload: not payload.startswith("drop"))
        assert [heap.pop()[1] for _ in range(len(heap))] == ["a", "b", "c"]


class TestStopwatch:
    def test_accumulates_laps(self):
        watch = Stopwatch()
        for _ in range(3):
            with watch:
                time.sleep(0.001)
        assert watch.laps == 3
        assert watch.elapsed >= 0.003
        assert watch.mean == pytest.approx(watch.elapsed / 3)

    def test_nested_start_rejected(self):
        watch = Stopwatch()
        watch.start()
        with pytest.raises(RuntimeError):
            watch.start()
        watch.stop()

    def test_stop_without_start_rejected(self):
        with pytest.raises(RuntimeError):
            Stopwatch().stop()

    def test_reset(self):
        watch = Stopwatch()
        with watch:
            pass
        watch.reset()
        assert watch.laps == 0
        assert watch.elapsed == 0.0
        assert watch.mean == 0.0

    def test_time_call(self):
        result, elapsed = time_call(lambda x: x * 2, 21)
        assert result == 42
        assert elapsed >= 0.0


class TestTables:
    def test_format_table_aligns_columns(self):
        text = format_table(["x", "value"], [[1, 10.5], [22, 3.25]])
        lines = text.splitlines()
        assert lines[0].startswith("x")
        assert "value" in lines[0]
        assert len(lines) == 4

    def test_format_table_formats_floats(self):
        text = format_table(["v"], [[0.123456789]])
        assert "0.123457" in text

    def test_ascii_plot_renders_series(self):
        text = ascii_plot(
            {"a": [0.0, 1.0, 2.0], "b": [2.0, 1.0, 0.0]},
            xs=[0.0, 0.5, 1.0],
            width=20,
            height=8,
            title="demo",
        )
        assert "demo" in text
        assert "legend" in text
        assert "*" in text and "o" in text

    def test_ascii_plot_empty(self):
        assert ascii_plot({}, xs=[]) == "(empty plot)"

    def test_ascii_plot_constant_series(self):
        text = ascii_plot({"a": [1.0, 1.0]}, xs=[0.0, 1.0], width=10, height=4)
        assert "legend" in text
