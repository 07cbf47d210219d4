"""Tests for the event model and its columnar batch view."""

import pytest

from repro.events import Event, EventBatch, EventColumns, event_signature


class TestEventConstruction:
    def test_holds_attribute_value_pairs(self):
        event = Event({"price": 10.5, "title": "Dune"})
        assert event["price"] == 10.5
        assert event["title"] == "Dune"

    def test_supports_all_value_kinds(self):
        event = Event({"s": "x", "i": 3, "f": 2.5, "b": True})
        assert event["b"] is True
        assert len(event) == 4

    def test_rejects_empty_attribute_name(self):
        with pytest.raises(TypeError):
            Event({"": 1})

    def test_rejects_non_string_attribute_name(self):
        with pytest.raises(TypeError):
            Event({3: 1})

    def test_rejects_unsupported_value_type(self):
        with pytest.raises(TypeError):
            Event({"a": [1, 2]})

    def test_empty_event_is_allowed(self):
        assert len(Event({})) == 0

    def test_rejects_nan_value(self):
        with pytest.raises(TypeError):
            Event({"a": float("nan")})

    def test_accepts_infinities(self):
        event = Event({"lo": float("-inf"), "hi": float("inf")})
        assert event["hi"] == float("inf")


class TestEventMapping:
    def test_contains(self):
        event = Event({"a": 1})
        assert "a" in event
        assert "b" not in event

    def test_get_with_default(self):
        event = Event({"a": 1})
        assert event.get("a") == 1
        assert event.get("b") is None
        assert event.get("b", 7) == 7

    def test_iteration_yields_attribute_names(self):
        event = Event({"a": 1, "b": 2})
        assert sorted(event) == ["a", "b"]

    def test_missing_attribute_raises(self):
        with pytest.raises(KeyError):
            Event({})["nope"]

    def test_to_dict_returns_copy(self):
        event = Event({"a": 1})
        data = event.to_dict()
        data["a"] = 99
        assert event["a"] == 1


class TestEventEquality:
    def test_equal_events(self):
        assert Event({"a": 1, "b": "x"}) == Event({"b": "x", "a": 1})

    def test_unequal_events(self):
        assert Event({"a": 1}) != Event({"a": 2})

    def test_hash_consistent_with_equality(self):
        assert hash(Event({"a": 1, "b": 2})) == hash(Event({"b": 2, "a": 1}))

    def test_signature_is_sorted_pairs(self):
        assert event_signature(Event({"b": 2, "a": 1})) == (("a", 1), ("b", 2))


class TestEventSize:
    def test_size_counts_envelope(self):
        assert Event({}).size_bytes == 16

    def test_size_charges_strings_by_length(self):
        small = Event({"a": "x"})
        large = Event({"a": "x" * 50})
        assert large.size_bytes - small.size_bytes == 49

    def test_size_charges_numbers_fixed(self):
        assert Event({"a": 1}).size_bytes == Event({"a": 123456789}).size_bytes

    def test_size_is_cached_and_stable(self):
        event = Event({"a": 1, "b": "yz"})
        assert event.size_bytes == event.size_bytes


class TestEventBatch:
    def test_len_and_iteration(self):
        batch = EventBatch([Event({"a": 1}), Event({"a": 2})], label="x")
        assert len(batch) == 2
        assert [event["a"] for event in batch] == [1, 2]

    def test_indexing(self):
        batch = EventBatch([Event({"a": 1}), Event({"a": 2})])
        assert batch[1]["a"] == 2

    def test_sample_smaller_than_batch_strides_evenly(self):
        events = [Event({"i": index}) for index in range(10)]
        sample = EventBatch(events).sample(5)
        assert len(sample) == 5
        assert [event["i"] for event in sample] == [0, 2, 4, 6, 8]

    def test_sample_larger_than_batch_returns_all(self):
        events = [Event({"i": index}) for index in range(3)]
        assert len(EventBatch(events).sample(10)) == 3

    def test_sample_zero_returns_empty(self):
        assert len(EventBatch([Event({})]).sample(0)) == 0

    def test_total_size(self):
        batch = EventBatch([Event({}), Event({})])
        assert batch.total_size_bytes() == 32


class TestEventColumns:
    def _batch(self):
        return EventBatch(
            [
                Event({"price": 5, "tag": "abc", "hot": True}),
                Event({"tag": "abd"}),
                Event({"price": 7.5, "hot": False}),
                Event({}),
                Event({"price": 5, "tag": "abc"}),
            ]
        )

    def test_presence_rows_are_sparse_masks(self):
        columns = self._batch().columns()
        assert columns.row_count == 5
        assert columns.attribute_names == ["hot", "price", "tag"]
        assert columns.column("price").rows.tolist() == [0, 2, 4]
        assert columns.column("tag").rows.tolist() == [0, 1, 4]
        assert columns.column("missing") is None

    def test_values_split_by_kind(self):
        columns = self._batch().columns()
        price = columns.column("price")
        assert price.numeric_rows.tolist() == [0, 2, 4]
        assert price.numeric_values.tolist() == [5.0, 7.5, 5.0]
        assert len(price.string_rows) == len(price.bool_rows) == 0
        hot = columns.column("hot")
        assert hot.bool_rows.tolist() == [0, 2]
        assert hot.bool_values.tolist() == [True, False]

    def test_bool_is_not_numeric(self):
        columns = EventColumns.from_events([Event({"a": True, "b": 1})])
        assert len(columns.column("a").numeric_rows) == 0
        assert len(columns.column("a").bool_rows) == 1
        assert len(columns.column("b").numeric_rows) == 1

    def test_groups_by_distinct_value(self):
        price = self._batch().columns().column("price")
        numeric_groups, string_groups, _bool_groups = price.groups()
        assert sorted(
            (value, rows.tolist()) for value, rows in numeric_groups
        ) == [(5.0, [0, 4]), (7.5, [2])]
        assert string_groups == []

    def test_select_renumbers_rows(self):
        columns = self._batch().columns().select([1, 2, 4])
        assert columns.row_count == 3
        assert columns.column("price").rows.tolist() == [1, 2]
        assert columns.column("price").numeric_values.tolist() == [7.5, 5.0]
        assert columns.column("tag").rows.tolist() == [0, 2]
        # 'hot' only appears at original rows 0 and 2 -> kept row 2 -> new row 1
        assert columns.column("hot").rows.tolist() == [1]

    def test_select_drops_empty_columns(self):
        columns = self._batch().columns().select([3])
        assert columns.attribute_names == []

    def test_slice_rows_matches_select(self):
        columns = self._batch().columns()
        sliced = columns.slice_rows(1, 4)
        selected = columns.select([1, 2, 3])
        assert sliced.attribute_names == selected.attribute_names
        for name in sliced.attribute_names:
            assert (
                sliced.column(name).rows.tolist()
                == selected.column(name).rows.tolist()
            )

    def test_batch_caches_columns(self):
        batch = self._batch()
        assert batch.columns() is batch.columns()

    def test_subset_derives_columns_from_parent(self):
        batch = self._batch()
        batch.columns()
        subset = batch.subset([0, 2])
        assert subset.events == [batch.events[0], batch.events[2]]
        assert subset._columns is not None
        assert subset._columns.column("price").numeric_values.tolist() == [5.0, 7.5]

    def test_subset_without_columns_stays_lazy(self):
        subset = self._batch().subset([0, 1])
        assert subset._columns is None
        assert subset.columns().column("tag").rows.tolist() == [0, 1]
