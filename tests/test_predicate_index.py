"""Direct tests of the per-attribute predicate index structures.

Every probe goes through ``collect_batch``, the one probe the counting
engine runs; a single value is a one-row column.
"""

import pytest

from repro.errors import MatchingError
from repro.events import Event, EventBatch
from repro.matching.predicate_index import (
    AttributeIndex,
    PredicateIndexSet,
    value_key,
)
from repro.subscriptions.predicates import Operator, Predicate


def net_rows(index, values):
    """Per value (one column row each), the net fulfilled entries:
    positives minus negatives as multisets."""
    columns = EventBatch([Event({index.attribute: value}) for value in values])
    positives, negatives = ([], []), ([], [])
    index.collect_batch(
        columns.columns().column(index.attribute), positives, negatives
    )
    result = [[] for _ in values]
    for rows, entries in zip(*positives):
        for row, entry in zip(rows.tolist(), entries.tolist()):
            result[row].append(entry)
    for rows, entries in zip(*negatives):
        for row, entry in zip(rows.tolist(), entries.tolist()):
            result[row].remove(entry)
    return [sorted(entries) for entries in result]


def net(index, value):
    """Net fulfilled entries for one value."""
    return net_rows(index, [value])[0]


class TestValueKey:
    def test_bool_and_int_do_not_collide(self):
        assert value_key(True) != value_key(1)

    def test_int_and_float_collide_on_purpose(self):
        assert value_key(5) == value_key(5.0)

    def test_string_kind_tagged(self):
        assert value_key("5") != value_key(5)


class TestEqualityIndexing:
    def test_eq_hit(self):
        index = AttributeIndex("a")
        index.add(Predicate("a", Operator.EQ, 5), 0)
        assert net(index, 5) == [0]
        assert net(index, 6) == []

    def test_in_set_hits_each_member(self):
        index = AttributeIndex("a")
        index.add(Predicate("a", Operator.IN_SET, frozenset({1, 2})), 0)
        assert net(index, 1) == [0]
        assert net(index, 2) == [0]
        assert net(index, 3) == []

    def test_ne_subtraction(self):
        index = AttributeIndex("a")
        index.add(Predicate("a", Operator.NE, 5), 0)
        index.add(Predicate("a", Operator.NE, 6), 1)
        assert net(index, 5) == [1]
        assert net(index, 7) == [0, 1]

    def test_not_in_set_subtracts_any_member(self):
        index = AttributeIndex("a")
        index.add(Predicate("a", Operator.NOT_IN_SET, frozenset({1, 2})), 0)
        assert net(index, 1) == []
        assert net(index, 2) == []
        assert net(index, 3) == [0]


class TestRangeIndexing:
    @pytest.fixture()
    def index(self):
        index = AttributeIndex("a")
        index.add(Predicate("a", Operator.LT, 10), 0)
        index.add(Predicate("a", Operator.LE, 10), 1)
        index.add(Predicate("a", Operator.GT, 10), 2)
        index.add(Predicate("a", Operator.GE, 10), 3)
        return index

    def test_below_bound(self, index):
        assert net(index, 5) == [0, 1]

    def test_at_bound(self, index):
        assert net(index, 10) == [1, 3]

    def test_above_bound(self, index):
        assert net(index, 15) == [2, 3]

    def test_string_ranges_are_separate(self):
        index = AttributeIndex("a")
        index.add(Predicate("a", Operator.LE, "m"), 0)
        index.add(Predicate("a", Operator.LE, 10), 1)
        assert net(index, "a") == [0]
        assert net(index, 5) == [1]

    def test_bool_values_skip_ranges(self, index):
        assert net(index, True) == []


class TestStringIndexing:
    def test_prefix_by_length(self):
        index = AttributeIndex("s")
        index.add(Predicate("s", Operator.PREFIX, "ab"), 0)
        index.add(Predicate("s", Operator.PREFIX, "abc"), 1)
        index.add(Predicate("s", Operator.PREFIX, "zz"), 2)
        assert net(index, "abcd") == [0, 1]
        assert net(index, "ab") == [0]
        assert net(index, "a") == []

    def test_not_prefix(self):
        index = AttributeIndex("s")
        index.add(Predicate("s", Operator.NOT_PREFIX, "ab"), 0)
        assert net(index, "abX") == []
        assert net(index, "zz") == [0]

    def test_contains_scan(self):
        index = AttributeIndex("s")
        index.add(Predicate("s", Operator.CONTAINS, "bc"), 0)
        index.add(Predicate("s", Operator.NOT_CONTAINS, "bc"), 1)
        assert net(index, "abcd") == [0]
        assert net(index, "xyz") == [1]


class TestIndexLifecycle:
    def test_attribute_mismatch_rejected(self):
        index = AttributeIndex("a")
        with pytest.raises(MatchingError):
            index.add(Predicate("b", Operator.EQ, 1), 0)


class TestIncrementalRemoval:
    @pytest.mark.parametrize(
        "predicate, hit_value",
        [
            (Predicate("a", Operator.EQ, 5), 5),
            (Predicate("a", Operator.IN_SET, frozenset({1, 2})), 2),
            (Predicate("a", Operator.NE, 5), 7),
            (Predicate("a", Operator.NOT_IN_SET, frozenset({1, 2})), 3),
            (Predicate("a", Operator.LT, 10), 5),
            (Predicate("a", Operator.LE, 10), 10),
            (Predicate("a", Operator.GT, 10), 15),
            (Predicate("a", Operator.GE, 10), 10),
            (Predicate("a", Operator.LE, "m"), "a"),
            (Predicate("a", Operator.PREFIX, "ab"), "abc"),
            (Predicate("a", Operator.NOT_PREFIX, "ab"), "zz"),
            (Predicate("a", Operator.CONTAINS, "bc"), "abcd"),
            (Predicate("a", Operator.NOT_CONTAINS, "bc"), "xyz"),
        ],
    )
    def test_remove_reverses_add(self, predicate, hit_value):
        index = AttributeIndex("a")
        index.add(predicate, 0)
        assert net(index, hit_value) == [0]
        index.remove(predicate, 0)
        assert net(index, hit_value) == []
        assert len(index) == 0

    def test_remove_keeps_siblings(self):
        index = AttributeIndex("a")
        index.add(Predicate("a", Operator.LT, 10), 0)
        index.add(Predicate("a", Operator.LT, 20), 1)
        index.remove(Predicate("a", Operator.LT, 10), 0)
        assert net(index, 5) == [1]

    def test_remove_unknown_entry_rejected(self):
        index = AttributeIndex("a")
        index.add(Predicate("a", Operator.EQ, 1), 0)
        with pytest.raises(MatchingError):
            index.remove(Predicate("a", Operator.EQ, 1), 9)

    def test_interleaved_add_remove(self):
        index = AttributeIndex("a")
        index.add(Predicate("a", Operator.GE, 1), 0)
        assert net(index, 3) == [0]
        index.add(Predicate("a", Operator.GE, 2), 1)
        assert net(index, 3) == [0, 1]
        index.remove(Predicate("a", Operator.GE, 1), 0)
        index.add(Predicate("a", Operator.EQ, 3), 2)
        assert net(index, 3) == [1, 2]


class TestPredicateIndexSet:
    def test_assigns_sequential_entries(self):
        index_set = PredicateIndexSet()
        assert index_set.add(Predicate("a", Operator.EQ, 1)) == 0
        assert index_set.add(Predicate("b", Operator.EQ, 2)) == 1
        assert index_set.entry_count == 2

    def test_collect_routes_by_attribute(self):
        index_set = PredicateIndexSet()
        index_set.add(Predicate("a", Operator.EQ, 1))
        index_set.add(Predicate("b", Operator.EQ, 1))
        columns = EventBatch([Event({"a": 1})]).columns()
        positives, negatives = ([], []), ([], [])
        index_set.collect_batch(columns, positives, negatives)
        assert [int(x) for array in positives[1] for x in array] == [0]

    def test_unknown_attribute_is_noop(self):
        index_set = PredicateIndexSet()
        index_set.add(Predicate("a", Operator.NE, 1))
        columns = EventBatch([Event({"zzz": 1})]).columns()
        positives, negatives = ([], []), ([], [])
        index_set.collect_batch(columns, positives, negatives)
        assert positives == ([], []) and negatives == ([], [])

    def test_attribute_names_sorted(self):
        index_set = PredicateIndexSet()
        index_set.add(Predicate("b", Operator.EQ, 1))
        index_set.add(Predicate("a", Operator.EQ, 1))
        assert index_set.attribute_names == ["a", "b"]

    def test_remove_recycles_entry_ids(self):
        index_set = PredicateIndexSet()
        predicate = Predicate("a", Operator.EQ, 1)
        entry = index_set.add(predicate)
        index_set.remove(predicate, entry)
        assert index_set.entry_count == 0
        assert index_set.add(Predicate("a", Operator.EQ, 2)) == entry
        assert index_set.entry_capacity == 1

    def test_remove_drops_empty_attribute(self):
        index_set = PredicateIndexSet()
        predicate = Predicate("a", Operator.EQ, 1)
        entry = index_set.add(predicate)
        index_set.remove(predicate, entry)
        assert index_set.attribute_names == []
