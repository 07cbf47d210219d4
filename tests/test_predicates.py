"""Tests for predicate semantics (every operator, every edge case)."""

import pytest
from hypothesis import given

from repro.errors import SubscriptionError
from repro.events import Event
from repro.subscriptions.predicates import Operator, Predicate

from tests import strategies


def pred(attribute, operator, value):
    return Predicate(attribute, operator, value)


class TestEqualityOperators:
    def test_eq_matches_equal_value(self):
        assert pred("a", Operator.EQ, 5).evaluate(Event({"a": 5}))

    def test_eq_int_float_equivalence(self):
        assert pred("a", Operator.EQ, 5).evaluate(Event({"a": 5.0}))

    def test_eq_rejects_different_value(self):
        assert not pred("a", Operator.EQ, 5).evaluate(Event({"a": 6}))

    def test_eq_never_equates_bool_and_int(self):
        assert not pred("a", Operator.EQ, True).evaluate(Event({"a": 1}))
        assert not pred("a", Operator.EQ, 1).evaluate(Event({"a": True}))

    def test_eq_never_equates_string_and_number(self):
        assert not pred("a", Operator.EQ, "5").evaluate(Event({"a": 5}))

    def test_ne_requires_presence(self):
        assert not pred("a", Operator.NE, 5).evaluate(Event({"b": 1}))

    def test_ne_matches_other_value(self):
        assert pred("a", Operator.NE, 5).evaluate(Event({"a": 6}))

    def test_ne_rejects_equal_value(self):
        assert not pred("a", Operator.NE, 5).evaluate(Event({"a": 5}))

    def test_ne_across_kinds_is_fulfilled(self):
        # a string value is "not equal" to a numeric constant
        assert pred("a", Operator.NE, 5).evaluate(Event({"a": "five"}))


class TestRangeOperators:
    @pytest.mark.parametrize(
        "operator,value,expected",
        [
            (Operator.LT, 4, True),
            (Operator.LT, 5, False),
            (Operator.LE, 5, True),
            (Operator.LE, 5.001, False),
            (Operator.GT, 6, True),
            (Operator.GT, 5, False),
            (Operator.GE, 5, True),
            (Operator.GE, 4.999, False),
        ],
    )
    def test_numeric_boundaries(self, operator, value, expected):
        # event value 5; predicate is (a op value) meaning value is the constant
        probe = Predicate("a", operator, 5)
        assert probe.test(value) is expected

    def test_string_lexicographic_comparison(self):
        assert pred("s", Operator.LT, "m").evaluate(Event({"s": "abc"}))
        assert not pred("s", Operator.LT, "m").evaluate(Event({"s": "zzz"}))

    def test_kind_mismatch_is_unfulfilled(self):
        assert not pred("a", Operator.LT, 10).evaluate(Event({"a": "str"}))
        assert not pred("a", Operator.LT, "m").evaluate(Event({"a": 3}))

    def test_bool_event_value_is_not_ordered(self):
        assert not pred("a", Operator.LT, 10).evaluate(Event({"a": True}))

    def test_bool_constant_rejected(self):
        with pytest.raises(SubscriptionError):
            Predicate("a", Operator.LE, True)


class TestSetOperators:
    def test_in_set_matches_member(self):
        probe = pred("a", Operator.IN_SET, frozenset({1, 2, 3}))
        assert probe.evaluate(Event({"a": 2}))

    def test_in_set_rejects_non_member(self):
        probe = pred("a", Operator.IN_SET, frozenset({1, 2, 3}))
        assert not probe.evaluate(Event({"a": 4}))

    def test_not_in_set_requires_presence(self):
        probe = pred("a", Operator.NOT_IN_SET, frozenset({1}))
        assert not probe.evaluate(Event({}))

    def test_not_in_set_matches_non_member(self):
        probe = pred("a", Operator.NOT_IN_SET, frozenset({1}))
        assert probe.evaluate(Event({"a": 2}))

    def test_accepts_list_value(self):
        probe = Predicate("a", Operator.IN_SET, [1, 2])
        assert probe.evaluate(Event({"a": 1}))

    def test_empty_set_rejected(self):
        with pytest.raises(SubscriptionError):
            Predicate("a", Operator.IN_SET, frozenset())

    def test_scalar_value_rejected(self):
        with pytest.raises(SubscriptionError):
            Predicate("a", Operator.IN_SET, 5)

    @pytest.mark.parametrize("operator", [Operator.IN_SET, Operator.NOT_IN_SET])
    def test_nan_member_rejected(self, operator):
        with pytest.raises(SubscriptionError):
            Predicate("a", operator, frozenset({1.0, float("nan")}))


@pytest.mark.parametrize(
    "operator",
    [Operator.EQ, Operator.NE, Operator.LT, Operator.LE, Operator.GT, Operator.GE],
)
def test_nan_constant_rejected(operator):
    with pytest.raises(SubscriptionError):
        Predicate("a", operator, float("nan"))


class TestStringOperators:
    def test_prefix(self):
        assert pred("s", Operator.PREFIX, "ab").evaluate(Event({"s": "abc"}))
        assert not pred("s", Operator.PREFIX, "ab").evaluate(Event({"s": "ba"}))

    def test_not_prefix_requires_presence(self):
        assert not pred("s", Operator.NOT_PREFIX, "ab").evaluate(Event({}))

    def test_not_prefix(self):
        assert pred("s", Operator.NOT_PREFIX, "ab").evaluate(Event({"s": "ba"}))

    def test_contains(self):
        assert pred("s", Operator.CONTAINS, "bc").evaluate(Event({"s": "abcd"}))
        assert not pred("s", Operator.CONTAINS, "xy").evaluate(Event({"s": "abcd"}))

    def test_not_contains(self):
        assert pred("s", Operator.NOT_CONTAINS, "xy").evaluate(Event({"s": "abcd"}))

    def test_string_op_on_numeric_value_unfulfilled(self):
        assert not pred("s", Operator.PREFIX, "a").evaluate(Event({"s": 5}))
        assert not pred("s", Operator.NOT_PREFIX, "a").evaluate(Event({"s": 5}))

    def test_string_op_requires_string_constant(self):
        with pytest.raises(SubscriptionError):
            Predicate("s", Operator.PREFIX, 5)


class TestComplement:
    @given(strategies.predicates(), strategies.events())
    def test_complement_is_presence_conditioned_negation(self, predicate, event):
        """complement(p) holds iff the attribute is present and p fails."""
        complement = predicate.complemented
        present = predicate.attribute in event
        assert complement.evaluate(event) == (
            present and not predicate.evaluate(event)
        )

    @given(strategies.predicates())
    def test_double_complement_is_identity(self, predicate):
        assert predicate.complemented.complemented == predicate

    def test_all_operators_have_complements(self):
        for operator in Operator:
            assert operator.complement.complement is operator


class TestPredicateObject:
    def test_equality_and_hash(self):
        a = pred("a", Operator.LE, 5)
        b = pred("a", Operator.LE, 5)
        assert a == b
        assert hash(a) == hash(b)

    def test_inequality_on_operator(self):
        assert pred("a", Operator.LE, 5) != pred("a", Operator.LT, 5)

    def test_size_grows_with_attribute_length(self):
        small = pred("a", Operator.EQ, 1)
        large = pred("a" * 10, Operator.EQ, 1)
        assert large.size_bytes > small.size_bytes

    def test_size_counts_set_members(self):
        one = pred("a", Operator.IN_SET, frozenset({1}))
        three = pred("a", Operator.IN_SET, frozenset({1, 2, 3}))
        assert three.size_bytes > one.size_bytes

    def test_sort_key_total_order_is_deterministic(self):
        probes = [
            pred("a", Operator.EQ, 1),
            pred("a", Operator.LE, 5),
            pred("b", Operator.EQ, "x"),
            pred("a", Operator.IN_SET, frozenset({1, 2})),
        ]
        assert sorted(probes, key=lambda p: p.sort_key()) == sorted(
            reversed(probes), key=lambda p: p.sort_key()
        )

    def test_rejects_empty_attribute(self):
        with pytest.raises(SubscriptionError):
            Predicate("", Operator.EQ, 1)

    def test_rejects_non_operator(self):
        with pytest.raises(SubscriptionError):
            Predicate("a", "==", 1)

    def test_repr_mentions_operator(self):
        assert "<=" in repr(pred("a", Operator.LE, 5))
