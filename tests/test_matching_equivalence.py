"""Property tests: the counting engine agrees with the naive oracle."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.events import Event
from repro.matching.counting import CountingMatcher
from repro.matching.naive import NaiveMatcher
from repro.subscriptions.nodes import PredicateLeaf
from repro.subscriptions.predicates import Operator, Predicate
from repro.subscriptions.subscription import Subscription

from tests import strategies


@given(
    st.lists(strategies.trees(), min_size=1, max_size=8),
    st.lists(strategies.events(), min_size=1, max_size=8),
)
@settings(max_examples=120, deadline=None)
def test_counting_equals_naive_on_random_workloads(trees, events):
    counting = CountingMatcher()
    naive = NaiveMatcher()
    for index, tree in enumerate(trees):
        subscription = Subscription(index, tree)
        counting.register(subscription)
        naive.register(subscription)
    for event in events:
        assert sorted(counting.match(event)) == sorted(naive.match(event))


@given(strategies.trees(), st.lists(strategies.events(), min_size=1, max_size=6))
@settings(max_examples=100, deadline=None)
def test_counting_agrees_after_replacement(tree, events):
    """Replacing a subscription behaves as if it had been registered fresh."""
    counting = CountingMatcher()
    counting.register(Subscription(0, tree))
    counting.match(events[0])  # force a build on the old tree
    replacement = Subscription(0, tree)
    counting.replace(replacement)
    oracle = NaiveMatcher()
    oracle.register(replacement)
    for event in events:
        assert sorted(counting.match(event)) == sorted(oracle.match(event))


def test_counting_equals_naive_on_auction_workload(
    workload, auction_events, auction_subscriptions
):
    """End-to-end agreement on the realistic workload (first 120 subs)."""
    counting = CountingMatcher()
    naive = NaiveMatcher()
    for subscription in auction_subscriptions[:120]:
        counting.register(subscription)
        naive.register(subscription)
    for event in auction_events.events[:150]:
        assert sorted(counting.match(event)) == sorted(naive.match(event))


@pytest.mark.parametrize(
    "make_matcher",
    strategies.MATCHER_FACTORIES[:2],
    ids=strategies.MATCHER_FACTORY_IDS[:2],
)
def test_infinities_match_like_the_oracle(make_matcher):
    """``±inf`` are ordinary numbers: for every ordered and equality
    operator, against finite and infinite constants, the engines agree
    with the naive oracle."""
    operators = [
        Operator.EQ, Operator.NE, Operator.LT, Operator.LE, Operator.GT, Operator.GE,
    ]
    constants = [float("-inf"), -1, 0, 5, 2.5, float("inf")]
    matcher = make_matcher()
    naive = NaiveMatcher()
    sub_id = 0
    for operator in operators:
        for constant in constants:
            subscription = Subscription(
                sub_id, PredicateLeaf(Predicate("x", operator, constant))
            )
            matcher.register(subscription)
            naive.register(subscription)
            sub_id += 1
    events = [
        Event({"x": value})
        for value in (float("inf"), float("-inf"), 5, 1.0, -1)
    ]
    expected = [sorted(naive.match(event)) for event in events]
    assert all(expected)
    assert matcher.match_batch(events) == expected
    assert [matcher.match(event) for event in events] == expected

