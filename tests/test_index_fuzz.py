"""Fuzz the attribute index against direct predicate evaluation.

Property: for any set of registered predicates on one attribute and any
probe value, the index's net fulfilled entries (positives minus
negatives) are exactly the entries whose predicate accepts the value.
This is the correctness core of the counting engine, independent of
subscription structure.

The same corpus also drives the full engines (parametrized over the
unsharded counting matcher and the sharded path, serial and threaded):
single-predicate subscriptions over random predicates, matched against
random events under unregister/replace churn, must agree with direct
per-predicate evaluation.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.matching.predicate_index import AttributeIndex
from repro.subscriptions.nodes import PredicateLeaf
from repro.subscriptions.subscription import Subscription

from tests import strategies


def _net_entries(index, value):
    positives, negatives = [], []
    index.collect(value, positives, negatives)
    flat_pos = [int(x) for array in positives for x in array]
    result = list(flat_pos)
    for array in negatives:
        for entry in array:
            result.remove(int(entry))
    return sorted(result)


@given(
    st.lists(strategies.numeric_predicates(), min_size=1, max_size=12),
    st.sampled_from(strategies.NUMERIC_VALUES + [True, False, "zap"]),
)
@settings(max_examples=200, deadline=None)
def test_numeric_attribute_index_matches_direct_evaluation(predicates, value):
    attribute = "na"
    index = AttributeIndex(attribute)
    rebased = []
    for entry, predicate in enumerate(predicates):
        rebased.append(
            type(predicate)(attribute, predicate.operator, predicate.value)
        )
        index.add(rebased[-1], entry)
    index.finalize()
    expected = sorted(
        entry
        for entry, predicate in enumerate(rebased)
        if predicate.test(value)
    )
    assert _net_entries(index, value) == expected


@given(
    st.lists(strategies.string_predicates(), min_size=1, max_size=12),
    st.sampled_from(strategies.STRING_VALUES + [3, True]),
)
@settings(max_examples=200, deadline=None)
def test_string_attribute_index_matches_direct_evaluation(predicates, value):
    attribute = "sa"
    index = AttributeIndex(attribute)
    rebased = []
    for entry, predicate in enumerate(predicates):
        rebased.append(
            type(predicate)(attribute, predicate.operator, predicate.value)
        )
        index.add(rebased[-1], entry)
    index.finalize()
    expected = sorted(
        entry
        for entry, predicate in enumerate(rebased)
        if predicate.test(value)
    )
    assert _net_entries(index, value) == expected


@pytest.mark.parametrize(
    "make_matcher",
    strategies.MATCHER_FACTORIES,
    ids=strategies.MATCHER_FACTORY_IDS,
)
@given(
    predicates=st.lists(strategies.predicates(), min_size=1, max_size=12),
    event=strategies.events(),
)
@settings(max_examples=50, deadline=None)
def test_matchers_track_direct_predicate_evaluation(
    make_matcher, predicates, event
):
    """Engine-level fuzz: the fuzz corpus through the (sharded) matcher.

    Every predicate becomes a single-leaf subscription; the matcher's
    id lists must equal direct per-predicate evaluation — after
    registration, after a no-op replace of every live subscription, and
    after unregistering every odd id (which hits shards the even ids
    never touched, including empty ones).
    """
    matcher = make_matcher()
    try:
        for sub_id, predicate in enumerate(predicates):
            matcher.register(Subscription(sub_id, PredicateLeaf(predicate)))

        def expected(live_ids):
            return sorted(
                sub_id
                for sub_id in live_ids
                if predicates[sub_id].evaluate(event)
            )

        live = list(range(len(predicates)))
        assert matcher.match(event) == expected(live)
        # Replace that changes nothing: same tree, same id, same shard.
        for sub_id in live:
            matcher.replace(
                Subscription(sub_id, PredicateLeaf(predicates[sub_id]))
            )
        assert matcher.match_batch([event]) == [expected(live)]
        for sub_id in [sub_id for sub_id in live if sub_id % 2]:
            matcher.unregister(sub_id)
            live.remove(sub_id)
        assert matcher.match_batch([event, event]) == [expected(live)] * 2
    finally:
        # The process factory owns a worker pool; one leaked pool per
        # hypothesis example would pile up idle worker processes.
        matcher.close()


@given(
    st.lists(strategies.bool_predicates(), min_size=1, max_size=8),
    st.sampled_from([True, False, 0, 1, "x"]),
)
@settings(max_examples=100, deadline=None)
def test_bool_attribute_index_matches_direct_evaluation(predicates, value):
    attribute = "ba"
    index = AttributeIndex(attribute)
    rebased = []
    for entry, predicate in enumerate(predicates):
        rebased.append(
            type(predicate)(attribute, predicate.operator, predicate.value)
        )
        index.add(rebased[-1], entry)
    index.finalize()
    expected = sorted(
        entry
        for entry, predicate in enumerate(rebased)
        if predicate.test(value)
    )
    assert _net_entries(index, value) == expected
