"""Fuzz the attribute index against direct predicate evaluation.

Property: for any set of registered predicates on one attribute and any
column of probe values, the batched probe ``collect_batch`` reports, per
row, net fulfilled entries (positives minus negatives) that are exactly
the entries whose predicate accepts that row's value.  Columns mix
numeric, string and boolean values, so every kind split of the column is
probed at once.  This is the correctness core of the counting engine,
independent of subscription structure.

The same corpus also drives the full engines (parametrized over the
unsharded counting matcher and the sharded path, serial and process
workers): single-predicate subscriptions over random predicates,
matched against random events under unregister/replace churn, must
agree with direct per-predicate evaluation.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.events import Event, EventBatch
from repro.matching.predicate_index import AttributeIndex
from repro.subscriptions.nodes import PredicateLeaf
from repro.subscriptions.subscription import Subscription

from tests import strategies


def _check_index(predicates, values, attribute):
    """Register ``predicates`` (rebased onto ``attribute``) and probe one
    column holding ``values``; every row must net exactly the entries
    whose predicate accepts its value."""
    index = AttributeIndex(attribute)
    rebased = []
    for entry, predicate in enumerate(predicates):
        rebased.append(
            type(predicate)(attribute, predicate.operator, predicate.value)
        )
        index.add(rebased[-1], entry)
    batch = EventBatch([Event({attribute: value}) for value in values])
    positives, negatives = ([], []), ([], [])
    index.collect_batch(batch.columns().column(attribute), positives, negatives)
    net = [[] for _ in values]
    for rows, entries in zip(*positives):
        for row, entry in zip(rows.tolist(), entries.tolist()):
            net[row].append(entry)
    for rows, entries in zip(*negatives):
        for row, entry in zip(rows.tolist(), entries.tolist()):
            net[row].remove(entry)
    for row, value in enumerate(values):
        expected = [
            entry
            for entry, predicate in enumerate(rebased)
            if predicate.test(value)
        ]
        assert sorted(net[row]) == expected, (value, rebased)


def _columns(values):
    """Multi-row probe columns drawn from ``values``."""
    return st.lists(st.sampled_from(values), min_size=1, max_size=8)


@given(
    st.lists(strategies.numeric_predicates(), min_size=1, max_size=12),
    _columns(
        strategies.NUMERIC_VALUES
        + [float("inf"), float("-inf"), True, False, "zap"]
    ),
)
@settings(max_examples=200, deadline=None)
def test_numeric_attribute_index_matches_direct_evaluation(predicates, values):
    _check_index(predicates, values, "na")


@given(
    st.lists(strategies.string_predicates(), min_size=1, max_size=12),
    _columns(strategies.STRING_VALUES + [3, 2.5, True]),
)
@settings(max_examples=200, deadline=None)
def test_string_attribute_index_matches_direct_evaluation(predicates, values):
    _check_index(predicates, values, "sa")


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
    _columns([True, False, 0, 1, "x"]),
)
@settings(max_examples=100, deadline=None)
def test_bool_attribute_index_matches_direct_evaluation(predicates, values):
    _check_index(predicates, values, "ba")
