"""Tests for the counting-based filtering engine."""

import pytest

from repro.errors import MatchingError
from repro.events import Event
from repro.matching.counting import CountingMatcher
from repro.subscriptions.builder import And, Not, Or, P
from repro.subscriptions.nodes import ConstNode
from repro.subscriptions.subscription import Subscription

from tests.stats_oracle import counters, statistics_oracle


def sub(sub_id, tree, owner=None):
    return Subscription(sub_id, tree, owner=owner)


@pytest.fixture()
def matcher():
    return CountingMatcher()


class TestRegistration:
    def test_register_and_match(self, matcher):
        matcher.register(sub(1, P("a") == 1))
        assert matcher.match(Event({"a": 1})) == [1]

    def test_duplicate_id_rejected(self, matcher):
        matcher.register(sub(1, P("a") == 1))
        with pytest.raises(MatchingError):
            matcher.register(sub(1, P("a") == 2))

    def test_unregister_removes(self, matcher):
        matcher.register(sub(1, P("a") == 1))
        matcher.unregister(1)
        assert matcher.match(Event({"a": 1})) == []

    def test_unregister_unknown_rejected(self, matcher):
        with pytest.raises(MatchingError):
            matcher.unregister(9)

    def test_replace_swaps_tree(self, matcher):
        matcher.register(sub(1, P("a") == 1))
        matcher.replace(sub(1, P("a") == 2))
        assert matcher.match(Event({"a": 1})) == []
        assert matcher.match(Event({"a": 2})) == [1]

    def test_replace_unknown_rejected(self, matcher):
        with pytest.raises(MatchingError):
            matcher.replace(sub(1, P("a") == 1))

    def test_register_all(self, matcher):
        matcher.register_all([sub(1, P("a") == 1), sub(2, P("a") == 2)])
        assert matcher.subscription_count == 2


class TestPminGating:
    def test_conjunction_requires_all(self, matcher):
        matcher.register(sub(1, And(P("a") == 1, P("b") == 2, P("c") == 3)))
        assert matcher.match(Event({"a": 1, "b": 2})) == []
        assert matcher.match(Event({"a": 1, "b": 2, "c": 3})) == [1]

    def test_disjunction_requires_one(self, matcher):
        matcher.register(sub(1, Or(P("a") == 1, P("b") == 2)))
        assert matcher.match(Event({"b": 2})) == [1]

    def test_general_tree_evaluated_exactly(self, matcher):
        tree = And(P("a") == 1, Or(P("b") == 2, P("c") == 3))
        matcher.register(sub(1, tree))
        # two predicates fulfilled but the wrong two: a missing
        assert matcher.match(Event({"b": 2, "c": 3})) == []
        assert matcher.match(Event({"a": 1, "c": 3})) == [1]

    def test_negation_inside_tree(self, matcher):
        matcher.register(sub(1, And(P("a") == 1, Not(P("b") == 2))))
        assert matcher.match(Event({"a": 1, "b": 3})) == [1]
        assert matcher.match(Event({"a": 1, "b": 2})) == []
        # NOT has presence semantics: b absent -> complement unfulfilled
        assert matcher.match(Event({"a": 1})) == []

    def test_always_true_subscription_matches_everything(self, matcher):
        matcher.register(Subscription(1, ConstNode(True)))
        assert matcher.match(Event({})) == [1]
        assert matcher.match(Event({"x": 1})) == [1]

    def test_always_false_subscription_never_matches(self, matcher):
        matcher.register(Subscription(1, ConstNode(False)))
        assert matcher.match(Event({})) == []


class TestMultipleSubscriptions:
    def test_results_sorted_by_id(self, matcher):
        matcher.register(sub(5, P("a") == 1))
        matcher.register(sub(2, P("a") == 1))
        matcher.register(sub(9, P("a") == 2))
        assert matcher.match(Event({"a": 1})) == [2, 5]

    def test_match_subscriptions_resolves_objects(self, matcher):
        matcher.register(sub(1, P("a") == 1, owner="alice"))
        matched = matcher.match_subscriptions(Event({"a": 1}))
        assert matched[0].owner == "alice"

    def test_association_count_sums_leaves(self, matcher):
        matcher.register(sub(1, And(P("a") == 1, P("b") == 2)))
        matcher.register(sub(2, P("a") == 1))
        assert matcher.association_count == 3

    def test_entry_count_matches_leaves(self, matcher):
        matcher.register(sub(1, And(P("a") == 1, P("b") == 2)))
        matcher.register(sub(2, Or(P("a") == 1, P("c") == 3)))
        assert matcher.entry_count == 4


class TestStatistics:
    def test_counters_accumulate(self, matcher):
        matcher.register(sub(1, And(P("a") == 1, P("b") == 2)))
        matcher.register(sub(2, And(P("a") != 1, Or(P("b") == 2, P("c") < 3))))
        events = [Event({"a": 1, "b": 2}), Event({"a": 1}), Event({"a": 2, "c": 0})]
        for event in events:
            matcher.match(event)
        stats = matcher.statistics
        assert stats.events == 3
        assert stats.matches == 2
        assert stats.elapsed_seconds > 0
        assert counters(stats) == statistics_oracle(
            matcher.subscriptions().values(), events
        )

    def test_flat_shapes_do_not_need_tree_evaluation(self, matcher):
        matcher.register(sub(1, And(P("a") == 1, P("b") == 2)))
        matcher.register(sub(2, Or(P("a") == 1, P("b") == 2)))
        matcher.match(Event({"a": 1, "b": 2}))
        assert matcher.statistics.tree_evaluations == 0

    def test_general_tree_counts_evaluation(self, matcher):
        matcher.register(sub(1, And(P("a") == 1, Or(P("b") == 2, P("c") == 3))))
        matcher.match(Event({"a": 1, "b": 2}))
        assert matcher.statistics.tree_evaluations == 1

    def test_reset(self, matcher):
        matcher.register(sub(1, P("a") == 1))
        matcher.match(Event({"a": 1}))
        matcher.statistics.reset()
        assert matcher.statistics.events == 0

    def test_merge(self):
        from repro.matching.stats import MatchStatistics

        a, b = MatchStatistics(), MatchStatistics()
        a.events, b.events = 2, 3
        a.matches, b.matches = 1, 4
        a.merge(b)
        assert a.events == 5
        assert a.matches == 5

    def test_mean_time_and_match_rate(self):
        from repro.matching.stats import MatchStatistics

        stats = MatchStatistics()
        assert stats.mean_time_per_event == 0.0
        assert stats.match_rate == 0.0
        stats.events = 4
        stats.matches = 6
        stats.elapsed_seconds = 2.0
        assert stats.mean_time_per_event == 0.5
        assert stats.match_rate == 1.5


class TestDiagnostics:
    def test_fulfilled_counts(self, matcher):
        matcher.register(sub(1, And(P("a") == 1, P("b") == 2, P("c") == 3)))
        matcher.register(sub(2, P("a") == 1))
        counts = matcher.fulfilled_counts(Event({"a": 1, "b": 2}))
        assert counts == {1: 2, 2: 1}

    def test_not_equal_counting_via_subtraction(self, matcher):
        matcher.register(sub(1, And(P("a") != 5, P("b") == 1)))
        counts = matcher.fulfilled_counts(Event({"a": 5, "b": 1}))
        assert counts[1] == 1  # only b == 1 fulfilled
        counts = matcher.fulfilled_counts(Event({"a": 4, "b": 1}))
        assert counts[1] == 2

    def test_rebuild_is_lazy(self, matcher):
        matcher.register(sub(1, P("a") == 1))
        matcher.match(Event({"a": 1}))
        matcher.register(sub(2, P("a") == 1))
        # the new registration is visible on the next match
        assert matcher.match(Event({"a": 1})) == [1, 2]


class TestAutoCompaction:
    """The fragmentation heuristic: unregister churn triggers rebuild()."""

    @staticmethod
    def _fill(matcher, count):
        for index in range(count):
            matcher.register(sub(index, And(P("a") == index, P("b") <= index)))

    def test_compaction_triggers_at_threshold(self):
        # Single-leaf subscriptions keep the slot and entry free lists in
        # lockstep: with 129 registered, the 64th unregistration is the
        # first to clear both the absolute floor (64 free) and the
        # fraction gate (64 > 65 live * 0.5), and must compact.
        matcher = CountingMatcher()
        for index in range(129):
            matcher.register(sub(index, P("a") == index))
        for index in range(63):
            matcher.unregister(index)
        assert len(matcher._free_slots) == 63  # not yet
        matcher.unregister(63)
        assert len(matcher._slots) == 65
        assert not matcher._free_slots
        assert matcher._indexes.entry_capacity == matcher.entry_count == 65
        assert matcher.match(Event({"a": 100})) == [100]

    def test_heavy_unregister_churn_keeps_table_dense(self):
        matcher = CountingMatcher()
        self._fill(matcher, 200)
        for index in range(150):
            matcher.unregister(index)
        live = len(matcher._subscriptions)
        assert live == 50
        # Repeated compactions keep the id spaces near the live population
        # (at most one un-triggered churn tail of fragmentation).
        assert len(matcher._slots) - len(matcher._free_slots) == live
        assert len(matcher._slots) < 100
        assert matcher._indexes.entry_capacity < 200
        assert matcher.match(Event({"a": 199, "b": 0})) == [199]

    def test_small_tables_never_thrash(self):
        matcher = CountingMatcher()
        self._fill(matcher, 20)
        for index in range(19):
            matcher.unregister(index)
        # Free lists stay below the absolute compaction floor.
        assert len(matcher._slots) == 20
        assert len(matcher._free_slots) == 19

    def test_disabled_by_none(self):
        matcher = CountingMatcher(compact_free_fraction=None)
        self._fill(matcher, 200)
        for index in range(199):
            matcher.unregister(index)
        assert len(matcher._slots) == 200
        assert len(matcher._free_slots) == 199
        assert matcher.match(Event({"a": 199, "b": 0})) == [199]

    def test_replace_churn_never_compacts(self):
        # Replace reuses its freed ids immediately; auto-compaction on the
        # replace path would make it O(table) again.
        matcher = CountingMatcher()
        self._fill(matcher, 200)
        slots_before = len(matcher._slots)
        for index in range(200):
            matcher.replace(sub(index, And(P("a") == -index, P("b") <= index)))
        assert len(matcher._slots) == slots_before
        assert matcher._indexes.entry_capacity == 400
