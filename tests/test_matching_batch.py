"""Property tests: batch matching ≡ per-event matching ≡ naive oracle,
with the counting engine maintained **incrementally** (no rebuild calls)
under interleaved register/unregister/replace churn.

These are the correctness contract of the batch-vectorized pipeline:
``CountingMatcher.match_batch`` must produce exactly the match sets of
sequential ``match`` calls and of the loop-based ``NaiveMatcher`` path,
at every point of an arbitrary churn history.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.events import EventBatch
from repro.matching.batch import counting_match_batch_rowwise
from repro.matching.counting import CountingMatcher
from repro.matching.naive import NaiveMatcher
from repro.subscriptions.subscription import Subscription

from tests import strategies

#: Churn op codes drawn by the stateful property below.
_OP_REGISTER = "register"
_OP_UNREGISTER = "unregister"
_OP_REPLACE = "replace"


def churn_ops():
    """A random churn history: (op, tree) pairs over a small id space."""
    return st.lists(
        st.tuples(
            st.sampled_from([_OP_REGISTER, _OP_REGISTER, _OP_REPLACE, _OP_UNREGISTER]),
            strategies.trees(),
        ),
        min_size=1,
        max_size=12,
    )


def apply_churn(ops):
    """Apply ``ops`` to a counting engine and a naive oracle in lockstep.

    Register/replace/unregister are resolved against the currently live
    id set so every drawn op is applicable; ids are never recycled, which
    exercises the engines' slot/entry free lists.
    """
    counting = CountingMatcher()
    oracle = NaiveMatcher()
    next_id = 0
    live = []
    for op, tree in ops:
        if op == _OP_REGISTER or not live:
            subscription = Subscription(next_id, tree)
            next_id += 1
            live.append(subscription.id)
            counting.register(subscription)
            oracle.register(subscription)
        elif op == _OP_REPLACE:
            target = live[len(live) // 2]
            replacement = Subscription(target, tree)
            counting.replace(replacement)
            oracle.unregister(target)
            oracle.register(replacement)
        else:  # unregister
            target = live.pop()
            counting.unregister(target)
            oracle.unregister(target)
    return counting, oracle


@given(
    st.lists(strategies.trees(), min_size=1, max_size=8),
    st.lists(strategies.events(), min_size=1, max_size=8),
)
@settings(max_examples=120, deadline=None)
def test_batch_equals_sequential_and_naive(trees, events):
    counting = CountingMatcher()
    naive = NaiveMatcher()
    for index, tree in enumerate(trees):
        subscription = Subscription(index, tree)
        counting.register(subscription)
        naive.register(subscription)
    batched = counting.match_batch(events)
    naive_batched = naive.match_batch(events)
    assert len(batched) == len(events)
    for event, matched in zip(events, batched):
        assert matched == sorted(counting.match(event))
        assert matched == sorted(naive.match(event))
    assert [sorted(ids) for ids in naive_batched] == batched


@given(churn_ops(), st.lists(strategies.events(), min_size=1, max_size=6))
@settings(max_examples=120, deadline=None)
def test_incremental_engine_tracks_oracle_under_churn(ops, events):
    counting, oracle = apply_churn(ops)
    for event in events:
        assert counting.match(event) == sorted(oracle.match(event))
    assert counting.match_batch(events) == [
        sorted(ids) for ids in oracle.match_batch(events)
    ]


@given(churn_ops(), st.lists(strategies.events(), min_size=1, max_size=6))
@settings(max_examples=120, deadline=None)
def test_columnar_probe_equals_per_event_match_under_churn(ops, events):
    """Columnar ``match_batch`` ≡ per-event ``match`` ≡ rowwise probe.

    The strategies draw events with ~80% attribute presence, so the
    columnar presence rows (missing-attribute semantics) are exercised,
    and churn fragments the slot/entry id spaces the probes write into.
    """
    counting, _oracle = apply_churn(ops)
    batch = EventBatch(events)
    columnar = counting.match_batch(batch)
    assert columnar == [counting.match(event) for event in events]
    assert columnar == counting_match_batch_rowwise(counting, events)
    # Sub-batch columns derived by row selection agree with columns
    # built from the picked events directly.
    positions = list(range(0, len(events), 2))
    assert counting.match_batch(batch.subset(positions)) == [
        columnar[position] for position in positions
    ]


@given(churn_ops(), st.lists(strategies.events(), min_size=1, max_size=6))
@settings(max_examples=80, deadline=None)
def test_compaction_is_invisible(ops, events):
    """rebuild() (compaction) never changes match results."""
    counting, _oracle = apply_churn(ops)
    before = counting.match_batch(events)
    counting.rebuild()
    assert counting.match_batch(events) == before


@given(churn_ops())
@settings(max_examples=80, deadline=None)
def test_entry_count_tracks_live_leaves(ops):
    counting, _oracle = apply_churn(ops)
    expected = sum(
        subscription.leaf_count
        for subscription in counting.subscriptions().values()
    )
    assert counting.entry_count == expected


def test_entry_ids_are_recycled_under_replace_churn():
    """Replacing in place must not grow the entry id space."""
    from repro.subscriptions.builder import And, P

    matcher = CountingMatcher()
    matcher.register(Subscription(0, And(P("a") == 1, P("b") <= 2)))
    capacity = matcher._indexes.entry_capacity
    for round_number in range(50):
        matcher.replace(Subscription(0, And(P("a") == round_number, P("b") <= 2)))
    assert matcher._indexes.entry_capacity == capacity


@given(
    st.lists(strategies.trees(), min_size=1, max_size=6),
    st.lists(strategies.events(), min_size=4, max_size=10),
)
@settings(max_examples=60, deadline=None)
def test_columnar_chunking_is_invisible(trees, events):
    """Forcing tiny chunks (column row-slicing per chunk) changes nothing."""
    from repro.matching import batch as batch_module

    counting = CountingMatcher()
    for index, tree in enumerate(trees):
        counting.register(Subscription(index, tree))
    expected = counting.match_batch(events)
    original = batch_module._MAX_CHUNK
    batch_module._MAX_CHUNK = 3
    try:
        assert counting.match_batch(EventBatch(events)) == expected
        assert counting_match_batch_rowwise(counting, events) == expected
    finally:
        batch_module._MAX_CHUNK = original


def _statistics_tuple(matcher):
    stats = matcher.statistics
    return (stats.events, stats.matches, stats.candidates,
            stats.tree_evaluations, stats.fulfilled_predicates)


@given(churn_ops(), st.lists(strategies.events(), min_size=1, max_size=6))
@settings(max_examples=100, deadline=None)
def test_vectorized_tree_fallback_equals_scalar_under_churn(ops, events):
    """Whole-program tree evaluation in ``match_batch`` ≡ the per-event
    ``match`` (the recursive ``_evaluate_compiled``) ≡ the naive oracle,
    with bit-identical statistics.

    Two engines built through the same churn history answer the same
    events, one as a batch and one per event; both must agree with the
    oracle on match sets and with each other on (events, matches,
    candidates, tree_evaluations, fulfilled_predicates).
    """
    batch_engine, oracle = apply_churn(ops)
    per_event_engine, _ = apply_churn(ops)
    batched = batch_engine.match_batch(EventBatch(events))
    per_event = [per_event_engine.match(event) for event in events]
    assert batched == per_event
    assert batched == [sorted(oracle.match(event)) for event in events]
    assert _statistics_tuple(batch_engine) == _statistics_tuple(per_event_engine)


@given(
    st.lists(strategies.trees(max_leaves=24), min_size=1, max_size=5),
    st.lists(strategies.events(), min_size=1, max_size=6),
)
@settings(max_examples=60, deadline=None)
def test_deep_trees_vectorize_equivalently(trees, events):
    """Deeper/wider general trees than the default strategy draws."""
    counting = CountingMatcher()
    naive = NaiveMatcher()
    for index, tree in enumerate(trees):
        counting.register(Subscription(index, tree))
        naive.register(Subscription(index, tree))
    assert counting.match_batch(EventBatch(events)) == [
        sorted(naive.match(event)) for event in events
    ]


@given(churn_ops(), st.lists(strategies.events(), min_size=1, max_size=6))
@settings(max_examples=60, deadline=None)
def test_pruned_trees_vectorize_equivalently(ops, events):
    """Pruning (dropping an AND child, the paper's generalization) is a
    ``replace``; the compiled program must track it exactly."""
    from repro.subscriptions.nodes import AndNode

    counting, oracle = apply_churn(ops)
    for sub_id, subscription in sorted(counting.subscriptions().items()):
        for path, node in subscription.tree.iter_nodes():
            if isinstance(node, AndNode) and len(node.children) >= 2:
                pruned_node = (
                    node.children[0]
                    if len(node.children) == 2
                    else AndNode(node.children[1:])
                )
                pruned = subscription.tree.replace_at(path, pruned_node)
                replacement = Subscription(sub_id, pruned)
                counting.replace(replacement)
                oracle.unregister(sub_id)
                oracle.register(replacement)
                break
    assert counting.match_batch(EventBatch(events)) == [
        sorted(oracle.match(event)) for event in events
    ]


def test_trees_deeper_than_64_levels_compile_and_match():
    """Every general tree compiles, however deep; the batch path still
    matches the per-event path and the naive oracle."""
    from repro.events import Event
    from repro.subscriptions.builder import And, Or, P

    matcher = CountingMatcher()
    naive = NaiveMatcher()
    for sub_id in range(3):
        # Alternate AND/OR so normalization cannot flatten the nesting;
        # with every OR leaf false and every AND leaf true, the innermost
        # leaf decides.
        tree = P("na") >= sub_id
        for level in range(80):
            if level % 2:
                tree = And(P("nc") <= level, tree)
            else:
                tree = Or(P("nb") <= level, tree)
        matcher.register(Subscription(sub_id, tree))
        naive.register(Subscription(sub_id, tree))
    assert matcher.tree_slot_count == 3
    assert len(matcher._tree_programs) == matcher.tree_slot_count
    events = [
        Event({"na": na, "nb": nb, "nc": nc})
        for na in (0, 1, 5)
        for nb in (-1, 40, 200)
        for nc in (0, 40, 100)
    ] + [Event({"nb": 200, "nc": 0}), Event({})]
    expected = [sorted(naive.match(event)) for event in events]
    assert len(set(map(tuple, expected))) > 2
    assert matcher.match_batch(EventBatch(events)) == expected
    assert [matcher.match(event) for event in events] == expected


def test_flags_matrix_skipped_for_flat_only_tables():
    """Flat-only tables without negated entries never allocate flags."""
    from repro.subscriptions.builder import And, Or, P
    from repro.events import Event
    from repro.matching.batch import _BatchRun

    flat = CountingMatcher()
    flat.register(Subscription(0, And(P("na") <= 2, P("nb") >= 0)))
    flat.register(Subscription(1, P("sa") == "alpha"))
    assert _BatchRun(flat).need_flags is False
    assert flat.match_batch([Event({"na": 1, "nb": 1})]) == [[0]]

    negated = CountingMatcher()
    negated.register(Subscription(0, P("na") != 2))
    assert negated.negated_entry_count == 1
    assert _BatchRun(negated).need_flags is True

    treed = CountingMatcher()
    treed.register(
        Subscription(0, And(P("na") <= 2, Or(P("nb") >= 0, P("nc") == 1)))
    )
    assert treed.tree_slot_count == 1
    assert _BatchRun(treed).need_flags is True


def test_batch_statistics_match_sequential(workload, auction_events,
                                           auction_subscriptions):
    """Batch and sequential paths account identical statistics."""
    events = auction_events.events[:100]
    sequential = CountingMatcher()
    batched = CountingMatcher()
    for subscription in auction_subscriptions[:80]:
        sequential.register(subscription)
        batched.register(subscription)
    for event in events:
        sequential.match(event)
    batched.match_batch(events)
    a, b = sequential.statistics, batched.statistics
    assert (a.events, a.matches, a.candidates, a.tree_evaluations,
            a.fulfilled_predicates) == (
        b.events, b.matches, b.candidates, b.tree_evaluations,
        b.fulfilled_predicates)
