"""Property tests: sharded matching ≡ unsharded ≡ per-event oracle.

The equivalence harness of the sharded engine
(:mod:`repro.matching.sharded`): at every point of an arbitrary
register/unregister/replace churn history, for every shard count and
every executor — serial, and process workers fed shared-memory
batches — a :class:`ShardedMatcher` must produce exactly the
per-event id lists of one unsharded :class:`CountingMatcher` over the
same table — and exactly its path-independent ``MatchStatistics``
counters — including empty shards and worst-case all-subscriptions-in-
one-shard skew.  A concurrency stress section hammers a process-sharded
matcher from many caller threads and asserts the merge stays
deterministic.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import MatchingError
from repro.events import Event, EventBatch
from repro.matching.counting import CountingMatcher
from repro.matching.sharded import ShardedMatcher, shard_of
from repro.subscriptions.builder import P
from repro.subscriptions.subscription import Subscription

from tests import strategies

#: Churn op codes drawn by the properties below (register twice as
#: likely, like the batch-equivalence suite).
_OPS = ["register", "register", "replace", "unregister"]

SHARD_COUNTS = [1, 2, 3, 8]
EXECUTORS = ["serial", "processes"]


def churn_ops():
    """A random churn history: (op, tree) pairs."""
    return st.lists(
        st.tuples(st.sampled_from(_OPS), strategies.trees()),
        min_size=1,
        max_size=10,
    )


def apply_churn(ops, *matchers):
    """Apply ``ops`` to every matcher in lockstep (ids never recycled)."""
    next_id = 0
    live = []
    for op, tree in ops:
        if op == "register" or not live:
            subscription = Subscription(next_id, tree)
            next_id += 1
            live.append(subscription.id)
            for matcher in matchers:
                matcher.register(subscription)
        elif op == "replace":
            target = live[len(live) // 2]
            replacement = Subscription(target, tree)
            for matcher in matchers:
                matcher.replace(replacement)
        else:
            target = live.pop()
            for matcher in matchers:
                matcher.unregister(target)


def counters(stats):
    """The path-independent counter tuple (wall clock excluded)."""
    return (
        stats.events,
        stats.matches,
        stats.candidates,
        stats.tree_evaluations,
        stats.fulfilled_predicates,
    )


class _AllOnShardZero(ShardedMatcher):
    """Worst-case skew: every subscription routed to shard 0."""

    def shard_of(self, subscription_id: int) -> int:
        return 0


@pytest.mark.parametrize("shards", SHARD_COUNTS)
@pytest.mark.parametrize("executor", EXECUTORS)
@given(ops=churn_ops(), events=st.lists(strategies.events(), max_size=8))
@settings(max_examples=20, deadline=None)
def test_sharded_equals_unsharded_and_oracle(shards, executor, ops, events):
    sharded = ShardedMatcher(shards, executor=executor)
    plain = CountingMatcher()
    apply_churn(ops, sharded, plain)
    try:
        batch = EventBatch(events)
        assert sharded.match_batch(batch) == plain.match_batch(batch)
        assert counters(sharded.statistics) == counters(plain.statistics)
        # The per-event oracle, through both single-event entry points.
        oracle = [plain.match(event) for event in events]
        assert [sharded.match(event) for event in events] == oracle
        assert counters(sharded.statistics) == counters(plain.statistics)
        assert sharded.subscriptions() == plain.subscriptions()
        assert sharded.entry_count == plain.entry_count
        assert sharded.tree_slot_count == plain.tree_slot_count
        assert sharded.negated_entry_count == plain.negated_entry_count
    finally:
        sharded.close()


@pytest.mark.parametrize("executor", EXECUTORS)
@given(ops=churn_ops(), events=st.lists(strategies.events(), max_size=6))
@settings(max_examples=15, deadline=None)
def test_all_subscriptions_on_one_shard_skew(executor, ops, events):
    """Results survive total load-balance failure (everything on shard 0)."""
    skewed = _AllOnShardZero(4, executor=executor)
    plain = CountingMatcher()
    apply_churn(ops, skewed, plain)
    try:
        populations = skewed.shard_populations
        assert populations[1:] == [0, 0, 0]
        assert populations[0] == plain.subscription_count
        assert skewed.match_batch(events) == plain.match_batch(events)
        assert counters(skewed.statistics) == counters(plain.statistics)
    finally:
        skewed.close()


@given(ops=churn_ops(), events=st.lists(strategies.events(), max_size=6))
@settings(max_examples=15, deadline=None)
def test_more_shards_than_subscriptions(ops, events):
    """Mostly-empty shards contribute empty lists and zero counters."""
    sharded = ShardedMatcher(8, executor="serial")
    plain = CountingMatcher()
    apply_churn(ops[:3], sharded, plain)
    assert sharded.match_batch(events) == plain.match_batch(events)
    assert counters(sharded.statistics) == counters(plain.statistics)


@given(ops=churn_ops(), events=st.lists(strategies.events(), max_size=6))
@settings(max_examples=15, deadline=None)
def test_compaction_inside_shards_is_invisible(ops, events):
    """Explicit per-shard rebuild() never changes match results."""
    sharded = ShardedMatcher(3, executor="serial")
    plain = CountingMatcher()
    apply_churn(ops, sharded, plain)
    before = sharded.match_batch(events)
    sharded.rebuild()
    assert sharded.match_batch(events) == before == plain.match_batch(events)


def test_shard_routing_is_stable_and_balanced():
    """Sequential ids (the allocator's pattern) spread across all shards."""
    populations = [0] * 8
    for sub_id in range(256):
        assert shard_of(sub_id, 8) == shard_of(sub_id, 8)
        populations[shard_of(sub_id, 8)] += 1
    # splitmix64 mixing: every shard populated, no shard starved (the
    # exact split is deterministic — seed-free — so this cannot flake).
    assert min(populations) >= 16
    assert sum(populations) == 256


def test_replace_keeps_the_subscription_on_its_shard():
    matcher = ShardedMatcher(4, executor="serial")
    matcher.register(Subscription(11, P("a") == 1))
    home = matcher.shard_of(11)
    before = matcher.shard_populations
    matcher.replace(Subscription(11, P("a") >= 5))
    assert matcher.shard_populations == before
    assert matcher.shards[home].subscriptions()[11].tree is not None


def test_replace_with_identical_tree_is_a_noop_equivalent():
    tree = P("a") <= 3
    matcher = ShardedMatcher(4, executor="serial")
    plain = CountingMatcher()
    for engine in (matcher, plain):
        engine.register(Subscription(2, tree))
        engine.replace(Subscription(2, tree))
    events = [Event({"a": value}) for value in (1, 3, 7)]
    assert matcher.match_batch(events) == plain.match_batch(events)


def test_unknown_and_duplicate_ids_raise_from_the_owning_shard():
    matcher = ShardedMatcher(4, executor="serial")
    with pytest.raises(MatchingError):
        matcher.unregister(99)  # id hashed to an empty shard
    matcher.register(Subscription(1, P("a") == 1))
    with pytest.raises(MatchingError):
        matcher.register(Subscription(1, P("a") == 2))
    with pytest.raises(MatchingError):
        matcher.replace(Subscription(7, P("a") == 2))


def test_invalid_configuration_rejected():
    with pytest.raises(MatchingError):
        ShardedMatcher(0)
    with pytest.raises(MatchingError):
        ShardedMatcher(2, executor="fibers")
    with pytest.raises(MatchingError):
        ShardedMatcher(2, executor="threads")
    with ThreadPoolExecutor(max_workers=1) as pool:
        with pytest.raises(MatchingError):
            ShardedMatcher(2, executor=pool)


def test_out_of_range_shard_routing_rejected():
    class Broken(ShardedMatcher):
        def shard_of(self, subscription_id: int) -> int:
            return 17

    with pytest.raises(MatchingError):
        Broken(2, executor="serial").register(Subscription(1, P("a") == 1))


def test_owned_executor_close_is_idempotent_and_recoverable():
    matcher = ShardedMatcher(2, executor="processes")
    matcher.register(Subscription(1, P("a") == 1))
    matcher.register(Subscription(2, P("a") >= 0))
    events = [Event({"a": 1})]
    assert matcher.match_batch(events) == [[1, 2]]
    matcher.close()
    matcher.close()
    # A fresh pool is built lazily on the next batch.
    with matcher:
        assert matcher.match_batch(events) == [[1, 2]]


def test_statistics_reset_only_touches_the_aggregate():
    """Resetting the facade's counters must not corrupt later deltas."""
    sharded = ShardedMatcher(3, executor="serial")
    plain = CountingMatcher()
    for sub_id in range(9):
        subscription = Subscription(sub_id, P("a") <= sub_id)
        sharded.register(subscription)
        plain.register(subscription)
    events = [Event({"a": sub_id % 5}) for sub_id in range(12)]
    sharded.match_batch(events)
    plain.match_batch(events)
    sharded.statistics.reset()
    plain.statistics.reset()
    assert sharded.match_batch(events) == plain.match_batch(events)
    assert counters(sharded.statistics) == counters(plain.statistics)


# -- concurrency stress -------------------------------------------------------


def test_threaded_matching_is_deterministic_under_hammering(
    workload, auction_subscriptions, auction_events
):
    """Many caller threads, one process-sharded matcher: every result
    identical.

    The merge contract (shard-order collection + stable sort of merged
    id lists) makes a pooled run indistinguishable from a serial one,
    however calls interleave; 32 concurrent ``match_batch`` calls must
    all equal the unsharded reference, and repeating the same batch must
    reproduce the same lists (seeded workload, so this is end-to-end
    reproducible).
    """
    plain = CountingMatcher()
    with ShardedMatcher(4, executor="processes") as sharded:
        for subscription in auction_subscriptions:
            plain.register(subscription)
            sharded.register(subscription)
        batch = EventBatch(auction_events.events[:128])
        expected = plain.match_batch(batch)
        assert sharded.match_batch(batch) == expected
        with ThreadPoolExecutor(max_workers=4) as callers:
            futures = [
                callers.submit(sharded.match_batch, batch) for _ in range(32)
            ]
            results = [future.result() for future in futures]
        assert all(result == expected for result in results)
        # Seeded reproducibility: the same batch twice, bit-identical.
        assert sharded.match_batch(batch) == sharded.match_batch(batch)
        # Call-granularity atomicity: 32 + 3 batch calls, every counter
        # exactly (35 ×) the single-pass reference's.
        single = counters(plain.statistics)
        aggregate = counters(sharded.statistics)
        assert aggregate == tuple(value * 35 for value in single)


def test_threaded_churn_between_hammering_rounds(workload):
    """Churn from the caller thread between rounds stays serialized."""
    subscriptions = workload.generate_subscriptions(60)
    events = workload.generate_events(64)
    plain = CountingMatcher()
    with ShardedMatcher(3, executor="processes") as sharded:
        for subscription in subscriptions:
            plain.register(subscription)
            sharded.register(subscription)
        for round_index in range(3):
            expected = plain.match_batch(events)
            with ThreadPoolExecutor(max_workers=3) as callers:
                results = list(
                    callers.map(
                        lambda _: sharded.match_batch(events), range(6)
                    )
                )
            assert all(result == expected for result in results)
            victim = subscriptions[round_index].id
            plain.unregister(victim)
            sharded.unregister(victim)
        assert plain.match_batch(events) == sharded.match_batch(events)


# -- process executor lifecycle ----------------------------------------------


def test_process_pool_restart_replays_the_table(workload):
    """close() + next match rebuilds workers from the authority tables.

    This is the broker restart/migration path: the subscription log is
    re-seeded with the full table and drained into the fresh pool, so
    results (and counters) are as if the pool had never died.
    """
    subscriptions = workload.generate_subscriptions(40)
    events = workload.generate_events(48)
    plain = CountingMatcher()
    with ShardedMatcher(3, executor="processes") as sharded:
        for subscription in subscriptions:
            plain.register(subscription)
            sharded.register(subscription)
        expected = plain.match_batch(events)
        assert sharded.match_batch(events) == expected
        sharded.close()  # pool gone; matcher still usable
        assert sharded.match_batch(events) == expected
        # Churn against a *stopped* pool lands in the tables only and
        # must still be replayed correctly into the next pool.
        sharded.close()
        victim = subscriptions[0].id
        plain.unregister(victim)
        sharded.unregister(victim)
        assert sharded.match_batch(events) == plain.match_batch(events)


def test_process_executor_recovers_from_killed_workers(workload):
    """Dead workers are healed *inside* the failing call: the pool is
    torn down, the tables replay into fresh workers, and the same
    ``match_batch`` answers correctly (the crash is only visible in the
    health report)."""
    subscriptions = workload.generate_subscriptions(20)
    events = workload.generate_events(16)
    plain = CountingMatcher()
    with ShardedMatcher(2, executor="processes") as sharded:
        for subscription in subscriptions:
            plain.register(subscription)
            sharded.register(subscription)
        expected = plain.match_batch(events)
        assert sharded.match_batch(events) == expected
        for process in sharded._pool._processes:
            process.terminate()
            process.join(5.0)
        assert sharded.match_batch(events) == expected
        health = sharded.health_report()
        assert health.executor == "processes"
        assert not health.degraded
        assert health.crashes >= 1
        assert health.rebuilds >= 1


def test_process_executor_raises_with_breaker_disabled(workload):
    """``crash_loop_threshold=None`` restores the old contract: a dead
    worker fails the in-flight call, and the *next* call heals."""
    subscriptions = workload.generate_subscriptions(20)
    events = workload.generate_events(16)
    plain = CountingMatcher()
    with ShardedMatcher(
        2, executor="processes", crash_loop_threshold=None
    ) as sharded:
        for subscription in subscriptions:
            plain.register(subscription)
            sharded.register(subscription)
        expected = plain.match_batch(events)
        assert sharded.match_batch(events) == expected
        for process in sharded._pool._processes:
            process.terminate()
            process.join(5.0)
        with pytest.raises(MatchingError):
            sharded.match_batch(events)
        # The failed call tore the pool down; the next one replays the
        # tables into fresh workers and answers correctly again.
        assert sharded.match_batch(events) == expected
        assert sharded.health_report().crashes == 1


#: Introspection queries that reach the workers, read off any matcher.
_INTROSPECTIONS = {
    "entry_count": lambda matcher, event: matcher.entry_count,
    "tree_slot_count": lambda matcher, event: matcher.tree_slot_count,
    "negated_entry_count": lambda matcher, event: matcher.negated_entry_count,
    "fulfilled_counts": lambda matcher, event: matcher.fulfilled_counts(event),
}


def _killed_while_idle(workload, **options):
    """A two-shard process matcher whose first busy worker died between
    requests, next to the unsharded engine over the same table."""
    subscriptions = workload.generate_subscriptions(8)
    events = workload.generate_events(4)
    plain = CountingMatcher()
    sharded = ShardedMatcher(2, executor="processes", **options)
    for subscription in subscriptions:
        plain.register(subscription)
        sharded.register(subscription)
    assert sharded.match_batch(events) == plain.match_batch(events)
    sharded._pool.kill_worker(sharded.shard_of(subscriptions[0].id))
    return sharded, plain, events.events[0]


@pytest.mark.parametrize("query", sorted(_INTROSPECTIONS))
def test_introspection_heals_a_worker_killed_while_idle(workload, query):
    """Introspection heals a dead worker the way ``match_batch`` does:
    the pool is rebuilt inside the call, and the answer is the
    unsharded engine's."""
    read = _INTROSPECTIONS[query]
    sharded, plain, probe = _killed_while_idle(workload)
    with sharded:
        assert read(sharded, probe) == read(plain, probe)
        health = sharded.health_report()
        assert health.executor == "processes"
        assert health.crashes == 1
        assert health.rebuilds == 1


@pytest.mark.parametrize("query", sorted(_INTROSPECTIONS))
def test_introspection_raises_with_breaker_disabled(workload, query):
    """``crash_loop_threshold=None``: a dead worker fails the
    introspection call, and the next call heals."""
    read = _INTROSPECTIONS[query]
    sharded, plain, probe = _killed_while_idle(
        workload, crash_loop_threshold=None
    )
    with sharded:
        with pytest.raises(MatchingError):
            read(sharded, probe)
        assert read(sharded, probe) == read(plain, probe)


def test_process_executor_leaves_no_shared_segments(workload):
    """Every packed batch is released, even across close/restart."""
    from repro.matching.shm import live_segment_names

    subscriptions = workload.generate_subscriptions(30)
    events = workload.generate_events(512)  # large: forces segment mode
    with ShardedMatcher(2, executor="processes") as sharded:
        for subscription in subscriptions:
            sharded.register(subscription)
        sharded.match_batch(events)
        assert live_segment_names() == ()
        sharded.close()
        sharded.match_batch(events)
        assert live_segment_names() == ()
    assert live_segment_names() == ()


def test_process_executor_rebuild_and_introspection(workload):
    """rebuild() on live replicas stays invisible; counts match remote."""
    subscriptions = workload.generate_subscriptions(25)
    events = workload.generate_events(32)
    plain = CountingMatcher()
    with ShardedMatcher(3, executor="processes") as sharded:
        for subscription in subscriptions:
            plain.register(subscription)
            sharded.register(subscription)
        before = sharded.match_batch(events)
        sharded.rebuild()
        plain.rebuild()
        assert sharded.match_batch(events) == before == plain.match_batch(events)
        assert sharded.entry_count == plain.entry_count
        assert sharded.tree_slot_count == plain.tree_slot_count
        assert sharded.negated_entry_count == plain.negated_entry_count
        probe = events.events[0]
        assert sharded.fulfilled_counts(probe) == plain.fulfilled_counts(probe)
        assert sum(sharded.shard_populations) == plain.subscription_count


def test_measure_matching_with_process_shards(workload):
    """The experiment helper measures identically through worker processes."""
    from repro.experiments.measurements import measure_matching

    subscriptions = workload.generate_subscriptions(40)
    events = workload.generate_events(32)
    _seconds, fraction, matcher = measure_matching(
        subscriptions, events, shards=2, executor="processes"
    )
    with matcher:
        _plain_seconds, plain_fraction, plain = measure_matching(
            subscriptions, events
        )
        assert fraction == plain_fraction
        assert counters(matcher.statistics) == counters(plain.statistics)


def test_measure_matching_with_shards(workload):
    """The experiment helper accepts shards= and measures identically."""
    from repro.experiments.measurements import measure_matching

    subscriptions = workload.generate_subscriptions(40)
    events = workload.generate_events(32)
    _seconds, fraction, matcher = measure_matching(
        subscriptions, events, shards=3, executor="serial"
    )
    assert isinstance(matcher, ShardedMatcher)
    _plain_seconds, plain_fraction, plain = measure_matching(
        subscriptions, events
    )
    assert isinstance(plain, CountingMatcher)
    assert fraction == plain_fraction
    assert counters(matcher.statistics) == counters(plain.statistics)
